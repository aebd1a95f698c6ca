(** Tiered execution manager (see the interface for the model).

    Implementation shape: one [fstate] per function, holding the
    installed code version (decoded body + tier + deopt set + cache
    key) and the decoded tier-0 body a demotion returns to, the
    invocation counter, and at most one desired next version.  The
    desired version lives in two fields: [fs_goal] ("we want this
    version but have not managed to submit it") and [fs_pending] ("a
    compile toward this version is in flight").  Every [dispatch] of
    the function advances that little state machine non-blockingly:
    poll/install a completed pending compile, retry a submission the
    queue refused, trigger a promotion when the counter crosses the
    threshold.  [on_trap] is the only other writer: it demotes
    immediately (the tier-0 body is always resident) and replaces the
    goal with the deoptimized version — which also marks any in-flight
    compile stale, so [poll] drops it instead of installing it
    (no lost updates: the stale artifact never overwrites the newer
    deopt decision).

    Everything runs on the serving thread except the compiles
    themselves; no locks are needed because the interpreter is
    single-threaded and the pool communicates only through
    [Svc.future]. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module Svc = Nullelim_svc.Svc
module Codecache = Nullelim_svc.Codecache
module Interp = Nullelim_vm.Interp
module Value = Nullelim_vm.Value
module Metrics = Nullelim_obs.Metrics
module Recorder = Nullelim_obs.Recorder
module Clock = Nullelim_obs.Clock

type pending = {
  pd_tier : int;
  pd_deopt : Ir.site list;
  pd_submitted : float;  (* when the recompile was handed over; the
                            install latency histogram measures from
                            here to installation *)
  pd_state : [ `Ready of Svc.outcome | `Future of Svc.future ];
      (** [`Ready] in synchronous mode: compiled at submission time,
          installed at the next call boundary, so sync and async modes
          share the install-at-boundary semantics *)
}

type fstate = {
  fs_name : string;
  fs_code0 : Interp.decoded;          (* the tier-0 body, decoded at the
                                         first dispatch *)
  mutable fs_code : Interp.decoded;   (* installed body, decoded when
                                         installed *)
  mutable fs_tier : int;
  mutable fs_deopt : Ir.site list;    (* sorted; sites gone explicit *)
  mutable fs_key : string option;     (* cache key of the installed
                                         artifact; None = initial tier 0 *)
  mutable fs_calls : int;
  mutable fs_promoted : bool;         (* hotness promotion already decided *)
  mutable fs_goal : (int * Ir.site list) option;
  mutable fs_pending : pending option;
}

type stats = {
  st_promotions : int;
  st_demotions : int;
  st_deopts : int;
  st_installs : int;
  st_submitted : int;
  st_queue_full : int;
  st_traps : int;
  st_recompile_seconds : float;
}

type t = {
  program : Ir.program;               (* the input program; jobs copy it *)
  arch : Arch.t;
  cfg : Config.t;                     (* the tier-2 target *)
  svc : Svc.t option;
  cache : Svc.cache option;
  p0 : Ir.program;                    (* tier-0 compiled program *)
  tbl : (string, fstate) Hashtbl.t;
  site_traps : (int, int) Hashtbl.t;  (* per-site trap counts (sites are
                                         program-unique) *)
  mutable arts : (int * Compiler.compiled) list; (* reverse compile order *)
  mutable c_promotions : int;
  mutable c_demotions : int;
  mutable c_deopts : int;
  mutable c_installs : int;
  mutable c_submitted : int;
  mutable c_queue_full : int;
  mutable c_traps : int;
  mutable c_recompile : float;
  tm : Metrics.t option;   (* install-latency histograms land here *)
  trec : Recorder.t;
  tenant : int;            (* tenant attributed to this manager's
                              recompiles; -1 = untenanted *)
}

(* Install latency spans five decades: a cached synchronous install is
   tens of microseconds, a queued cold compile behind a saturated pool
   can take seconds. *)
let install_buckets = Metrics.log_buckets ~lo:1e-5 ~hi:10. ~per_decade:5

let create ?svc ?cache ?(config = Config.new_full) ?metrics
    ?(recorder = Recorder.global) ?(tenant = -1) ~arch program =
  let cache =
    match (cache, svc) with
    | (Some _ as c), _ -> c
    | None, Some s -> Svc.cache s
    | None, None -> None
  in
  let cfg0 = Config.tier0 config in
  let job0 = Svc.job ~tier:0 ~config:cfg0 ~arch program in
  let oc0 = List.hd (Svc.compile_serial ?cache [ job0 ]) in
  {
    program;
    arch;
    cfg = config;
    svc;
    cache;
    p0 = oc0.Svc.oc_compiled.Compiler.program;
    tbl = Hashtbl.create 64;
    site_traps = Hashtbl.create 64;
    arts = [ (0, oc0.Svc.oc_compiled) ];
    c_promotions = 0;
    c_demotions = 0;
    c_deopts = 0;
    c_installs = 0;
    c_submitted = 0;
    c_queue_full = 0;
    c_traps = 0;
    c_recompile = 0.;
    tm = metrics;
    trec = recorder;
    tenant;
  }

let fstate t name =
  match Hashtbl.find_opt t.tbl name with
  | Some fs -> fs
  | None ->
    let code0 = Interp.decode ~arch:t.arch (Ir.find_func t.p0 name) in
    let fs =
      {
        fs_name = name;
        fs_code0 = code0;
        fs_code = code0;
        fs_tier = 0;
        fs_deopt = [];
        fs_key = None;
        fs_calls = 0;
        fs_promoted = false;
        fs_goal = None;
        fs_pending = None;
      }
    in
    Hashtbl.add t.tbl name fs;
    fs

let invalidate t key =
  match t.cache with
  | Some c -> ignore (Codecache.remove c key)
  | None -> ()

(* Install a completed compile as [fs]'s current version and invalidate
   the version it supersedes. *)
let install t fs (pd : pending) (oc : Svc.outcome) =
  let prev_tier = fs.fs_tier and prev_key = fs.fs_key in
  fs.fs_code <-
    Interp.decode ~arch:t.arch
      (Ir.find_func oc.Svc.oc_compiled.Compiler.program fs.fs_name);
  fs.fs_tier <- pd.pd_tier;
  fs.fs_deopt <- pd.pd_deopt;
  fs.fs_key <- Some oc.Svc.oc_key;
  t.arts <- (pd.pd_tier, oc.Svc.oc_compiled) :: t.arts;
  t.c_installs <- t.c_installs + 1;
  if prev_tier = 0 && pd.pd_tier > 0 then
    t.c_promotions <- t.c_promotions + 1;
  t.c_recompile <- t.c_recompile +. oc.Svc.oc_seconds;
  (* the install event joins the *compile request's* causal timeline
     (the outcome's context carries the request id the service minted at
     submission), so a per-request slice shows enqueue → start → done →
     the promotion it paid for *)
  Recorder.record ~ctx:oc.Svc.oc_ctx ~a:pd.pd_tier
    ~b:(List.length pd.pd_deopt)
    t.trec Recorder.Tier_promote;
  (match t.tm with
  | Some m ->
    (* submission → installation, i.e. how long the function kept
       running the old version after the decision was made *)
    let kind = if pd.pd_deopt <> [] then "deopt" else "promote" in
    Metrics.observe
      (Metrics.histogram m ~buckets:install_buckets
         ~labels:[ ("kind", kind) ]
         "tier_install_seconds")
      (Clock.now () -. pd.pd_submitted)
  | None -> ());
  match prev_key with
  | Some k when k <> oc.Svc.oc_key -> invalidate t k
  | _ -> ()

(* Submit [fs]'s goal version if there is one and nothing is in
   flight.  Never blocks: a full queue just leaves the goal in place
   for the next call boundary. *)
let try_submit t fs =
  match (fs.fs_goal, fs.fs_pending) with
  | Some (tier, deopt), None -> (
    let job = Svc.job ~tier ~deopt ~config:t.cfg ~arch:t.arch t.program in
    let submitted = Clock.now () in
    match t.svc with
    | None ->
      let oc = List.hd (Svc.compile_serial ?cache:t.cache [ job ]) in
      fs.fs_pending <-
        Some { pd_tier = tier; pd_deopt = deopt; pd_submitted = submitted;
               pd_state = `Ready oc };
      fs.fs_goal <- None;
      t.c_submitted <- t.c_submitted + 1
    | Some svc -> (
      match Svc.recompile_async svc ~tenant:t.tenant job with
      | Some fut ->
        fs.fs_pending <-
          Some { pd_tier = tier; pd_deopt = deopt; pd_submitted = submitted;
                 pd_state = `Future fut };
        fs.fs_goal <- None;
        t.c_submitted <- t.c_submitted + 1
      | None -> t.c_queue_full <- t.c_queue_full + 1))
  | _ -> ()

(* Non-blocking: if the pending compile has finished, install it —
   unless a deopt decided on a newer version meanwhile ([fs_goal] is
   set again), in which case the stale artifact is dropped and its
   cache entry invalidated. *)
let poll_install t fs =
  match fs.fs_pending with
  | None -> ()
  | Some pd -> (
    let done_ =
      match pd.pd_state with
      | `Ready oc -> Some oc
      | `Future fut -> Svc.poll fut
    in
    match done_ with
    | None -> ()
    | Some oc ->
      fs.fs_pending <- None;
      if fs.fs_goal = None then install t fs pd oc
      else invalidate t oc.Svc.oc_key)

let dispatch t name : Interp.decoded * int =
  let fs = fstate t name in
  poll_install t fs;
  try_submit t fs;
  fs.fs_calls <- fs.fs_calls + 1;
  if
    (not fs.fs_promoted)
    && fs.fs_tier = 0
    && fs.fs_goal = None
    && fs.fs_pending = None
    && fs.fs_calls >= max 1 t.cfg.Config.promote_calls
  then begin
    fs.fs_promoted <- true;
    fs.fs_goal <- Some (2, fs.fs_deopt);
    try_submit t fs
  end;
  (fs.fs_code, fs.fs_tier)

let on_trap t ~func ~site =
  t.c_traps <- t.c_traps + 1;
  let fs = fstate t func in
  Recorder.record ~a:site ~b:fs.fs_tier t.trec Recorder.Trap_fired;
  let requested =
    List.mem site fs.fs_deopt
    || (match fs.fs_pending with
       | Some pd -> List.mem site pd.pd_deopt
       | None -> false)
    || match fs.fs_goal with
       | Some (_, d) -> List.mem site d
       | None -> false
  in
  if not requested then begin
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.site_traps site) in
    Hashtbl.replace t.site_traps site n;
    if n >= max 1 t.cfg.Config.deopt_traps then begin
      (* The bet lost at this site.  Fall back to the always-sound
         tier-0 body right now — the *next* call executes explicit
         checks, so the trap cannot storm while the deoptimized
         variant compiles — and request tier 2 with the accumulated
         losing sites re-materialized. *)
      if fs.fs_tier <> 0 then begin
        Recorder.record ~a:site ~b:fs.fs_tier t.trec Recorder.Tier_demote;
        fs.fs_code <- fs.fs_code0;
        fs.fs_tier <- 0;
        t.c_demotions <- t.c_demotions + 1;
        (match fs.fs_key with Some k -> invalidate t k | None -> ());
        fs.fs_key <- None
      end;
      fs.fs_deopt <- List.sort_uniq compare (site :: fs.fs_deopt);
      t.c_deopts <- t.c_deopts + 1;
      fs.fs_promoted <- true;
      fs.fs_goal <- Some (2, fs.fs_deopt);
      try_submit t fs
    end
  end

let run ?fuel ?metrics ?profile t args =
  Interp.run ?fuel ?metrics ?profile
    ~dispatch:(fun name -> dispatch t name)
    ~on_trap:(fun ~func ~site -> on_trap t ~func ~site)
    ~arch:t.arch t.p0 args

let settle t =
  let rec settle_one fs =
    try_submit t fs;
    match fs.fs_pending with
    | Some { pd_state = `Future fut; _ } ->
      (* a sanctioned blocking point like [drain] *)
      ignore (Svc.await fut)
    | Some _ -> ()
    | None when fs.fs_goal <> None ->
      Domain.cpu_relax (); (* queue full; workers are draining it *)
      settle_one fs
    | None -> ()
  in
  if t.svc <> None then Hashtbl.iter (fun _ fs -> settle_one fs) t.tbl

let drain t =
  let drain_one _ fs =
    let continue_ = ref true in
    while !continue_ do
      try_submit t fs;
      match fs.fs_pending with
      | Some pd ->
        let oc =
          match pd.pd_state with
          | `Ready oc -> oc
          | `Future fut ->
            (* a sanctioned blocking point: not part of the serving
               path *)
            Svc.await fut
        in
        fs.fs_pending <- None;
        if fs.fs_goal = None then install t fs pd oc
        else invalidate t oc.Svc.oc_key
      | None ->
        if fs.fs_goal = None then continue_ := false
        else Domain.cpu_relax () (* queue full; workers are draining it *)
    done
  in
  Hashtbl.iter drain_one t.tbl

let stats t =
  {
    st_promotions = t.c_promotions;
    st_demotions = t.c_demotions;
    st_deopts = t.c_deopts;
    st_installs = t.c_installs;
    st_submitted = t.c_submitted;
    st_queue_full = t.c_queue_full;
    st_traps = t.c_traps;
    st_recompile_seconds = t.c_recompile;
  }

let tier_of t name =
  match Hashtbl.find_opt t.tbl name with Some fs -> fs.fs_tier | None -> 0

let deopt_sites t name =
  match Hashtbl.find_opt t.tbl name with
  | Some fs -> List.sort compare fs.fs_deopt
  | None -> []

let artifacts t = List.rev t.arts

let installed_key t name =
  match Hashtbl.find_opt t.tbl name with
  | Some fs -> fs.fs_key
  | None -> None
