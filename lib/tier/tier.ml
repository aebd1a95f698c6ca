(** Tiered execution manager (see the interface for the model).

    Implementation shape: one [fstate] per function, holding the
    installed code version (decoded body + tier + deopt set + cache
    key) and the decoded tier-0 body a demotion returns to, the
    invocation counter, and at most one desired next version.  Every
    recompile targets tier 2, so a version is named by its deopt set
    alone.  The desired version lives in two fields: [fs_goal] ("we
    want this deopt set but have not managed to submit it") and
    [fs_pending] ("a compile toward this deopt set is in flight", one
    {!Svc.future} in both modes).  Every [dispatch] of the function
    advances that little state machine non-blockingly: poll/install a
    completed pending compile, retry a submission the queue refused,
    trigger a promotion when the counter crosses the threshold.
    [on_trap] is the only other writer: at a site's first trap it
    demotes immediately (the tier-0 body is always resident) and
    replaces the goal with the deoptimized version — which also marks
    any in-flight compile stale, so [poll] drops it instead of
    installing it (no lost updates: the stale artifact never overwrites
    the newer deopt decision).

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

(* Every recompile targets tier 2; tier 1 is reserved. *)
let top_tier = 2

type pending = {
  pd_deopt : Ir.site list;
  pd_submitted : float;  (* when the recompile was handed over; the
                            install latency histogram measures from
                            here to installation *)
  pd_future : Svc.future;  (* already complete in synchronous mode;
                              installed at a call boundary either way *)
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
                                         artifact; None = tier 0 *)
  mutable fs_calls : int;
  mutable fs_goal : Ir.site list option;
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
  arch : Arch.t;
  promote_at : int;                   (* calls before promotion, >= 1 *)
  submit : Ir.site list -> Svc.future option;
      (* the tier-2 recompile with this deopt set: through the pool's
         non-blocking front door ([None] = the queue refused it), or
         without a pool a future the serial path completed *)
  cache : Svc.cache option;
  p0 : Ir.program;                    (* tier-0 compiled program *)
  tbl : (string, fstate) Hashtbl.t;
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
}

(* Install latency spans five decades: a cached synchronous install is
   tens of microseconds, a queued cold compile behind a saturated pool
   can take seconds. *)
let install_buckets = Metrics.log_buckets ~lo:1e-5 ~hi:10. ~per_decade:5

let create ?svc ?cache ?(config = Config.new_full) ?metrics
    ?(recorder = Recorder.global) ?(tenant = -1) ~arch program =
  let cache =
    match cache with Some _ -> cache | None -> Option.bind svc Svc.cache
  in
  let submit deopt =
    let job = Svc.job ~tier:top_tier ~deopt ~config ~arch program in
    match svc with
    | Some svc -> Svc.recompile_async svc ~tenant job
    | None -> Some (Svc.completed (List.hd (Svc.compile_serial ?cache [ job ])))
  in
  (* tier 0 bypasses the cache: a fresh program's tier-0 key never
     hits, and digesting it costs as much as the compile *)
  let c0 = Compiler.compile ~tier:0 config ~arch program in
  {
    arch;
    promote_at = max 1 config.Config.promote_calls;
    submit;
    cache;
    p0 = c0.Compiler.program;
    tbl = Hashtbl.create 64;
    arts = [ (0, c0) ];
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
  fs.fs_tier <- top_tier;
  fs.fs_deopt <- pd.pd_deopt;
  fs.fs_key <- Some oc.Svc.oc_key;
  t.arts <- (top_tier, oc.Svc.oc_compiled) :: t.arts;
  t.c_installs <- t.c_installs + 1;
  if prev_tier = 0 then t.c_promotions <- t.c_promotions + 1;
  t.c_recompile <- t.c_recompile +. oc.Svc.oc_seconds;
  (* the install event joins the *compile request's* causal timeline
     (the outcome's context carries the request id the service minted at
     submission), so a per-request slice shows enqueue → start → done →
     the promotion it paid for *)
  Recorder.record ~ctx:oc.Svc.oc_ctx ~a:top_tier
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
  | Some deopt, None -> (
    let submitted = Clock.now () in
    match t.submit deopt with
    | Some fut ->
      fs.fs_pending <-
        Some { pd_deopt = deopt; pd_submitted = submitted; pd_future = fut };
      fs.fs_goal <- None;
      t.c_submitted <- t.c_submitted + 1
    | None -> t.c_queue_full <- t.c_queue_full + 1)
  | _ -> ()

(* Non-blocking: if the pending compile has finished, install it —
   unless a deopt decided on a newer version meanwhile ([fs_goal] is
   set again), in which case the stale artifact is dropped and its
   cache entry invalidated. *)
let poll_install t fs =
  match fs.fs_pending with
  | None -> ()
  | Some pd -> (
    match Svc.poll pd.pd_future with
    | None -> ()
    | Some oc ->
      fs.fs_pending <- None;
      if fs.fs_goal = None then install t fs pd oc
      else invalidate t oc.Svc.oc_key)

(* Hotness promotion happens once: a function that is past tier 0, has
   a version wanted or in flight, or has deopted has been promoted. *)
let promoted fs =
  fs.fs_tier <> 0 || fs.fs_goal <> None || fs.fs_pending <> None
  || fs.fs_deopt <> []

let dispatch t name : Interp.decoded * int =
  let fs = fstate t name in
  poll_install t fs;
  try_submit t fs;
  fs.fs_calls <- fs.fs_calls + 1;
  if fs.fs_calls >= t.promote_at && not (promoted fs) then begin
    fs.fs_goal <- Some [];
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
    || match fs.fs_goal with Some d -> List.mem site d | None -> false
  in
  if not requested then begin
    (* The bet lost at this site.  Fall back to the always-sound tier-0
       body right now — the *next* call executes explicit checks, so
       the trap cannot storm while the deoptimized variant compiles —
       and request tier 2 with the accumulated losing sites
       re-materialized. *)
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
    fs.fs_goal <- Some fs.fs_deopt;
    try_submit t fs
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
    | Some pd -> ignore (Svc.await pd.pd_future)
    | None when fs.fs_goal <> None ->
      Domain.cpu_relax (); (* queue full; workers are draining it *)
      settle_one fs
    | None -> ()
  in
  Hashtbl.iter (fun _ fs -> settle_one fs) t.tbl

(* Each round settles every compile in flight and installs (or drops as
   stale) what completed, as the functions' next call boundaries would;
   a stale drop leaves its goal for the next round. *)
let rec drain t =
  settle t;
  Hashtbl.iter (fun _ fs -> poll_install t fs) t.tbl;
  if
    Hashtbl.fold
      (fun _ fs busy -> busy || fs.fs_goal <> None || fs.fs_pending <> None)
      t.tbl false
  then drain t

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

(* [f] of a function's state, [none] if it was never dispatched *)
let query t name ~none f = Option.fold ~none ~some:f (Hashtbl.find_opt t.tbl name)
let tier_of t name = query t name ~none:0 (fun fs -> fs.fs_tier)
let deopt_sites t name = query t name ~none:[] (fun fs -> fs.fs_deopt)
let installed_key t name = query t name ~none:None (fun fs -> fs.fs_key)
let artifacts t = List.rev t.arts
