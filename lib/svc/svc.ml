(** Parallel JIT compile service (see the interface for the contract).

    Shape: every request goes through one admission step on the
    submitting thread ([submit]): it digests the job's key and, with a
    cache, does the request's one lookup.  A hit completes right there
    as a ready {!future}.  A miss becomes a task carrying its key and
    its own result slot (a mutex, a condition and a result); worker
    domains loop on [Chan.pop], compile, install the artifact under the
    key and fill the slot.  A caller waiting on a slot takes tasks off
    the queue with [Chan.try_pop] and runs them through the same task
    body, and sleeps only once the queue is empty.  [compile_all]
    admits one job after another (blocking for queue room; with a
    cache, a repeated key waits for its first copy) and awaits the
    futures in job order;
    [recompile_async] hands its single future to the caller.  Because
    each request completes on its own, several [compile_all] calls can
    be in flight at once and tasks of different batches interleave
    freely on the pool. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module Recorder = Nullelim_obs.Recorder
module Metrics = Nullelim_obs.Metrics
module Ctx = Nullelim_obs.Ctx
module Clock = Nullelim_obs.Clock
module Solver = Nullelim_dataflow.Solver

type job = {
  jb_program : Ir.program;
  jb_config : Config.t;
  jb_arch : Arch.t;
  jb_tier : int;
  jb_deopt : Ir.site list;
}

let job ?(tier = -1) ?(deopt = []) ~config ~arch program =
  {
    jb_program = program;
    jb_config = config;
    jb_arch = arch;
    jb_tier = tier;
    jb_deopt = deopt;
  }

type outcome = {
  oc_job : job;
  oc_compiled : Compiler.compiled;
  oc_cache_hit : bool;
  oc_worker : int;
  oc_seconds : float;
  oc_queued_seconds : float;
  oc_done_at : float;
  oc_ctx : Ctx.t;
  oc_key : string;
}

type cache = Compiler.compiled Codecache.t

(* ------------------------------------------------------------------ *)
(* Content addressing                                                  *)
(* ------------------------------------------------------------------ *)

(* The key digests a canonical projection of the job read straight off
   the IR with {!Ir.structural_digest}, a generic walk over the value,
   so a new instruction constructor or function field is covered without
   editing this code.  The deopt set is sorted; the walk hashes values
   alone, not which of them happen to be physically shared.  An
   [Arch.t] holds closures and enters by name.  Instructions carry
   their check provenance sites, which flow into the artifact's
   decision log and profile ids. *)
let job_key (j : job) : string =
  let p = j.jb_program in
  Ir.structural_digest
    ( j.jb_arch.Arch.name,
      Config.semantic j.jb_config,
      j.jb_tier,
      List.sort_uniq Int.compare j.jb_deopt,
      p.Ir.prog_main,
      Ir.sorted_bindings String.compare p.Ir.classes,
      Ir.funcs_projection p )

(* ------------------------------------------------------------------ *)
(* Artifact sizing and cache construction                              *)
(* ------------------------------------------------------------------ *)

(* Bytes per IR node, fitted to the pretty-printed size of the
   optimized registry programs (the measure the 64 MiB default budget
   was sized against): over the seventeen workloads under the six
   Windows configurations this estimate is 0.93-1.05x the printed one,
   without printing anything. *)
let bytes_per_instr = 20
let bytes_per_block = 24 (* block header, region tag and terminator *)

let artifact_bytes (c : Compiler.compiled) : int =
  let program_bytes =
    Hashtbl.fold
      (fun _ f acc ->
        acc
        + (bytes_per_block * Ir.nblocks f)
        + (bytes_per_instr * Ir.instr_count f))
      c.Compiler.program.Ir.funcs 0
  in
  program_bytes + (64 * List.length c.Compiler.decisions) + 1024

let create_cache ?budget_bytes ?recorder () : cache =
  Codecache.create ?budget_bytes ?recorder ~size:artifact_bytes ()

(* ------------------------------------------------------------------ *)
(* Admission: one key and one lookup per request                       *)
(* ------------------------------------------------------------------ *)

(* What admission learned about a request on the submitting thread: its
   key, the artifact if the request's one lookup hit, how long the
   digest and lookup took (the first part of the request's service
   time) and when the lookup returned. *)
type admission = {
  ad_key : string;
  ad_hit : Compiler.compiled option;
  ad_seconds : float;
  ad_end : float;
}

(* The first half of admission: the request's one key digest, with the
   time it took. *)
let digest (j : job) : string * float =
  let t0 = Clock.now () in
  let key = job_key j in
  (key, Clock.now () -. t0)

(* The second half: with a cache, the request's one lookup.  It runs
   under the request's context, so the Cache_hit/Cache_miss event deep
   in {!Codecache} lands on the request's causal timeline. *)
let admit ?cache ~ctx ((key, digest_seconds) : string * float) : admission =
  let t0 = Clock.now () in
  let hit =
    match cache with
    | None -> None
    | Some c -> Ctx.with_current ctx (fun () -> Codecache.find c key)
  in
  let t1 = Clock.now () in
  { ad_key = key; ad_hit = hit; ad_seconds = digest_seconds +. (t1 -. t0);
    ad_end = t1 }

let outcome (j : job) (ad : admission) ~ctx ~worker ~queued_seconds ~hit
    compiled ~seconds ~done_at =
  {
    oc_job = j;
    oc_compiled = compiled;
    oc_cache_hit = hit;
    oc_worker = worker;
    oc_seconds = seconds;
    oc_queued_seconds = queued_seconds;
    oc_done_at = done_at;
    oc_ctx = ctx;
    oc_key = ad.ad_key;
  }

(* A request whose lookup hit is complete at admission. *)
let hit_outcome (j : job) (ad : admission) ~ctx compiled =
  outcome j ad ~ctx ~worker:(-1) ~queued_seconds:0. ~hit:true compiled
    ~seconds:ad.ad_seconds ~done_at:ad.ad_end

(* The rest of a miss, on whichever domain serves it: compile, then
   install under the key admission computed — no second digest or
   lookup.  The compile runs under the request's context too. *)
let miss_outcome ?cache (j : job) (ad : admission) ~ctx ~worker
    ~queued_seconds =
  let t0 = Clock.now () in
  let compiled =
    Ctx.with_current ctx (fun () ->
        let artifact =
          Compiler.compile ~tier:j.jb_tier ~deopt_sites:j.jb_deopt
            j.jb_config ~arch:j.jb_arch j.jb_program
        in
        Option.iter (fun c -> Codecache.add c ~key:ad.ad_key artifact) cache;
        artifact)
  in
  let t1 = Clock.now () in
  outcome j ad ~ctx ~worker ~queued_seconds ~hit:false compiled
    ~seconds:(ad.ad_seconds +. (t1 -. t0))
    ~done_at:t1

let compile_serial ?cache jobs =
  List.map
    (fun j ->
      let ctx = Ctx.none in
      let ad = admit ?cache ~ctx (digest j) in
      match ad.ad_hit with
      | Some compiled -> hit_outcome j ad ~ctx compiled
      | None -> miss_outcome ?cache j ad ~ctx ~worker:(-1) ~queued_seconds:0.)
    jobs

(* ------------------------------------------------------------------ *)
(* The domain pool                                                     *)
(* ------------------------------------------------------------------ *)

(* The completion of one request.  A request served at admission is
   [Ready] when it is handed out; a queued one is [Pending] until the
   domain that runs it fills the slot once and broadcasts.  [poll] is a
   lock/read/unlock, so the serving thread never waits on the pool.
   [f_help] runs one queued task of the slot's service on the calling
   thread and says whether there was one: a caller blocked in [wait]
   compiles queued requests instead of sleeping. *)
type slot = {
  f_m : Mutex.t;
  f_done : Condition.t;
  mutable f_result : (outcome, exn) result option;
  f_help : unit -> bool;
}

type future = Ready of (outcome, exn) result | Pending of slot

let new_slot help =
  { f_m = Mutex.create (); f_done = Condition.create (); f_result = None;
    f_help = help }

let fulfil f r =
  Mutex.lock f.f_m;
  f.f_result <- Some r;
  Condition.broadcast f.f_done;
  Mutex.unlock f.f_m

let filled f =
  Mutex.lock f.f_m;
  let r = f.f_result in
  Mutex.unlock f.f_m;
  r

(* Wait for the slot, running queued tasks while there are any, and
   block only once the queue is empty: the slot's own task is then
   running on some domain, which broadcasts when it is done.  The
   caller decides whether to raise. *)
let wait = function
  | Ready r -> r
  | Pending f ->
    let rec help () =
      match filled f with
      | Some r -> r
      | None when f.f_help () -> help ()
      | None ->
        Mutex.lock f.f_m;
        while Option.is_none f.f_result do
          Condition.wait f.f_done f.f_m
        done;
        let r = Option.get f.f_result in
        Mutex.unlock f.f_m;
        r
    in
    help ()

(* A queued request: one whose admission lookup missed (or that had no
   cache to look in). *)
type task = {
  t_id : int;             (* service-wide request id *)
  t_enqueued : float;     (* absolute time of the push *)
  t_job : job;
  t_admission : admission;
  t_slot : slot;
  t_ctx : Ctx.t;          (* causal context minted at admission *)
}

(* One tenant's instruments, each resolved from the registry by the
   first request that needs it and kept: the submitted counter at the
   tenant's first submission, the completed counter and the two
   histograms at its first completion.  The registry so holds exactly
   the series it would if every request looked them up.  Two domains
   resolving one at once get the same find-or-register instrument. *)
type instruments = {
  i_submitted : Metrics.counter option Atomic.t;
  i_completed :
    (Metrics.counter * Metrics.histogram * Metrics.histogram) option Atomic.t;
}

module Tenant_map = Map.Make (Int)

(* Per-tenant instruments + the in-queue admission ledger.  The
   instruments map is read without a lock and replaced by
   compare-and-set when a tenant is first seen.  The ledger (tenant ->
   tasks currently queued) backs the per-tenant cap: bumped under [am]
   on a successful push, decremented by the worker that pops the
   task. *)
type accounting = {
  amx : Metrics.t;
  a_instruments : instruments Tenant_map.t Atomic.t;
  am : Mutex.t;
  a_in_queue : (int, int) Hashtbl.t;
  a_tenant_cap : int;       (* 0 = unlimited *)
}

type t = {
  queue : task Chan.t;
  help : unit -> bool;       (* run one queued task here, if any *)
  workers : unit Domain.t array;
  svc_cache : cache option;
  stopped : bool Atomic.t;
  seq : int Atomic.t;        (* next request id *)
  srec : Recorder.t;
  acct : accounting;
}

let default_domains () =
  min 8 (max 1 (Domain.recommended_domain_count () - 1))

(* metric names are module-level so the SLO declarations and the tests
   can refer to them without string drift *)
let m_submitted = "svc_requests_submitted_total"
let m_completed = "svc_requests_completed_total"
let m_shed = "svc_requests_shed_total"
let m_queue_wait = "svc_queue_wait_seconds"
let m_compile = "svc_compile_seconds"

let tenant_labels (c : Ctx.t) =
  [ ("tenant", Ctx.tenant_label c.Ctx.cx_tenant) ]

let rec instruments (a : accounting) tenant =
  let known = Atomic.get a.a_instruments in
  match Tenant_map.find tenant known with
  | i -> i
  | exception Not_found ->
    let i = { i_submitted = Atomic.make None; i_completed = Atomic.make None } in
    if Atomic.compare_and_set a.a_instruments known
         (Tenant_map.add tenant i known)
    then i
    else instruments a tenant

(* the instrument in [slot], resolved the first time it is needed *)
let resolved slot resolve =
  match Atomic.get slot with
  | Some k -> k
  | None ->
    let k = resolve () in
    Atomic.set slot (Some k);
    k

let note_submitted (a : accounting) (c : Ctx.t) =
  let i = instruments a c.Ctx.cx_tenant in
  Metrics.inc
    (resolved i.i_submitted (fun () ->
         Metrics.counter a.amx ~labels:(tenant_labels c) m_submitted))
    1

let note_shed (a : accounting) (c : Ctx.t) ~(reason : string) =
  Metrics.inc
    (Metrics.counter a.amx
       ~labels:(("reason", reason) :: tenant_labels c)
       m_shed)
    1

let note_completed (a : accounting) (c : Ctx.t) ~queued_seconds ~seconds =
  let i = instruments a c.Ctx.cx_tenant in
  let completed, queue_wait, compile =
    resolved i.i_completed (fun () ->
        let labels = tenant_labels c in
        ( Metrics.counter a.amx ~labels m_completed,
          Metrics.histogram a.amx ~labels m_queue_wait,
          Metrics.histogram a.amx ~labels m_compile ))
  in
  Metrics.inc completed 1;
  Metrics.observe queue_wait queued_seconds;
  Metrics.observe compile seconds

(* the in-queue ledger: [admit] under the cap check, [release] when a
   worker takes the task off the queue *)
let ledger_admit (a : accounting) tenant =
  if tenant < 0 || a.a_tenant_cap <= 0 then true
  else begin
    Mutex.lock a.am;
    let n = Option.value ~default:0 (Hashtbl.find_opt a.a_in_queue tenant) in
    let ok = n < a.a_tenant_cap in
    if ok then Hashtbl.replace a.a_in_queue tenant (n + 1);
    Mutex.unlock a.am;
    ok
  end

let ledger_release (a : accounting) tenant =
  if tenant >= 0 && a.a_tenant_cap > 0 then begin
    Mutex.lock a.am;
    (match Hashtbl.find_opt a.a_in_queue tenant with
    | Some n when n > 1 -> Hashtbl.replace a.a_in_queue tenant (n - 1)
    | Some _ -> Hashtbl.remove a.a_in_queue tenant
    | None -> ());
    Mutex.unlock a.am
  end

(* The one task body: whichever domain takes a task off the queue — a
   pool worker, or a caller helping from [wait] — runs it through here,
   and [worker] says which.  Req_start and Req_done are stamped with the
   clock readings the outcome is built from, so a timeline's wait is
   [oc_queued_seconds] exactly and its done is [oc_done_at]. *)
let run_task cache srec acct ~worker task =
  let ctx = task.t_ctx in
  ledger_release acct ctx.Ctx.cx_tenant;
  let started = Clock.now () in
  Recorder.record ~ctx ~ts:started ~a:task.t_id ~b:worker srec
    Recorder.Req_start;
  let queued_seconds = started -. task.t_enqueued in
  let r =
    try
      Ok
        (miss_outcome ?cache task.t_job task.t_admission ~ctx ~worker
           ~queued_seconds)
    with e -> Error e
  in
  (* a failed compile still consumed its queue slot; count it so
     submitted = completed holds once the service is quiescent *)
  let seconds, done_at =
    match r with
    | Ok o -> (o.oc_seconds, o.oc_done_at)
    | Error _ -> (0., Clock.now ())
  in
  note_completed acct ctx ~queued_seconds ~seconds;
  Recorder.record ~ctx ~ts:done_at ~a:task.t_id ~b:worker srec
    Recorder.Req_done;
  fulfil task.t_slot r

let worker_loop queue run worker =
  let rec loop () =
    match Chan.pop queue with
    | None -> ()
    | Some task -> run ~worker task; loop ()
  in
  loop ()

let create ?domains ?(queue_capacity = 64) ?cache
    ?(recorder = Recorder.global) ?(metrics = Metrics.global)
    ?(tenant_cap = 0) () : t =
  let n = max 1 (Option.value ~default:(default_domains ()) domains) in
  let acct =
    {
      amx = metrics;
      a_instruments = Atomic.make Tenant_map.empty;
      am = Mutex.create ();
      a_in_queue = Hashtbl.create 16;
      a_tenant_cap = max 0 tenant_cap;
    }
  in
  let queue =
    (* The submitted counter and Req_enqueue move in the channel's
       on_enqueue hook, inside the push critical section: before any
       domain can take the task (so a request is counted submitted
       before it can be counted completed), with the exact post-push
       depth, and never for a refused try_push.  The event is stamped
       [t_enqueued], the reading the queue wait is measured from. *)
    Chan.create
      ~on_enqueue:(fun task depth ->
        note_submitted acct task.t_ctx;
        Recorder.record ~ctx:task.t_ctx ~ts:task.t_enqueued ~a:task.t_id
          ~b:depth recorder Recorder.Req_enqueue)
      ~capacity:(max 1 queue_capacity) ()
  in
  let run = run_task cache recorder acct in
  (* A helping caller runs the task under the defaults a fresh worker
     domain has: its reference-solver switch and site counter are
     domain-local, and the decision log and context are scoped by the
     compile itself.  It is worker [n], one past the pool. *)
  let help () =
    match Chan.try_pop queue with
    | None -> false
    | Some task ->
      Solver.with_reference false (fun () -> run ~worker:n task);
      true
  in
  {
    queue;
    help;
    workers =
      Array.init n (fun i -> Domain.spawn (fun () -> worker_loop queue run i));
    svc_cache = cache;
    stopped = Atomic.make false;
    seq = Atomic.make 0;
    srec = recorder;
    acct;
  }

let domains t = Array.length t.workers
let cache t = t.svc_cache

let metrics t = t.acct.amx
let tenant_cap t = t.acct.a_tenant_cap

let tenants t =
  Metrics.label_values t.acct.amx m_submitted "tenant"

(* Shed reasons, also the [reason] label values on [m_shed]. *)
let reason_queue_full = "queue_full"
let reason_tenant_cap = "tenant_cap"

let shed_request t ~id ~ctx ~reason =
  note_shed t.acct ctx ~reason;
  Recorder.record ~ctx ~a:id
    ~b:(if reason = reason_tenant_cap then 1 else 0)
    t.srec Recorder.Req_shed;
  None

(* A hit is complete at admission: it is submitted and completed on the
   submitting thread, with worker -1 and no queue wait.  Its enqueue and
   start are stamped at [admitted_at], before the lookup, and its done
   at [oc_done_at], when the lookup returned, so the request's timeline
   reads enqueue <= start <= Cache_hit <= done. *)
let serve_at_admission t ~id ~ctx ~admitted_at j ad compiled =
  Recorder.record ~ctx ~ts:admitted_at ~a:id t.srec Recorder.Req_enqueue;
  Recorder.record ~ctx ~ts:admitted_at ~a:id ~b:(-1) t.srec Recorder.Req_start;
  note_submitted t.acct ctx;
  let o = hit_outcome j ad ~ctx compiled in
  note_completed t.acct ctx ~queued_seconds:0. ~seconds:o.oc_seconds;
  Recorder.record ~ctx ~ts:o.oc_done_at ~a:id ~b:(-1) t.srec Recorder.Req_done;
  Ready (Ok o)

(* The one submission step every pooled request goes through, on the
   submitting thread: refuse a shut-down service before anything else,
   mint the request id and context, admit (one key, one lookup), and
   either complete a hit right here or queue the miss with its key.
   [digested] is the job's key from {!digest}, which the caller runs.
   Only a miss can be shed: the tenant cap and the queue bound guard
   queue slots, which a hit never takes.  [blocking] picks [Chan.push]
   (a batch) over [Chan.try_push] (the async front door); [None] means
   shed.  @raise Chan.Closed once the service is shut down. *)
let submit t ~tenant ~blocking digested (j : job) : future option =
  if Atomic.get t.stopped then raise Chan.Closed;
  let id = Atomic.fetch_and_add t.seq 1 in
  let ctx = Ctx.mint ~tenant ~request:id () in
  let admitted_at = Recorder.now () in
  let ad = admit ?cache:t.svc_cache ~ctx digested in
  match ad.ad_hit with
  | Some compiled ->
    Some (serve_at_admission t ~id ~ctx ~admitted_at j ad compiled)
  | None when not (ledger_admit t.acct tenant) ->
    shed_request t ~id ~ctx ~reason:reason_tenant_cap
  | None -> (
    let slot = new_slot t.help in
    (* [t_enqueued] is stamped as close to the push as possible: the
       worker reads it for the queue-wait measurement, and Req_enqueue
       carries it.  Req_enqueue and the per-tenant submitted counter
       fire from the queue's on_enqueue hook, only once the push is
       accepted. *)
    let task =
      {
        t_id = id;
        t_enqueued = Clock.now ();
        t_job = j;
        t_admission = ad;
        t_slot = slot;
        t_ctx = ctx;
      }
    in
    match
      if blocking then (Chan.push t.queue task; true)
      else Chan.try_push t.queue task
    with
    | true -> Some (Pending slot)
    | false ->
      ledger_release t.acct tenant;
      shed_request t ~id ~ctx ~reason:reason_queue_full
    | exception Chan.Closed ->
      ledger_release t.acct tenant;
      raise Chan.Closed)

let compile_all (t : t) (jobs : job list) : outcome list =
  (* Once the service is shut down (before or during the batch), fail
     the unsubmitted tail's futures here; requests already queued are
     drained by the workers before they exit, so every future completes
     either way.  A batch is never shed: it blocks for queue room. *)
  let closed = ref false in
  let submit_one digested job =
    match
      if !closed then None
      else submit t ~tenant:(-1) ~blocking:true digested job
    with
    | Some f -> f
    | None | exception Chan.Closed ->
      closed := true;
      Ready
        (Error (Invalid_argument "Svc.compile_all: service has been shut down"))
  in
  (* Single flight within the batch: with a cache, a later copy of a key
     already in the batch is held back and admitted only once the first
     copy has completed, so its one lookup hits what the first copy
     installed instead of missing and compiling the same code again.
     Every first copy is admitted before any held copy, so holding never
     starves the pool. *)
  let hold = Option.is_some t.svc_cache and firsts = Hashtbl.create 16 in
  let admitted =
    List.map
      (fun job ->
        let ((key, _) as digested) = digest job in
        match if hold then Hashtbl.find_opt firsts key else None with
        | Some first -> Either.Right (first, digested, job)
        | None ->
          let f = submit_one digested job in
          if hold then Hashtbl.add firsts key f;
          Either.Left f)
      jobs
  in
  let futures =
    List.map
      (function
        | Either.Left f -> f
        | Either.Right (first, digested, job) ->
          ignore (wait first);
          submit_one digested job)
      admitted
  in
  let results = List.map wait futures in
  match List.find_map (function Error e -> Some e | Ok _ -> None) results with
  | Some e -> raise e
  | None -> List.map Result.get_ok results

(* ------------------------------------------------------------------ *)
(* Asynchronous single-job recompilation (tiered execution)            *)
(* ------------------------------------------------------------------ *)

(* The submission uses [Chan.try_push], so a saturated queue is
   reported to the caller (who retries later) instead of blocking
   interpretation — this is what "no stop-the-world" means
   operationally. *)
let recompile_async (t : t) ?(tenant = -1) (j : job) : future option =
  try submit t ~tenant ~blocking:false (digest j) j
  with Chan.Closed -> invalid_arg "Svc.recompile_async: service has been shut down"

let poll (f : future) : outcome option =
  let r = match f with Ready r -> Some r | Pending f -> filled f in
  (* raise outside the lock *)
  match r with
  | None -> None
  | Some (Ok o) -> Some o
  | Some (Error e) -> raise e

let await (f : future) : outcome =
  match wait f with Ok o -> o | Error e -> raise e

let shutdown (t : t) =
  if not (Atomic.exchange t.stopped true) then begin
    Chan.close t.queue;
    Array.iter Domain.join t.workers
  end

let with_service ?domains ?queue_capacity ?cache ?recorder ?metrics
    ?tenant_cap f =
  let t =
    create ?domains ?queue_capacity ?cache ?recorder ?metrics ?tenant_cap ()
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
