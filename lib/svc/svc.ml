(** Parallel JIT compile service (see the interface for the contract).

    Shape: every request is a task carrying its own {!future} (a
    mutex, a condition and a result slot).  Worker domains loop on
    [Chan.pop], compile (through the cache when one is installed) and
    fill the task's future.  [compile_all] pushes one task per job into
    the shared bounded {!Chan} and awaits the futures in job order;
    [recompile_async] hands its single future to the caller.  Because
    each task completes on its own, several [compile_all] calls can be
    in flight at once and tasks of different batches interleave freely
    on the pool. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module Recorder = Nullelim_obs.Recorder
module Metrics = Nullelim_obs.Metrics
module Ctx = Nullelim_obs.Ctx
module Clock = Nullelim_obs.Clock

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

(* The key digests a marshalled projection of the job read straight off
   the IR, so a new instruction constructor or function field is covered
   without editing this code.  The projection is canonical: hash tables
   are listed sorted by key (a [Hashtbl]'s layout depends on its
   insertion history), the deopt set is sorted, and [No_sharing] makes
   the bytes depend on values alone, not on which of them happen to be
   physically shared.  An [Arch.t] holds closures and enters by name.
   Instructions carry their check provenance sites, which flow into the
   artifact's decision log and profile ids. *)
let sorted_bindings cmp tbl =
  List.sort
    (fun (a, _) (b, _) -> cmp a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let func_projection (f : Ir.func) =
  ( f.Ir.fn_name,
    f.Ir.fn_nparams,
    f.Ir.fn_is_method,
    f.Ir.fn_nvars,
    f.Ir.fn_blocks,
    f.Ir.fn_handlers,
    sorted_bindings Int.compare f.Ir.fn_var_names )

let job_key (j : job) : string =
  let p = j.jb_program in
  let projection =
    ( j.jb_arch.Arch.name,
      Config.semantic j.jb_config,
      j.jb_tier,
      List.sort_uniq Int.compare j.jb_deopt,
      p.Ir.prog_main,
      sorted_bindings String.compare p.Ir.classes,
      List.map
        (fun (name, f) -> (name, func_projection f))
        (sorted_bindings String.compare p.Ir.funcs) )
  in
  Digest.to_hex
    (Digest.string (Marshal.to_string projection [ Marshal.No_sharing ]))

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
(* Compiling one job                                                   *)
(* ------------------------------------------------------------------ *)

let compile_job ?cache ?(queued_seconds = 0.) ?(ctx = Ctx.none) ~worker
    (j : job) : outcome =
  let t0 = Clock.now () in
  let key = job_key j in
  let compile () =
    Compiler.compile ~tier:j.jb_tier ~deopt_sites:j.jb_deopt j.jb_config
      ~arch:j.jb_arch j.jb_program
  in
  (* The whole job — cache lookup included — runs under the request's
     ambient context, so Cache_hit/Cache_miss/Cache_evict events deep in
     {!Codecache} land on this request's causal timeline without the
     cache knowing anything about requests. *)
  let hit, compiled =
    Ctx.with_current ctx (fun () ->
        match cache with
        | None -> (false, compile ())
        | Some c -> (
          match Codecache.find c key with
          | Some artifact -> (true, artifact)
          | None ->
            let artifact = compile () in
            Codecache.add c ~key artifact;
            (false, artifact)))
  in
  let t1 = Clock.now () in
  {
    oc_job = j;
    oc_compiled = compiled;
    oc_cache_hit = hit;
    oc_worker = worker;
    oc_seconds = t1 -. t0;
    oc_queued_seconds = queued_seconds;
    oc_done_at = t1;
    oc_ctx = ctx;
    oc_key = key;
  }

let compile_serial ?cache jobs =
  List.map (compile_job ?cache ~worker:(-1)) jobs

(* ------------------------------------------------------------------ *)
(* The domain pool                                                     *)
(* ------------------------------------------------------------------ *)

(* The completion slot of one request: the worker that runs the task
   fills [f_result] once and broadcasts.  [poll] is a lock/read/unlock,
   so the serving thread never waits on the pool. *)
type future = {
  f_m : Mutex.t;
  f_done : Condition.t;
  mutable f_result : (outcome, exn) result option;
}

let new_future () =
  { f_m = Mutex.create (); f_done = Condition.create (); f_result = None }

let fulfil f r =
  Mutex.lock f.f_m;
  f.f_result <- Some r;
  Condition.broadcast f.f_done;
  Mutex.unlock f.f_m

(* block until the slot is filled; the caller decides whether to raise *)
let wait f =
  Mutex.lock f.f_m;
  while Option.is_none f.f_result do
    Condition.wait f.f_done f.f_m
  done;
  let r = Option.get f.f_result in
  Mutex.unlock f.f_m;
  r

type task = {
  t_id : int;             (* service-wide request id *)
  t_enqueued : float;     (* absolute submission time *)
  t_job : job;
  t_future : future;
  t_ctx : Ctx.t;          (* causal context minted at submission *)
}

(* Per-tenant instruments + the in-queue admission ledger.  The ledger
   (tenant -> tasks currently queued) backs the per-tenant cap: bumped
   under [am] on a successful push, decremented by the worker that pops
   the task.  Metrics instruments are find-or-register, so the helpers
   just go through the registry every time — the registry interns. *)
type accounting = {
  amx : Metrics.t;
  am : Mutex.t;
  a_in_queue : (int, int) Hashtbl.t;
  a_tenant_cap : int;       (* 0 = unlimited *)
}

type t = {
  queue : task Chan.t;
  workers : unit Domain.t array;
  svc_cache : cache option;
  sm : Mutex.t;
  mutable stopped : bool;
  seq : int Atomic.t;        (* next request id *)
  submitted : int Atomic.t;  (* requests accepted into the queue *)
  completed : int Atomic.t;
  shed : int Atomic.t;       (* async submissions rejected *)
  srec : Recorder.t;
  acct : accounting;
}

type stats = {
  s_domains : int;
  s_queue_capacity : int;
  s_queue_depth : int;
  s_queue_high_water : int;
  s_submitted : int;
  s_completed : int;
  s_shed : int;
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

let note_submitted (a : accounting) (c : Ctx.t) =
  Metrics.inc (Metrics.counter a.amx ~labels:(tenant_labels c) m_submitted) 1

let note_shed (a : accounting) (c : Ctx.t) ~(reason : string) =
  Metrics.inc
    (Metrics.counter a.amx
       ~labels:(("reason", reason) :: tenant_labels c)
       m_shed)
    1

let note_completed (a : accounting) (c : Ctx.t) ~queued_seconds ~seconds =
  let labels = tenant_labels c in
  Metrics.inc (Metrics.counter a.amx ~labels m_completed) 1;
  Metrics.observe (Metrics.histogram a.amx ~labels m_queue_wait) queued_seconds;
  Metrics.observe (Metrics.histogram a.amx ~labels m_compile) seconds

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

let worker_loop queue cache srec acct completed worker =
  let rec loop () =
    match Chan.pop queue with
    | None -> ()
    | Some task ->
      ledger_release acct task.t_ctx.Ctx.cx_tenant;
      Recorder.record ~ctx:task.t_ctx ~a:task.t_id ~b:worker srec
        Recorder.Req_start;
      let queued_seconds = Clock.now () -. task.t_enqueued in
      let r =
        try
          Ok
            (compile_job ?cache ~queued_seconds ~ctx:task.t_ctx ~worker
               task.t_job)
        with e -> Error e
      in
      Atomic.incr completed;
      (match r with
      | Ok o ->
        note_completed acct task.t_ctx ~queued_seconds ~seconds:o.oc_seconds
      | Error _ ->
        (* a failed compile still consumed its queue slot; count it so
           submitted = completed + shed stays a service-level identity *)
        note_completed acct task.t_ctx ~queued_seconds ~seconds:0.);
      Recorder.record ~ctx:task.t_ctx ~a:task.t_id ~b:worker srec
        Recorder.Req_done;
      fulfil task.t_future r;
      loop ()
  in
  loop ()

let create ?domains ?(queue_capacity = 64) ?cache
    ?(recorder = Recorder.global) ?(metrics = Metrics.global)
    ?(tenant_cap = 0) () : t =
  let n = max 1 (Option.value ~default:(default_domains ()) domains) in
  let completed = Atomic.make 0 in
  let acct =
    {
      amx = metrics;
      am = Mutex.create ();
      a_in_queue = Hashtbl.create 16;
      a_tenant_cap = max 0 tenant_cap;
    }
  in
  let queue =
    (* Req_enqueue and the submitted counter fire from the channel's
       on_enqueue hook — inside the push critical section — so the
       event's timestamp always precedes the worker's Req_start for the
       same request, and a shed try_push never looks accepted. *)
    Chan.create ~recorder
      ~ctx_of:(fun task -> task.t_ctx)
      ~on_enqueue:(fun task ->
        note_submitted acct task.t_ctx;
        Recorder.record ~ctx:task.t_ctx ~a:task.t_id recorder
          Recorder.Req_enqueue)
      ~capacity:(max 1 queue_capacity) ()
  in
  {
    queue;
    workers =
      Array.init n (fun i ->
          Domain.spawn (fun () ->
              worker_loop queue cache recorder acct completed i));
    svc_cache = cache;
    sm = Mutex.create ();
    stopped = false;
    seq = Atomic.make 0;
    submitted = Atomic.make 0;
    completed;
    shed = Atomic.make 0;
    srec = recorder;
    acct;
  }

let domains t = Array.length t.workers
let cache t = t.svc_cache
let cache_stats t = Option.map Codecache.stats t.svc_cache

let stats t =
  {
    s_domains = Array.length t.workers;
    s_queue_capacity = Chan.capacity t.queue;
    s_queue_depth = Chan.depth t.queue;
    s_queue_high_water = Chan.high_water t.queue;
    s_submitted = Atomic.get t.submitted;
    s_completed = Atomic.get t.completed;
    s_shed = Atomic.get t.shed;
  }

let metrics t = t.acct.amx
let tenant_cap t = t.acct.a_tenant_cap

let tenants t =
  Metrics.label_values t.acct.amx m_submitted "tenant"

(* Mint a task: assign the request id, mint the causal context (request
   id doubles as the trace's request id) and stamp the submission time.
   [t_enqueued] is read by the worker for the queue-delay measurement,
   so it is stamped as close to the push as possible; the Req_enqueue
   event and the per-tenant submitted counter fire from the queue's
   on_enqueue hook, only once the push is accepted (a shed [try_push]
   must not look like an accepted request). *)
let new_task t ?(tenant = -1) job future =
  let id = Atomic.fetch_and_add t.seq 1 in
  {
    t_id = id;
    t_enqueued = Clock.now ();
    t_job = job;
    t_future = future;
    t_ctx = Ctx.mint ~tenant ~request:id ();
  }

let compile_all (t : t) (jobs : job list) : outcome list =
  (* If the queue closes mid-submission (a racing or prior shutdown),
     fail the unsubmitted tail's futures ourselves; tasks already queued
     are drained by the workers before they exit, so every future
     completes either way. *)
  let closed = ref false in
  let submit job =
    let f = new_future () in
    (if not !closed then
       match Chan.push t.queue (new_task t job f) with
       | () ->
         (* the queue's on_enqueue hook has already recorded
            Req_enqueue and the per-tenant submitted counter *)
         Atomic.incr t.submitted
       | exception Chan.Closed -> closed := true);
    if !closed then
      fulfil f
        (Error (Invalid_argument "Svc.compile_all: service has been shut down"));
    f
  in
  let results = List.map wait (List.map submit jobs) in
  match List.find_map (function Error e -> Some e | Ok _ -> None) results with
  | Some e -> raise e
  | None -> List.map Result.get_ok results

(* ------------------------------------------------------------------ *)
(* Asynchronous single-job recompilation (tiered execution)            *)
(* ------------------------------------------------------------------ *)

(* Shed reasons, also the [reason] label values on [m_shed]. *)
let reason_queue_full = "queue_full"
let reason_tenant_cap = "tenant_cap"

(* The submission uses [Chan.try_push], so a saturated queue is
   reported to the caller (who retries later) instead of blocking
   interpretation — this is what "no stop-the-world" means
   operationally. *)
let recompile_async (t : t) ?(tenant = -1) (j : job) : future option =
  (* the front door: per-tenant admission first (cheap ledger check),
     then the global queue bound via [try_push] *)
  if not (ledger_admit t.acct tenant) then begin
    Atomic.incr t.shed;
    let ctx = Ctx.mint ~tenant () in
    note_shed t.acct ctx ~reason:reason_tenant_cap;
    Recorder.record ~ctx ~a:(-1) ~b:1 t.srec Recorder.Req_shed;
    None
  end
  else begin
    let f = new_future () in
    let task = new_task t ~tenant j f in
    match Chan.try_push t.queue task with
    | true ->
      (* Req_enqueue + per-tenant submitted fired from the queue hook *)
      Atomic.incr t.submitted;
      Some f
    | false ->
      ledger_release t.acct tenant;
      Atomic.incr t.shed;
      note_shed t.acct task.t_ctx ~reason:reason_queue_full;
      Recorder.record ~ctx:task.t_ctx ~a:task.t_id ~b:0 t.srec
        Recorder.Req_shed;
      None
    | exception Chan.Closed ->
      ledger_release t.acct tenant;
      invalid_arg "Svc.recompile_async: service has been shut down"
  end

let poll (f : future) : outcome option =
  Mutex.lock f.f_m;
  let r = f.f_result in
  Mutex.unlock f.f_m;
  (* raise outside the lock *)
  match r with
  | None -> None
  | Some (Ok o) -> Some o
  | Some (Error e) -> raise e

let await (f : future) : outcome =
  match wait f with Ok o -> o | Error e -> raise e

let shutdown (t : t) =
  let do_join =
    Mutex.lock t.sm;
    let fresh = not t.stopped in
    t.stopped <- true;
    Mutex.unlock t.sm;
    fresh
  in
  if do_join then begin
    Chan.close t.queue;
    Array.iter Domain.join t.workers
  end

let with_service ?domains ?queue_capacity ?cache ?recorder ?metrics
    ?tenant_cap f =
  let t =
    create ?domains ?queue_capacity ?cache ?recorder ?metrics ?tenant_cap ()
  in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
