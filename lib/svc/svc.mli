(** Parallel JIT compile service: a fixed pool of OCaml domains
    draining a bounded job queue, with an optional content-addressed
    compiled-code cache.

    This is the repo's stand-in for the multi-threaded JVM the paper's
    JIT lives in: methods get hot, compile requests queue up, and a
    small pool of compiler threads services them while the application
    runs.  Here a {!job} is (IR program × {!Config.t} × {!Arch.t}); the
    artifact is the full {!Compiler.compiled} record.

    {2 Determinism}

    [Compiler.compile] is deterministic in its inputs (it re-seeds the
    provenance counter from the input program), and every piece of
    compiler state it touches is domain-local (solver counters, the
    decision log, the site counter), so compiling the same
    job on any domain produces a byte-identical artifact.
    {!compile_all} preserves job order in its results; consequently a
    parallel batch is observably identical to {!compile_serial} except
    for wall-clock fields ([compile_start], [compile_seconds], the
    start and seconds of each pass record, [oc_seconds],
    [oc_queued_seconds]) and
    [oc_worker]/[oc_cache_hit] provenance.

    {2 Admission and caching}

    Every request — each job of a {!compile_all} batch, each
    {!recompile_async} submission and each job of {!compile_serial} —
    goes through one admission step on the submitting thread.  For a
    pooled request it first refuses a shut-down service, then mints the
    request's causal context and id ({!compile_serial} runs under
    {!Nullelim_obs.Ctx.none}).  It computes {!job_key} once — a
    digest of the program structure (including check provenance sites),
    the configuration's semantic fields and the architecture name — and,
    with a cache installed, does the request's one counted
    [Codecache.find].  A hit completes right there: the future is ready
    when {!recompile_async} returns, no worker domain or queue slot is
    involved, [oc_worker] is [-1] and [oc_queued_seconds] is 0.  A miss
    is queued with its key; the worker compiles and [Codecache.add]s
    under that key without digesting or looking up again.  So each
    request costs exactly one key and, with a cache, one lookup (each
    admitted request adds exactly one to [Codecache.stats] hits plus
    misses).  Without a cache nothing is looked up and the key is
    still computed once.  The key is returned on the outcome
    ([oc_key]); the tiered manager versions code by it.

    Within one {!compile_all} batch a key compiles at most once: a
    later copy of a key already in the batch is admitted only after the
    first copy completes, so its lookup hits (unless the entry was
    evicted meanwhile).  Across separate submissions — two batches in
    flight, or {!recompile_async} — two requests with the same key may
    both miss and compile when the second is admitted before the first
    completes: the window runs from the first one's admission to its
    completion, queue wait included.  The cache converges to one entry
    and the artifacts are identical, so that race is benign.

    {2 Waiting callers help}

    A caller blocked in {!await} (or in {!compile_all}, which awaits its
    batch) does not sleep while the queue holds work: it takes the
    oldest queued task, compiles it exactly as a worker would, and
    checks its own request again, and it blocks only once the queue is
    empty — its own request is then running on some domain.  So a
    request is compiled by a pool worker or by a waiting caller, and the
    submitting thread's core does useful work while it waits.  A helped
    task runs under a fresh worker domain's defaults: the worklist
    solver engine ({!Nullelim_dataflow.Solver.with_reference} [false]),
    the caller's site counter never moved backward ([Compiler.compile]
    guarantees it), and the decision log and causal context, which the
    compile scopes itself.  Its outcome's [oc_worker] is the pool size ({!domains}) —
    one past the last pool index, so it is neither a pool index nor
    [-1].  {!poll} never helps: the serving thread must never block.

    {2 Accounting}

    Each step of a request is recorded once, as one flight event, and
    each count is kept once, as one counter of the registry the service
    accounts into ({!metrics}); {!create} lists both.  The queue itself
    records nothing.

    {2 Shutdown}

    {!shutdown} closes the queue, lets queued work drain, and joins
    every worker domain.  Prefer {!with_service}, which guarantees the
    join on any exit path. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler

type job = {
  jb_program : Ir.program;  (** compiled via a copy; never mutated *)
  jb_config : Config.t;
  jb_arch : Arch.t;
  jb_tier : int;            (** tier tag for decision events; -1 = untiered *)
  jb_deopt : Ir.site list;  (** implicit sites to re-materialize explicitly *)
}
(** One compile request.  The program may be shared by many jobs (the
    batch driver compiles each workload under several configurations);
    jobs only ever read it.  [jb_tier]/[jb_deopt] are threaded to
    [Compiler.compile] and are part of {!job_key} — the policy fields of
    the configuration ([name], [promote_calls], [deopt_traps]) are not,
    since they never change the artifact (see {!Config.semantic}). *)

val job :
  ?tier:int -> ?deopt:Ir.site list -> config:Config.t -> arch:Arch.t ->
  Ir.program -> job
(** Smart constructor with the untiered defaults ([tier] -1, no deopt
    sites). *)

type outcome = {
  oc_job : job;           (** the request, physically equal to the input *)
  oc_compiled : Compiler.compiled;
  oc_cache_hit : bool;    (** artifact came from the cache *)
  oc_worker : int;        (** index of the worker domain that compiled
                              the job; the pool size ({!domains}) when a
                              caller waiting in {!await} compiled it; or
                              -1 when nothing was compiled for it: a
                              cache hit served at admission, or
                              {!compile_serial} *)
  oc_seconds : float;     (** service time: the admission's key digest
                              and lookup plus, on a miss, the compile and
                              the cache install — everything but the
                              queue wait *)
  oc_queued_seconds : float;
                          (** time from the push onto the queue until a
                              worker or a waiting caller picked the job
                              up; 0 for a hit
                              served at admission and for
                              {!compile_serial} *)
  oc_done_at : float;     (** completion time on the monotonic
                              clock ({!Nullelim_obs.Clock.now}) — lets a load
                              generator compute end-to-end latency
                              against its own arrival schedule *)
  oc_ctx : Nullelim_obs.Ctx.t;
                          (** the causal context minted at admission
                              (tenant + request id); {!Ctx.none} for
                              {!compile_serial} *)
  oc_key : string;        (** {!job_key} of [oc_job], computed once per
                              job whether or not a cache is installed *)
}

type cache = Compiler.compiled Codecache.t
(** A compiled-code cache shareable between services and batches. *)

val job_key : job -> string
(** Content digest of a job ({!Nullelim_ir.Ir.structural_digest}, 32
    hex characters) over a canonical projection read straight off the
    IR, with no printing: the architecture name, the configuration's
    semantic fields ({!Config.semantic}), the tier, the sorted deopt
    sites, the entry point, the classes sorted by name, and
    {!Nullelim_ir.Ir.funcs_projection}: per function sorted by name its
    name, arity, method flag, variable count, blocks (instructions with
    their check provenance sites, terminators, regions), handler table
    and debug variable names.  The projection
    is hashed by a generic walk, so the key depends on values only —
    not on hash-table insertion order or physical sharing — and a new
    instruction constructor or function field is covered without
    editing the key.  Equal keys mean [Compiler.compile] produces
    identical artifacts.

    Keys are process-local: the digest reads the runtime's value
    representation, so a key must never be persisted or compared
    across processes. *)

val artifact_bytes : Compiler.compiled -> int
(** Byte-cost estimate of keeping an artifact resident (used as the
    cache [size] function), counted from the IR without printing it:
    20 bytes per instruction and 24 per block (fitted to the
    pretty-printed size of the optimized registry programs, which the
    default budget was sized against), plus 64 per decision-log event
    and a fixed 1 KiB. *)

val create_cache :
  ?budget_bytes:int ->
  ?recorder:Nullelim_obs.Recorder.t ->
  unit ->
  cache
(** A cache keyed for {!job_key}, sized by {!artifact_bytes};
    [budget_bytes] defaults to {!Codecache.create}'s 64 MiB; cache
    traffic is recorded into [recorder] (default
    {!Nullelim_obs.Recorder.global}). *)

type t
(** A running service: worker domains + job queue + optional cache. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count () - 1] clamped to [1 .. 8]: one
    domain stays free for the submitting thread. *)

val create :
  ?domains:int ->
  ?queue_capacity:int ->
  ?cache:cache ->
  ?recorder:Nullelim_obs.Recorder.t ->
  ?metrics:Nullelim_obs.Metrics.t ->
  ?tenant_cap:int ->
  unit ->
  t
(** Start a service with [domains] workers (default
    {!default_domains}, clamped to at least 1) and a queue bound of
    [queue_capacity] jobs (default 64).  With [cache], every request
    is looked up once at admission; a hit is served there and a miss is
    compiled by a worker and installed after.  Each request records
    one event per step into [recorder] (default
    {!Nullelim_obs.Recorder.global}), carrying its causal context: a
    queued request [Req_enqueue] (with the queue depth after the push
    in [b]), [Req_start] and [Req_done], a shed one [Req_shed], and
    with a cache its lookup's [Cache_miss] comes first.  The three
    lifecycle events are stamped with the clock readings the outcome
    is built from, so on a request's timeline the wait is
    [oc_queued_seconds] and the done is [oc_done_at].  A hit served at
    admission records [Req_enqueue] and [Req_start] stamped at
    admission, then its [Cache_hit], then [Req_done]; its
    [Req_start]/[Req_done] carry worker [b = -1].

    Per-tenant request accounting goes to [metrics] (default
    {!Nullelim_obs.Metrics.global}): counters
    [svc_requests_submitted_total]\{tenant\},
    [svc_requests_completed_total]\{tenant\} and
    [svc_requests_shed_total]\{tenant,reason\}, histograms
    [svc_queue_wait_seconds]\{tenant\} and
    [svc_compile_seconds]\{tenant\}.  Batch submissions carry tenant
    ["none"].  Submitted counts every accepted request (served at
    admission or queued) and completed every finished one, a failed
    compile included, so every offered request is submitted or shed,
    and submitted = completed once the service is quiescent.

    [tenant_cap] > 0 bounds how many requests {e of one tenant} may sit
    in the queue at once ({!recompile_async} sheds with reason
    [tenant_cap] beyond it), so one chatty tenant cannot monopolize the
    shared queue.  The cap does not apply to cache hits: a hit is served
    at admission and never takes a queue slot, so it is never shed.
    0 (the default) disables the cap. *)

val metrics : t -> Nullelim_obs.Metrics.t
(** The registry the service accounts into. *)

val tenant_cap : t -> int
(** The per-tenant in-queue cap ([0] = unlimited). *)

val tenants : t -> string list
(** Tenant labels that have submitted at least one request, sorted
    (includes ["none"] once untenanted requests have been seen). *)

val domains : t -> int
(** Number of worker domains. *)

val cache : t -> cache option
(** The cache installed at {!create} time, if any. *)

val compile_all : t -> job list -> outcome list
(** Compile every job on the worker pool and return the outcomes in
    job order (deterministic regardless of completion order).  Blocks
    until the whole batch is done.  If any job's compilation raised,
    the exception of the earliest such job is re-raised after the
    batch drains — the queue is left clean either way.  Jobs are
    admitted in order on the calling domain, which blocks for queue
    room (a batch is never shed); hits complete during admission.
    With a cache, a repeated key is admitted after its first copy in
    the batch completes, so it is looked up once and hits.  May be
    called repeatedly, and from different domains.

    @raise Invalid_argument if the service has been shut down (checked
    at each job's admission, before its lookup). *)

val compile_serial : ?cache:cache -> job list -> outcome list
(** Reference implementation: admit and compile the jobs one by one on
    the calling domain, no queue and no workers (the same admission as
    the pool: one key, and one lookup with [cache]).  Differential
    tests compare {!compile_all} against this. *)

type future
(** The completion of one submitted job.  Every request the service
    accepts — each job of a {!compile_all} batch and each
    {!recompile_async} submission — completes through one of these; a
    cache hit's is already complete when it is handed out. *)

val reason_tenant_cap : string
(** ["tenant_cap"] — the [reason] label when the submitting tenant was
    at its per-tenant in-queue cap. *)

val recompile_async : t -> ?tenant:int -> job -> future option
(** Submit one job without ever blocking.  A cache hit is served at
    admission: the returned future's {!poll} is already [Some].  A miss
    goes to the pool, or returns [None] when the queue is full or the
    submitting [tenant] (default -1 = untenanted) is at its in-queue
    cap — the request was {e shed}, and
    which of the two happened is visible in the
    [svc_requests_shed_total] [reason] label and the [Req_shed] flight
    event ([b] = 0 queue full, 1 tenant cap).  This is the tiered
    manager's promotion/deoptimization entry point and the front door
    the load generator drives — the serving (interpreter) thread must
    never wait on the compile pool, so installation happens whenever a
    later {!poll} finds the artifact ready.

    @raise Invalid_argument if the service has been shut down, checked
    before the lookup, so even a request whose key would hit. *)

val poll : future -> outcome option
(** Non-blocking completion check: [Some outcome] once the job's
    compile has finished, [None] while it is queued or compiling.  It
    never runs queued work.  Re-raises the job's exception if its
    compilation failed. *)

val await : future -> outcome
(** Wait until the job completes (test/benchmark helper — the serving
    thread uses {!poll}).  While the job is pending and the service's
    queue holds tasks, the caller runs them itself, one at a time (see
    "Waiting callers help" above); it blocks only while the queue is
    empty.  Re-raises the job's exception if its compilation failed —
    never that of a task it helped with, which fails its own request
    only. *)

val shutdown : t -> unit
(** Close the queue and join every worker.  Work already queued is
    drained before the workers exit; jobs of a concurrent {!compile_all}
    not yet submitted fail with [Invalid_argument].  Prefer quiescing
    first.  Idempotent. *)

val with_service :
  ?domains:int ->
  ?queue_capacity:int ->
  ?cache:cache ->
  ?recorder:Nullelim_obs.Recorder.t ->
  ?metrics:Nullelim_obs.Metrics.t ->
  ?tenant_cap:int ->
  (t -> 'a) ->
  'a
(** [with_service f] runs [f] over a fresh service and {!shutdown}s it
    on any exit path.  Optional arguments as for {!create}. *)
