(** Tiered execution manager: closes the profile → recompile loop.

    Every function starts at {b tier 0} — the instant compile
    ([Compiler.compile ~tier:0]: the input program with unreachable
    blocks removed, every raw check explicit, no optimizer pass).  The manager counts invocations at call boundaries;
    when a function crosses [promote_calls] it submits a {b tier 2}
    recompilation (the full phase-1 + phase-2 pipeline) to the compile
    pool with {!Svc.recompile_async} and keeps executing the tier-0
    version until the artifact is ready.  Completed artifacts are
    installed at the next call boundary of that function — frames
    already executing the old version run to completion, which is what
    makes installation free of any stop-the-world.

    The reverse edge is {b deoptimization}: when a hardware trap
    actually fires at an implicit check site (the interpreter's
    [on_trap] hook), the paper's bet — the check is free until the trap
    fires — has lost at that site.  At the site's first trap the
    manager immediately demotes the function to its tier-0 version
    (explicit checks are always sound) and submits a recompilation of
    tier 2 with that site's explicit check re-materialized
    ([Compiler.compile ~deopt_sites]); the resulting variant replaces
    the tier-0 fallback when it is ready.  Deopt sites accumulate per
    function, so repeated traps at different sites converge to a
    variant that keeps exactly the losing checks explicit.  Every
    recompile targets tier 2 (tier 1 is reserved), so a wanted version
    is named by its deopt set alone.

    {2 Code versioning}

    A code version is addressed by {!Svc.job_key} of the whole-program
    job — which covers the configuration, the tier tag and the sorted
    deopt-site set.  The service computes it once per job and returns
    it on the outcome ([Svc.oc_key]); the manager computes no key of
    its own.  Since provenance sites are program-unique, the
    deopt set names the function being re-specialized, giving the
    [(func, tier, deopt-set)] versioning the cache needs.  When a new
    version is installed, the key of the version it supersedes is
    invalidated with [Codecache.remove] so stale variants don't sit in
    the byte budget waiting for LRU pressure.

    {2 Synchronous mode}

    Without a service ([?svc] absent), submissions compile immediately
    on the calling thread through {!Svc.compile_serial} and install at
    the next call boundary — fully deterministic, used by the unit
    tests, the fuzz tier-equivalence oracle and the CI counter-drift
    gate.  A pending compile is one {!Svc.future} in both modes
    ({!Svc.completed} in this one), so every step of the state machine
    reads it the same way.  With a service, {!dispatch} and {!on_trap}
    call into it only through {!Svc.poll} and {!Svc.recompile_async},
    neither of which blocks; only {!settle} and {!drain} wait on the
    pool. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module Svc = Nullelim_svc.Svc
module Interp = Nullelim_vm.Interp
module Value = Nullelim_vm.Value

type t

type stats = {
  st_promotions : int;   (** tier-2 versions installed over tier 0 *)
  st_demotions : int;    (** immediate falls back to tier 0 after a trap *)
  st_deopts : int;       (** implicit sites re-materialized as explicit *)
  st_installs : int;     (** code-version installations (all kinds) *)
  st_submitted : int;    (** recompile jobs handed to the pool *)
  st_queue_full : int;   (** submissions deferred because the queue was full *)
  st_traps : int;        (** on_trap callbacks received *)
  st_recompile_seconds : float;
                         (** summed wall time of the installed recompiles *)
}

val create :
  ?svc:Svc.t ->
  ?cache:Svc.cache ->
  ?config:Config.t ->
  ?metrics:Nullelim_obs.Metrics.t ->
  ?recorder:Nullelim_obs.Recorder.t ->
  ?tenant:int ->
  arch:Arch.t ->
  Ir.program ->
  t
(** Build a manager for [program].  [config] (default
    [Config.new_full]) is the tier-2 target; its [promote_calls] field
    is the policy.  The tier-0 compilation of the
    whole program happens here, synchronously and without the cache —
    that is the "instant" compile every function starts with.  [cache]
    holds the tier-2 versions (pass the service's cache to share
    it).

    Observability: with [metrics], every installation observes a
    [tier_install_seconds] histogram (submission → install latency,
    labelled [kind=promote|deopt]); tier promotions/demotions and trap
    firings are recorded into [recorder] (default
    {!Nullelim_obs.Recorder.global}).  [tenant] (default -1 =
    untenanted) is attributed to every recompile this manager submits:
    the service mints each submission's causal context from it, so
    promotion/deopt compiles land in that tenant's metrics and the
    [Tier_promote] install event joins the compile request's
    timeline. *)

val dispatch : t -> string -> Interp.decoded * int
(** The interpreter's call-boundary hook (plug into [Interp.run
    ~dispatch]).  Installs any completed recompilation for the callee,
    bumps its invocation counter, submits a promotion when the counter
    crosses the threshold (retrying submissions the queue previously
    refused), and returns the current code version, decoded for the
    manager's arch, and its tier.  The manager owns the decoded code:
    a version is decoded when it is installed, and a function's tier-0
    body at its first dispatch (a demotion reuses it).  Never blocks. *)

val on_trap : t -> func:string -> site:int -> unit
(** The interpreter's trap hook (plug into [Interp.run ~on_trap]).
    Counts the trap; at a site's first trap demotes the function to
    tier 0 at once and requests the deoptimized tier-2 variant.  Traps
    at sites already in the installed, in-flight or wanted deopt set
    only count. *)

val run :
  ?fuel:int ->
  ?metrics:Nullelim_obs.Metrics.t ->
  ?profile:Nullelim_obs.Profile.t ->
  t ->
  Value.value list ->
  Interp.result
(** [Interp.run] with this manager's dispatch/on_trap wired in, against
    the tier-0 program (classes and main live there).  May be called
    repeatedly; tier state persists across runs — that is the
    steady-state loop. *)

val settle : t -> unit
(** Block until every in-flight recompilation has completed, without
    installing any of it: each artifact is installed by the serving
    path at the function's next call boundary, as in normal running
    (goal versions deferred by a full queue are submitted first).
    Test/benchmark helper.  Changes nothing in synchronous mode, where
    every submission has completed already. *)

val drain : t -> unit
(** {!settle}, then install (or drop as stale) every completed
    recompilation as the function's next call boundary would, repeated
    until no function has a wanted version or a compile in flight.
    Test/benchmark helper — the serving path never blocks.  In
    synchronous mode it installs the compiles still waiting for a
    call boundary. *)

val stats : t -> stats

val tier_of : t -> string -> int
(** Currently installed tier of a function (0 if never dispatched). *)

val deopt_sites : t -> string -> Ir.site list
(** Sites deoptimized so far in a function, sorted. *)

val artifacts : t -> (int * Compiler.compiled) list
(** Every whole-program artifact the manager compiled or installed,
    with its tier, in compile order — the per-tier decision logs the
    reconciliation tests fold over. *)

val installed_key : t -> string -> string option
(** The cache key of the artifact backing a function's current version
    ([None] while the function still runs the initial tier-0 code) —
    exposed for the invalidation tests. *)
