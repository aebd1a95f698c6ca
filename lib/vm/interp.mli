(** Cost-accounting interpreter with hardware-trap simulation.

    Plays the role of the CPU and operating system in the paper's
    evaluation: cycles are charged from the architecture's cost model
    (implicit checks are free), and dereferencing null raises
    NullPointerException only when the architecture traps for that
    access kind at that offset — otherwise the access silently touches
    the zero page and the event is counted ([implicit_miss] for a
    violated implicit check, [spec_null_reads] for a benign speculative
    read).  {!run} executes each function from a form decoded once
    ({!decode}); {!run_reference} walks the IR and is the oracle the
    decoded engine is tested against. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch

type event = Eprint of string | Ecaught of Ir.exn_kind

type outcome =
  | Returned of Value.value option
  | Uncaught of Ir.exn_kind
  | Sim_error of string
      (** the program or the compiler is broken: undefined variable,
          unchecked out-of-bounds access, fuel exhaustion, ... *)

type counters = {
  mutable instrs : int;
  mutable cycles : int;
  mutable explicit_checks : int;
  mutable implicit_checks : int;
  mutable bound_checks : int;
  mutable loads : int;
  mutable stores : int;
  mutable calls : int;
  mutable allocs : int;
  mutable npe_trap : int;
  mutable npe_explicit : int;
  mutable implicit_miss : int;
  mutable spec_null_reads : int;
}

val new_counters : unit -> counters

type result = { outcome : outcome; trace : event list; counters : counters }

type decoded
(** One function decoded for one architecture: per block, an array of
    operations, each specialised on its opcode, with its operands
    resolved to variable indices or constants boxed once and its cycle
    charge read from the arch's cost model, plus a decoded terminator.  An operation handles only the common case and
    hands anything else to the generic step, so a decoded run and a
    {!run_reference} run agree on every counter, charge, event, error,
    hook and on the fuel-exhaustion point. *)

val decode : arch:Arch.t -> Ir.func -> decoded
(** Decode [f] for [arch].  The result belongs to whoever owns the IR
    version (the tiered manager keeps it beside the version); there is
    no shared cache.  Running it under any other [Arch.t] value raises
    [Invalid_argument]: its charges come from [arch]'s cost model. *)

val decoded_func : decoded -> Ir.func
(** The IR the code was decoded from. *)

val run :
  ?fuel:int ->
  ?metrics:Nullelim_obs.Metrics.t ->
  ?profile:Nullelim_obs.Profile.t ->
  ?dispatch:(string -> decoded * int) ->
  ?on_trap:(func:string -> site:int -> unit) ->
  arch:Arch.t ->
  Ir.program ->
  Value.value list ->
  result
(** Run the program's main function on the given arguments.  With
    [metrics], the dynamic counters are also recorded into the registry
    as [interp_*] counters; with [profile], per-block execution counts
    and per-check-site dynamic hits are collected into the given
    collector (when absent, every profiling hook reduces to one option
    match — no measurable slowdown).

    [dispatch] is the call-boundary code-version resolver for tiered
    execution: every call (and the initial entry into main) maps the
    resolved callee name to the decoded code to execute and its tier —
    so a version installed between two calls takes effect at the next
    call, never mid-frame.  The default resolves in [p] at tier 0 and
    decodes each function at its first call within this run.  The tier
    flows into the profile's per-site rows.  [on_trap] is invoked when
    a hardware trap fires at an implicit check site (before the NPE
    propagates) — the tiered manager's deoptimization feedback; it must
    not raise.

    @raise Invalid_argument when [dispatch] returns code decoded for
    another [Arch.t] than [arch]. *)

val run_reference :
  ?fuel:int ->
  ?metrics:Nullelim_obs.Metrics.t ->
  ?profile:Nullelim_obs.Profile.t ->
  ?dispatch:(string -> decoded * int) ->
  ?on_trap:(func:string -> site:int -> unit) ->
  arch:Arch.t ->
  Ir.program ->
  Value.value list ->
  result
(** {!run} on the IR-walking loop, which executes [decoded_func] of
    whatever [dispatch] returns (default: [p]'s functions at tier 0).
    It is the oracle the decoded engine is tested against, like
    [Solver.solve_reference]; nothing on the run path uses it. *)

val record_metrics : ?run:string -> Nullelim_obs.Metrics.t -> counters -> unit
(** Dump dynamic counters into a registry ([interp_*] counters), labeled
    with [("run", run)] when given.  @raise Invalid_argument when called
    without [~run] on a registry that already holds unlabeled [interp_*]
    counters — silently merging two runs' counters was a bug. *)

val equivalent : result -> result -> bool
(** Observable equivalence: same trace of prints and caught exceptions,
    same outcome (exceptions compared by kind — the paper permits
    NPE-for-NPE reordering, so identity is not part of the contract). *)

val pp_outcome : outcome Fmt.t
val pp_event : event Fmt.t
val pp_exn_kind : Ir.exn_kind Fmt.t
