(** The JIT compile driver: applies a configuration to a program for a
    target architecture, recording one record per executed pass and
    null-check statistics. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Pipeline = Nullelim_opt.Pipeline
module Solver = Nullelim_dataflow.Solver
module Metrics = Nullelim_obs.Metrics
module Decision = Nullelim_obs.Decision

type check_stats = {
  raw_checks : int;    (** explicit checks in the input program *)
  raw_implicit : int;  (** implicit checks in the input program *)
  explicit_after : int;
  implicit_after : int;
}

type compiled = {
  program : Ir.program;
  config : Config.t;
  arch : Arch.t;
  records : Pipeline.record list;
      (** one record per executed pass, in execution order: name,
          monotonic seconds and solver work.  Per-pass timings and
          counters are derived from it (see {!Pipeline.by_pass}). *)
  solver : Solver.stats;
      (** total data-flow solver work of this compilation: the sum of
          the per-pass deltas in [records] *)
  checks : check_stats;
  compile_start : float;
      (** when the compile started, in seconds on {!Nullelim_obs.Clock} *)
  compile_seconds : float;  (** monotonic wall time of the compile *)
  decisions : Decision.event list;
      (** per-check decision log of this compilation, in record order *)
}

val round : Config.t -> arch:Arch.t -> Pipeline.pass list
(** One round of phase 1 and its helpers (bound-check optimization,
    scalar replacement) followed by the cleanup passes (Figure 2). *)

val passes :
  ?tier:int ->
  ?deopt_sites:Ir.site list ->
  Config.t ->
  arch:Arch.t ->
  Pipeline.pass list
(** The configuration's passes.  At [tier] 0 (default -1 = untiered)
    this is the instant compile, whatever the configuration and
    [deopt_sites]: one [other:normalize] pass that removes unreachable
    blocks and leaves every raw check as it is, so the result is the
    always-sound fallback a deoptimization returns to.  Otherwise the
    [iterations] rounds of phase 1 and its helpers are built with
    {!Pipeline.rounds}, so they stop at their fixpoint; the HotSpot
    model's extra rounds run unconditionally.  [deopt_sites] appends a deoptimization pass (after the
    architecture-dependent phase, before final DCE/codegen) that
    re-materializes the explicit check at each listed implicit site,
    recording a [Deoptimized]/[Trap_fired] decision event per site so
    the log still reconciles. *)

val compile :
  ?tier:int ->
  ?deopt_sites:Ir.site list ->
  Config.t ->
  arch:Arch.t ->
  Ir.program ->
  compiled
(** Compiles a copy; the input program is left untouched.  [tier]
    (default -1 = untiered) tags every decision event of this
    compilation and, with [deopt_sites], picks the passes
    ({!passes}).  The calling
    domain's site counter is re-seeded from the input for the compile
    and never ends below where it started, so programs built on that
    domain afterwards still get fresh sites. *)

val reconcile : compiled -> (unit, string) result
(** Verify that folding the decision log's deltas over the raw check
    counts reproduces [checks] exactly. *)

val count_all_checks : Ir.program -> int * int
(** [(explicit, implicit)] static counts. *)

val nullcheck_time : compiled -> float
(** Seconds spent in null-check optimization passes (Table 4). *)

val other_time : compiled -> float

val metrics : compiled -> Metrics.t
(** A fresh metrics registry for this compilation, built on demand:
    the per-pass series of {!Pipeline.record_metrics}, the
    [compile_seconds] gauge and the [checks_*] and [decision_events]
    counters. *)

val trace : compiled -> Nullelim_obs.Trace.event list
(** The compile as Chrome trace events, rendered from [records]: a
    [compile] span at ts 0 (args [config], [arch]) followed by one
    [pass] span per record, in record order, on the same clock and
    inside the compile span (args [minor_words] and the four solver
    counters). *)
