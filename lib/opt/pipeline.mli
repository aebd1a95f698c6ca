(** Pass manager: named program passes, each executed pass recorded
    once (name, start stamp, monotonic wall time, minor-heap words,
    solver work) into a single sink;
    the source of the paper's compilation-time tables, of the
    benchmark harness's solver-work report, of the per-compile
    metrics registry and of a compile's Chrome trace. *)

module Ir = Nullelim_ir.Ir
module Solver = Nullelim_dataflow.Solver

type pass = { name : string; run : Ir.program -> unit }

type record = {
  r_pass : string;           (** the pass's name *)
  r_start : float;
      (** when this execution started, in seconds on
          {!Nullelim_obs.Clock} (the flight recorder's clock) *)
  r_seconds : float;         (** monotonic wall time of this execution *)
  r_minor_words : int;
      (** words this execution allocated on the minor heap: the calling
          domain's [Gc.minor_words] delta, which other domains'
          allocation does not move *)
  r_solver : Solver.stats;   (** solver work done by this execution *)
}

type sink
(** Where {!run} appends its records. *)

val sink : unit -> sink
val records : sink -> record list
(** In execution order. *)

val per_func : string -> (Ir.func -> unit) -> pass
val program_pass : string -> (Ir.program -> unit) -> pass

val run : ?sink:sink -> pass list -> Ir.program -> unit
(** Run the passes in order.  With [sink], append one record per
    executed pass: two clock reads, the calling domain's
    [Gc.minor_words] delta and its {!Solver} counter delta.  A pass of
    a retired round (see {!rounds}) does nothing and leaves no record.
    The decision log's pass/function context is maintained here. *)

val rounds : max:int -> pass list -> pass list
(** [rounds ~max round] is [max] copies of [round] that stop at a
    fixpoint.  Before the first round and after each round but the
    last, it takes a snapshot of everything a round can change: the
    digest of {!Nullelim_ir.Ir.funcs_projection} (the projection the
    compile service's cache key hashes), the domain's site counter and
    the number of decision-log events.  When a round ends with the
    snapshot it started with, the remaining rounds are skipped; the
    passes are deterministic, so they would have changed nothing.  The round
    state lives in the returned passes, so running them one at a time
    through {!run} skips the same rounds; the list is reusable. *)

(** {1 Views derived from the records} *)

val total : record list -> float
val total_matching : record list -> (string -> bool) -> float

val solver_total : record list -> Solver.stats
(** The records' solver work summed. *)

type pass_total = {
  p_pass : string;
  p_runs : int;           (** executions *)
  p_seconds : float;
  p_minor_words : int;
  p_solver : Solver.stats;
}

val by_pass : record list -> pass_total list
(** The records summed per pass name, sorted by name. *)

val counter_kinds : (string * (Solver.stats -> int)) list
(** The four solver counters by name: [solves], [visits], [transfers],
    [pushes]. *)

val counters : record list -> (string * int) list
(** Solver-work counters keyed by ["<pass>#<counter>"] with counter one
    of [solves]/[visits]/[transfers]/[pushes], sorted by key; zero
    counters are left out. *)

val record_metrics : Nullelim_obs.Metrics.t -> record list -> unit
(** Per-pass series into a registry, labeled by pass: [pass_seconds],
    [pass_runs], [pass_minor_words] and
    [solver_solves]/[_visits]/[_transfers]/[_pushes]. *)
