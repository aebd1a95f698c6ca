(** Measured trap costs through the native backend: real wall-clock
    nanoseconds for explicit checks, implicit (trap-guarded) checks and
    full SIGSEGV recovery, replacing the simulator's modeled cycle
    constants with measurements (see EXPERIMENTS.md "Measured trap
    costs").

    Three pointer-chasing microkernels differ only in check
    representation (explicit / implicit / none) so their wall-time
    deltas isolate the per-check cost; a fourth kernel forces one
    hardware trap per iteration and measures the recovery round trip.
    See the implementation header for the anti-optimization reasoning
    (data-dependent chase, identical setjmp frames). *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Json = Nullelim_obs.Obs_json

type result = {
  nb_arch : string;
  nb_checks : int;  (** dereference steps (= checks) per kernel run *)
  nb_traps : int;  (** recoveries driven by the recovery kernel *)
  nb_explicit_ns : float;  (** whole-kernel wall time, best of repeats *)
  nb_implicit_ns : float;
  nb_baseline_ns : float;
  nb_explicit_check_ns : float;  (** (explicit - implicit) / checks *)
  nb_implicit_check_ns : float;
      (** (implicit - baseline) / checks — the zero-cost claim,
          measured *)
  nb_recovery_ns : float;  (** per recovered trap *)
  nb_model_explicit_check_ns : float;
      (** what the simulator's cost model charges per explicit check *)
  nb_implicit_check_instrs : int;
      (** instructions the emitter spent on implicit checks: always
          [0] *)
}

val available : unit -> bool
(** Same probe as {!Native.available}. *)

val collect :
  ?iters:int ->
  ?traps:int ->
  ?repeats:int ->
  arch:Arch.t ->
  unit ->
  (result, string) Stdlib.result
(** Run the four kernels ([8 * iters] checks each, [traps] recoveries,
    best of [repeats]; defaults 500k/2k/3).  [Error] when the native
    backend is unavailable or a kernel misbehaves. *)

val doc : Nullelim_obs.Doc.t
(** ["nullelim-native-bench/1"], the document [nullelim native-bench
    --json] writes. *)

val to_json : result -> Json.t
val unavailable_json : string -> Json.t
(** The document when the host cannot run the backend:
    [{"available": false, "reason": ...}] — CI's cc-masked leg asserts
    this shape. *)

val pp : result Fmt.t
