(** Differential oracles over generated programs: strict input
    validation, compile/validate/verify/reconcile per configuration,
    observable behaviour against the raw program, worklist-vs-reference
    solver identity, baseline profile-count consistency, and (batched)
    serial-vs-parallel artifact identity. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module Interp = Nullelim_vm.Interp
module Svc = Nullelim_svc.Svc

type failure = {
  fl_oracle : string;  (** oracle name: ["validate-input"],
      ["compile-crash"], ["validate-output"], ["verify"], ["reconcile"],
      ["behaviour"], ["solver"], ["profile"], ["serial-parallel"] *)
  fl_config : string;  (** configuration name, or [""] *)
  fl_detail : string;
}

type verdict = Pass | Skip of string | Fail of failure
(** [Skip]: the raw program itself hit a simulator error (fuel,
    call-depth) — no differential signal. *)

val pp_failure : failure Fmt.t

val check :
  ?arch:Arch.t ->
  ?configs:Config.t list ->
  ?fuel:int ->
  Ir.program ->
  verdict
(** Run every serial oracle, compiling on the calling domain (the
    reference-solver differential flips only that domain's switch). *)

val check_native :
  ?arch:Arch.t ->
  ?config:Config.t ->
  ?fuel:int ->
  Ir.program ->
  verdict
(** Native ≍ interp differential: compile with [config] (default
    [new_full]), run the optimized program through both the interpreter
    and the C-emitting native backend, and compare observable behavior
    with {!Interp.equivalent}.  [Skip]s when the backend is unavailable
    on this host, the program leaves the native subset, or either engine
    hits a simulator-level error; a C toolchain rejection of emitted
    code or a behavioral divergence is a [Fail] ([fl_oracle =
    "native"]). *)

val still_fails :
  ?arch:Arch.t ->
  ?configs:Config.t list ->
  ?fuel:int ->
  failure ->
  Ir.program ->
  bool
(** Shrinker predicate: [check] fails with the same oracle as the given
    original failure. *)

val jobs :
  ?arch:Arch.t -> ?configs:Config.t list -> Ir.program -> Svc.job list
(** One compile job per configuration, for the service. *)

val compare_artifacts :
  serial:Svc.outcome list -> parallel:Svc.outcome list -> failure option
(** Byte-identity of pool-compiled artifacts against the serial
    reference path: code digest, check statistics, decision log.
    Wall-clock and worker-provenance fields are exempt by contract. *)
