(** Static soundness verifier: every implicit null check must be
    immediately followed by a dereference of its variable that traps on
    the target architecture.  Accepts every legal configuration and
    rejects the paper's deliberately unsound "Illegal Implicit"
    experiment on AIX. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch

type violation = {
  v_func : string;
  v_block : Ir.label;
  v_index : int;
  v_reason : string;
}

val pp_violation : violation Fmt.t
val verify_program : arch:Arch.t -> Ir.program -> violation list
