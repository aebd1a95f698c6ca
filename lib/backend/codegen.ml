(** Code-emission model: derives machine-code statistics for a compiled
    function from the register allocation.

    No actual machine code is produced — the simulator executes the IR —
    but the pass walks every instruction exactly like an emitter would,
    charging base machine instructions per IR operation plus reload/store
    traffic for spilled operands, and records where implicit null checks
    ended up (they emit {e nothing}, which is the point of the paper's
    phase 2; explicit checks emit a compare-and-branch on IA32 or a
    conditional trap on PowerPC). *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch

type stats = {
  machine_instrs : int;
  spill_loads : int;
  spill_stores : int;
  explicit_check_instrs : int; (** instructions emitted for null checks *)
  implicit_check_instrs : int; (** always 0: documents the invariant *)
  code_bytes : int;            (** rough size estimate *)
}

let base_cost (arch : Arch.t) (i : Ir.instr) : int =
  match i with
  | Move _ -> 1
  | Unop (_, (Fsqrt | Fexp | Flog | Fsin | Fcos), _) ->
    if arch.Arch.has_fp_intrinsics then 1 else 3 (* call sequence *)
  | Unop _ -> 1
  | Binop _ -> 1
  | Null_check (Explicit, _, _) ->
    (* compare + branch on IA32; a single conditional trap on PowerPC *)
    if arch.Arch.cost.Arch.c_explicit_check <= 1 then 1 else 2
  | Null_check (Implicit, _, _) -> 0
  | Bound_check _ -> 2
  | Get_field _ | Array_length _ -> 1
  | Put_field _ -> 1
  | Array_load _ | Array_store _ -> 2 (* address arithmetic + access *)
  | New_object _ | New_array _ -> 4 (* allocation fast path *)
  | Call _ -> 3 (* argument shuffle + call *)
  | Print _ -> 3

let term_cost = function
  | Ir.Goto _ -> 1
  | Ir.If _ -> 2
  | Ir.Ifnull _ -> 2
  | Ir.Return _ -> 1
  | Ir.Throw _ -> 2

(** Emission walk: every spilled operand costs a reload; every spilled
    definition costs a store. *)
let emit_func ~(arch : Arch.t) (f : Ir.func) (alloc : Regalloc.allocation) :
    stats =
  let machine = ref 0 and loads = ref 0 and stores = ref 0 in
  let checks = ref 0 in
  let spilled v = Regalloc.is_spilled alloc v in
  Array.iter
    (fun (b : Ir.block) ->
      Array.iter
        (fun i ->
          machine := !machine + base_cost arch i;
          (match i with
          | Ir.Null_check (Explicit, _, _) ->
            checks := !checks + base_cost arch i
          | _ -> ());
          Ir.iter_uses (fun u -> if spilled u then incr loads) i;
          let d = Ir.def_of_instr i in
          if d <> Ir.no_var && spilled d then incr stores)
        b.instrs;
      machine := !machine + term_cost b.term;
      Ir.iter_term_uses (fun u -> if spilled u then incr loads) b.term)
    f.fn_blocks;
  let total = !machine + !loads + !stores in
  {
    machine_instrs = total;
    spill_loads = !loads;
    spill_stores = !stores;
    explicit_check_instrs = !checks;
    implicit_check_instrs = 0;
    code_bytes = total * 4;
  }

(** Run the whole back end on a function. *)
let run ~(arch : Arch.t) ?(nregs = 12) (f : Ir.func) : stats =
  let alloc = Regalloc.allocate ~nregs f in
  emit_func ~arch f alloc
