(** Dead-code elimination.

    Removes instructions that define a variable nobody reads and that
    cannot affect observable behaviour.  In the split-check IR, guarded
    loads ([Get_field], [Array_load], [Array_length]) cannot fault on
    their own — their null check is a separate instruction — so a guarded
    load with a dead destination is removable, {e except} when it has
    been marked as the exception site of an implicit null check (then the
    load {e is} the check and must stay).  Integer division by a
    possibly-zero divisor, allocations, calls, checks and stores are
    never removed here. *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Cfg = Nullelim_cfg.Cfg
module Context = Nullelim_cfg.Context
module Liveness = Nullelim_analysis.Liveness

let removable ~keep_derefs (i : Ir.instr) =
  match i with
  | Move _ | Unop _ -> true
  | Binop (_, (Div | Rem), _, Cint k) -> k <> 0
  | Binop (_, (Div | Rem), _, _) -> false
  | Binop _ -> true
  | Get_field _ | Array_load _ | Array_length _ -> not keep_derefs
  | Null_check _ | Bound_check _ | Put_field _ | Array_store _ | New_object _
  | New_array _ | Call _ | Print _ ->
    false

(** [keep_derefs] must be set when running after phase 2: the
    substitutable-check elimination may rely on an (unmarked) dereference
    as the instruction that raises the NPE, so no dereference may be
    deleted then. *)
let run ?(keep_derefs = false) (f : Ir.func) : int =
  let cfg = Context.cfg (Context.of_func f) in
  let live = Liveness.solve cfg in
  let removed = ref 0 in
  (* scratch fact set, reused across blocks *)
  let s = Bitset.empty f.fn_nvars in
  for l = 0 to Ir.nblocks f - 1 do
    (* Inside a try region with a handler, an exception can transfer
       control between any two instructions, and the handler observes the
       locals at that point — so even a value overwritten later in the
       same block is not dead.  The block-level liveness is conservative
       there (everything live), and the intra-block walk below must not
       re-introduce kills: skip protected blocks entirely. *)
    let protected_block =
      Ir.handler_of f (Ir.block f l).breg <> None
    in
    if Cfg.is_reachable cfg l && not protected_block then begin
      let b = Ir.block f l in
      Liveness.live_out_into live l s;
      Ir.iter_term_uses (Bitset.add_mut s) b.term;
      let instrs = b.instrs in
      let n = Array.length instrs in
      let keep = Array.make n true in
      let block_removed = ref 0 in
      for k = n - 1 downto 0 do
        let i = instrs.(k) in
        let is_exception_site =
          k > 0
          &&
          match (instrs.(k - 1), Ir.deref_site i) with
          | Ir.Null_check (Implicit, v, _), Some (base, _, _) -> v = base
          | _ -> false
        in
        let d = Ir.def_of_instr i in
        let dead =
          d <> Ir.no_var && (not (Bitset.mem d s)) && removable ~keep_derefs i
        in
        if dead && not is_exception_site then begin
          keep.(k) <- false;
          incr removed;
          incr block_removed
        end
        else Liveness.transfer_instr s i
      done;
      if !block_removed > 0 then begin
        let out = ref [] in
        for k = n - 1 downto 0 do
          if keep.(k) then out := instrs.(k) :: !out
        done;
        Opt_util.set_instrs f l !out
      end
    end
  done;
  !removed
