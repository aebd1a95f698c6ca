(** Control-flow simplification: merge straight-line block chains.

    Inlining and the structured builder leave chains of blocks connected
    by unconditional jumps.  Merging a block into its unique predecessor
    matters beyond cleanliness: block-local copy propagation can then see
    through the argument moves that inlining introduced ([this$i = o;
    ... = this$i.x] becomes [... = o.x]), which in turn lets the
    architecture-dependent phase recognize the dereference of the
    receiver and convert its null check to a hardware trap — the
    Figure 1/7 pipeline would otherwise be blind after inlining.

    A block [B] is merged into [A] when [A] ends with [Goto B], [A] is
    [B]'s only predecessor, both share a try region, [B] is not the
    entry, not a handler and not [A] itself.  Unreachable blocks are
    removed afterwards. *)

module Ir = Nullelim_ir.Ir
module Cfg = Nullelim_cfg.Cfg
module Context = Nullelim_cfg.Context

let run (f : Ir.func) : int =
  let merged = ref 0 in
  let ctx = Context.of_func f in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    (* one snapshot per sweep: merges within the sweep read the
       predecessor lists as they were when it started *)
    let cfg = Context.cfg ctx in
    let handlers = List.map snd f.fn_handlers in
    let try_merge a =
      if not (Cfg.is_reachable cfg a) then false
      else
        match (Ir.block f a).term with
        | Ir.Goto b
          when b <> 0 && b <> a
               && Cfg.preds cfg b = [ a ]
               && (not (List.mem b handlers))
               && (Ir.block f a).breg = (Ir.block f b).breg ->
          let ba = Ir.block f a and bb = Ir.block f b in
          ba.instrs <- Array.append ba.instrs bb.instrs;
          ba.term <- bb.term;
          (* leave [b] in place but unreachable; removed below *)
          incr merged;
          true
        | _ -> false
    in
    let n = Ir.nblocks f in
    let l = ref 0 in
    while !l < n do
      if try_merge !l then continue_ := true else incr l
    done
  done;
  if !merged > 0 then Opt_util.remove_unreachable f;
  !merged
