(** Whaley's null-check elimination — the paper's "Old Null Check"
    baseline (Section 2.2, reference [14]).

    A plain forward data-flow analysis computes the variables known to be
    non-null at every point (from earlier checks, allocations, successful
    dereferences and non-null branch edges) and deletes null checks whose
    target is already known non-null.  No code motion is performed, which
    is precisely the limitation the paper attacks: a loop-invariant null
    check whose first occurrence is inside the loop stays inside the
    loop. *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Cfg = Nullelim_cfg.Cfg
module Context = Nullelim_cfg.Context
module Nullness = Nullelim_analysis.Nullness
module Decision = Nullelim_obs.Decision

(** Returns the number of checks removed. *)
let run (f : Ir.func) : int =
  let cfg = Context.cfg (Context.of_func f) in
  let nullness = Nullness.solve ~deref_gen:true cfg in
  let removed = ref 0 in
  for l = 0 to Ir.nblocks f - 1 do
    (* the per-block fact walk copies the entry set; skip blocks that
       cannot possibly change *)
    let has_check =
      Array.exists
        (function Ir.Null_check _ -> true | _ -> false)
        (Ir.block f l).instrs
    in
    if Cfg.is_reachable cfg l && has_check then begin
      let keep = ref [] in
      let dropped = ref false in
      Nullness.iter_block nullness l (fun facts _idx i ->
          match i with
          | Ir.Null_check (ck, v, s) when Bitset.mem v facts ->
            incr removed;
            dropped := true;
            let kind, d_explicit, d_implicit =
              match ck with
              | Ir.Explicit -> (Decision.Kexplicit, -1, 0)
              | Ir.Implicit -> (Decision.Kimplicit, 0, -1)
            in
            Decision.record ~d_explicit ~d_implicit ~block:l ~var:v ~site:s
              ~kind ~action:Decision.Eliminated_redundant
              ~just:Decision.Nonnull_dominating ()
          | _ -> keep := i :: !keep);
      if !dropped then Opt_util.set_instrs f l (List.rev !keep)
    end
  done;
  !removed
