(** Array-bounds-check optimization.

    The paper iterates the architecture-independent null-check phase with
    "array bounds check optimization" and scalar replacement (Figure 2);
    the three assist each other on multidimensional-array code
    (Section 5.1: Assignment, Neural Net, LU Decomposition).  We implement
    the two ingredients that participate in that synergy:

    - {b availability elimination}: a [Bound_check (i, l)] is deleted when
      a syntactically identical check has executed on every path since the
      last redefinition of [i] or [l];
    - {b loop-invariant hoisting}: a bound check whose operands are loop
      invariant is moved to the loop preheader when it provably executes
      on every iteration of a loop that runs at least once (its block is
      the loop header, it dominates all latches and exit-edge sources, and
      no side-effecting instruction precedes it in the first iteration),
      so the hoisted check throws exactly when and where the first
      original check would have.

    Range-analysis-based elimination of induction-variable checks is a
    separate published optimization and is deliberately out of scope (see
    DESIGN.md); all configurations pay the same cost for those checks, so
    the comparisons between null-check configurations are unaffected. *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Solver = Nullelim_dataflow.Solver
module Cfg = Nullelim_cfg.Cfg
module Context = Nullelim_cfg.Context
module Dominance = Nullelim_cfg.Dominance
module Loops = Nullelim_cfg.Loops
module Decision = Nullelim_obs.Decision

(* ------------------------------------------------------------------ *)
(* Availability-based elimination                                      *)
(* ------------------------------------------------------------------ *)

let pair_vars (i, l) = Ir.vars_of_operand i @ Ir.vars_of_operand l

(** Collect the universe of distinct (index, length) operand pairs, in
    order of first occurrence, and each pair's index in it. *)
let collect_pairs (f : Ir.func) :
    (Ir.operand * Ir.operand) array * (Ir.operand * Ir.operand, int) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Array.iter
    (fun (b : Ir.block) ->
      Array.iter
        (fun i ->
          match i with
          | Ir.Bound_check (x, y, _) ->
            if not (Hashtbl.mem tbl (x, y)) then begin
              Hashtbl.replace tbl (x, y) (Hashtbl.length tbl);
              order := (x, y) :: !order
            end
          | _ -> ())
        b.instrs)
    f.fn_blocks;
  (Array.of_list (List.rev !order), tbl)

(* What one instruction does to the available pairs: the pairs its
   definition kills, and the pair it makes available (-1 for none). *)
type effect = { kills : int list; gen : int }

let no_effect = { kills = []; gen = -1 }

(* Apply an effect in place (a loop, not [List.iter] with a closure:
   the solver's transfer runs it per instruction per visit). *)
let rec remove_all s = function
  | [] -> ()
  | k :: ks ->
    Bitset.remove_mut s k;
    remove_all s ks

let apply s e =
  remove_all s e.kills;
  if e.gen >= 0 then Bitset.add_mut s e.gen

let eliminate_redundant (f : Ir.func) : int =
  let pairs, index = collect_pairs f in
  let np = Array.length pairs in
  if np = 0 then 0
  else begin
    let cfg = Context.cfg (Context.of_func f) in
    (* map var -> pair ids it participates in *)
    let by_var = Hashtbl.create 16 in
    Array.iteri
      (fun k p ->
        List.iter
          (fun v ->
            Hashtbl.replace by_var v
              (k :: (Option.value ~default:[] (Hashtbl.find_opt by_var v))))
          (pair_vars p))
      pairs;
    (* each instruction's effect, resolved once for the solve and the
       rewrite that follows it *)
    let effects =
      Array.map
        (fun (b : Ir.block) ->
          Array.map
            (fun i ->
              let d = Ir.def_of_instr i in
              let kills =
                if d = Ir.no_var then []
                else Option.value ~default:[] (Hashtbl.find_opt by_var d)
              in
              let gen =
                match i with
                | Ir.Bound_check (x, y, _) -> Hashtbl.find index (x, y)
                | _ -> -1
              in
              if kills = [] && gen < 0 then no_effect else { kills; gen })
            b.instrs)
        f.fn_blocks
    in
    let r =
      Solver.solve ~dir:Solver.Forward ~cfg
        ~boundary:(Bitset.empty np) ~top:(Bitset.full np) ~meet:Solver.Inter
        ~boundary_blocks:(Cfg.handler_blocks f)
        ~transfer:(fun l s ->
          let es = effects.(l) in
          for k = 0 to Array.length es - 1 do
            apply s es.(k)
          done)
        ()
    in
    let removed = ref 0 and s = Bitset.empty np in
    for l = 0 to Ir.nblocks f - 1 do
      if Cfg.is_reachable cfg l then begin
        Bitset.load_row s r.Solver.inb l;
        let instrs = (Ir.block f l).instrs and dropped = ref [] in
        Array.iteri
          (fun k i ->
            let e = effects.(l).(k) in
            (* [gen] is set exactly on bound checks *)
            if e.gen >= 0 && Bitset.mem e.gen s then begin
              incr removed;
              dropped := k :: !dropped;
              Decision.record ~block:l ~site:(Ir.site_of_instr i)
                ~kind:Decision.Kbound
                ~action:Decision.Eliminated_redundant
                ~just:Decision.Available_on_entry ()
            end;
            apply s e)
          instrs;
        (* rebuild only the blocks that lost a check *)
        if !dropped <> [] then
          Opt_util.set_instrs f l
            (List.filteri (fun k _ -> not (List.mem k !dropped)) (Array.to_list instrs))
      end
    done;
    !removed
  end

(* ------------------------------------------------------------------ *)
(* Loop-invariant hoisting                                             *)
(* ------------------------------------------------------------------ *)

let operand_invariant defs_in_loop = function
  | Ir.Var v -> not (Hashtbl.mem defs_in_loop v)
  | Ir.Cint _ | Ir.Cfloat _ | Ir.Cnull -> true

let hoist_loop_invariant (f : Ir.func) : int =
  let ctx = Context.of_func f in
  let hoisted = ref 0 in
  let continue_ = ref true in
  (* Loop until no change.  The context rebuilds its structures only
     when hoisting creates a fresh preheader block; moving a check
     between existing blocks leaves CFG, dominators and loops intact. *)
  while !continue_ do
    continue_ := false;
    let cfg = Context.cfg ctx in
    let dom = Context.dom ctx in
    let loops = Context.loops ctx in
    List.iter
      (fun (l : Loops.loop) ->
        if not !continue_ then begin
          let instrs = (Ir.block f l.header).instrs in
          (* Anything that can throw before the check in the first
             iteration blocks hoisting: moving the bound check above it
             would reorder exceptions observably.  Null checks count
             here (unlike for null-check motion, where NPE-vs-NPE
             reordering is permitted).  A bound check is such a barrier
             itself, so the only candidate is the header's first null
             check or barrier. *)
          let k = ref 0 in
          while
            !k < Array.length instrs
            &&
            match instrs.(!k) with
            | Ir.Null_check _ -> false
            | i -> not (Opt_util.barrier f l.header i)
          do
            incr k
          done;
          let k = !k in
          (* the check must be loop invariant, and its block (the header)
             must dominate every latch and every exit-edge source *)
          let hoistable x y =
            let defs_in_loop = Hashtbl.create 16 in
            List.iter
              (fun m ->
                Array.iter
                  (fun i ->
                    let d = Ir.def_of_instr i in
                    if d <> Ir.no_var then Hashtbl.replace defs_in_loop d ())
                  (Ir.block f m).instrs)
              (Loops.members l);
            let dominated t = Dominance.dominates dom l.header t in
            operand_invariant defs_in_loop x
            && operand_invariant defs_in_loop y
            && List.for_all dominated l.latches
            && List.for_all (fun (t, _) -> dominated t) (Loops.exit_edges cfg l)
          in
          if k < Array.length instrs then
            match instrs.(k) with
            | Ir.Bound_check (x, y, _) as check when hoistable x y ->
              let ph = Loops.ensure_preheader f cfg l in
              (* remove from header *)
              let keep = ref [] in
              Array.iteri
                (fun j i -> if j <> k then keep := i :: !keep)
                instrs;
              Opt_util.set_instrs f l.header (List.rev !keep);
              Opt_util.append_instrs f ph [ check ];
              Decision.record ~block:l.header ~site:(Ir.site_of_instr check)
                ~kind:Decision.Kbound ~action:Decision.Moved_backward
                ~just:Decision.Invariant_in_loop ();
              incr hoisted;
              continue_ := true
            | _ -> ()
        end)
      loops
  done;
  !hoisted

(** Run both stages.  Returns [(eliminated, hoisted)].  Within a
    compile the two stages share the function's analysis context: when
    the hoisting settles without a structural change, the elimination
    reuses its CFG snapshot. *)
let run (f : Ir.func) : int * int =
  let h = hoist_loop_invariant f in
  let e = eliminate_redundant f in
  (e, h)
