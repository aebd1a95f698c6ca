(** Architecture-independent null-check optimization (paper Section 4.1).

    Null checks are moved {e backward} (earlier) in the control-flow
    graph, to the earliest points they can reach without violating
    precise-exception semantics, and checks that become redundant are
    eliminated.  The pass is the enhanced partial-redundancy-elimination
    of Section 3.2 and removes loop-invariant null checks from loops.

    Stage 1 — insertion points (Section 4.1.1), a backward bit-vector
    problem over the set of null checks (identified by target variable):

    {v
      Out_bwd(n) = /\ over m in Succ(n) of (In_bwd(m) - Edge_try(m,n))
      In_bwd(n)  = (Out_bwd(n) - Kill_bwd(n)) \/ Gen_bwd(n)
      Earliest(n) = Out_bwd(n) /\ (Kill_bwd(n) \/ /\ over m in Pred(n) of not Out_bwd(m))
    v}

    - [Gen_bwd(n)]: checks located in [n] that can move up to its entry —
      no overwrite of the target and no side-effecting instruction above
      them in the block.
    - [Kill_bwd(n)]: checks whose target is overwritten in [n], plus
      everything if [n] contains a side-effecting instruction (may throw a
      non-NPE exception, writes memory, or writes a local while inside a
      try region).
    - [Edge_try(m,n)]: everything is killed on edges that change try
      region.

    The intersection over successors is down-safety: a check may sit at a
    block exit only if every path from there executes an equivalent check
    before any barrier, so insertion never introduces an exception the
    original program would not have thrown.  [Earliest(n)] — the checks
    that reach the exit of [n] but no predecessor's exit, plus those
    that reach it and that [n] kills — are the {e insertion points}
    (checks are inserted at block exits).  A killed check cannot move
    above [n]: whatever the predecessors anticipate is a check of the
    old value (or sits above a barrier), so [n]'s exit is the earliest
    point for the new one.  A block with no predecessors hosts
    everything that reaches its exit.

    Stage 2 — elimination (Section 4.1.2), a forward non-nullness
    analysis whose merge treats the pending insertions as available:

    {v
      In_fwd(n) = /\ over m in Pred(n) of (Out_fwd(m) \/ Earliest(m) \/ Edge(m,n))
    v}

    Checks known non-null immediately before their position are deleted;
    finally [Earliest(n) := Earliest(n) - Out_fwd(n)] and the survivors
    are materialized as explicit checks at block exits. *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Solver = Nullelim_dataflow.Solver
module Cfg = Nullelim_cfg.Cfg
module Context = Nullelim_cfg.Context
module Nullness = Nullelim_analysis.Nullness
module Decision = Nullelim_obs.Decision

(** Gen/Kill of Section 4.1.1 for one block. *)
let gen_kill_bwd (f : Ir.func) (l : Ir.label) : Bitset.t * Bitset.t =
  let nv = f.fn_nvars in
  let gen = Bitset.empty nv in
  let killed = Bitset.empty nv in
  let blocked = ref false in
  Array.iter
    (fun i ->
      (match i with
      | Ir.Null_check (_, v, _) ->
        if (not !blocked) && not (Bitset.mem v killed) then
          Bitset.add_mut gen v
      | _ -> ());
      if Opt_util.barrier f l i then blocked := true;
      let d = Ir.def_of_instr i in
      if d <> Ir.no_var then Bitset.add_mut killed d)
    (Ir.block f l).instrs;
  let kill = if !blocked then Bitset.full nv else killed in
  (gen, kill)

type analysis = {
  out_bwd : Bitset.t array;
  earliest : Bitset.t array;
}

let analyse (cfg : Cfg.t) : analysis =
  let f = Cfg.func cfg in
  let nv = f.fn_nvars in
  let n = Ir.nblocks f in
  let gen = Array.make n (Bitset.empty nv)
  and kill = Array.make n (Bitset.empty nv) in
  for l = 0 to n - 1 do
    let g, k = gen_kill_bwd f l in
    gen.(l) <- g;
    kill.(l) <- k
  done;
  let same_region m l = (Ir.block f m).breg = (Ir.block f l).breg in
  (* The optimistic [top] must cover only variables that are actually
     checked in some reachable block.  With [top = full], a cycle with
     no kill (most visibly: an infinite empty loop) sustains the whole
     variable universe as "anticipated", and the insertion pass then
     materializes checks at the entry even for variables the function
     never checks — or never assigns.  Restricted to genuinely checked
     variables the cycle can only sustain checks that exist downstream,
     whose variables are defined at every candidate insertion point in
     any validated program. *)
  let checked = Bitset.empty nv in
  for l = 0 to n - 1 do
    if Cfg.is_reachable cfg l then Bitset.union_into checked gen.(l)
  done;
  let r =
    Solver.solve ~dir:Solver.Backward ~cfg
      ~boundary:(Bitset.empty nv) ~top:checked ~meet:Solver.Inter
      ~edge:(fun ~src ~dst s -> if not (same_region src dst) then Bitset.clear_mut s)
      ~transfer:(fun l s ->
        Bitset.diff_into s kill.(l);
        Bitset.union_into s gen.(l))
      ()
  in
  let out_bwd =
    Array.init n (fun l ->
        if Cfg.is_reachable cfg l then Bitset.row r.Solver.outb l
        else Bitset.empty nv)
  in
  let earliest =
    Array.init n (fun l ->
        if not (Cfg.is_reachable cfg l) then Bitset.empty nv
        else begin
          let acc = Bitset.copy out_bwd.(l) in
          List.iter (fun m -> Bitset.diff_into acc out_bwd.(m)) (Cfg.preds cfg l);
          (* A check of a variable [l] overwrites reaches its exit anew,
             whatever the predecessors anticipate of the old value. *)
          Bitset.union_into acc (Bitset.inter out_bwd.(l) kill.(l));
          acc
        end)
  in
  { out_bwd; earliest }

(** Run the whole phase on a function.  Returns
    [(eliminated, inserted)]. *)
let run (f : Ir.func) : int * int =
  let cfg = Context.cfg (Context.of_func f) in
  let { earliest; _ } = analyse cfg in
  (* Stage 2: forward elimination, treating Earliest(m) as available at
     the exit of m. *)
  let nullness =
    Nullness.solve ~deref_gen:false
      ~extra_exit:earliest
      cfg
  in
  let eliminated = ref 0 and inserted = ref 0 in
  for l = 0 to Ir.nblocks f - 1 do
    if Cfg.is_reachable cfg l then begin
      let keep = ref [] in
      Nullness.iter_block nullness l (fun facts _idx i ->
          match i with
          | Ir.Null_check (ck, v, s) when Bitset.mem v facts ->
            incr eliminated;
            let kind, d_explicit, d_implicit =
              match ck with
              | Ir.Explicit -> (Decision.Kexplicit, -1, 0)
              | Ir.Implicit -> (Decision.Kimplicit, 0, -1)
            in
            Decision.record ~d_explicit ~d_implicit ~block:l ~var:v ~site:s
              ~kind ~action:Decision.Eliminated_redundant
              ~just:Decision.Nonnull_dominating ()
          | _ -> keep := i :: !keep);
      (* Earliest(l) minus what is already available at the exit of l. *)
      Bitset.iter
        (fun v ->
          if not (Nullness.nonnull_at_exit nullness l v) then begin
            let s = Ir.fresh_site () in
            keep := Ir.Null_check (Explicit, v, s) :: !keep;
            incr inserted;
            Decision.record ~d_explicit:1 ~block:l ~var:v ~site:s
              ~kind:Decision.Kexplicit ~action:Decision.Moved_backward
              ~just:Decision.Insertion_earliest ()
          end)
        earliest.(l);
      Opt_util.set_instrs f l (List.rev !keep)
    end
  done;
  (!eliminated, !inserted)
