(** Architecture-dependent null-check optimization (paper Section 4.2).

    The PRE machinery is applied in the {e opposite} direction: null
    checks are moved forward (later) to the latest points they can reach,
    so that as many as possible land immediately in front of an
    instruction that dereferences the same object inside the protected
    trap area — there they are converted to free {e implicit} checks
    (Section 3.3).  Remaining explicit checks that are "substitutable"
    (re-covered later on every path before any side effect) are
    eliminated by a final backward analysis (Section 4.2.2).

    Stage 1 — forward motion (Section 4.2.1):

    {v
      In_fwd(n)  = /\ over m in Pred(n) of (Out_fwd(m) - Edge_try(m,n))
      Out_fwd(n) = walk of block n (see below)
    v}

    The per-block transfer function and the rewriting share one walk,
    which follows the paper's insertion-point pseudocode:

    - an original null check is deleted and its target joins the floating
      set;
    - an instruction that dereferences a floating variable inside the
      trap area with a faulting access kind consumes the check: an
      implicit check is inserted in front of it and the instruction
      becomes the designated exception site;
    - an instruction that dereferences a floating variable {e without} a
      guaranteed trap (offset beyond the trap area — the BigOffset case
      of Figure 5(1) — a variable-index array element, or a read on an
      OS that traps only writes) forces an explicit check in front of it;
    - a side-effecting instruction flushes every floating check as
      explicit checks placed in front of it;
    - an instruction overwriting a floating variable forces that one
      check out, in front of it;
    - checks still floating at the block exit continue into the
      successors when every successor receives them ([In_fwd] of every
      successor contains the variable); otherwise they are materialized
      as explicit checks at the block exit.

    The meet is intersection so that a delayed check never executes on a
    path that did not already contain one, which preserves the exception
    semantics exactly; and because only side-effect-free instructions can
    separate the old and new positions, delaying the NullPointerException
    is unobservable. *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Solver = Nullelim_dataflow.Solver
module Cfg = Nullelim_cfg.Cfg
module Context = Nullelim_cfg.Context
module Arch = Nullelim_arch.Arch
module Decision = Nullelim_obs.Decision

type stats = {
  mutable made_implicit : int;
  mutable made_explicit : int;
  mutable eliminated : int;
}

(** What the rewriting walk adds to the transfer walk: where the
    rewritten instructions go, the counts, and the provenance id for a
    check rematerialized on a floating variable.  The floating set is a
    bit-vector over variables, so site identity is carried on the side
    by a function-level representative map (see {!run}). *)
type rewrite = {
  emit : Ir.instr -> unit;
  stats : stats;
  site_of : Ir.var -> Ir.site;
}

(* The rewriting walk materializes the floating check of [v] as an
   explicit check in block [l], for reason [just]. *)
let explicit rw l v just =
  rw.emit (Ir.Null_check (Explicit, v, rw.site_of v));
  rw.stats.made_explicit <- rw.stats.made_explicit + 1;
  Decision.record ~d_explicit:1 ~block:l ~var:v ~site:(rw.site_of v)
    ~kind:Decision.Kexplicit ~action:Decision.Moved_forward ~just ()

(** The shared walk.  Updates [floating] in place.  With [rw] it also
    produces the rewritten instructions, counts them and records the
    decision-log events; without it, it is the data-flow transfer,
    which must stay silent (or every check would be logged once per
    solver visit) and allocates nothing. *)
let walk_block ~arch (f : Ir.func) (l : Ir.label) ~(floating : Bitset.t)
    (rw : rewrite option) : unit =
  let instrs = (Ir.block f l).instrs in
  for k = 0 to Array.length instrs - 1 do
    let i = instrs.(k) in
    match i with
    | Ir.Null_check (ck, v, s) ->
      (* the check is picked up and floats; the instruction is dropped *)
      (match rw with
      | Some _ ->
        let kind, d_explicit, d_implicit =
          match ck with
          | Ir.Explicit -> (Decision.Kexplicit, -1, 0)
          | Ir.Implicit -> (Decision.Kimplicit, 0, -1)
        in
        Decision.record ~d_explicit ~d_implicit ~block:l ~var:v ~site:s ~kind
          ~action:Decision.Moved_forward ~just:Decision.Floated ()
      | None -> ());
      Bitset.add_mut floating v
    | _ ->
      (* 1. dereference of a floating variable consumes its check:
         implicit when the trap is guaranteed, explicit otherwise.  The
         emission is deferred until after any barrier flush so that an
         implicit check stays immediately adjacent to its exception
         site (a store is both a consumer of its own check and a
         barrier for every other floating check). *)
      let base = Ir.deref_base i in
      let consumed = base <> Ir.no_var && Bitset.mem base floating in
      if consumed then Bitset.remove_mut floating base;
      (* 2. side-effect barrier: flush everything still floating *)
      if Opt_util.barrier f l i then begin
        (match rw with
        | Some rw ->
          Bitset.iter (fun v -> explicit rw l v Decision.Side_effect_barrier) floating
        | None -> ());
        Bitset.clear_mut floating
      end
      else begin
        (* 3. overwrite of a floating variable *)
        let d = Ir.def_of_instr i in
        if d <> Ir.no_var && Bitset.mem d floating then begin
          (match rw with
          | Some rw -> explicit rw l d Decision.Overwritten
          | None -> ());
          Bitset.remove_mut floating d
        end
      end;
      match rw with
      | None -> ()
      | Some rw ->
        (if consumed then
           match Ir.deref_site i with
           | Some (_, off, _) when Arch.instr_traps_for arch i base ->
             rw.emit (Ir.Null_check (Implicit, base, rw.site_of base));
             rw.stats.made_implicit <- rw.stats.made_implicit + 1;
             Decision.record ~d_implicit:1 ~block:l ~var:base
               ~site:(rw.site_of base) ~kind:Decision.Kimplicit
               ~action:Decision.Converted_implicit
               ~just:(Decision.Trap_covered off) ()
           | _ -> explicit rw l base Decision.Trap_not_covered);
        rw.emit i
  done

(* The edge transfer of both stages' solves: a fact crosses an edge
   only within one try region and never along a retreating edge. *)
let cut_edge (cfg : Cfg.t) (f : Ir.func) ~src ~dst s =
  if (Ir.block f src).breg <> (Ir.block f dst).breg
     || Cfg.rpo_pos cfg dst <= Cfg.rpo_pos cfg src
  then Bitset.clear_mut s

(** Forward data-flow of Section 4.2.1.

    Floating checks are killed on retreating edges (RPO position of the
    target not after the source — every cycle has one).  The optimistic
    [top]/intersection fixpoint would otherwise let an unconsumed check
    sustain itself around a loop: each block of the cycle sees every
    successor "accepting" the check, nothing materializes it, and a
    check on a variable never dereferenced again simply disappears —
    observably so when the loop does not terminate (the NPE is traded
    for divergence).  Killing the fact on the retreating edge makes the
    materialization at the edge's source mandatory instead.  The edge
    transfer ({!cut_edge}, shared with the backward stage) also kills
    everything on edges that change try region ([Edge_try]). *)
let analyse ~arch (cfg : Cfg.t) : Solver.result =
  let f = Cfg.func cfg in
  let nv = f.fn_nvars in
  Solver.solve ~dir:Solver.Forward ~cfg
    ~boundary:(Bitset.empty nv) ~top:(Bitset.full nv) ~meet:Solver.Inter
    ~edge:(cut_edge cfg f) ~boundary_blocks:(Cfg.handler_blocks f)
    ~transfer:(fun l floating -> walk_block ~arch f l ~floating None)
    ()

(** Mutation-testing hook (flipped only by the fuzzer's self-test; see
    [Gen.Diff]): when set, the backward substitutable-check elimination
    stops treating [Print] as a kill barrier, so a check can be deleted
    as "covered later" across observable output.  The classic unsound
    variant: the cover raises the same NullPointerException, but only
    *after* the output between the two points has happened — exactly the
    trace difference the differential oracle must catch and the shrinker
    must minimize. *)
let mutate_kill_barrier : bool Atomic.t = Atomic.make false

let sub_barrier f l i =
  match i with
  | Ir.Print _ when Atomic.get mutate_kill_barrier -> false
  | _ -> Opt_util.barrier f l i

(** Stage 2 of the phase: backward substitutable-check elimination
    (Section 4.2.2).

    {v
      Out_bwd(n) = /\ over m in Succ(n) of (In_bwd(m) - Edge_try(m,n))
      In_bwd(n)  = (Out_bwd(n) - Kill(n)) \/ Gen_bwd(n)
    v}

    [Gen_bwd(n)]: variables covered — by another null check or by a
    dereference that traps — before any kill from the entry of [n].  An
    explicit check that is substitutable immediately after its position
    is deleted: the later cover raises the same NullPointerException and
    only side-effect-free instructions separate the two points. *)
let eliminate_substitutable ~arch ~(cfg : Cfg.t) (f : Ir.func)
    (stats : stats) : unit =
  let nv = f.fn_nvars in
  let gen_kill l =
    let gen = Bitset.empty nv and killed = Bitset.empty nv in
    let blocked = ref false in
    Array.iter
      (fun i ->
        (* cover first: a covering instruction may itself be a barrier
           (e.g. a field store), but it covers checks above it *)
        (match i with
        | Ir.Null_check (_, v, _) ->
          if (not !blocked) && not (Bitset.mem v killed) then
            Bitset.add_mut gen v
        | _ -> (
          match Ir.deref_site i with
          | Some (base, _, _)
            when Arch.instr_traps_for arch i base
                 && (not !blocked)
                 && not (Bitset.mem base killed) ->
            Bitset.add_mut gen base
          | Some _ | None -> ()));
        if sub_barrier f l i then blocked := true;
        let d = Ir.def_of_instr i in
        if d <> Ir.no_var then Bitset.add_mut killed d)
      (Ir.block f l).instrs;
    let kill = if !blocked then Bitset.full nv else killed in
    (gen, kill)
  in
  let n = Ir.nblocks f in
  let gen = Array.make n (Bitset.empty nv)
  and kill = Array.make n (Bitset.empty nv) in
  for l = 0 to n - 1 do
    let g, k = gen_kill l in
    gen.(l) <- g;
    kill.(l) <- k
  done;
  (* kill covers on retreating edges, as in {!analyse}: the optimistic
     backward fixpoint would otherwise let a cycle certify itself as
     "covered later" with no cover anywhere in it, deleting a check in
     front of a non-terminating loop *)
  let r =
    Solver.solve ~dir:Solver.Backward ~cfg
      ~boundary:(Bitset.empty nv) ~top:(Bitset.full nv) ~meet:Solver.Inter
      ~edge:(cut_edge cfg f)
      ~transfer:(fun l s ->
        Bitset.diff_into s kill.(l);
        Bitset.union_into s gen.(l))
      ()
  in
  for l = 0 to n - 1 do
    if Cfg.is_reachable cfg l then begin
      let instrs = (Ir.block f l).instrs in
      let sub = Bitset.row r.Solver.outb l in
      let out = ref [] in
      for k = Array.length instrs - 1 downto 0 do
        let i = instrs.(k) in
        let deleted =
          match i with
          | Ir.Null_check (Explicit, v, s) when Bitset.mem v sub ->
            stats.eliminated <- stats.eliminated + 1;
            Decision.record ~d_explicit:(-1) ~block:l ~var:v ~site:s
              ~kind:Decision.Kexplicit ~action:Decision.Substituted
              ~just:Decision.Covered_later ();
            true
          | _ -> false
        in
        if not deleted then out := i :: !out;
        (* update [sub] to the point before [i] *)
        if sub_barrier f l i then Bitset.clear_mut sub;
        let d = Ir.def_of_instr i in
        if d <> Ir.no_var then Bitset.remove_mut sub d;
        match i with
        | Ir.Null_check (_, v, _) -> if not deleted then Bitset.add_mut sub v
        | _ -> (
          match Ir.deref_site i with
          | Some (base, _, _) when Arch.instr_traps_for arch i base ->
            Bitset.add_mut sub base
          | Some _ | None -> ())
      done;
      Opt_util.set_instrs f l !out
    end
  done

(** Run the whole architecture-dependent phase on a function.  Both
    stages rewrite instructions only (terminators and handler tables are
    untouched), so one CFG snapshot — via a cached {!Context.t} — serves
    the forward motion, the rewriting, and the substitutable-check
    elimination. *)
let run ~(arch : Arch.t) (f : Ir.func) : stats =
  let stats = { made_implicit = 0; made_explicit = 0; eliminated = 0 } in
  let ctx = Context.of_func f in
  let cfg = Context.cfg ctx in
  let r = analyse ~arch cfg in
  (* Provenance: the floating set is keyed by variable, so rematerialized
     checks recover their site from a per-function representative map —
     the first check on each variable in the pre-rewrite program.  When
     several checks on one variable merge in flight, the representative
     stands for all of them; a site may correspondingly reappear on more
     than one path, which keeps attribution sound (each copy descends
     from that original check). *)
  let site_map : (Ir.var, Ir.site) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (b : Ir.block) ->
      Array.iter
        (fun i ->
          match i with
          | Ir.Null_check (_, v, s) ->
            if not (Hashtbl.mem site_map v) then Hashtbl.add site_map v s
          | _ -> ())
        b.instrs)
    f.fn_blocks;
  let site_of v =
    match Hashtbl.find_opt site_map v with Some s -> s | None -> Ir.no_site
  in
  let nblocks = Ir.nblocks f in
  for l = 0 to nblocks - 1 do
    if Cfg.is_reachable cfg l then begin
      let acc = ref [] in
      let rw = { emit = (fun i -> acc := i :: !acc); stats; site_of } in
      let floating = Bitset.row r.Solver.inb l in
      walk_block ~arch f l ~floating (Some rw);
      (* materialize checks that not every successor accepts *)
      let succs = Cfg.succs cfg l in
      Bitset.iter
        (fun v ->
          let continues =
            succs <> []
            && List.for_all (fun s -> Bitset.row_mem r.Solver.inb s v) succs
          in
          if not continues then explicit rw l v Decision.Not_anticipated)
        floating;
      Opt_util.set_instrs f l (List.rev !acc)
    end
  done;
  eliminate_substitutable ~arch ~cfg:(Context.cfg ctx) f stats;
  stats
