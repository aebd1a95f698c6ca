(** Generic iterative bit-vector data-flow solver.

    All four analyses of the paper (Sections 4.1.1, 4.1.2, 4.2.1, 4.2.2)
    and the auxiliary analyses (nullness, liveness, availability) are
    instances of this solver.  The client supplies:

    - the direction;
    - the meet used to combine facts flowing into a node ({!Inter} for
      all-paths/must problems, {!Union} for any-path/may problems);
    - a per-edge transfer [edge ~src ~dst fact] — this is where the
      paper's [Edge_try(m,n)] kill and [Edge(m,n)] gen live;
    - a per-block transfer;
    - the boundary value for blocks with no incoming edges (the entry for
      forward problems, returns/throws for backward ones);
    - the initial interior value ([top]): the full set for must problems,
      the empty set for may problems.

    The engine is a priority worklist: blocks are visited in reverse
    postorder (forward) / postorder (backward), lowest queued position
    first, and when a block's
    output changes only its dependents — successors for forward
    problems, predecessors for backward ones — are re-queued, instead of
    re-scanning every block until a whole sweep is quiet.  Both engines
    perform chaotic iteration from the same initial assignment, so for
    the monotone transfer functions used throughout this code base they
    compute the {e same} fixpoint bit for bit; {!solve_reference} keeps
    the original round-robin engine precisely so the test suite can
    assert that.  Unreachable blocks keep [top].

    The meet over incoming edges runs destructively into the block's
    input slot, so a block visit allocates nothing beyond what the
    client's own [transfer]/[edge] functions allocate.

    {!with_reference} routes {!solve} on the calling domain to the
    round-robin engine: the differential oracle and the tests compare
    the two engines with it, and the benchmark harness quotes
    before/after counter and timing deltas from the same binary. *)

module Cfg = Nullelim_cfg.Cfg

type direction = Forward | Backward

type meet = Inter | Union

type result = { inb : Bitset.t array; outb : Bitset.t array }
(** [inb.(l)] / [outb.(l)] are the facts at block entry / exit.  For
    backward problems "in" is still block entry and "out" block exit. *)

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable solves : int;    (** solver instances run *)
  mutable visits : int;    (** blocks taken off the worklist (or swept) *)
  mutable transfers : int; (** block transfer functions applied *)
  mutable pushes : int;    (** worklist insertions (incl. the seeding) *)
}

(* Domain-local: each domain of the compile service accumulates its own
   work counters, so [snapshot]/[diff] around a compilation measure
   exactly that compilation even when other domains are solving too. *)
let counters_key : stats Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { solves = 0; visits = 0; transfers = 0; pushes = 0 })

let counters () = Domain.DLS.get counters_key

let snapshot () =
  let c = counters () in
  {
    solves = c.solves;
    visits = c.visits;
    transfers = c.transfers;
    pushes = c.pushes;
  }

let diff (a : stats) (b : stats) : stats =
  {
    solves = a.solves - b.solves;
    visits = a.visits - b.visits;
    transfers = a.transfers - b.transfers;
    pushes = a.pushes - b.pushes;
  }


(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

let meet_fn = function Inter -> Bitset.inter | Union -> Bitset.union
let meet_into = function Inter -> Bitset.inter_into | Union -> Bitset.union_into

(** Iteration order: reverse postorder for forward problems, postorder
    for backward ones. *)
let visit_order dir (cfg : Cfg.t) : int array =
  let rpo = Cfg.reverse_postorder cfg in
  match dir with
  | Forward -> rpo
  | Backward ->
    let len = Array.length rpo in
    Array.init len (fun i -> rpo.(len - 1 - i))

(* ------------------------------------------------------------------ *)
(* Reference engine: round-robin sweeps until a quiet pass.            *)
(* Retained for differential testing and as the measurable baseline.   *)
(* ------------------------------------------------------------------ *)

let solve_reference ~(dir : direction) ~(cfg : Cfg.t)
    ~(boundary : Bitset.t)
    ~(top : Bitset.t)
    ~(meet : meet)
    ?(edge = fun ~src:_ ~dst:_ s -> s)
    ?(boundary_blocks = ([] : int list))
    ~(transfer : int -> Bitset.t -> Bitset.t) () : result =
  let counters = counters () in
  counters.solves <- counters.solves + 1;
  let meet = meet_fn meet in
  let n = Cfg.nblocks cfg in
  let inb = Array.make n top and outb = Array.make n top in
  let order = visit_order dir cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun l ->
        counters.visits <- counters.visits + 1;
        counters.transfers <- counters.transfers + 1;
        match dir with
        | Forward ->
          let incoming =
            List.map (fun p -> edge ~src:p ~dst:l outb.(p)) (Cfg.preds cfg l)
          in
          let i =
            (* boundary blocks (exception handlers) are entered with no
               accumulated facts regardless of syntactic predecessors *)
            if List.mem l boundary_blocks then boundary
            else
              match incoming with
              | [] -> boundary
              | first :: rest -> List.fold_left meet first rest
          in
          inb.(l) <- i;
          let o = transfer l i in
          if not (Bitset.equal o outb.(l)) then begin
            outb.(l) <- o;
            changed := true
          end
        | Backward ->
          let incoming =
            List.map (fun s -> edge ~src:l ~dst:s inb.(s)) (Cfg.succs cfg l)
          in
          let o =
            match incoming with
            | [] -> boundary
            | first :: rest -> List.fold_left meet first rest
          in
          outb.(l) <- o;
          let i = transfer l o in
          if not (Bitset.equal i inb.(l)) then begin
            inb.(l) <- i;
            changed := true
          end)
      order
  done;
  { inb; outb }

(* ------------------------------------------------------------------ *)
(* Worklist engine                                                     *)
(* ------------------------------------------------------------------ *)

let solve_worklist ~(dir : direction) ~(cfg : Cfg.t)
    ~(boundary : Bitset.t)
    ~(top : Bitset.t)
    ~(meet : meet)
    ?(edge = fun ~src:_ ~dst:_ s -> s)
    ?(boundary_blocks = ([] : int list))
    ~(transfer : int -> Bitset.t -> Bitset.t) () : result =
  let counters = counters () in
  counters.solves <- counters.solves + 1;
  let n = Cfg.nblocks cfg in
  (* Every slot gets its own set: the meet writes into them in place. *)
  let inb = Array.init n (fun _ -> Bitset.copy top) in
  let outb = Array.init n (fun _ -> Bitset.copy top) in
  let order = visit_order dir cfg in
  let m = Array.length order in
  if m > 0 then begin
    let forward = dir = Forward in
    (* a block's position in the visit order, from the CFG's reverse
       postorder; -1 marks blocks the DFS never reached (they keep [top]
       and are never queued) *)
    let pos l =
      let r = Cfg.rpo_pos cfg l in
      if r < 0 || forward then r else m - 1 - r
    in
    (* dependency arrays: where a block's input comes from, and who must
       be re-queued when its output changes *)
    let input_of, dependents =
      if forward then (Cfg.pred_arrays cfg, Cfg.succ_arrays cfg)
      else (Cfg.succ_arrays cfg, Cfg.pred_arrays cfg)
    in
    let is_boundary = Array.make n false in
    if forward then
      List.iter
        (fun l -> if l >= 0 && l < n then is_boundary.(l) <- true)
        boundary_blocks;
    let op = meet_into meet in
    (* where a block's input is met into, and where its output goes *)
    let inputs = if forward then inb else outb
    and outputs = if forward then outb else inb in
    (* the fact flowing into [l] along its edge with neighbour [p] *)
    let fact l p =
      if forward then edge ~src:p ~dst:l outputs.(p)
      else edge ~src:l ~dst:p outputs.(p)
    in
    (* The worklist is one flag per visit-order position, so taking the
       lowest queued position visits blocks in the order a priority
       queue keyed by position would.  [first] is at or below the lowest
       set flag: a push below it moves it down, and a pop scans up from
       it. *)
    let queued = Array.make m true in
    let pending = ref m and first = ref 0 in
    (* seeded with every reachable block, in visit order (so the first
       drain is exactly one in-order sweep) *)
    counters.pushes <- counters.pushes + m;
    while !pending > 0 do
      while not queued.(!first) do
        incr first
      done;
      let k = !first in
      queued.(k) <- false;
      decr pending;
      let l = order.(k) in
      counters.visits <- counters.visits + 1;
      (* 1. meet over incoming edges, destructively into the input slot *)
      let input = inputs.(l) in
      let ins = input_of.(l) in
      let nin = Array.length ins in
      if is_boundary.(l) || nin = 0 then Bitset.copy_into input boundary
      else begin
        Bitset.copy_into input (fact l ins.(0));
        for j = 1 to nin - 1 do
          op input (fact l ins.(j))
        done
      end;
      (* 2. block transfer *)
      counters.transfers <- counters.transfers + 1;
      let o = transfer l input in
      (* the output slot must stay distinct from the input slot, which
         the next visit overwrites in place *)
      let o = if o == input then Bitset.copy o else o in
      if not (Bitset.equal o outputs.(l)) then begin
        outputs.(l) <- o;
        (* 3. re-queue the dependents whose input just changed *)
        let deps = dependents.(l) in
        for j = 0 to Array.length deps - 1 do
          let q = pos deps.(j) in
          if q >= 0 && not queued.(q) then begin
            queued.(q) <- true;
            incr pending;
            if q < !first then first := q;
            counters.pushes <- counters.pushes + 1
          end
        done
      end
    done
  end;
  { inb; outb }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* every domain starts on the worklist engine *)
let reference = Domain.DLS.new_key (fun () -> false)

let with_reference on f =
  let saved = Domain.DLS.get reference in
  Domain.DLS.set reference on;
  Fun.protect ~finally:(fun () -> Domain.DLS.set reference saved) f

let solve ~dir ~cfg ~boundary ~top ~meet ?edge ?boundary_blocks ~transfer () =
  let engine =
    if Domain.DLS.get reference then solve_reference else solve_worklist
  in
  engine ~dir ~cfg ~boundary ~top ~meet ?edge ?boundary_blocks ~transfer ()
