(** Generic iterative bit-vector data-flow solver (see solver.mli).

    One kernel ({!kernel}) owns the fact storage and the block visit —
    meet over incoming edges, block transfer, change detection — all in
    place over flat rows, so a visit allocates nothing.  Two schedules
    drive it: the priority worklist ({!solve}) and the round-robin
    sweeps kept as the reference ({!solve_reference}).  Both perform
    chaotic iteration from the same initial assignment, so for the
    monotone transfer functions used throughout this code base they
    compute the {e same} fixpoint bit for bit.

    {!with_reference} routes {!solve} on the calling domain to the
    round-robin engine: the differential oracle and the tests compare
    the two engines with it, and the benchmark harness quotes
    before/after counter and timing deltas from the same binary. *)

module Cfg = Nullelim_cfg.Cfg

type direction = Forward | Backward

type meet = Inter | Union

type result = { inb : Bitset.rows; outb : Bitset.rows }
(** Row [l] of [inb] / [outb] is the fact at block entry / exit.  For
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
(* The kernel: fact storage and one block visit                        *)
(* ------------------------------------------------------------------ *)

(** Iteration order: reverse postorder for forward problems, postorder
    for backward ones. *)
let visit_order dir (cfg : Cfg.t) : int array =
  let rpo = Cfg.reverse_postorder cfg in
  match dir with
  | Forward -> rpo
  | Backward ->
    let len = Array.length rpo in
    Array.init len (fun i -> rpo.(len - 1 - i))

(* Set up one solve and hand its [visit] to [schedule], which decides
   the order of the visits.  [visit l] meets [l]'s incoming facts into
   the scratch set [cur], stores them as [l]'s input, applies the
   transfer to [cur] in place and returns whether [l]'s output row
   changed (storing the new output if so).  The fact rows and the two
   scratch sets are the solve's only allocation proportional to the
   CFG; a visit allocates nothing itself. *)
let kernel schedule ~(dir : direction) ~(cfg : Cfg.t) ~(boundary : Bitset.t)
    ~(top : Bitset.t) ~(meet : meet)
    ?(edge = fun ~src:_ ~dst:_ (_ : Bitset.t) -> ())
    ?(boundary_blocks = ([] : int list))
    ~(transfer : int -> Bitset.t -> unit) () : result =
  let counters = counters () in
  counters.solves <- counters.solves + 1;
  let n = Cfg.nblocks cfg in
  let inb = Bitset.rows n top and outb = Bitset.rows n top in
  let forward = dir = Forward in
  (* where a block's input is met into, and where its output goes *)
  let inputs = if forward then inb else outb
  and outputs = if forward then outb else inb in
  let input_of = if forward then Cfg.pred_arrays cfg else Cfg.succ_arrays cfg in
  let is_boundary = Array.make n false in
  if forward then
    List.iter
      (fun l -> if l >= 0 && l < n then is_boundary.(l) <- true)
      boundary_blocks;
  let meet_into =
    match meet with Inter -> Bitset.inter_into | Union -> Bitset.union_into
  in
  let cur = Bitset.copy top and along = Bitset.copy top in
  let visit l =
    counters.visits <- counters.visits + 1;
    (* 1. meet over incoming edges, in place *)
    let ins = input_of.(l) in
    let nin = Array.length ins in
    if is_boundary.(l) || nin = 0 then Bitset.copy_into cur boundary
    else
      for j = 0 to nin - 1 do
        let p = ins.(j) in
        let fact = if j = 0 then cur else along in
        Bitset.load_row fact outputs p;
        if forward then edge ~src:p ~dst:l fact else edge ~src:l ~dst:p fact;
        if j > 0 then meet_into cur along
      done;
    Bitset.store_row inputs l cur;
    (* 2. block transfer, in place *)
    counters.transfers <- counters.transfers + 1;
    transfer l cur;
    (* 3. change detection *)
    if Bitset.row_equal outputs l cur then false
    else begin
      Bitset.store_row outputs l cur;
      true
    end
  in
  schedule ~forward cfg (visit_order dir cfg) visit;
  { inb; outb }

(* ------------------------------------------------------------------ *)
(* Reference schedule: round-robin sweeps until a quiet pass.          *)
(* Retained for differential testing and as the measurable baseline.   *)
(* ------------------------------------------------------------------ *)

let round_robin ~forward:_ _cfg order visit =
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to Array.length order - 1 do
      if visit order.(k) then changed := true
    done
  done

(* ------------------------------------------------------------------ *)
(* Worklist schedule                                                   *)
(* ------------------------------------------------------------------ *)

let worklist ~forward (cfg : Cfg.t) order visit =
  let counters = counters () in
  let m = Array.length order in
  (* a block's position in the visit order, from the CFG's reverse
     postorder; -1 marks blocks the DFS never reached (they keep [top]
     and are never queued) *)
  let pos l =
    let r = Cfg.rpo_pos cfg l in
    if r < 0 || forward then r else m - 1 - r
  in
  (* who must be re-queued when a block's output changes *)
  let dependents = if forward then Cfg.succ_arrays cfg else Cfg.pred_arrays cfg in
  (* The worklist is one flag per visit-order position, so taking the
     lowest queued position visits blocks in the order a priority queue
     keyed by position would.  [first] is at or below the lowest set
     flag: a push below it moves it down, and a pop scans up from it. *)
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
    if visit l then begin
      (* re-queue the dependents whose input just changed *)
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

let solve_reference ~dir ~cfg ~boundary ~top ~meet ?edge ?boundary_blocks
    ~transfer () =
  kernel round_robin ~dir ~cfg ~boundary ~top ~meet ?edge ?boundary_blocks
    ~transfer ()

let solve_worklist ~dir ~cfg ~boundary ~top ~meet ?edge ?boundary_blocks
    ~transfer () =
  kernel worklist ~dir ~cfg ~boundary ~top ~meet ?edge ?boundary_blocks
    ~transfer ()

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
