(** Backward may-analysis computing live variables; used by dead-code
    elimination and by the random-program shrinker in the test suite. *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Solver = Nullelim_dataflow.Solver
module Cfg = Nullelim_cfg.Cfg

(* One backward step; [add] is [Bitset.add_mut s], passed in so that a
   walk over a block builds that closure once, not once per instruction. *)
let step (s : Bitset.t) add (i : Ir.instr) : unit =
  (match Ir.def_of_instr i with
  | Some d -> Bitset.remove_mut s d
  | None -> ());
  Ir.iter_uses add i

(** Update [s] (live after instruction) to live-before, in place. *)
let transfer_instr (s : Bitset.t) (i : Ir.instr) : unit =
  step s (Bitset.add_mut s) i

(* A block's transfer as its two sets: live-in is
   [gen ∪ (live-out − kill)], where [gen] is what the backward walk
   leaves in an empty set (the uses not preceded by a definition in the
   block) and [kill] is every variable the block defines. *)
let gen_kill nv (f : Ir.func) l : Bitset.t * Bitset.t =
  let gen = Bitset.empty nv and kill = Bitset.empty nv in
  let add = Bitset.add_mut gen in
  let b = Ir.block f l in
  Ir.iter_term_uses add b.term;
  let instrs = b.instrs in
  for k = Array.length instrs - 1 downto 0 do
    let i = instrs.(k) in
    (match Ir.def_of_instr i with
    | Some d -> Bitset.add_mut kill d
    | None -> ());
    step gen add i
  done;
  (gen, kill)

type t = { result : Solver.result; func : Ir.func }

let solve (cfg : Cfg.t) : t =
  let f = Cfg.func cfg in
  let nv = f.fn_nvars in
  (* A block inside a try region can transfer control to its handler
     from ANY program point, and the handler (and everything after it)
     may then observe the values variables held at that point — even
     values a later instruction of the same block overwrites.  So for
     such blocks both the live-out and the live-in are conservatively
     the full set: no definition inside a protected block can make an
     earlier value dead. *)
  let sets =
    Array.init (Ir.nblocks f) (fun l ->
        match Ir.handler_of f (Ir.block f l).breg with
        | Some _ -> None
        | None -> Some (gen_kill nv f l))
  in
  let result =
    Solver.solve ~dir:Solver.Backward ~cfg ~boundary:(Bitset.empty nv)
      ~top:(Bitset.empty nv) ~meet:Solver.Union
      ~transfer:(fun l s ->
        match sets.(l) with
        | None -> Bitset.full nv
        | Some (gen, kill) ->
          let s = Bitset.copy s in
          Bitset.diff_into s kill;
          Bitset.union_into s gen;
          s)
      ()
  in
  { result; func = f }

let live_in t l = t.result.Solver.inb.(l)
let live_out t l = t.result.Solver.outb.(l)
