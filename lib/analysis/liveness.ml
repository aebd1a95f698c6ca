(** Backward may-analysis computing live variables; used by dead-code
    elimination, scalar replacement, register allocation and the
    random-program shrinker in the test suite. *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Solver = Nullelim_dataflow.Solver
module Cfg = Nullelim_cfg.Cfg

(* One backward step; [add] is [Bitset.add_mut s], passed in so that a
   walk over a block builds that closure once, not once per instruction. *)
let step (s : Bitset.t) add (i : Ir.instr) : unit =
  let d = Ir.def_of_instr i in
  if d <> Ir.no_var then Bitset.remove_mut s d;
  Ir.iter_uses add i

(** Update [s] (live after instruction) to live-before, in place. *)
let transfer_instr (s : Bitset.t) (i : Ir.instr) : unit =
  step s (Bitset.add_mut s) i

(* A block's transfer as its two sets: live-in is
   [gen ∪ (live-out − kill)], where [gen] is what the backward walk
   leaves in an empty set (the uses not preceded by a definition in the
   block) and [kill] is every variable the block defines.  Both are
   built in [gen]/[kill] and stored as row [l] of the solve's gen/kill
   rows. *)
let gen_kill (f : Ir.func) l ~gen ~kill =
  Bitset.clear_mut gen;
  Bitset.clear_mut kill;
  let add = Bitset.add_mut gen in
  let b = Ir.block f l in
  Ir.iter_term_uses add b.term;
  let instrs = b.instrs in
  for k = Array.length instrs - 1 downto 0 do
    let i = instrs.(k) in
    let d = Ir.def_of_instr i in
    if d <> Ir.no_var then Bitset.add_mut kill d;
    step gen add i
  done

type t = Solver.result

let solve (cfg : Cfg.t) : t =
  let f = Cfg.func cfg in
  let nv = f.fn_nvars in
  let full = Bitset.full nv in
  (* A block inside a try region can transfer control to its handler
     from ANY program point, and the handler (and everything after it)
     may then observe the values variables held at that point — even
     values a later instruction of the same block overwrites.  So for
     such blocks both the live-out and the live-in are conservatively
     the full set: no definition inside a protected block can make an
     earlier value dead.  Such a block keeps the full set as its gen
     and its kill, so its transfer yields the full set. *)
  let n = Ir.nblocks f in
  let gens = Bitset.rows n full and kills = Bitset.rows n full in
  let gen = Bitset.empty nv and kill = Bitset.empty nv in
  for l = 0 to n - 1 do
    if Ir.handler_of f (Ir.block f l).breg = None then begin
      gen_kill f l ~gen ~kill;
      Bitset.store_row gens l gen;
      Bitset.store_row kills l kill
    end
  done;
  Solver.solve ~dir:Solver.Backward ~cfg ~boundary:(Bitset.empty nv)
    ~top:(Bitset.empty nv) ~meet:Solver.Union
    ~transfer:(fun l s ->
      Bitset.diff_row_into s kills l;
      Bitset.union_row_into s gens l)
    ()

let live_in (t : t) l v = Bitset.row_mem t.inb l v
let live_out_into (t : t) l dst = Bitset.load_row dst t.outb l
