(** Linear-scan register allocation (Poletto-Sarkar style) over the IR.

    The paper's JIT compilation-time breakdown (Table 4) measures the
    null-check optimization against "others" — and in a real JIT the
    "others" are dominated by the back end: register allocation and code
    emission.  This module provides that back end substrate: it
    linearizes the function in reverse postorder, builds one live
    interval per variable (coarsened to whole intervals, as in classic
    linear scan), and allocates over a fixed register file, spilling the
    interval that ends last.

    The allocation is consumed by {!Codegen}, which derives machine
    instruction and spill counts; the simulator keeps executing the IR
    directly, so allocation quality affects the compile-time tables and
    the emitted-code statistics, not program behaviour. *)

module Ir = Nullelim_ir.Ir
module Cfg = Nullelim_cfg.Cfg
module Context = Nullelim_cfg.Context
module Bitset = Nullelim_dataflow.Bitset
module Liveness = Nullelim_analysis.Liveness

type location =
  | Reg of int  (** machine register index *)
  | Slot of int (** stack slot index *)

type interval = {
  iv_var : Ir.var;
  iv_start : int; (** linearized index of the first definition or use *)
  iv_end : int;   (** linearized index of the last use *)
}

type allocation = {
  locations : location array; (** indexed by variable *)
  intervals : interval list;  (** sorted by start *)
  nregs : int;
  spill_slots : int;
  linear_length : int;
}

let location a v = a.locations.(v)

let is_spilled a v = match a.locations.(v) with Slot _ -> true | Reg _ -> false

(** Linearize the reachable blocks in reverse postorder and assign each
    instruction (and terminator) a position. *)
let linearize (cfg : Cfg.t) : (Ir.label * int) list * int =
  let f = Cfg.func cfg in
  let pos = ref 0 in
  let starts = ref [] in
  Array.iter
    (fun l ->
      starts := (l, !pos) :: !starts;
      pos := !pos + Array.length (Ir.block f l).instrs + 1 (* terminator *))
    (Cfg.reverse_postorder cfg);
  (List.rev !starts, !pos)

(** Build whole-function live intervals.  A variable's interval spans
    from its first occurrence to its last occurrence, extended to the end
    of every block in which it is live-out (so values that cross a back
    edge keep their register across the whole loop). *)
let build_intervals (cfg : Cfg.t) (live : Liveness.t) : interval list * int =
  let f = Cfg.func cfg in
  let nv = f.fn_nvars in
  let starts, total = linearize cfg in
  let live_out = Bitset.empty nv in
  let first = Array.make nv max_int and last = Array.make nv (-1) in
  let touch v p =
    if p < first.(v) then first.(v) <- p;
    if p > last.(v) then last.(v) <- p
  in
  (* parameters are live from position 0 *)
  for v = 0 to f.fn_nparams - 1 do
    touch v 0
  done;
  List.iter
    (fun (l, start) ->
      let b = Ir.block f l in
      Array.iteri
        (fun k i ->
          let p = start + k in
          let d = Ir.def_of_instr i in
          if d <> Ir.no_var then touch d p;
          Ir.iter_uses (fun u -> touch u p) i)
        b.instrs;
      let term_pos = start + Array.length b.instrs in
      Ir.iter_term_uses (fun u -> touch u term_pos) b.term;
      (* live-out extension *)
      Liveness.live_out_into live l live_out;
      Bitset.iter (fun v -> touch v term_pos) live_out)
    starts;
  let ivs = ref [] in
  for v = nv - 1 downto 0 do
    if last.(v) >= 0 then
      ivs := { iv_var = v; iv_start = first.(v); iv_end = last.(v) } :: !ivs
  done;
  (List.sort (fun a b -> compare a.iv_start b.iv_start) !ivs, total)

(** The classic linear scan: active intervals sorted by end position;
    when the register file is exhausted, spill the interval that ends
    last (it is the least likely to free a register soon). *)
let allocate ?(nregs = 12) (f : Ir.func) : allocation =
  let cfg = Context.cfg (Context.of_func f) in
  let live = Liveness.solve cfg in
  let intervals, linear_length = build_intervals cfg live in
  let locations = Array.make (max f.fn_nvars 1) (Slot 0) in
  let free = Queue.create () in
  for r = 0 to nregs - 1 do
    Queue.add r free
  done;
  let active = ref [] in (* (end, var, reg), sorted by end ascending *)
  let spill_count = ref 0 in
  let expire p =
    let expired, still = List.partition (fun (e, _, _) -> e < p) !active in
    List.iter (fun (_, _, r) -> Queue.add r free) expired;
    active := still
  in
  let insert_active entry =
    active :=
      List.sort (fun (e1, _, _) (e2, _, _) -> compare e1 e2) (entry :: !active)
  in
  List.iter
    (fun iv ->
      expire iv.iv_start;
      if not (Queue.is_empty free) then begin
        let r = Queue.take free in
        locations.(iv.iv_var) <- Reg r;
        insert_active (iv.iv_end, iv.iv_var, r)
      end
      else begin
        (* spill the interval with the furthest end *)
        match List.rev !active with
        | (e_last, v_last, r_last) :: _ when e_last > iv.iv_end ->
          (* steal the register; the active interval goes to a slot *)
          locations.(v_last) <- Slot !spill_count;
          incr spill_count;
          locations.(iv.iv_var) <- Reg r_last;
          active :=
            List.filter (fun (_, v, _) -> v <> v_last) !active;
          insert_active (iv.iv_end, iv.iv_var, r_last)
        | _ ->
          locations.(iv.iv_var) <- Slot !spill_count;
          incr spill_count
      end)
    intervals;
  {
    locations;
    intervals;
    nregs;
    spill_slots = !spill_count;
    linear_length;
  }

(** Sanity check used by the tests: no two register-allocated variables
    with overlapping intervals share a register. *)
let check_no_overlap (a : allocation) : (Ir.var * Ir.var) option =
  let conflict = ref None in
  let rec go = function
    | [] -> ()
    | iv :: rest ->
      List.iter
        (fun jv ->
          if
            jv.iv_start <= iv.iv_end
            && iv.iv_start <= jv.iv_end
            && iv.iv_var <> jv.iv_var
          then
            match (a.locations.(iv.iv_var), a.locations.(jv.iv_var)) with
            | Reg r1, Reg r2 when r1 = r2 ->
              if !conflict = None then conflict := Some (iv.iv_var, jv.iv_var)
            | _ -> ())
        rest;
      go rest
  in
  go a.intervals;
  !conflict
