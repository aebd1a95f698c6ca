(** Cached per-function analysis context.

    One optimization phase runs several data-flow solvers over the same
    function (phase 1 runs two, phase 2 three, the array passes more),
    and a compile runs a dozen passes over it.  A [Context.t] memoizes
    the CFG snapshot, dominators and loops, and validates them itself:
    when it builds a CFG it records everything the CFG is computed from
    — the [fn_blocks] array, each block and its terminator (all by
    physical identity), each block's [breg] and the [fn_handlers] list
    — and every query rebuilds when that record no longer matches.
    Rewriting a block's {e instructions} leaves the record intact, so
    instruction-only passes share one snapshot.

    [Compiler.compile] keeps one context per function for the whole
    compile in a domain-local store ({!with_store}); passes take theirs
    with {!of_func}. *)

module Ir = Nullelim_ir.Ir

type t = {
  func : Ir.func;
  mutable cfg : Cfg.t option;
  mutable dom : Dominance.t option;
  mutable loops : Loops.loop list option;
  (* the record of what [cfg] was built from *)
  mutable blocks : Ir.block array;  (** [fn_blocks] itself *)
  mutable block_ids : Ir.block array;  (** its slots, copied *)
  mutable terms : Ir.terminator array;
  mutable bregs : Ir.region array;
  mutable handlers : (Ir.region * Ir.label) list;
}

let make (f : Ir.func) : t =
  {
    func = f;
    cfg = None;
    dom = None;
    loops = None;
    blocks = [||];
    block_ids = [||];
    terms = [||];
    bregs = [||];
    handlers = [];
  }

let matches t =
  let f = t.func in
  f.fn_blocks == t.blocks
  && f.fn_handlers == t.handlers
  &&
  let rec go l =
    l < 0
    ||
    let b = Array.unsafe_get f.fn_blocks l in
    b == Array.unsafe_get t.block_ids l
    && b.term == Array.unsafe_get t.terms l
    && b.breg = Array.unsafe_get t.bregs l
    && go (l - 1)
  in
  go (Array.length t.blocks - 1)

let cfg t =
  match t.cfg with
  | Some c when matches t -> c
  | Some _ | None ->
    let f = t.func in
    let c = Cfg.make f in
    t.cfg <- Some c;
    t.dom <- None;
    t.loops <- None;
    t.blocks <- f.fn_blocks;
    t.block_ids <- Array.copy f.fn_blocks;
    t.terms <- Array.map (fun (b : Ir.block) -> b.term) f.fn_blocks;
    t.bregs <- Array.map (fun (b : Ir.block) -> b.breg) f.fn_blocks;
    t.handlers <- f.fn_handlers;
    c

let dom t =
  let c = cfg t in
  match t.dom with
  | Some d -> d
  | None ->
    let d = Dominance.compute c in
    t.dom <- Some d;
    d

let loops t =
  let d = dom t in
  match t.loops with
  | Some l -> l
  | None ->
    let l = Loops.detect (cfg t) d in
    t.loops <- Some l;
    l

(* ------------------------------------------------------------------ *)
(* Per-compile store                                                   *)
(* ------------------------------------------------------------------ *)

(* Domain-local, like the decision log: each compile-service worker
   domain compiles with its own store.  Keyed by function name; an
   entry whose function is not the one asked for is replaced. *)
let store_key : (string, t) Hashtbl.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_store (g : unit -> 'a) : 'a =
  let cur = Domain.DLS.get store_key in
  let saved = !cur in
  cur := Some (Hashtbl.create 16);
  let restore () = cur := saved in
  match g () with
  | v ->
    restore ();
    v
  | exception e ->
    restore ();
    raise e

let of_func (f : Ir.func) : t =
  match !(Domain.DLS.get store_key) with
  | None -> make f
  | Some store -> (
    match Hashtbl.find_opt store f.fn_name with
    | Some t when t.func == f -> t
    | Some _ | None ->
      let t = make f in
      Hashtbl.replace store f.fn_name t;
      t)
