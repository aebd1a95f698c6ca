(** Control-flow-graph queries over an {!Ir.func}.

    A [Cfg.t] is a snapshot: it caches successor/predecessor lists and a
    reverse postorder.  Passes that mutate the block structure must rebuild
    it with {!make}.

    Exception (handler) edges are deliberately {e not} part of the
    successor relation: the paper's data-flow problems treat try-region
    boundaries through the [Edge_try] edge kill and the
    local-variable-write-in-try side-effect rule instead (Section 4.1.1),
    so normal edges are the only ones checks may move along. *)

module Ir = Nullelim_ir.Ir

type t = {
  func : Ir.func;
  succ : int list array;
  pred : int list array;
  succ_a : int array array; (** successors as arrays, for index loops *)
  pred_a : int array array; (** predecessors as arrays *)
  handler : bool array;     (** is the block a handler entry? *)
  rpo : int array;        (** blocks in reverse postorder (entry first) *)
  rpo_index : int array;  (** position of each block in [rpo]; -1 if dead *)
}

(** Handler blocks of the function: entered exceptionally, so they have
    no normal predecessors; forward analyses must treat their entry as
    the boundary (nothing is known when an exception arrives). *)
let handler_blocks (f : Ir.func) : int list = List.map snd f.fn_handlers

let nblocks t = Array.length t.succ
let succs t l = t.succ.(l)
let preds t l = t.pred.(l)
let succ_arrays t = t.succ_a
let pred_arrays t = t.pred_a
let is_handler t l = t.handler.(l)
let func t = t.func

let make (f : Ir.func) : t =
  let n = Ir.nblocks f in
  let succ = Array.init n (fun l -> Ir.succs_of_term f.fn_blocks.(l).term) in
  let pred = Array.make n [] in
  Array.iteri
    (fun l ss -> List.iter (fun s -> pred.(s) <- l :: pred.(s)) ss)
    succ;
  (* postorder DFS from entry.  Handler edges participate in
     reachability (and hence in the solver's iteration order) even
     though they are not successors: a data-flow analysis must iterate
     handler blocks, which have no normal predecessors. *)
  let seen = Array.make n false in
  let order = ref [] in
  let rec dfs l =
    if not seen.(l) then begin
      seen.(l) <- true;
      (match Ir.handler_of f f.fn_blocks.(l).breg with
      | Some h -> dfs h
      | None -> ());
      List.iter dfs succ.(l);
      order := l :: !order
    end
  in
  if n > 0 then dfs 0;
  let rpo = Array.of_list !order in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i l -> rpo_index.(l) <- i) rpo;
  let succ_a = Array.map Array.of_list succ in
  let pred_a = Array.map Array.of_list pred in
  let handler = Array.make n false in
  List.iter (fun (_, h) -> handler.(h) <- true) f.fn_handlers;
  { func = f; succ; pred; succ_a; pred_a; handler; rpo; rpo_index }

let reverse_postorder t = t.rpo
let rpo_pos t l = t.rpo_index.(l)
let is_reachable t l = t.rpo_index.(l) >= 0

(** Exit blocks: blocks whose terminator leaves the function. *)
let exits t =
  let acc = ref [] in
  Array.iteri
    (fun l (b : Ir.block) ->
      if t.rpo_index.(l) >= 0 then
        match b.term with
        | Return _ | Throw _ -> acc := l :: !acc
        | Goto _ | If _ | Ifnull _ -> ())
    t.func.fn_blocks;
  List.rev !acc
