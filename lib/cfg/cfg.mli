(** Control-flow-graph queries over an {!Ir.func}.

    A [Cfg.t] is a snapshot: it caches successor/predecessor lists and a
    reverse postorder.  Passes that mutate the block structure must
    rebuild it with {!make}.

    Exception (handler) edges are deliberately {e not} part of the
    successor relation — the paper's data-flow problems treat try-region
    boundaries through the [Edge_try] edge kill and the side-effect
    rules instead — but they do participate in {e reachability}, so that
    handler blocks appear in the solver's iteration order. *)

module Ir = Nullelim_ir.Ir

type t

val make : Ir.func -> t
val func : t -> Ir.func
val nblocks : t -> int

val succs : t -> Ir.label -> Ir.label list
val preds : t -> Ir.label -> Ir.label list

val succ_arrays : t -> Ir.label array array
(** Successor lists as arrays, indexed by label — precomputed once so
    hot solver loops never walk lists.  Do not mutate. *)

val pred_arrays : t -> Ir.label array array
(** Predecessor lists as arrays, indexed by label.  Do not mutate. *)

val is_handler : t -> Ir.label -> bool
(** Is the block the entry of an exception handler?  O(1), backed by a
    precomputed [bool array]. *)

val reverse_postorder : t -> Ir.label array
val rpo_pos : t -> Ir.label -> int
val is_reachable : t -> Ir.label -> bool

val exits : t -> Ir.label list
(** Blocks whose terminator leaves the function. *)

val handler_blocks : Ir.func -> Ir.label list
(** Handler blocks: entered exceptionally, so they have no normal
    predecessors; forward analyses treat their entry as boundary. *)
