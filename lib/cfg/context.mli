(** Cached per-function analysis context: memoizes the CFG snapshot,
    dominator tree and loop nest so that the solvers and passes run
    over one function stop recomputing them.

    The context validates itself.  Building a CFG records the physical
    identity of the [fn_blocks] array, of each block and of each
    block's terminator, each block's [breg] and the [fn_handlers] list;
    every query rebuilds the CFG (and drops dominators and loops) when
    that record no longer matches the function.  Rewriting a block's
    instructions keeps the cached structures; appending a block,
    replacing a slot, retargeting a terminator, moving a block to
    another region or changing the handler table rebuilds them. *)

module Ir = Nullelim_ir.Ir

type t

val make : Ir.func -> t
(** A fresh context, outside any store. *)

val cfg : t -> Cfg.t
(** The CFG snapshot: the cached one while the record matches, a
    rebuilt one otherwise. *)

val dom : t -> Dominance.t
(** Dominators over {!cfg}, cached alongside it. *)

val loops : t -> Loops.loop list
(** Natural loops over {!cfg}, innermost first, cached alongside it. *)

(** {1 Per-compile store} *)

val with_store : (unit -> 'a) -> 'a
(** [with_store g] runs [g] with an empty store installed on the
    calling domain, restoring the previous one (if any) when [g]
    returns or raises.  [Compiler.compile] runs its
    passes under one, so every pass of a compile shares one context
    per function. *)

val of_func : Ir.func -> t
(** The store's context for the function, created on first use; a
    fresh {!make} when no store is installed. *)
