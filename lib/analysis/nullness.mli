(** Forward must-analysis: variables known to hold a non-null reference
    at each program point (the paper's Section 4.1.2 fact domain).

    Facts come from null checks, allocations, copies of non-null
    variables, the non-null edges of [Ifnull], the [this] parameter, and
    optionally ([deref_gen], used by Whaley's baseline) successful
    dereferences.  Handler blocks start from the boundary (nothing is
    known when an exception arrives).

    A solve is one {!Nullelim_dataflow.Solver} problem: the block
    transfer walks the block's instructions on the solver's set, and
    the edge transfer adds [extra_exit] and the [Ifnull] fact to the
    solver's copy of the predecessor's exit, both in place and without
    allocating.  The facts stay in the solver's rows; read them with
    {!nonnull_at_exit} and {!iter_block}. *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Cfg = Nullelim_cfg.Cfg

type t

val solve :
  ?deref_gen:bool ->
  ?extra_exit:Bitset.t array ->
  Cfg.t ->
  t
(** [extra_exit.(l)] adds facts at block [l]'s exit before they flow
    along its outgoing edges; phase 1 uses it to model the checks
    pending insertion at block exits (the Earliest(m) term of the
    In_fwd equation). *)

val nonnull_at_exit : t -> Ir.label -> Ir.var -> bool
(** [nonnull_at_exit t l v]: is [v] known non-null at the exit of
    [l]? *)

val iter_block : t -> Ir.label -> (Bitset.t -> int -> Ir.instr -> unit) -> unit
(** Iterate the instructions of a block with the fact set holding
    {e before} each instruction. *)
