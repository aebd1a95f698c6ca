(** Forward must-analysis: variables known to hold a non-null reference
    at each program point (the paper's Section 4.1.2 fact domain).

    Facts come from null checks, allocations, copies of non-null
    variables, the non-null edges of [Ifnull], the [this] parameter, and
    optionally ([deref_gen], used by Whaley's baseline) successful
    dereferences.  Handler blocks start from the boundary (nothing is
    known when an exception arrives). *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Cfg = Nullelim_cfg.Cfg

type t

val solve :
  ?deref_gen:bool ->
  ?extra_exit:(Ir.label -> Bitset.t option) ->
  Cfg.t ->
  t
(** [extra_exit] adds facts at a block's exit before they flow along its
    outgoing edges; phase 1 uses it to model the checks pending insertion
    at block exits (the Earliest(m) term of the In_fwd equation). *)

val at_exit : t -> Ir.label -> Bitset.t

val iter_block : t -> Ir.label -> (Bitset.t -> int -> Ir.instr -> unit) -> unit
(** Iterate the instructions of a block with the fact set holding
    {e before} each instruction. *)

val transfer_instr : ?deref_gen:bool -> Bitset.t -> Ir.instr -> unit
(** In-place single-instruction transfer (exposed for block walks). *)
