(** Backward may-analysis: live variables.  Inside a try region every
    variable is conservatively live (the handler can observe mid-block
    state), which keeps dead-code elimination exception-safe.

    A solve is one {!Nullelim_dataflow.Solver} problem whose transfer,
    [live-in = gen ∪ (live-out − kill)], runs in place on the solver's
    set from gen/kill rows built once per solve: it allocates nothing
    per visit.
    The facts stay in the solver's rows; read them with {!live_in} and
    {!live_out_into}. *)

module Ir = Nullelim_ir.Ir
module Bitset = Nullelim_dataflow.Bitset
module Cfg = Nullelim_cfg.Cfg

type t

val solve : Cfg.t -> t

val live_in : t -> Ir.label -> Ir.var -> bool
(** [live_in t l v]: is [v] live at the entry of [l]? *)

val live_out_into : t -> Ir.label -> Bitset.t -> unit
(** [live_out_into t l dst] sets [dst] to the variables live at the
    exit of [l]. *)

val transfer_instr : Bitset.t -> Ir.instr -> unit
(** In-place: update live-after to live-before. *)
