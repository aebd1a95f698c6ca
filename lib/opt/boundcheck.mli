(** Array-bounds-check optimization: availability-based elimination of
    syntactically identical checks, plus loop-invariant hoisting into
    preheaders under a strict precise-exception criterion (see the
    implementation header).  One of the three passes the paper iterates
    with phase 1 (Figure 2). *)

module Ir = Nullelim_ir.Ir

val eliminate_redundant : Ir.func -> int
val run : Ir.func -> int * int
(** Hoist then eliminate; returns [(eliminated, hoisted)]. *)
