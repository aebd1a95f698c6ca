(** Generic iterative bit-vector data-flow solver.

    All the paper's analyses (Sections 4.1.1, 4.1.2, 4.2.1, 4.2.2) and
    the auxiliary ones (nullness, liveness, availability) are instances.

    Parameters of {!solve}:
    - [boundary]: value for blocks with no incoming edges (function
      entry for forward problems, exits for backward ones) and for
      [boundary_blocks];
    - [top]: initial interior value — [Bitset.full _] for must problems,
      [Bitset.empty _] for may problems;
    - [meet]: combines facts flowing into a node ({!Inter} for
      all-paths problems, {!Union} for any-path ones);
    - [edge]: per-edge transfer — the paper's [Edge_try]/[Edge] sets
      live here.  It must not mutate its argument and must return a set
      over the same universe (returning the argument unchanged is the
      common, allocation-free case);
    - [boundary_blocks]: blocks entered exceptionally (try-region
      handlers), whose input is forced to [boundary] regardless of
      syntactic predecessors (forward problems only);
    - [transfer]: per-block transfer function.  It must not mutate or
      retain its argument; the solver owns and reuses that set.

    {!solve} runs a sparse priority worklist keyed by reverse-postorder
    position (forward) / postorder position (backward): when a block's
    output changes, only its dependents are re-queued.  The meet over
    incoming edges is computed destructively, allocating no
    intermediate sets.  {!solve_reference} is the original round-robin
    full-sweep engine, retained as the differential-testing oracle and
    the measurable baseline; for the monotone transfer functions used
    in this code base both compute bit-identical results. *)

module Cfg = Nullelim_cfg.Cfg

type direction = Forward | Backward

type meet = Inter | Union
(** The meet operator: set intersection for all-paths/must problems,
    union for any-path/may problems. *)

type result = { inb : Bitset.t array; outb : Bitset.t array }
(** Facts at block entry ([inb]) and exit ([outb]), indexed by label. *)

type stats = {
  mutable solves : int;    (** solver instances run *)
  mutable visits : int;    (** blocks taken off the worklist (or swept) *)
  mutable transfers : int; (** block transfer functions applied *)
  mutable pushes : int;    (** worklist insertions (incl. the seeding) *)
}
(** Cumulative counters over every solve run by the calling domain
    since that domain started; both engines update them.  The
    counters are domain-local, so a {!snapshot}/{!diff} pair around a
    compilation measures exactly that compilation even when other
    domains are solving concurrently. *)

val counters : unit -> stats
(** The calling domain's live counter record (mutated by every solve
    on that domain). *)

val snapshot : unit -> stats
(** An immutable copy of the calling domain's counters. *)

val diff : stats -> stats -> stats
(** [diff later earlier] is the per-field difference — the cost of the
    work done between two {!snapshot}s. *)

val with_reference : bool -> (unit -> 'a) -> 'a
(** [with_reference on f] runs [f] with the calling domain's engine
    switch set to [on], then restores it.  While it is on, {!solve}
    routes to {!solve_reference}.  The switch is domain-local: every
    domain starts on the worklist engine, and setting it on one domain
    never reaches another (a compile-service worker keeps its own). *)

val solve :
  dir:direction ->
  cfg:Cfg.t ->
  boundary:Bitset.t ->
  top:Bitset.t ->
  meet:meet ->
  ?edge:(src:int -> dst:int -> Bitset.t -> Bitset.t) ->
  ?boundary_blocks:int list ->
  transfer:(int -> Bitset.t -> Bitset.t) ->
  unit ->
  result

val solve_worklist :
  dir:direction ->
  cfg:Cfg.t ->
  boundary:Bitset.t ->
  top:Bitset.t ->
  meet:meet ->
  ?edge:(src:int -> dst:int -> Bitset.t -> Bitset.t) ->
  ?boundary_blocks:int list ->
  transfer:(int -> Bitset.t -> Bitset.t) ->
  unit ->
  result
(** The sparse worklist engine (what {!solve} normally runs). *)

val solve_reference :
  dir:direction ->
  cfg:Cfg.t ->
  boundary:Bitset.t ->
  top:Bitset.t ->
  meet:meet ->
  ?edge:(src:int -> dst:int -> Bitset.t -> Bitset.t) ->
  ?boundary_blocks:int list ->
  transfer:(int -> Bitset.t -> Bitset.t) ->
  unit ->
  result
(** The retained round-robin engine: sweeps all blocks until a quiet
    pass.  Differential-testing oracle and measurable baseline. *)
