(** Generic iterative bit-vector data-flow solver: one allocation-free
    kernel, two visit schedules.

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
    - [edge]: per-edge transfer, in place — the paper's
      [Edge_try]/[Edge] sets live here.  It receives a scratch copy of
      the neighbour's fact and rewrites it into the fact that flows
      along the edge (leaving it alone is the identity);
    - [boundary_blocks]: blocks entered exceptionally (try-region
      handlers), whose input is forced to [boundary] regardless of
      syntactic predecessors (forward problems only);
    - [transfer]: per-block transfer, in place.  [transfer l s] finds
      block [l]'s input in [s] and must leave its output there.  The
      set belongs to the solver and is reused by the next visit, so
      the transfer must not retain it.

    Fact storage: a solve allocates its facts once, two
    {!Bitset.rows} of blocks × words (block entry and exit), plus two
    scratch sets.  A visit meets the incoming facts into a scratch set,
    stores it as the block's input row, applies [transfer] to it and
    compares it with the block's output row in place, storing it only
    if it changed.  So the solver allocates nothing per visit, and a
    solve whose transfers allocate nothing allocates the same words
    however many visits it needs.

    {!solve} runs a sparse priority worklist keyed by reverse-postorder
    position (forward) / postorder position (backward): when a block's
    output changes, only its dependents are re-queued.
    {!solve_reference} runs the same visit in round-robin full sweeps
    until one is quiet, retained as the differential-testing oracle and
    the measurable baseline; for the monotone transfer functions used
    in this code base both compute bit-identical results. *)

module Cfg = Nullelim_cfg.Cfg

type direction = Forward | Backward

type meet = Inter | Union
(** The meet operator: set intersection for all-paths/must problems,
    union for any-path/may problems. *)

type result = { inb : Bitset.rows; outb : Bitset.rows }
(** Facts at block entry ([inb]) and exit ([outb]), one row per label.
    Unreachable blocks keep [top]. *)

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
  ?edge:(src:int -> dst:int -> Bitset.t -> unit) ->
  ?boundary_blocks:int list ->
  transfer:(int -> Bitset.t -> unit) ->
  unit ->
  result

val solve_worklist :
  dir:direction ->
  cfg:Cfg.t ->
  boundary:Bitset.t ->
  top:Bitset.t ->
  meet:meet ->
  ?edge:(src:int -> dst:int -> Bitset.t -> unit) ->
  ?boundary_blocks:int list ->
  transfer:(int -> Bitset.t -> unit) ->
  unit ->
  result
(** The sparse worklist engine (what {!solve} normally runs). *)

val solve_reference :
  dir:direction ->
  cfg:Cfg.t ->
  boundary:Bitset.t ->
  top:Bitset.t ->
  meet:meet ->
  ?edge:(src:int -> dst:int -> Bitset.t -> unit) ->
  ?boundary_blocks:int list ->
  transfer:(int -> Bitset.t -> unit) ->
  unit ->
  result
(** The retained round-robin engine: the same visit, sweeping all
    blocks until a quiet pass.  Differential-testing oracle and
    measurable baseline. *)
