(** Per-check optimization decision log: every null/bound-check
    transformation records what was done, why, and the delta it applies
    to the static explicit/implicit check counts — so the compiler's
    final check statistics are derivable (and verified) from the log. *)

type action =
  | Eliminated_redundant
  | Moved_backward
  | Moved_forward
  | Converted_implicit
  | Substituted
  | Speculated
  | Duplicated
  | Dropped_unreachable
  | Deoptimized

type justification =
  | Nonnull_dominating
  | Insertion_earliest
  | Floated
  | Trap_covered of int option
  | Trap_not_covered
  | Side_effect_barrier
  | Overwritten
  | Not_anticipated
  | Covered_later
  | Available_on_entry
  | Invariant_in_loop
  | Speculative_read
  | Inline_copy of string
  | Unreachable_code
  | Trap_fired

type kind = Kexplicit | Kimplicit | Kbound | Kother

type event = {
  id : int;
  pass : string;
  func : string;
  block : int;
  var : int;
  kind : kind;
  action : action;
  just : justification;
  d_explicit : int;
  d_implicit : int;
  site : int;    (** provenance id of the check acted on; -1 when unknown *)
  parent : int;  (** originating site for fresh materializations; -1 otherwise *)
  tier : int;    (** execution tier of the recording compilation; -1 untiered *)
}

val active : unit -> bool
(** Is a collector installed?  Passes may use this to skip building
    event payloads entirely. *)

val count : unit -> int
(** Events recorded so far by the installed collector; 0 when none. *)

val set_pass : string -> unit
val set_func : string -> unit
(** Context maintained by the pass manager; no-ops when inactive. *)

val set_tier : int -> unit
(** Tier context set once per compilation by the JIT driver (before any
    pass runs); events record it in their [tier] field.  No-op when
    inactive; a fresh collector starts at -1 (untiered). *)

val record :
  ?d_explicit:int ->
  ?d_implicit:int ->
  ?block:int ->
  ?var:int ->
  ?site:int ->
  ?parent:int ->
  kind:kind ->
  action:action ->
  just:justification ->
  unit ->
  unit
(** Append one event to the installed collector (no-op when inactive). *)

val with_log : (unit -> 'a) -> 'a * event list
(** Run with a fresh collector; returns events in record order.
    Re-entrant: saves and restores any outer collector. *)

val derived_deltas : event list -> int * int
(** [(sum d_explicit, sum d_implicit)]. *)

val kind_to_string : kind -> string

val event_to_json : event -> Obs_json.t
(** One event as a flat JSON object (string action/justification/kind,
    int everything else). *)

val to_json : event list -> Obs_json.t
(** The events as a JSON array, in the given order. *)

val summary : event list -> (string * int) list
(** Event counts per action name, sorted. *)
