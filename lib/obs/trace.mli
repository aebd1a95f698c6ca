(** Trace spans emitting Chrome trace-event JSON
    ([chrome://tracing]-loadable).  Inactive by default; armed by
    [NULLELIM_TRACE=path] or {!start_to_file}/{!start}.  An inactive
    {!span} costs one branch.

    All state is domain-local: each domain arms, collects and stops its
    own stream, so compile-service workers never interleave their spans
    ([NULLELIM_TRACE] arms only the domain that read it — the initial
    one). *)

type event = {
  ev_name : string;   (** span label, e.g. a pass or function name *)
  ev_cat : string;    (** category ("compile", "pass", "solver", …) *)
  ev_ts_us : float;   (** start, microseconds since the sink started *)
  ev_dur_us : float;  (** duration in microseconds; 0 for instants *)
  ev_depth : int;     (** nesting depth at the time the span opened *)
  ev_args : (string * Obs_json.t) list;  (** extra trace-event [args] *)
}

val enabled : unit -> bool
(** Is a sink armed on the calling domain? *)

val depth : unit -> int
(** Current span nesting depth; 0 whenever the stream is balanced. *)

val start : unit -> unit
(** Collect in memory (for tests); retrieve with {!stop}. *)

val start_to_file : string -> unit
(** Collect and write the file when {!stop} (or program exit) happens. *)

val stop : unit -> event list
(** Disarm, write the file if one was armed, return events in start
    order.  Returns [[]] when tracing was not active. *)

val span :
  ?cat:string ->
  ?args:(string * Obs_json.t) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [span name f] runs [f], recording a complete event when active.
    Exception-safe: the span closes and the exception is re-raised. *)

val to_json : event list -> Obs_json.t
(** The Chrome trace-event document ([{"traceEvents": [...]}]); each
    event becomes a complete event ([ph:"X"]). *)

val write : string -> event list -> unit
(** [write path events] writes {!to_json} to [path]. *)

val validate : Obs_json.t -> (unit, string) result
(** Check of a trace-event file, derived from the members {!to_json}
    writes ({!Doc.check}). *)
