(** Chrome trace-event JSON ([chrome://tracing]-loadable).  This module
    only encodes: a compile's events are rendered from its pass records
    ([Compiler.trace]), the flight recorder's by {!Recorder.to_trace}. *)

type event = {
  ev_name : string;   (** span label, e.g. a pass name *)
  ev_cat : string;    (** category ("compile", "pass", "run", "flight") *)
  ev_ts_us : float;   (** start, microseconds from the trace's origin *)
  ev_dur_us : float;  (** duration in microseconds; 0 for instants *)
  ev_args : (string * Obs_json.t) list;  (** extra trace-event [args] *)
}

val to_json : event list -> Obs_json.t
(** The Chrome trace-event document ([{"traceEvents": [...]}]); each
    event becomes a complete event ([ph:"X"]). *)

val write : string -> event list -> unit
(** [write path events] writes {!to_json} to [path]. *)

val validate : Obs_json.t -> (unit, string) result
(** Check of a trace-event file, derived from the members {!to_json}
    writes ({!Doc.check}). *)
