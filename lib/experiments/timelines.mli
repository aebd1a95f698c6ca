(** Per-request causal timelines sliced from a flight-recorder dump:
    the body of [nullelim timelines], and the one slice, gate and write
    path that [loadgen] and [serve] run on their own recorder after a
    sweep.  The slicing and the gate are {!Nullelim_obs.Timeline}'s. *)

type t = {
  events : int;    (** events in the dump *)
  dropped : int;   (** events the ring overwrote *)
  timelines : Nullelim_obs.Timeline.t list;
}

val of_recorder : Nullelim_obs.Recorder.t -> t

val pp : t Fmt.t
(** One line: events, requests and their phases, dropped events. *)

val emit :
  Format.formatter -> gate:bool -> ?out:string -> t -> (unit, string) result
(** With [gate], fail unless every completed request's timeline is
    causally complete ({!Nullelim_obs.Timeline.check_complete}; after
    drops it counts the requests that lost spans); then write the
    [nullelim-timeline/1] document to [out].  Each step that succeeds
    prints one line. *)

val run :
  Format.formatter -> check:bool -> ?out:string -> string -> (unit, string) result
(** [nullelim timelines FILE]: slice a [nullelim-flight/1] file (or a
    document that embeds one under its ["flight"] key), print {!pp} and
    one row per request (tenant, phase, queue wait, service time and
    total latency in ms), then {!emit} with [gate = check]. *)
