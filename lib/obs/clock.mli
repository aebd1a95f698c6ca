(** The repository's one clock: monotonic wall time
    ([clock_gettime(CLOCK_MONOTONIC)]).  It never jumps, so differences
    of two readings are durations; readings are meaningful only
    relative to each other within one process. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary fixed origin. *)

val now : unit -> float
(** [now_ns] in seconds. *)
