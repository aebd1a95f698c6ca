(** The registry of versioned JSON documents: every schema this
    repository writes, and the file check behind
    [nullelim validate-json]. *)

val all : Nullelim_obs.Doc.t list
(** One entry per schema: metrics, flight, timeline, slo,
    dynamic, tiered, loadgen, native-bench, fuzz and tenants. *)

val validate : Nullelim_obs.Obs_json.t -> (string list, string) result
(** Check a whole file, dispatching on its own ["schema"] string.  A
    [nullelim-bench/1] container checks every member that carries a
    [nullelim-*] schema (an unregistered one fails; schema-less members
    such as the bench's ["profiling_overhead"] record are skipped) and
    reports every failing member.  A file without a schema passes only
    as a Chrome trace-event file.  [Ok] lists what was checked; [Error]
    on an invalid or unrecognised file lists what was tried. *)
