(** Open-loop load generator for the parallel compile service.

    Drives Poisson arrivals of compile requests (the registry workload
    corpus under the full configuration) at a configurable offered rate,
    independent of completions — the {e open-loop} discipline: arrival
    times are drawn from a seeded exponential schedule before latency is
    known, so a saturated service accumulates queueing delay instead of
    silently throttling the generator (the closed-loop coordinated-
    omission trap).  Requests the bounded queue refuses are {e shed} and
    counted, never retried.

    A request's latency is [oc_done_at - scheduled arrival]: generator
    lag and queue wait both count, which is what makes the reported
    percentiles honest under overload.

    {!sweep} first calibrates the corpus (serial compiles → mean
    seconds per request, giving the service's theoretical per-domain
    capacity), then replays the schedule at a list of rate multipliers
    of that capacity, reporting throughput and p50/p90/p99/p999 per
    rate.  Exact percentiles come from sorting the latency sample;
    every latency is also observed into a log-bucketed
    {!Nullelim_obs.Metrics} histogram whose {!Nullelim_obs.Metrics.percentile}
    extraction is reported alongside as a cross-check of the merged
    histogram path.

    With [~overhead:true] the sweep also times the steady-state tiered
    benchmark with the global flight recorder enabled versus disabled
    (median of three alternating pairs; toggling the global recorder
    and restoring its state) and a tight record loop (ns/event) — the
    evidence behind the "always-on" claim. *)

module Svc = Nullelim_svc.Svc
module Json = Nullelim_obs.Obs_json

type calibration = {
  cal_jobs : int;            (** distinct compile requests in the corpus *)
  cal_mean_seconds : float;  (** mean serial compile seconds per request *)
  cal_base_rate : float;     (** [1 / cal_mean_seconds]: one domain's
                                 theoretical capacity, requests/s *)
}

type tenant_row = {
  tn_tenant : int;     (** tenant id (0-based) *)
  tn_offered : int;    (** requests this tenant scheduled in the step *)
  tn_completed : int;
  tn_shed : int;       (** queue-full and tenant-cap rejections *)
}
(** One tenant's closed accounting within a rate step:
    [tn_offered = tn_completed + tn_shed], checked by {!check_rows}. *)

type rate_row = {
  lr_multiplier : float;   (** offered rate as a multiple of
                               [cal_base_rate] *)
  lr_offered_rate : float; (** offered rate, requests/s *)
  lr_offered : int;        (** requests scheduled *)
  lr_completed : int;      (** requests that compiled *)
  lr_shed : int;           (** requests the full queue refused *)
  lr_elapsed : float;      (** wall seconds of the step *)
  lr_throughput : float;   (** completed / elapsed, requests/s *)
  lr_mean_ms : float;
  lr_p50_ms : float;
  lr_p90_ms : float;
  lr_p99_ms : float;
  lr_p999_ms : float;
  lr_hist_p99_ms : float;  (** p99 via the merged metrics histogram —
                               within one log-bucket width of
                               [lr_p99_ms] *)
  lr_tenants : tenant_row list;  (** one row per tenant (round-robin
                                     submission order) *)
}

type overhead = {
  ov_ns_per_event : float;      (** cost of one [Recorder.record] *)
  ov_enabled_seconds : float;   (** median tiered-bench wall, recorder on *)
  ov_disabled_seconds : float;  (** median tiered-bench wall, recorder off *)
  ov_fraction : float;          (** (on - off) / off; may be slightly
                                    negative under timer noise *)
}

type t = {
  lg_domains : int;
  lg_queue_capacity : int;
  lg_duration : float;     (** target seconds per rate step *)
  lg_seed : int;
  lg_tenants : int;        (** tenants the sweep submitted as *)
  lg_tenant_cap : int;     (** per-tenant in-queue cap (0 = unlimited) *)
  lg_calibration : calibration;
  lg_rows : rate_row list; (** in increasing offered-rate order *)
  lg_saturation_throughput : float;  (** max row throughput *)
  lg_overhead : overhead option;
}

val calibrate : Svc.job list -> calibration
(** Serially compile every job once and average. *)

val corpus : unit -> Svc.job list
(** Every registry workload at scale 1 under [Config.new_full] for the
    default architecture. *)

val sweep :
  ?domains:int ->
  ?queue_capacity:int ->
  ?duration:float ->
  ?seed:int ->
  ?multipliers:float list ->
  ?max_requests:int ->
  ?overhead:bool ->
  ?tenants:int ->
  ?tenant_cap:int ->
  ?metrics:Nullelim_obs.Metrics.t ->
  ?recorder:Nullelim_obs.Recorder.t ->
  unit ->
  t
(** Run the rate sweep on a fresh (uncached) service.  [domains]
    defaults to {!Svc.default_domains}, [queue_capacity] to 64,
    [duration] to 2.0 s per step, [seed] to 42, [multipliers] to
    [[0.25; 0.5; 1; 2; 4]] (from comfortably under one domain's
    capacity to well past saturation), [max_requests] caps a step's schedule
    (default 400) so high-rate steps stay bounded.  [overhead] (default
    false) additionally measures the flight recorder's overhead
    ({!overhead}).

    Multi-tenancy: requests rotate round-robin over [tenants] tenant
    ids (default 1 — everything is tenant 0), so per-tenant metrics,
    flight-event contexts and the {!tenant_row} accounting are always
    exercised.  [tenant_cap] > 0 additionally bounds each tenant's
    in-queue share ({!Svc.create}).  [metrics] / [recorder] select the
    sinks the service accounts into (defaults: the process-wide
    globals) — the serve command passes the instances its status
    endpoints read. *)

val check_rows : rate_row list -> (unit, string list) result
(** The sweep's structural gate: at least one row; offered counts
    positive; completed + shed ≤ offered; each row's throughput must
    not {e drop} more than 15% below the running maximum as the offered
    rate rises (throughput grows to saturation, then plateaus — a dip
    is a scheduling pathology); every finite p50 ≤ p99 ≤ p999; and the
    per-tenant accounting closes — each tenant row satisfies
    [offered = completed + shed], and the tenant rows sum to the step's
    totals. *)

val normalized_p99 : t -> float
(** The lowest-rate row's p99 divided by the calibrated mean compile
    time: a machine-speed-independent latency figure (how many mean
    compiles a tail request waits end-to-end), the quantity the
    baseline gate compares. *)

val doc : Nullelim_obs.Doc.t
(** ["nullelim-loadgen/1"], member ["loadgen"]. *)

val to_json : t -> Json.t

val check_against_baseline :
  baseline:Json.t -> t -> (string list, string list) result
(** Gate a fresh sweep against a committed ["loadgen"] baseline
    document.  The stable quantity compared is the {e normalized} p99 —
    the lowest-rate row's p99 divided by the calibrated mean compile
    time — which cancels the machine's absolute speed; a fresh value
    above 3 × the baseline's fails.  [Ok drift] lists
    non-fatal differences. *)

(** {1 The loadgen command} *)

type load = {
  ld_jobs : int;            (** worker domains; 0 = {!Svc.default_domains} *)
  ld_duration : float;      (** target seconds per rate step *)
  ld_seed : int;
  ld_multipliers : float list;
  ld_max_requests : int;    (** cap on the requests of one step *)
  ld_tenants : int;
  ld_tenant_cap : int;      (** 0 = unlimited *)
}
(** The sweep settings [loadgen] and [serve] share (see {!sweep}). *)

val parse_multipliers : string -> (float list, string) result
(** A comma-separated list of positive rate multipliers. *)

val run :
  Format.formatter ->
  ?overhead:bool ->
  ?metrics:Nullelim_obs.Metrics.t ->
  ?recorder:Nullelim_obs.Recorder.t ->
  ?flight:string ->
  ?flight_trace:string ->
  ?timelines:string ->
  load ->
  (t, string) result
(** [nullelim loadgen]: {!sweep} with [load] into [metrics] and
    [recorder] (default the global ones), print the calibration, one
    row per rate, the saturation throughput and normalized p99 (plus
    per-tenant totals with several tenants, and the recorder overhead
    when measured), gate the rows
    ({!check_rows}), write the recorder's [nullelim-flight/1] dump to
    [flight] and its Chrome trace to [flight_trace], then slice the
    recorder into per-request timelines, gate them and write them to
    [timelines] ({!Timelines.emit}).  [Error] names the failed gate. *)
