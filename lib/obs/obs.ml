(** Umbrella module for the telemetry layer: the Chrome trace-event
    encoder, leveled logging, the metrics registry, causal request
    contexts, the flight recorder and its per-request timelines,
    Prometheus exposition, SLO burn rates and the per-check decision
    log.  Client code says [Obs.Log.debug ...],
    [Obs.Metrics.counter ...], [Obs.Ctx.mint ...],
    [Obs.Recorder.record ...], [Obs.Decision.record ...]. *)

module Json = Obs_json
module Clock = Clock
module Doc = Doc
module Log = Log
module Trace = Trace
module Metrics = Metrics
module Ctx = Ctx
module Recorder = Recorder
module Timeline = Timeline
module Export = Export
module Slo = Slo
module Decision = Decision
module Profile = Profile
