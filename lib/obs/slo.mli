(** Service-level objectives over the {!Metrics} registry, evaluated
    with multi-window burn rates — the status server's [/healthz]
    verdict and the ops-facing half of the per-tenant attribution work.

    An objective declares a target fraction of {e good events}:

    - {!latency}: an observation of histogram [metric] is good when it
      is at or below [threshold] seconds ("p99 compile latency ≤ 50ms"
      is [target = 0.99, threshold = 0.05]);
    - {!availability}: good/bad counts come from two counters
      (availability = 1 − shed fraction uses
      [good = svc_requests_completed_total],
      [bad = svc_requests_shed_total]).

    Both read {e across every label set} of the named instrument
    ({!Metrics.counter_total_any} / {!Metrics.histogram_merged_any}), so
    per-tenant families aggregate into one service-level objective.

    {2 Burn rates}

    The {e burn rate} of a window is the error fraction observed in that
    window divided by the objective's error budget [(1 − target)]: burn
    1.0 spends the budget exactly; burn 14.4 over 5 minutes is the
    classic page-now threshold.  A window with no traffic burns 0.
    Classification requires {e both} windows to cross a threshold —
    the long window proves the problem is sustained, the short window
    proves it is still happening:

    - [Failing] when short {e and} long burn ≥ [failing_burn] (14.4);
    - [Degraded] when short {e and} long burn ≥ [degraded_burn] (1.0);
    - [Healthy] otherwise.

    {!tick} samples cumulative counts (call it periodically — the status
    server does, once per accept-loop tick); windows are deltas between
    samples, with the sample exactly on a window edge serving as the
    baseline (its events are outside the window).  See DESIGN.md §15. *)

type kind =
  | Latency of { metric : string; threshold : float }
  | Availability of { good : string; bad : string }

type objective = { o_name : string; o_kind : kind; o_target : float }

val latency :
  name:string -> metric:string -> threshold:float -> target:float -> objective
(** @raise Invalid_argument unless [0 <= target <= 1]. *)

val availability :
  name:string -> good:string -> bad:string -> target:float -> objective
(** @raise Invalid_argument unless [0 <= target <= 1]. *)

type status = Healthy | Degraded | Failing

val status_name : status -> string

type t
(** An evaluator: objectives plus their sample history.  Domain-safe
    ({!tick} and {!evaluate} serialize on an internal mutex). *)

val create :
  ?short_window:float ->
  ?long_window:float ->
  ?degraded_burn:float ->
  ?failing_burn:float ->
  Metrics.t ->
  objective list ->
  t
(** Defaults: 300s short window, 3600s long window, degraded at burn
    1.0, failing at burn 14.4.
    @raise Invalid_argument unless [0 < short_window <= long_window]. *)

val tick : ?now:float -> t -> unit
(** Sample every objective's cumulative good/bad counts at [now]
    (default {!Clock.now}).  History older than the long
    window is pruned, always retaining one sample at-or-beyond the edge
    so edge deltas stay exact.  [?now] exists for deterministic tests —
    pass monotonically non-decreasing values. *)

type report = {
  r_name : string;
  r_target : float;
  r_kind : kind;
  r_status : status;
  r_short_burn : float;
  r_long_burn : float;
  r_short_total : int;  (** events inside the short window *)
  r_long_total : int;   (** events inside the long window *)
}

val evaluate : ?now:float -> t -> report list
(** Burn rates and classification per objective, from the recorded
    samples at [now] (default {!Clock.now}; does not itself sample —
    {!tick} first). *)

val doc : Doc.t
(** ["nullelim-slo/1"], member ["slo"]; its rules add the window order
    and that each objective carries the members of its kind. *)

val to_json : ?now:float -> t -> Obs_json.t
(** The settings and the {!evaluate} reports at [now] as a {!doc}
    document, with the worst status on top.  Infinite burns (target = 1
    with any error) serialize as [1e18]. *)
