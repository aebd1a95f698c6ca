(** Typed metrics registry (counters / gauges / histograms with labels)
    with a stable, versioned JSON snapshot schema.  The single sink for
    the pass manager's timings/counters, the data-flow solver's work
    counters and the interpreter's dynamic counters.

    Instrument identity is [(name, sorted labels)]: asking again for the
    same identity returns the same instrument, so instrumented code can
    re-request instruments instead of threading them around.

    Domain safety: a registry may be shared across domains.  It is one
    table behind one mutex, and every domain asking for an identity gets
    the same instrument.  Counters and gauges are atomic cells;
    {!observe} updates a histogram under the registry's mutex.  Every
    read ({!counter_total}, {!percentiles}, {!snapshot}, ...) is exact,
    even while other domains write.  See DESIGN.md §14. *)

type t
(** A registry.  [Compiler.compile] creates a private one per
    compilation, so concurrent compiles on different domains never share
    instruments. *)

type labels = (string * string) list
(** Label pairs; order is irrelevant (identity sorts them). *)

type counter
type gauge
type histogram

val create : unit -> t
(** A fresh, empty registry. *)

val global : t
(** A process-wide registry for callers that want one; nothing in the
    library records to it implicitly. *)

val counter : t -> ?labels:labels -> string -> counter
(** Find-or-register; the same (name, labels) always yields the same
    cell, from any domain.  A lookup is one hash-table probe under the
    registry's mutex.
    @raise Invalid_argument if the name is already registered as a
    different type. *)

val inc : counter -> int -> unit
(** Add to a monotone counter (one atomic fetch-and-add). *)

val counter_total : t -> ?labels:labels -> string -> int
(** The counter's value (0 if never registered). *)

val gauge : t -> ?labels:labels -> string -> gauge
(** Find-or-register a gauge (a settable float); identity rules as for
    {!counter}. *)

val set : gauge -> float -> unit
val add : gauge -> float -> unit
val gauge_value : gauge -> float

val log_buckets : lo:float -> hi:float -> per_decade:int -> float array
(** Log-spaced bucket bounds from [lo] up to at least [hi] with
    [per_decade] bounds per decade — e.g.
    [log_buckets ~lo:1e-6 ~hi:30. ~per_decade:10] gives ~23% spacing,
    bounding {!percentiles} error to one such step.
    @raise Invalid_argument unless [0 < lo < hi] and [per_decade >= 1]. *)

val histogram : t -> ?labels:labels -> ?buckets:float array -> string -> histogram
(** Find-or-register a histogram with cumulative buckets; identity rules
    as for {!counter}.  The first registration fixes the bucket bounds
    (a sorted copy of [?buckets]); later [?buckets] for the same
    identity are ignored and never copied or sorted. *)

val observe : histogram -> float -> unit
(** Record one sample: bumps the count, the sum and the one bucket
    admitting the value, under the registry's mutex. *)

val histogram_total_count : t -> ?labels:labels -> string -> int
(** The histogram's sample count (0 if never registered). *)

val histogram_merged :
  t -> ?labels:labels -> string -> (float array * int array * int * float) option
(** The named histogram, read in one critical section:
    [(bucket bounds, per-bucket counts, total count, sum)] — the raw
    material {!percentile} and the SLO burn-rate evaluator work from.
    [None] if no histogram is registered under the identity.  The
    counts array has one extra overflow slot. *)

val histogram_merged_any :
  t -> string -> (float array * int array * int * float) option
(** Like {!histogram_merged}, additionally merged across {e every label
    set} registered under [name] (label sets whose bucket bounds differ
    from the first registration are skipped).  This is how an SLO over
    e.g. [svc_compile_seconds] aggregates the per-tenant series. *)

val counter_total_any : t -> string -> int
(** Sum of the named counter across every label set. *)

val label_values : t -> string -> string -> string list
(** [label_values r name key] — the distinct values the label [key]
    takes across every instrument registered under [name], sorted.
    Enumerates e.g. the tenants a per-tenant counter family has seen. *)

val percentile : t -> ?labels:labels -> string -> float -> float
(** [percentile r name q] (with [0 <= q <= 1]) extracts the q-quantile
    of the named histogram: the upper bound of the
    first bucket whose cumulative count reaches [ceil (q * total)] — an
    overestimate by at most one bucket width.  Returns [nan] on an empty
    or unregistered histogram and [infinity] when the quantile lands in
    the overflow bucket. *)

val percentiles : t -> ?labels:labels -> string -> float list -> float list
(** {!percentile} at several quantiles over one read. *)

type value =
  | Vcounter of int
  | Vgauge of float
  | Vhistogram of (float array * int array * int * float)
      (** as {!histogram_merged} returns it *)

val values : t -> ((string * labels) * value) list
(** Every instrument's current value, sorted by (name, labels). *)

val doc : Doc.t
(** ["nullelim-metrics/1"], member ["metrics"]: the snapshot schema. *)

val snapshot : t -> Obs_json.t
(** Deterministic snapshot as a {!doc} document: every counter, gauge
    and histogram series, sorted by (name, labels). *)
