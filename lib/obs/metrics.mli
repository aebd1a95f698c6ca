(** Typed metrics registry (counters / gauges / histograms with labels)
    with a stable, versioned JSON snapshot schema.  The single sink for
    the pass manager's timings/counters, the data-flow solver's work
    counters and the interpreter's dynamic counters.

    Instrument identity is [(name, sorted labels)]: asking again for the
    same identity returns the same instrument, so instrumented code can
    re-request instruments instead of threading them around.

    Domain safety: a registry may be shared across domains.  Counters
    and histograms are sharded per domain — {!counter} / {!histogram}
    return the {e calling domain's} cell, {!inc} / {!observe} are plain
    unsynchronized writes on it, and {!snapshot} / {!counter_total} /
    {!percentiles} merge every domain's shard by summation.  Gauges have
    set-semantics and are a single shared atomic cell.  Merged reads
    taken while writer domains are live may miss in-flight bumps (cell
    reads are word-atomic, never torn); once the writers quiesce, merged
    values are exact.  See DESIGN.md §14. *)

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
(** Find-or-register; same (name, labels) from the same domain always
    yields the same cell.  Once the calling domain has the cell, a
    lookup is one hash-table probe of its shard, with no lock.
    @raise Invalid_argument if the name is already registered as a
    different type. *)

val inc : counter -> int -> unit
(** Add to a monotone counter (the calling domain's cell; lock-free). *)

val counter_value : counter -> int
(** This cell's (i.e. one domain's) contribution; {!counter_total} for
    the merged value. *)

val counter_total : t -> ?labels:labels -> string -> int
(** Sum of the counter across every domain's shard (0 if never
    registered). *)

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
    admitting the value (the calling domain's cells; lock-free). *)

val histogram_count : histogram -> int
(** This domain's sample count; {!histogram_total_count} for merged. *)

val histogram_total_count : t -> ?labels:labels -> string -> int
(** Merged sample count across every domain's shard. *)

val histogram_merged :
  t -> ?labels:labels -> string -> (float array * int array * int * float) option
(** The named histogram merged across every domain's shard:
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
(** Sum of the named counter across every label set and every domain. *)

val label_values : t -> string -> string -> string list
(** [label_values r name key] — the distinct values the label [key]
    takes across every instrument registered under [name], sorted.
    Enumerates e.g. the tenants a per-tenant counter family has seen. *)

val percentile : t -> ?labels:labels -> string -> float -> float
(** [percentile r name q] (with [0 <= q <= 1]) extracts the q-quantile
    of the named histogram merged across domains: the upper bound of the
    first bucket whose cumulative count reaches [ceil (q * total)] — an
    overestimate by at most one bucket width.  Returns [nan] on an empty
    or unregistered histogram and [infinity] when the quantile lands in
    the overflow bucket. *)

val percentiles : t -> ?labels:labels -> string -> float list -> float list
(** {!percentile} at several quantiles over one merge. *)

val doc : Doc.t
(** ["nullelim-metrics/1"], member ["metrics"]: the snapshot schema. *)

val snapshot : t -> Obs_json.t
(** Deterministic merged snapshot (all domains' shards summed) as a
    {!doc} document: every counter, gauge and histogram series. *)
