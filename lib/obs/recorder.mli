(** Flight recorder: a fixed-size, lock-free ring buffer of timestamped
    runtime events — tier promotions/demotions, trap firings, code-cache
    traffic, queue movement, request lifecycle — cheap enough to leave
    on in production (one enabled-flag load, a handful of array stores
    and a clock read per event).

    Each domain records into its own ring ({!Domain_shard}): the hot
    path takes no lock and performs no CAS, and once a ring is full new
    events overwrite the oldest ({!dropped} counts the overwritten
    ones).  {!dump} merges every domain's ring into one timestamp-sorted
    stream; merging while writers are live is best-effort (a
    concurrently overwritten slot can surface with mixed fields), after
    quiescence it is exact.

    Every event additionally carries a causal {!Ctx.t} — tenant id,
    request id, span and parent span — taken from the explicit [?ctx]
    argument or, by default, the recording domain's ambient
    {!Ctx.current}.  That is what lets a flight dump be sliced into
    per-request timelines ({!Timeline}).  See DESIGN.md §14–15. *)

type kind =
  | Tier_promote  (** [a] = tier installed, [b] = pending deopt sites *)
  | Tier_demote   (** [a] = trapping site id *)
  | Trap_fired    (** [a] = site id *)
  | Cache_hit     (** a code-cache lookup found its key *)
  | Cache_miss    (** a code-cache lookup did not *)
  | Cache_evict   (** the code cache evicted an entry for space *)
  | Enqueue       (** [a] = queue depth after the push *)
  | Dequeue       (** [a] = queue depth after the pop *)
  | Req_enqueue   (** [a] = request id *)
  | Req_start     (** [a] = request id, [b] = worker, or -1 for a
                      request served at admission (a code-cache hit
                      answered on the submitting thread, which never
                      reaches a worker) *)
  | Req_done      (** [a] = request id, [b] = worker or -1 as for
                      [Req_start] *)
  | Req_shed      (** [a] = request id, [b] = 0 queue full / 1 tenant
                      cap *)
  | Mark          (** free-form; [a]/[b] caller-defined *)

type event = {
  ev_ts : float;      (** seconds on {!now} *)
  ev_domain : int;    (** recording domain's id *)
  ev_kind : kind;
  ev_a : int;
  ev_b : int;
  ev_ctx : Ctx.t;     (** causal context in force when recorded *)
}

type t

val create : ?capacity:int -> unit -> t
(** A recorder whose per-domain rings hold [capacity] events each
    (default 4096).  Enabled from birth. *)

val global : t
(** The process-wide recorder the runtime layers record into by
    default. *)

val now : unit -> float
(** The recorder's clock ({!Clock.now}, monotonic), the one [ev_ts] is
    on. *)

val record : ?ctx:Ctx.t -> ?ts:float -> ?a:int -> ?b:int -> t -> kind -> unit
(** Append one event to the calling domain's ring (no-op when
    disabled).  [ctx] defaults to the domain's ambient
    {!Ctx.current}; [ts] defaults to {!now}, and a caller passes an
    earlier {!now} reading to place an event at the instant it
    describes when it can only decide to record it later (a request
    served at admission records its enqueue and start after its cache
    hit).  {!dump} sorts by [ts], so such an event still lands in
    causal order. *)

val set_enabled : t -> bool -> unit
(** Disabling reduces {!record} to one atomic load + branch — the knob
    the overhead bench flips. *)

val is_enabled : t -> bool

val capacity : t -> int

val dump : t -> event list
(** All retained events, merged across domains, sorted by timestamp. *)

val dropped : t -> int
(** Events overwritten because a ring wrapped, summed over rings. *)

val clear : t -> unit
(** Reset every ring (and the drop count).  Only meaningful while no
    other domain is recording. *)

val record_metrics : ?registry:Metrics.t -> t -> unit
(** Export the recorder's health into a metrics registry (default
    {!Metrics.global}): gauges [flight_recorder_dropped] (events
    overwritten so far — silent data loss made visible in every
    snapshot) and [flight_recorder_capacity]. *)

val kind_name : kind -> string

val kind_enum : kind Doc.kind
(** An event kind in a document: written by {!kind_name}. *)

val doc : Doc.t
(** ["nullelim-flight/1"], member ["flight"]; its rules add that events
    are sorted by [ts] and that the warning needs [dropped > 0]. *)

val to_json : t -> Obs_json.t
(** The {!dump} as a {!doc} document; when events were dropped a
    ["warning"] member says the oldest part is incomplete. *)

val events_of_json : Obs_json.t -> (event list * int, string) result
(** Inverse of {!to_json}: validate a flight document, then return its
    events in order and its dropped count. *)

val to_trace : t -> Trace.event list
(** The retained events as zero-duration Chrome trace instants
    (timestamps rebased to the earliest event), convertible with
    {!Trace.to_json} / {!Trace.write}.  Attributed events carry their
    tenant/request ids as args. *)
