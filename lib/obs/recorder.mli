(** Flight recorder: a fixed-size ring buffer of timestamped runtime
    events — tier promotions/demotions, trap firings, code-cache
    traffic, request lifecycle — cheap enough to leave
    on in production (one enabled-flag load, then one uncontended lock,
    a clock read and a handful of array stores per event).

    Every domain records into the one ring, behind one mutex that is a
    leaf (nothing is called while it is held).  Once the ring is full
    new events overwrite the oldest ({!dropped} counts the overwritten
    ones).  The clock is read inside the critical section, so the ring
    is in timestamp order except for events recorded with an explicit
    [?ts].  {!dump} copies the ring under the lock, so a dump taken
    while writers are live is exact: it never holds a torn slot.

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
  | Req_enqueue   (** [a] = request id, [b] = queue depth after the
                      push (0 for a request served at admission) *)
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
(** A recorder whose ring holds [capacity] events in all (default
    4096).  Enabled from birth. *)

val global : t
(** The process-wide recorder the runtime layers record into by
    default; it holds 24,576 events. *)

val now : unit -> float
(** The recorder's clock ({!Clock.now}, monotonic), the one [ev_ts] is
    on. *)

val record : ?ctx:Ctx.t -> ?ts:float -> ?a:int -> ?b:int -> t -> kind -> unit
(** Append one event to the ring (no-op when disabled).  The event's
    domain is the calling domain's id.  [ctx] defaults to the domain's
    ambient {!Ctx.current}; [ts] defaults to {!now}, and a caller passes an
    earlier {!now} reading to place an event at the instant it
    describes: the reading it already took for a measurement (the
    service's request events carry the readings behind the outcome's
    queue wait and completion time), or one taken before it could
    decide to record (a request served at admission records its
    enqueue and start after its cache hit).  {!dump} sorts by [ts], so
    such an event still lands in causal order. *)

val set_enabled : t -> bool -> unit
(** Disabling reduces {!record} to one atomic load + branch — the knob
    the overhead bench flips. *)

val is_enabled : t -> bool

val dump : t -> event list
(** All retained events, sorted by timestamp (a stable sort, so events
    with equal stamps keep their recording order). *)

val dropped : t -> int
(** Events overwritten because the ring wrapped. *)

val clear : t -> unit
(** Empty the ring and reset the drop count. *)

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
