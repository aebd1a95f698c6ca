(** Per-request causal timelines, reconstructed from a flight-recorder
    dump: the tentpole's payoff.  Every {!Recorder} event carries a
    causal context, so grouping a dump by request id recovers each
    request's enqueue → dequeue/start → done (or shed) span sequence
    with the queue wait and service time attributed to its tenant.
    [nullelim timelines] in the CLI and the [/flight]-driven CI artifact
    are thin wrappers over this module.  See DESIGN.md §15. *)

type phase = Completed | Shed | Inflight

val phase_name : phase -> string

type t = {
  tl_request : int;
  tl_tenant : int;  (** -1 when no event carried a tenant *)
  tl_events : Recorder.event list;  (** ts-sorted slice of the dump *)
  tl_enqueue : float option;  (** first [Req_enqueue] timestamp *)
  tl_dequeue : float option;  (** first [Req_start] timestamp *)
  tl_done : float option;     (** first [Req_done] timestamp *)
  tl_shed : float option;     (** first [Req_shed] timestamp *)
}

val of_events : Recorder.event list -> t list
(** Group a dump into timelines, one per distinct request id, sorted by
    request id.  An event joins a timeline via its context's request id
    or — for the [Req_*] lifecycle kinds — its [a] payload.
    Unattributed events (no request in scope) belong to no timeline. *)

val phase : t -> phase
(** [Completed] if a done span exists, else [Shed] if a shed span
    exists, else [Inflight]. *)

val queue_wait : t -> float option
(** Dequeue − enqueue, when both spans are present: 0 for a cache hit
    served at admission, whose enqueue and start share the admission
    instant. *)

val service_time : t -> float option
(** Done − dequeue, when both spans are present. *)

val total_latency : t -> float option
(** Done − enqueue, when both spans are present. *)

val check_complete : ?dropped:int -> t list -> (unit, string) result
(** The structural gate the CI smoke runs on a live dump: every
    {e completed} timeline must carry enqueue, start and done spans in
    causal order, with every attributed span agreeing on the tenant and
    request id.  When [dropped > 0] the ring wrapped and the oldest
    spans were overwritten by design: a completed timeline may then
    lack its enqueue or start span ({!missing_spans}), but the spans
    it does have must still be in causal order and agree. *)

val missing_spans : t -> bool
(** A completed timeline without its enqueue or start span. *)

val doc : Doc.t
(** ["nullelim-timeline/1"], member ["timelines"]; the check includes
    the [completed + shed + inflight = requests] tie-out. *)

val to_json : ?dropped:int -> t list -> Obs_json.t
(** The timelines and their phase counts as a {!doc} document. *)
