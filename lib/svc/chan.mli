(** Bounded blocking FIFO channel for handing work to a pool of
    domains.

    Hand-rolled on stdlib [Mutex]/[Condition] — no external
    dependencies.  A channel has a fixed capacity: {!push} blocks while
    the channel is full, {!pop} blocks while it is empty, and {!close}
    initiates a clean shutdown in which already-queued items still
    drain but no new item is accepted.

    All operations are linearizable; any number of producer and
    consumer domains may share one channel.

    Observability: each successful push/pop records an
    enqueue/dequeue event (with the depth after the operation) into
    the channel's flight recorder, and the channel tracks its
    high-water mark ({!high_water}). *)

type 'a t
(** A bounded multi-producer multi-consumer channel carrying ['a]. *)

exception Closed
(** Raised by {!push} when the channel has been closed. *)

val create :
  ?recorder:Nullelim_obs.Recorder.t ->
  ?ctx_of:('a -> Nullelim_obs.Ctx.t) ->
  ?on_enqueue:('a -> unit) ->
  capacity:int ->
  unit ->
  'a t
(** [create ~capacity ()] is an empty open channel holding at most
    [capacity] items (clamped to at least 1).  Queue movement is
    recorded into [recorder] (default {!Nullelim_obs.Recorder.global});
    when [ctx_of] is given, each enqueue/dequeue event carries the
    moved item's causal context (so the dequeue — which happens on a
    consumer domain with no relevant ambient context — still lands on
    the item's request timeline).  Default: no context.

    [on_enqueue] runs for each accepted item {e inside} the push's
    critical section, before any consumer can observe the item — the
    only place a per-request enqueue event can be recorded without
    racing the consumer's first event for the same request (recording
    after the push returns can timestamp {e later} than the worker's
    dequeue).  Keep it cheap, and never call back into the channel. *)

val push : 'a t -> 'a -> unit
(** [push t x] appends [x], blocking while the channel is full.

    @raise Closed if the channel is closed — including when the close
    happens while the push is blocked waiting for space. *)

val try_push : 'a t -> 'a -> bool
(** [try_push t x] appends [x] and returns [true] if the channel has
    space, returns [false] immediately when it is full — it never
    blocks.  The tiered manager uses this on the serving thread so a
    saturated compile queue can't stall interpretation.

    @raise Closed if the channel is closed. *)

val pop : 'a t -> 'a option
(** [pop t] removes the oldest item, blocking while the channel is
    empty and still open.  Returns [None] once the channel is closed
    {e and} drained — the consumer's signal to exit its loop.  Items
    pushed before {!close} are always delivered. *)

val try_pop : 'a t -> 'a option
(** [try_pop t] removes the oldest item if there is one and returns
    [None] at once otherwise, open or closed — it never blocks.  A taken
    item is recorded and wakes a blocked pusher exactly as {!pop} does.
    A caller waiting on a queued request's result uses it to run queued
    work instead of sleeping. *)

val close : 'a t -> unit
(** Close the channel: subsequent {!push}es raise {!Closed}, blocked
    pushers are woken to raise, and blocked poppers are woken to drain
    the remaining items and then receive [None].  Idempotent. *)

val length : 'a t -> int
(** Number of items currently queued (a racy snapshot, exact only when
    no other domain is operating on the channel). *)

val depth : 'a t -> int
(** Synonym for {!length}: the queue-depth gauge. *)

val high_water : 'a t -> int
(** The deepest the queue has ever been; never exceeds the capacity. *)

val capacity : 'a t -> int
(** The (clamped) capacity this channel was created with. *)

val is_closed : 'a t -> bool
(** Has {!close} been called?  (Racy snapshot, like {!length}.) *)
