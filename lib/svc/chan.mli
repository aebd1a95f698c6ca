(** Bounded blocking FIFO channel for handing work to a pool of
    domains.

    Hand-rolled on stdlib [Mutex]/[Condition] — no external
    dependencies.  A channel has a fixed capacity: {!push} blocks while
    the channel is full, {!pop} blocks while it is empty, and {!close}
    initiates a clean shutdown in which already-queued items still
    drain but no new item is accepted.

    All operations are linearizable; any number of producer and
    consumer domains may share one channel.  The channel records
    nothing itself: its one hook, [on_enqueue], lets the owner account
    for an accepted item before any consumer can take it. *)

type 'a t
(** A bounded multi-producer multi-consumer channel carrying ['a]. *)

exception Closed
(** Raised by {!push} when the channel has been closed. *)

val create : ?on_enqueue:('a -> int -> unit) -> capacity:int -> unit -> 'a t
(** [create ~capacity ()] is an empty open channel holding at most
    [capacity] items (clamped to at least 1).

    [on_enqueue x depth] runs for each accepted item {e inside} the
    push's critical section, with the queue depth after the push,
    before any consumer can observe [x]: what it counts or records for
    the item always precedes the consumer's work on it, the depth is
    exact, and a refused {!try_push} never reaches it.  Keep it cheap,
    and never call back into the channel. *)

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
    item wakes a blocked pusher exactly as {!pop} does.  A caller
    waiting on a queued request's result uses it to run queued work
    instead of sleeping. *)

val close : 'a t -> unit
(** Close the channel: subsequent {!push}es raise {!Closed}, blocked
    pushers are woken to raise, and blocked poppers are woken to drain
    the remaining items and then receive [None].  Idempotent. *)

val length : 'a t -> int
(** Number of items currently queued (a racy snapshot, exact only when
    no other domain is operating on the channel). *)

val capacity : 'a t -> int
(** The (clamped) capacity this channel was created with. *)
