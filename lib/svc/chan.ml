(** Bounded blocking FIFO channel (mutex + two condition variables).

    The classic bounded-buffer monitor: [nonfull] wakes producers,
    [nonempty] wakes consumers.  [close] broadcasts on both so every
    blocked domain re-examines the state: blocked pushers raise
    {!Closed}, blocked poppers drain what is left and then return
    [None].  Condition waits are re-checked in a loop, so spurious
    wakeups are harmless.

    Every successful push/pop also feeds the flight recorder (an
    enqueue/dequeue event carrying the depth after the operation) and
    maintains the high-water mark, both inside the critical section so
    depth readings are consistent. *)

module Recorder = Nullelim_obs.Recorder
module Ctx = Nullelim_obs.Ctx

type 'a t = {
  buf : 'a Queue.t;
  capacity : int;
  m : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  mutable closed : bool;
  mutable high_water : int;
  crec : Recorder.t;
  ctx_of : 'a -> Ctx.t;
  on_enqueue : 'a -> unit;
}

exception Closed

let create ?(recorder = Recorder.global) ?(ctx_of = fun _ -> Ctx.none)
    ?(on_enqueue = fun _ -> ()) ~capacity () =
  {
    buf = Queue.create ();
    capacity = max 1 capacity;
    m = Mutex.create ();
    nonempty = Condition.create ();
    nonfull = Condition.create ();
    closed = false;
    high_water = 0;
    crec = recorder;
    ctx_of;
    on_enqueue;
  }

let with_lock t f =
  Mutex.lock t.m;
  match f () with
  | v ->
    Mutex.unlock t.m;
    v
  | exception e ->
    Mutex.unlock t.m;
    raise e

(* call with the lock held, right after a Queue.push; the event carries
   the pushed item's context so the queue movement lands on the item's
   causal timeline (the pushing domain's ambient ctx would do too here,
   but the pop side has no such luck — see [pop]) *)
let note_enqueue t x =
  let d = Queue.length t.buf in
  if d > t.high_water then t.high_water <- d;
  Recorder.record ~ctx:(t.ctx_of x) ~a:d t.crec Recorder.Enqueue;
  (* still inside the critical section: no consumer has seen the item
     yet, so anything the hook records (Req_enqueue) is guaranteed to
     timestamp before the consumer's first event for it — recording
     after the push returns would race the worker's Req_start *)
  t.on_enqueue x

let push t x =
  with_lock t (fun () ->
      while (not t.closed) && Queue.length t.buf >= t.capacity do
        Condition.wait t.nonfull t.m
      done;
      if t.closed then raise Closed;
      Queue.push x t.buf;
      note_enqueue t x;
      Condition.signal t.nonempty)

let try_push t x =
  with_lock t (fun () ->
      if t.closed then raise Closed;
      if Queue.length t.buf >= t.capacity then false
      else begin
        Queue.push x t.buf;
        note_enqueue t x;
        Condition.signal t.nonempty;
        true
      end)

(* call with the lock held: take the oldest item, if any *)
let take t =
  match Queue.take_opt t.buf with
  | Some x ->
    (* popped on a consumer domain whose ambient ctx is stale or
       absent: attribute the dequeue to the item itself *)
    Recorder.record ~ctx:(t.ctx_of x) ~a:(Queue.length t.buf) t.crec
      Recorder.Dequeue;
    Condition.signal t.nonfull;
    Some x
  | None -> None

let pop t =
  with_lock t (fun () ->
      while Queue.is_empty t.buf && not t.closed do
        Condition.wait t.nonempty t.m
      done;
      take t (* [None]: closed and drained *))

let try_pop t = with_lock t (fun () -> take t)

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Condition.broadcast t.nonempty;
        Condition.broadcast t.nonfull
      end)

let length t = with_lock t (fun () -> Queue.length t.buf)
let depth = length
let high_water t = with_lock t (fun () -> t.high_water)
let capacity t = t.capacity
let is_closed t = with_lock t (fun () -> t.closed)
