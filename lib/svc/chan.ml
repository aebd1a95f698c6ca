(** Bounded blocking FIFO channel (mutex + two condition variables).

    The classic bounded-buffer monitor: [nonfull] wakes producers,
    [nonempty] wakes consumers.  [close] broadcasts on both so every
    blocked domain re-examines the state: blocked pushers raise
    {!Closed}, blocked poppers drain what is left and then return
    [None].  Condition waits are re-checked in a loop, so spurious
    wakeups are harmless. *)

type 'a t = {
  buf : 'a Queue.t;
  capacity : int;
  m : Mutex.t;
  nonempty : Condition.t;
  nonfull : Condition.t;
  mutable closed : bool;
  on_enqueue : 'a -> int -> unit;
}

exception Closed

let create ?(on_enqueue = fun _ _ -> ()) ~capacity () =
  {
    buf = Queue.create ();
    capacity = max 1 capacity;
    m = Mutex.create ();
    nonempty = Condition.create ();
    nonfull = Condition.create ();
    closed = false;
    on_enqueue;
  }

(* call with the lock held: still inside the critical section, so no
   consumer has seen the item yet and the depth is exact *)
let enqueue t x =
  Queue.push x t.buf;
  t.on_enqueue x (Queue.length t.buf);
  Condition.signal t.nonempty

let push t x =
  Mutex.protect t.m (fun () ->
      while (not t.closed) && Queue.length t.buf >= t.capacity do
        Condition.wait t.nonfull t.m
      done;
      if t.closed then raise Closed;
      enqueue t x)

let try_push t x =
  Mutex.protect t.m (fun () ->
      if t.closed then raise Closed;
      if Queue.length t.buf >= t.capacity then false
      else begin
        enqueue t x;
        true
      end)

(* call with the lock held: take the oldest item, if any *)
let take t =
  let x = Queue.take_opt t.buf in
  if Option.is_some x then Condition.signal t.nonfull;
  x

let pop t =
  Mutex.protect t.m (fun () ->
      while Queue.is_empty t.buf && not t.closed do
        Condition.wait t.nonempty t.m
      done;
      take t (* [None]: closed and drained *))

let try_pop t = Mutex.protect t.m (fun () -> take t)

let close t =
  Mutex.protect t.m (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Condition.broadcast t.nonempty;
        Condition.broadcast t.nonfull
      end)

let length t = Mutex.protect t.m (fun () -> Queue.length t.buf)
let capacity t = t.capacity
