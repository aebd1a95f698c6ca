(** Content-addressed LRU artifact cache (see the interface for the
    contract).

    One hash table behind one mutex, with the whole byte budget.  Every
    lookup runs at admission on the submitting thread; worker domains
    only [add], once per miss after a compile of about a millisecond,
    and the tiered manager [remove]s on its serving thread, so the lock
    is rarely contended (EXPERIMENTS.md, "Code cache traffic").

    Recency is an intrusive doubly-linked list through the entries,
    most recently used first: a hit moves its entry to the front, an
    add puts the new entry there, and eviction pops the back, so every
    operation is O(1) under the lock however many entries there are.
    Eviction must not scan: perfbench [miss] compiles a fresh program
    per request, the 64 MiB budget fills at about 21,200 entries, and a
    scan for the oldest of them takes about 1.4 ms, as long as the
    compile it follows. *)

module Recorder = Nullelim_obs.Recorder

(* A resident entry and its neighbours in the recency list: [prev] is
   more recently used, [next] less. *)
type 'a node =
  | Nil
  | Node of {
      key : string;
      value : 'a;
      ebytes : int;
      mutable prev : 'a node;
      mutable next : 'a node;
    }

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  m : Mutex.t;
  size : 'a -> int;
  budget : int;
  crec : Recorder.t;
  mutable bytes : int;
  mutable newest : 'a node;
  mutable oldest : 'a node;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable rejections : int;
  mutable invalidations : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  rejections : int;
  invalidations : int;
  entries : int;
  bytes : int;
  budget_bytes : int;
}

let default_budget = 64 * 1024 * 1024

let create ?(budget_bytes = default_budget) ?(recorder = Recorder.global)
    ~size () =
  {
    tbl = Hashtbl.create 64;
    m = Mutex.create ();
    size;
    budget = max 0 budget_bytes;
    crec = recorder;
    bytes = 0;
    newest = Nil;
    oldest = Nil;
    hits = 0;
    misses = 0;
    evictions = 0;
    rejections = 0;
    invalidations = 0;
  }

let unlink (t : _ t) = function
  | Nil -> ()
  | Node e ->
    (match e.prev with Nil -> t.newest <- e.next | Node p -> p.next <- e.next);
    (match e.next with Nil -> t.oldest <- e.prev | Node n -> n.prev <- e.prev);
    e.prev <- Nil;
    e.next <- Nil

let push_newest (t : _ t) = function
  | Nil -> ()
  | Node e as node ->
    e.next <- t.newest;
    (match t.newest with Nil -> t.oldest <- node | Node n -> n.prev <- node);
    t.newest <- node

let find (t : _ t) key =
  Mutex.protect t.m (fun () ->
      match Hashtbl.find t.tbl key with
      | Node e as node ->
        unlink t node;
        push_newest t node;
        t.hits <- t.hits + 1;
        Recorder.record t.crec Recorder.Cache_hit;
        Some e.value
      | Nil | (exception Not_found) ->
        t.misses <- t.misses + 1;
        Recorder.record t.crec Recorder.Cache_miss;
        None)

let remove_entry (t : _ t) key =
  match Hashtbl.find_opt t.tbl key with
  | Some (Node e as node) ->
    Hashtbl.remove t.tbl key;
    unlink t node;
    t.bytes <- t.bytes - e.ebytes;
    true
  | Some Nil | None -> false

let add (t : _ t) ~key v =
  Mutex.protect t.m (fun () ->
      let ebytes = max 1 (t.size v) in
      ignore (remove_entry t key);
      if ebytes > t.budget then
        (* An artifact that can never fit is rejected outright instead
           of being cached and immediately evicted — caching it would
           flush the whole cache and skew the eviction counter.  A
           zero budget therefore rejects everything: pass-through. *)
        t.rejections <- t.rejections + 1
      else begin
        let node = Node { key; value = v; ebytes; prev = Nil; next = Nil } in
        Hashtbl.replace t.tbl key node;
        push_newest t node;
        t.bytes <- t.bytes + ebytes;
        (* the new entry is the newest and fits the budget on its own,
           so eviction stops before reaching it *)
        let rec evict () =
          match t.oldest with
          | Node e when t.bytes > t.budget && t.oldest != node ->
            ignore (remove_entry t e.key);
            t.evictions <- t.evictions + 1;
            Recorder.record t.crec Recorder.Cache_evict;
            evict ()
          | Node _ | Nil -> ()
        in
        evict ()
      end)

let remove (t : _ t) key =
  Mutex.protect t.m (fun () ->
      let removed = remove_entry t key in
      if removed then t.invalidations <- t.invalidations + 1;
      removed)

let stats (t : _ t) =
  Mutex.protect t.m (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        rejections = t.rejections;
        invalidations = t.invalidations;
        entries = Hashtbl.length t.tbl;
        bytes = t.bytes;
        budget_bytes = t.budget;
      })

let clear (t : _ t) =
  Mutex.protect t.m (fun () ->
      t.evictions <- t.evictions + Hashtbl.length t.tbl;
      Hashtbl.reset t.tbl;
      t.newest <- Nil;
      t.oldest <- Nil;
      t.bytes <- 0)
