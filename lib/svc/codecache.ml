(** Content-addressed LRU artifact cache (see the interface for the
    contract).

    One hash table behind one mutex, with the whole byte budget.  Every
    lookup runs at admission on the submitting thread; worker domains
    only [add], once per miss after a compile of about a millisecond,
    and the tiered manager [remove]s on its serving thread, so the lock
    is rarely contended (EXPERIMENTS.md, "Code cache traffic").

    Recency is tracked with a monotonic stamp per entry; eviction scans
    every entry for the minimum stamp.  The scan is O(entries), and the
    cache does get large: perfbench [miss] compiles a fresh program per
    request, and the 64 MiB budget fills at about 21,200 entries.  The
    scan is kept because the benchmark's window barely reaches that:
    three 20 s [miss] runs (seed 1, 2-core x86-64) ended with 15,165–
    18,579 entries and no eviction in 15,749–19,301 lookups, and a run
    fast enough to fill the budget evicts on fewer than 1% of its
    requests.  Past the budget the trade-off turns: a 30 s run evicted
    on 1,864 of 23,919 lookups (7.8%), at about 1.4 ms per scan, as
    much as the compile it follows; a doubly-linked LRU list would make
    that O(1). *)

module Recorder = Nullelim_obs.Recorder

type 'a entry = { value : 'a; ebytes : int; mutable stamp : int }

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  m : Mutex.t;
  size : 'a -> int;
  budget : int;
  crec : Recorder.t;
  mutable bytes : int;
  mutable tick : int;
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
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    rejections = 0;
    invalidations = 0;
  }

let next_tick (t : _ t) =
  t.tick <- t.tick + 1;
  t.tick

let find (t : _ t) key =
  Mutex.protect t.m (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
        e.stamp <- next_tick t;
        t.hits <- t.hits + 1;
        Recorder.record t.crec Recorder.Cache_hit;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        Recorder.record t.crec Recorder.Cache_miss;
        None)

(* the least recently used entry, excluding [keep] *)
let lru_key (t : _ t) ~keep =
  Hashtbl.fold
    (fun k (e : _ entry) acc ->
      if k = keep then acc
      else
        match acc with
        | Some (_, stamp) when stamp <= e.stamp -> acc
        | _ -> Some (k, e.stamp))
    t.tbl None

let remove_entry (t : _ t) key =
  match Hashtbl.find_opt t.tbl key with
  | None -> false
  | Some e ->
    Hashtbl.remove t.tbl key;
    t.bytes <- t.bytes - e.ebytes;
    true

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
        Hashtbl.replace t.tbl key { value = v; ebytes; stamp = next_tick t };
        t.bytes <- t.bytes + ebytes;
        let rec evict () =
          if t.bytes > t.budget then
            match lru_key t ~keep:key with
            | Some (k, _) ->
              ignore (remove_entry t k);
              t.evictions <- t.evictions + 1;
              Recorder.record t.crec Recorder.Cache_evict;
              evict ()
            | None -> ()
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
      t.bytes <- 0)
