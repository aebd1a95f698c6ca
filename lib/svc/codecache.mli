(** Content-addressed compiled-code cache with an LRU byte budget.

    The cache maps a content digest (see {!Svc.job_key}: structural
    hash of IR program × JIT configuration × tier × deopt set × target
    architecture) to a compiled artifact, the way a production JIT's
    code cache keys installed code.  It is generic in the artifact
    type; the byte cost of an artifact is estimated by the [size]
    function supplied at {!create} time, and once the resident total
    exceeds the budget the least-recently-used entries are evicted.

    Thread-safe: one mutex guards the whole cache, so any number of
    domains may share it.  Hit, miss, eviction, rejection and
    invalidation counts are tracked and exposed through {!stats}. *)

type 'a t
(** A cache holding artifacts of type ['a]. *)

type stats = {
  hits : int;        (** successful {!find}s *)
  misses : int;      (** {!find}s that returned [None] *)
  evictions : int;   (** entries removed by the byte budget *)
  rejections : int;  (** {!add}s refused because the artifact exceeds
                         the whole budget (see {!add}) *)
  invalidations : int;
                     (** entries dropped through {!remove} *)
  entries : int;     (** entries currently resident *)
  bytes : int;       (** estimated resident bytes *)
  budget_bytes : int;(** the configured budget *)
}
(** A snapshot of the cache's counters and occupancy. *)

val create :
  ?budget_bytes:int ->
  ?recorder:Nullelim_obs.Recorder.t ->
  size:('a -> int) ->
  unit ->
  'a t
(** [create ~size ()] is an empty cache.  [size a] must return an
    estimate (in bytes) of keeping [a] resident; it is called once per
    {!add}.  [budget_bytes] defaults to 64 MiB and bounds the sum of
    the size estimates; [budget_bytes:0] makes the cache a pass-through
    that caches nothing (every {!add} is a rejection, every {!find} a
    miss).  Hits, misses and evictions are recorded into [recorder],
    default {!Nullelim_obs.Recorder.global}. *)

val find : 'a t -> string -> 'a option
(** [find t key] returns the cached artifact and marks it most recently
    used, counting a hit; [None] counts a miss. *)

val add : 'a t -> key:string -> 'a -> unit
(** [add t ~key a] installs [a] under [key] as the most recently used
    entry, replacing any previous entry with that key (replacement
    does not count as an eviction), then evicts least-recently-used
    entries until the cache is back within its budget.  An artifact
    whose size estimate exceeds the whole budget is rejected instead
    of cached-then-evicted: the cache is left without the key and the
    [rejections] counter is bumped — this keeps a single oversized
    artifact from flushing the cache and skewing the eviction stats. *)

val remove : 'a t -> string -> bool
(** [remove t key] invalidates the entry under [key], returning whether
    an entry was resident.  Used by the tiered manager to drop stale
    code versions (superseded tiers, pre-deopt variants) ahead of LRU
    pressure; counted under [invalidations], not [evictions]. *)

val stats : 'a t -> stats
(** A consistent snapshot, read under the cache's lock. *)

val clear : 'a t -> unit
(** Drop every entry (counted as evictions); counters are retained. *)
