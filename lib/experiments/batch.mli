(** The registry compiled as one parallel batch, the body of
    [nullelim batch]: every workload under every configuration of the
    architecture's suite, [repeat] times, through one
    {!Nullelim_svc.Svc.compile_all} call on a pool of domains,
    optionally through the code cache.  It is the compile service's one
    throughput measurement. *)

module Svc = Nullelim_svc.Svc
module Codecache = Nullelim_svc.Codecache

type t = {
  b_arch : Nullelim_arch.Arch.t;
  b_scale : int;
  b_workloads : int;
  b_configs : int;
  b_repeat : int;
  b_domains : int;
  b_wall : float;                  (** seconds for the whole batch *)
  b_outcomes : Svc.outcome list;   (** in submission order *)
  b_cache : Codecache.stats option;  (** after the batch; [None] when
                                         run without the cache *)
  b_unreconciled : string list;
      (** the errors of the outcomes whose decision log does not
          reconcile with their check statistics *)
}

val run :
  ?jobs:int ->
  ?repeat:int ->
  ?cache:bool ->
  ?scale:int ->
  arch:Nullelim_arch.Arch.t ->
  unit ->
  t
(** [jobs] worker domains (default 0: {!Svc.default_domains}), the job
    matrix submitted [repeat] times (default 1), with the cache (default
    true), workloads at [scale] (default 1).  The IA32/Windows suite is
    used unless [arch] is PowerPC/AIX. *)

val single_flight : Codecache.stats -> keys:int -> (unit, string) result
(** With nothing evicted, every distinct key must have missed exactly
    once ([misses = keys]): a second miss means the batch compiled a
    repeated key twice. *)

val check : t -> (unit, string) result
(** Every decision log reconciles, and with the cache on
    {!single_flight} holds for the batch's distinct keys. *)

val pp : t Fmt.t
(** Jobs, domains, wall time and jobs/s, summed compile time, cache
    counters, and the reconciliation line when every log reconciles. *)
