(** Per-site dynamic execution profile.

    A collector accumulates, during one interpreter run, the dynamic
    counts the paper's evaluation is built on (Figures 7-8): per-block
    execution counts, per-check-site hit counts — split into explicit
    executions, implicit "free" crossings and bound checks — and the
    runtime events a check site can produce (an explicit check catching
    a null, a hardware trap firing at an implicit site, a silent
    implicit miss, a speculative null read).

    The collector is deliberately untyped with respect to the IR: sites
    are integers ([Ir.site] values), functions are names and blocks are
    labels, so the module lives in the dependency-free telemetry layer
    and both the VM and the report generator can use it. *)

type t

type check_kind = Cexplicit | Cimplicit | Cbound

type site_row = {
  sr_site : int;     (** provenance id; -1 groups checks with no site *)
  sr_func : string;
  sr_kind : check_kind;
  sr_tier : int;     (** tier of the code version executing the check;
                         0 for untiered runs *)
  sr_hits : int;     (** dynamic executions of the check *)
  sr_npe : int;      (** nulls caught by this (explicit) check *)
  sr_traps : int;    (** hardware traps fired at this (implicit) site *)
  sr_misses : int;   (** silent implicit misses at this site *)
}

type block_row = {
  br_func : string;
  br_block : int;
  br_count : int;      (** times the block was executed *)
  br_spec_reads : int; (** speculative null reads raised in the block *)
}

val create : unit -> t

(** {1 Recording — called by the interpreter} *)

val hit_block : t -> func:string -> block:int -> unit

val hit_check :
  ?tier:int -> t -> func:string -> site:int -> kind:check_kind -> unit

val record_npe : ?tier:int -> t -> func:string -> site:int -> unit
val record_trap : ?tier:int -> t -> func:string -> site:int -> unit
val record_miss : ?tier:int -> t -> func:string -> site:int -> unit
(** Site events are accumulated per [(site, kind, tier)]; [tier]
    defaults to 0, so untiered callers see the pre-tier behavior.  The
    tiered manager passes the tier of the executing code version, which
    splits a site's counts across the versions that executed it. *)

val record_spec_read : t -> func:string -> block:int -> unit

val record_other_trap : t -> unit
(** A hardware trap not attributable to any check site (e.g. a virtual
    dispatch through null whose method-table load faults). *)

(** {1 Reading} *)

val sites : t -> site_row list
(** Sorted by (func, site, kind, tier). *)

val blocks : t -> block_row list
(** Sorted by (func, block). *)

val other_traps : t -> int

val total_hits : t -> check_kind -> int
(** Sum of [sr_hits] over all sites of one kind. *)

val kind_to_string : check_kind -> string
