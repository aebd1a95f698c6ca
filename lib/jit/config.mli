(** JIT configurations — one per line of the paper's evaluation tables.
    See the implementation header for the mapping to Tables 1-7. *)

module Arch = Nullelim_arch.Arch

(** Which null-check elimination algorithm runs. *)
type null_opt =
  | No_null_opt   (** keep every raw check *)
  | Old_whaley    (** forward-availability elimination (the paper's "Old") *)
  | New_phase1    (** the paper's §4.1 backward PRE only *)
  | New_full      (** §4.1 + the architecture-dependent §4.2 *)

type t = {
  name : string;                        (** table row label, [by_name] key *)
  null_opt : null_opt;
  use_trap : bool;                      (** convert to implicit checks where the arch traps *)
  speculate : bool;                     (** AIX read speculation (§3.3.1) *)
  phase2_arch_override : Arch.t option; (** run phase 2 against a different trap model ("Illegal Implicit") *)
  iterations : int;                     (** rounds of the phase-1/bounds/scalar pipeline (Fig 2) *)
  inline : bool;                        (** CHA devirtualization + inlining *)
  heavy_factor : int;                   (** extra pipeline weight (HotSpot-model compile-time handicap) *)
  weak_arrays : bool;                   (** disable loop-invariant array optimizations *)
  promote_calls : int;                  (** tiered: calls before tier-2 promotion *)
  deopt_traps : int;                    (** tiered: traps at a site before deopt *)
}

val base : t
(** The common defaults the named configurations override. *)

(** {1 Windows/IA32 configurations (Tables 1-2)} *)

val no_null_opt_no_trap : t
val no_null_opt_trap : t
val old_null_check : t
val new_phase1_only : t
val new_full : t
val hotspot_model : t

(** {1 AIX/PowerPC configurations (Tables 6-7, §5.4)} *)

val aix_no_null_opt : t
val aix_no_speculation : t
val aix_speculation : t
val aix_illegal_implicit : t

val windows_suite : t list
(** The five Windows configurations plus the HotSpot model, in table
    order. *)

val aix_suite : t list
(** The four AIX configurations, in table order. *)

(** {1 Tiered execution}

    A configuration is the tier-2 target of a tiered run, and
    [promote_calls]/[deopt_traps] are its policy.  Tier 0 has no
    configuration of its own: [Compiler.compile ~tier:0] runs only
    [other:normalize], whatever the fields say. *)

val semantic : t -> t * string option
(** The part of a configuration that can change compiled code — what
    the code-cache key ([Svc.job_key]) reads.  It is the
    configuration with the policy fields reset ([name], and the tiering
    knobs [promote_calls] and [deopt_traps], which steer the tiered
    manager, not the compiler) and with [phase2_arch_override] replaced
    by the override architecture's name: an {!Arch.t} holds closures,
    which the key's structural digest refuses.  Every remaining field
    can change the compiled program; a field added to [t] is semantic
    unless it is reset here. *)

val by_name : string -> t option
(** Look a configuration up by its [name] (the CLI's [-c] values). *)
