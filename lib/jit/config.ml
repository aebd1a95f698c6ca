(** JIT configurations — one per line of the paper's evaluation tables.

    Windows/IA32 configurations (Tables 1-2, Figures 8-11):
    - {!no_null_opt_no_trap}: every required null check is an explicit
      instruction; the baseline.
    - {!no_null_opt_trap}: no elimination, but checks adjacent to a
      trapping dereference become implicit (hardware trap).
    - {!old_null_check}: Whaley's forward-analysis elimination [14] plus
      trap utilization — the previously known best algorithm.
    - {!new_phase1_only}: the paper's architecture-independent phase
      iterated with bound-check optimization and scalar replacement, plus
      the same local trap utilization.
    - {!new_full}: phase 1 iterated with the other optimizations, then
      the architecture-dependent phase 2.
    - {!hotspot_model}: stand-in for the HotSpot Server VM 2.0 beta
      comparison — forward-analysis null elimination with traps and a
      deliberately heavyweight pass pipeline (see DESIGN.md for the
      substitution rationale).

    AIX/PowerPC configurations (Tables 6-7, Figures 14-15) — following
    Section 5.4, the architecture-dependent phase is skipped on AIX;
    every remaining check compiles to a 1-cycle conditional trap:
    - {!aix_speculation}: new phase 1 + read speculation in scalar
      replacement.
    - {!aix_no_speculation}: new phase 1, speculation off.
    - {!aix_no_null_opt}: all optimizations off.
    - {!aix_illegal_implicit}: applies the Intel phase 2 pretending reads
      trap — deliberately violating the Java semantics on AIX (purely
      for the experiment, as in the paper). *)

module Arch = Nullelim_arch.Arch

type null_opt =
  | No_null_opt
  | Old_whaley
  | New_phase1
  | New_full (** phase 1 iterated + phase 2 *)

type t = {
  name : string;
  null_opt : null_opt;
  use_trap : bool; (** local trap conversion for configs without phase 2 *)
  speculate : bool;
  phase2_arch_override : Arch.t option;
      (** Illegal Implicit: run phase 2 against this architecture model
          instead of the real one *)
  iterations : int; (** how often phase 1 + helpers iterate (Figure 2) *)
  inline : bool;
  heavy_factor : int;
      (** >1 repeats the cleanup pipeline to model a slower compiler
          (HotSpot stand-in) *)
  weak_arrays : bool;
      (** disable loop-invariant bound-check and load hoisting (HotSpot
          stand-in: the paper attributes its jBYTEmark deficit to array
          optimizations) *)
  promote_calls : int;
      (** tiered execution: invocations of a tier-0 function before the
          manager submits a tier-2 recompilation *)
  deopt_traps : int;
      (** tiered execution: hardware traps at one implicit site before
          it is deoptimized back to an explicit check *)
}

let base =
  {
    name = "";
    null_opt = New_full;
    use_trap = true;
    speculate = false;
    phase2_arch_override = None;
    iterations = 4;
    inline = true;
    heavy_factor = 1;
    weak_arrays = false;
    promote_calls = 10;
    deopt_traps = 1;
  }

let no_null_opt_no_trap =
  { base with name = "no-null-opt-no-trap"; null_opt = No_null_opt;
    use_trap = false }

let no_null_opt_trap =
  { base with name = "no-null-opt-trap"; null_opt = No_null_opt }

let old_null_check =
  { base with name = "old-null-check"; null_opt = Old_whaley }

let new_phase1_only =
  { base with name = "new-phase1-only"; null_opt = New_phase1 }

let new_full = { base with name = "new-phase1+2"; null_opt = New_full }

let hotspot_model =
  { base with name = "hotspot-model"; null_opt = Old_whaley;
    heavy_factor = 12; weak_arrays = true }

(* --- AIX variants (Section 5.4) ---------------------------------- *)

let aix_no_null_opt =
  { base with name = "aix-no-null-opt"; null_opt = No_null_opt;
    use_trap = false }

let aix_no_speculation =
  { base with name = "aix-no-speculation"; null_opt = New_phase1;
    use_trap = false }

let aix_speculation =
  { base with name = "aix-speculation"; null_opt = New_phase1;
    use_trap = false; speculate = true }

let aix_illegal_implicit =
  { base with name = "aix-illegal-implicit"; null_opt = New_full;
    use_trap = false;
    phase2_arch_override = Some Arch.ia32_windows }

let windows_suite =
  [ new_full; new_phase1_only; old_null_check; no_null_opt_trap;
    no_null_opt_no_trap; hotspot_model ]

let aix_suite =
  [ aix_speculation; aix_no_speculation; aix_no_null_opt;
    aix_illegal_implicit ]

(* Built by resetting the excluded fields rather than by listing the
   kept ones, so a field added to [t] joins the cache key by default. *)
let semantic c =
  ( { c with name = ""; promote_calls = 0; deopt_traps = 0;
             phase2_arch_override = None },
    Option.map (fun (a : Arch.t) -> a.Arch.name) c.phase2_arch_override )

let by_name n =
  List.find_opt
    (fun c -> c.name = n)
    (windows_suite @ aix_suite)
