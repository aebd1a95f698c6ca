(** C code emitter: lowers linearized IR to self-contained C
    translation units, one per function plus a module file and a shared
    header.

    The output realizes the paper's code shapes natively:

    - an {e explicit} null check compiles to a compare-and-branch
      against the null representation;
    - an {e implicit} null check compiles to {b nothing} — the guarded
      dereference is a bare load/store whose effective address lands in
      an [mmap(PROT_NONE)] guard region when the base is null, so the
      hardware page-protection trap does the checking
      ({!stats.ec_implicit_check_instrs} is always [0]);
    - every dereference that can fault is bracketed by a pair of global
      asm labels, and the module carries a fault-PC → {!Ir.site} table
      ([ne_site_table]) so the SIGSEGV handler in [native_stubs.c] can
      recover to the exception dispatch of the faulting check's site.

    {2 Value representation}

    Every IR value is an [int64_t].  Integers carry OCaml's 63-bit
    semantics (renormalized after arithmetic); floats are IEEE doubles
    bit-cast through [int64_t]; references are addresses, with null
    mapped to the guard-region base so dereferencing null at emitted
    offset [o + 8] faults exactly when the simulated architecture's
    trap area covers IR offset [o].  Objects store
    [(class_id << 3) | 1] in a header slot at offset 0 and fields at IR
    offset + 8; arrays store tag [2], their length at emitted offset
    16, and elements from emitted offset 24.  Virtual dispatch loads
    the header first — faulting on a null receiver exactly like the
    interpreter's "method-table load through null" model.

    {2 Runtime ABI}

    Every module's [prog.h] starts with [lib/backend/ne_abi.h],
    embedded verbatim (the dune-generated [Ne_abi_h.text]): the same
    file the runtime in [native_stubs.c] includes, so the two cannot
    drift.  A module binds one global, [NE_ST], to the runtime's
    [ne_state] (fuel, call depth, pending exception, return kind,
    in-recovery flag, recovery-frame stack), and reaches each cell
    through it.

    The emitted code must be compiled with
    [-O2 -fPIC -shared -fwrapv -fno-strict-aliasing] (see
    {!Native.compile}); [-fwrapv] makes intermediate 64-bit overflow
    defined so the 63-bit renormalization is exact. *)

module Ir = Nullelim_ir.Ir

(** Static emission statistics — the native analogue of
    {!Codegen.stats}, and the evidence for the zero-cost claim. *)
type stats = {
  ec_functions : int;
  ec_blocks : int;
  ec_instrs : int;  (** IR instructions lowered *)
  ec_explicit_branches : int;
      (** compare-and-branch sequences emitted for explicit checks *)
  ec_implicit_sites : int;  (** implicit check sites in the input *)
  ec_implicit_check_instrs : int;
      (** instructions emitted {e for} implicit checks — [0] by
          construction; asserted in the test suite *)
  ec_trap_entries : int;
      (** bracketed dereferences in the fault-PC → site table *)
  ec_c_bytes : int;  (** total bytes of generated C *)
}

(** A fully emitted module, ready to be written out and compiled. *)
type emitted = {
  em_files : (string * string) list;
      (** [(filename, contents)]: ["prog.h"], ["mod.c"], and one
          [.c] per function *)
  em_entry : string;  (** the C symbol to run: ["ne_run_main"] *)
  em_class_names : string array;
      (** class-id order; used to render printed object values *)
  em_user_exns : string array;
      (** user exception names in code order (code 16 + index) *)
  em_stats : stats;
}

exception Unsupported of string
(** Raised internally on programs outside the native subset (e.g. a
    main with parameters, an unknown callee); {!emit} catches it and
    returns [Error].  Exposed for callers pattern-matching on emission
    helpers. *)

val emit :
  ?trap_area:int ->
  ?fuel_checks:bool ->
  Ir.program ->
  (emitted, string) result
(** Emit C for the program.  [trap_area] (default 4096) is the
    architecture's protected byte span — dereferences at statically
    known IR offsets below it are bracketed for trap recovery, larger
    or variable offsets compile to plain accesses (they cannot fault on
    null by the same arch model the optimizer used).  [fuel_checks]
    (default [true]) emits the per-block fuel decrement matching the
    interpreter's accounting, so out-of-fuel behavior is comparable
    across backends; benchmarks disable it.

    Emission is pure: no files are written, no toolchain is invoked.
    [Error msg] means the program is outside the native subset. *)
