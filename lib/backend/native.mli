(** Native execution of emitted C: compile with the system C compiler,
    [dlopen] the shared object, and run it under the SIGSEGV-recovery
    runtime in [native_stubs.c].

    This is the backend the paper assumes: implicit null checks execute
    zero instructions, and a null dereference raises a {e real}
    hardware page-protection trap that the installed signal handler
    maps back to the faulting check's {!Ir.site} and recovers into the
    same NPE dispatch the interpreter implements.

    {2 Platform and fallback contract}

    The trap machinery needs linux/x86-64, a working [mmap(PROT_NONE)]
    + [sigaction], and a usable C compiler ([cc], overridable with the
    [NULLELIM_CC] environment variable).  {!available} probes all three
    once per process; when it is [false] every entry point degrades
    gracefully ({!compile} returns [Error]) and callers fall back to
    the interpreter — tier-1 CI stays green on any platform.

    {2 ABI}

    Emitted modules and the runtime share one definition of the
    recovery frame, the run state, the fault-PC table entry and the
    binding record, [lib/backend/ne_abi.h] (version 2): the stubs
    include it and {!Emit_c} embeds it.  A module whose [ne_bind] sees
    another [NE_ABI_VERSION] fails to load.

    {2 Concurrency}

    The guard region, signal handlers, run state (one [ne_state]) and
    module registry are process-global, so [load]/[run]/[unload] are
    serialized under one internal mutex.  Run results are mapped into
    {!Interp.result} so the differential oracle and the CLI treat both
    backends uniformly. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Interp = Nullelim_vm.Interp

(** {1 Availability} *)

val available : unit -> bool
(** Platform support, guard-region installation, and a cached one-shot
    trial compile with the configured C compiler. *)

val cc : unit -> string
(** The C compiler command: [$NULLELIM_CC] or ["cc"]. *)

(** {1 Compile and run} *)

type compiled
(** A loaded shared object: emitted sources on disk, the [dlopen]
    handle, and the resolved entry point. *)

val compile :
  ?fuel_checks:bool ->
  arch:Arch.t ->
  Ir.program ->
  (compiled, string) result
(** Emit ({!Emit_c.emit} with the architecture's trap area), write the
    translation units to a fresh temporary directory, compile them with
    [cc -O2 -fPIC -shared -fwrapv -fno-strict-aliasing], [dlopen] the
    result and register its fault-PC → site table.  [Error] covers:
    unavailable backend, an architecture whose trap model the real
    guard page cannot reproduce (it faults on {e every} access kind, so
    only read+write-trapping models qualify — [ia32_windows], [sparc]),
    a program outside the native subset, and toolchain failures (the
    compiler's stderr is included). *)

val stats : compiled -> Emit_c.stats
(** Emission statistics of the loaded module. *)

val close : compiled -> unit
(** [dlclose] the module, unregister its trap table and delete its
    temporary directory.  Running a closed module raises
    [Invalid_argument]. *)

(** One native execution. *)
type run = {
  r_result : Interp.result;
      (** outcome/trace in interpreter terms; counters are zero except
          [npe_trap] (real traps recovered) — the native path does not
          simulate cost accounting, it {e is} the cost *)
  r_traps : int;  (** hardware traps recovered during this run *)
  r_trap_sites : int array;
      (** the {!Ir.site} of each recovered trap, in firing order
          (first 64) *)
  r_wall_ns : int64;  (** monotonic wall time of the native call *)
}

val run : ?fuel:int -> compiled -> run
(** Execute the module's main.  [fuel] (default 400,000,000) matches
    {!Interp.run}'s accounting when the module was emitted with fuel
    checks.  The heap is reset before the run; events recorded by the
    kernel (prints, caught exceptions) are decoded into the
    interpreter's trace format. *)

val run_program :
  ?fuel_checks:bool ->
  ?fuel:int ->
  arch:Arch.t ->
  Ir.program ->
  (run, string) result
(** [compile] + [run] + [close], for one-shot callers (the CLI, the
    differential oracle). *)

(** {1 Trap-machinery probes (tests, benchmarks)} *)

val probe_guard : unit -> bool
(** Deliberately read the guard region and recover via a private
    setjmp: [true] iff the PROT_NONE mapping really trapped. *)

val fork_unknown_pc : unit -> int
(** In a forked child, fault at a PC in no registered module: the
    handler must chain to the previously installed action (default:
    death by signal).  Returns the child's terminating signal number
    (expected: 11, SIGSEGV) or minus its exit status. *)

val fork_nested_trap : unit -> int
(** In a forked child, fault while the runtime is already mid-recovery:
    the handler must abort deliberately rather than loop.  Returns the
    child's terminating signal number (expected: 6, SIGABRT). *)

val now_ns : unit -> int64
(** Alias of {!Nullelim_obs.Clock.now_ns}. *)
