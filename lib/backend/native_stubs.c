/* Native-execution runtime for the C backend (DESIGN.md section 16).
 *
 * This file is the OS half of the paper's implicit null check: it owns
 * the mmap(PROT_NONE) guard region that plays the role of the
 * page-protected area at address zero, installs the SIGSEGV/SIGBUS
 * handler that turns a guard-page fault back into a
 * NullPointerException, and carries the dlopen/dlsym plumbing that
 * loads the shared objects produced by Emit_c + cc.
 *
 * Signal-handler contract (the async-signal-safe subset):
 *   - the handler reads only process-global state (guard bounds, the
 *     fault-PC -> site tables, the recovery-frame stack head);
 *   - it never calls into the OCaml runtime, never allocates, never
 *     takes a lock;
 *   - recovery is one siglongjmp into the innermost native frame,
 *     whose emitted prologue re-dispatches the NPE exactly like the
 *     interpreter's handler search.  The handler is installed with
 *     SA_NODEFER, so the signal is never blocked while it runs and
 *     nothing has to be unblocked before the jump; the frames are
 *     saved with sigsetjmp(env, 0), so the jump restores no mask
 *     either: a trap costs one kernel entry, the fault's own;
 *   - faults whose PC is not in any registered trap bracket, or whose
 *     address is outside the guard region, are chained to the
 *     previously installed handler (the OCaml runtime's own SIGSEGV
 *     handler keeps working), so an unknown fault re-raises the
 *     default behavior instead of being swallowed;
 *   - a second guard fault while a recovery is already in flight
 *     means the trap machinery itself is broken: abort() immediately.
 *
 * Everything below the platform gate compiles to stubs that report
 * "unavailable" on platforms other than Linux/x86-64; the OCaml side
 * then falls back to the interpreter (the interp-fallback contract).
 */

#define _GNU_SOURCE

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#if defined(__linux__) && defined(__x86_64__)
#define NE_PLATFORM_OK 1
#else
#define NE_PLATFORM_OK 0
#endif

/* The ABI shared with emitted code; ne_bind checks NE_ABI_VERSION. */
#include "ne_abi.h"

#if NE_PLATFORM_OK

#include <dlfcn.h>
#include <errno.h>
#include <signal.h>
#include <stdio.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <ucontext.h>
#include <unistd.h>

/* ------------------------------------------------------------------ */
/* Guard region                                                       */
/* ------------------------------------------------------------------ */

static unsigned char *ne_guard_base = NULL;
static size_t ne_guard_len = 0;

/* ------------------------------------------------------------------ */
/* Run cells shared with emitted code                                 */
/* ------------------------------------------------------------------ */

static ne_state ne_st;

/* Trap accounting for tests and the bench (not part of semantics). */
static int64_t ne_trap_count = 0;
#define NE_TRAP_RING 64
static int32_t ne_trap_ring[NE_TRAP_RING];

/* ------------------------------------------------------------------ */
/* Heap: zeroed allocations, freed wholesale between runs             */
/* ------------------------------------------------------------------ */

#define NE_HEAP_CAP ((int64_t)512 * 1024 * 1024)

static void **ne_heap_ptrs = NULL;
static size_t ne_heap_len = 0, ne_heap_cap = 0;
static int64_t ne_heap_bytes = 0;

static void *ne_alloc(int64_t nbytes)
{
  if (nbytes < 0 || ne_heap_bytes + nbytes > NE_HEAP_CAP) return NULL;
  if (ne_heap_len == ne_heap_cap) {
    size_t cap = ne_heap_cap ? ne_heap_cap * 2 : 1024;
    void **p = realloc(ne_heap_ptrs, cap * sizeof *p);
    if (!p) return NULL;
    ne_heap_ptrs = p;
    ne_heap_cap = cap;
  }
  void *p = calloc(1, (size_t)nbytes);
  if (!p) return NULL;
  ne_heap_ptrs[ne_heap_len++] = p;
  ne_heap_bytes += nbytes;
  return p;
}

static void ne_heap_reset(void)
{
  for (size_t i = 0; i < ne_heap_len; i++) free(ne_heap_ptrs[i]);
  ne_heap_len = 0;
  ne_heap_bytes = 0;
}

/* ------------------------------------------------------------------ */
/* Observable-event buffer (prints + caught exceptions)               */
/* ------------------------------------------------------------------ */

typedef struct {
  int64_t tag; /* 0 int, 1 float bits, 2 null, 3 obj cls, 4 arr len,
                  5 caught exn code */
  int64_t a;
} ne_ev_rec;

static ne_ev_rec *ne_ev_buf = NULL;
static size_t ne_ev_len = 0, ne_ev_cap = 0;

static void ne_ev(int64_t tag, int64_t a)
{
  if (ne_ev_len == ne_ev_cap) {
    size_t cap = ne_ev_cap ? ne_ev_cap * 2 : 4096;
    ne_ev_rec *p = realloc(ne_ev_buf, cap * sizeof *p);
    if (!p) { ne_st.pending = -1; return; } /* degrade to a sim error */
    ne_ev_buf = p;
    ne_ev_cap = cap;
  }
  ne_ev_buf[ne_ev_len].tag = tag;
  ne_ev_buf[ne_ev_len].a = a;
  ne_ev_len++;
}

/* ------------------------------------------------------------------ */
/* Fault-PC -> site tables (one per loaded module)                    */
/* ------------------------------------------------------------------ */

#define NE_MAX_MODULES 256

typedef struct {
  const ne_site_ent *tab;
  int32_t n;
  void *dl;
} ne_module;

static ne_module ne_modules[NE_MAX_MODULES];
static volatile int ne_nmodules = 0;

static const ne_site_ent *ne_lookup_pc(const char *pc)
{
  int nm = ne_nmodules;
  for (int m = 0; m < nm; m++) {
    const ne_site_ent *tab = ne_modules[m].tab;
    int32_t n = ne_modules[m].n;
    for (int32_t i = 0; i < n; i++)
      if (pc >= tab[i].lo && pc < tab[i].hi) return &tab[i];
  }
  return NULL;
}

/* ------------------------------------------------------------------ */
/* The signal handler                                                 */
/* ------------------------------------------------------------------ */

static struct sigaction ne_old_segv, ne_old_bus;
static int ne_installed = 0;

/* Guard-page probe support (ne_stub_probe). */
static sigjmp_buf ne_probe_env;
static volatile sig_atomic_t ne_probe_armed = 0;

static void ne_chain(int sig, siginfo_t *si, void *uctx)
{
  struct sigaction *old = (sig == SIGBUS) ? &ne_old_bus : &ne_old_segv;
  if (old->sa_flags & SA_SIGINFO) {
    old->sa_sigaction(sig, si, uctx);
    return;
  }
  if (old->sa_handler != SIG_IGN && old->sa_handler != SIG_DFL) {
    old->sa_handler(sig);
    return;
  }
  /* Default disposition: reinstall and return; the faulting
     instruction re-executes and the process dies with the default
     action, exactly as if we had never been here. */
  sigaction(sig, old, NULL);
}

static void ne_handler(int sig, siginfo_t *si, void *uctx)
{
  uintptr_t addr = (uintptr_t)si->si_addr;
  uintptr_t base = (uintptr_t)ne_guard_base;
  if (ne_guard_base && addr >= base && addr < base + ne_guard_len) {
    if (ne_probe_armed) {
      ne_probe_armed = 0;
      siglongjmp(ne_probe_env, 1); /* savemask=1 restores the mask */
    }
    if (ne_st.in_recovery) {
      /* A trap fired while recovering from a trap: the recovery
         machinery itself faulted.  Nothing is trustworthy; die. */
      static const char msg[] =
          "nullelim native: nested trap during recovery, aborting\n";
      ssize_t r = write(2, msg, sizeof msg - 1);
      (void)r;
      abort();
    }
    ucontext_t *uc = (ucontext_t *)uctx;
    const char *pc = (const char *)uc->uc_mcontext.gregs[REG_RIP];
    const ne_site_ent *ent = ne_lookup_pc(pc);
    if (ent && ne_st.top) {
      ne_st.in_recovery = 1;
      ne_st.top->trap_idx = ent->idx;
      ne_trap_ring[ne_trap_count % NE_TRAP_RING] = ent->site;
      ne_trap_count++;
      /* SA_NODEFER left the signal unblocked, so the next trap is
         delivered normally after this abnormal exit. */
      siglongjmp(ne_st.top->env, 1);
    }
    /* Guard address but unknown PC (or no native frame): not one of
       ours; fall through to the previous handler / default action. */
  }
  ne_chain(sig, si, uctx);
}

static int ne_install(void)
{
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = ne_handler;
  /* SA_NODEFER: see the recovery note in the header.  A guard fault
     inside the handler re-enters it and aborts on in_recovery. */
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGSEGV, &sa, &ne_old_segv) != 0) return 0;
  if (sigaction(SIGBUS, &sa, &ne_old_bus) != 0) return 0;
  return 1;
}

/* ------------------------------------------------------------------ */
/* OCaml entry points                                                 */
/* ------------------------------------------------------------------ */

CAMLprim value ne_stub_init(value vtrap_area)
{
  long trap_area = Long_val(vtrap_area);
  if (ne_guard_base == NULL) {
    long page = sysconf(_SC_PAGESIZE);
    if (page <= 0) page = 4096;
    /* Null maps to the guard base; emitted offsets are IR offsets
       shifted by 8 (the header slot), so the protected span must
       cover [0, 8 + trap_area). */
    size_t len = (size_t)(((8 + trap_area) + page - 1) / page) * page;
    void *p = mmap(NULL, len, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return caml_copy_int64(0);
    ne_guard_base = p;
    ne_guard_len = len;
  }
  if (!ne_installed) {
    if (!ne_install()) return caml_copy_int64(0);
    ne_installed = 1;
  }
  return caml_copy_int64((int64_t)(uintptr_t)ne_guard_base);
}

CAMLprim value ne_stub_guard_len(value unit)
{
  (void)unit;
  return Val_long((long)ne_guard_len);
}

static ne_rt ne_the_rt;

CAMLprim value ne_stub_load(value vpath)
{
  CAMLparam1(vpath);
  void *dl = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (!dl) caml_failwith(dlerror());
  int (*bind)(const ne_rt *) = (int (*)(const ne_rt *))dlsym(dl, "ne_bind");
  const ne_site_ent *tab = (const ne_site_ent *)dlsym(dl, "ne_site_table");
  const int32_t *count = (const int32_t *)dlsym(dl, "ne_site_count");
  if (!bind || !count) {
    dlclose(dl);
    caml_failwith("nullelim native: module lacks ne_bind/ne_site_count");
  }
  ne_the_rt.abi = NE_ABI_VERSION;
  ne_the_rt.null_v = (int64_t)(uintptr_t)ne_guard_base;
  ne_the_rt.st = &ne_st;
  ne_the_rt.alloc = ne_alloc;
  ne_the_rt.ev = ne_ev;
  if (bind(&ne_the_rt) != NE_ABI_VERSION) {
    dlclose(dl);
    caml_failwith("nullelim native: ABI version mismatch");
  }
  int m = ne_nmodules;
  if (m >= NE_MAX_MODULES) {
    dlclose(dl);
    caml_failwith("nullelim native: too many loaded modules");
  }
  ne_modules[m].tab = tab;
  ne_modules[m].n = *count;
  ne_modules[m].dl = dl;
  ne_nmodules = m + 1;
  CAMLreturn(caml_copy_int64((int64_t)(uintptr_t)dl));
}

CAMLprim value ne_stub_unload(value vdl)
{
  void *dl = (void *)(uintptr_t)Int64_val(vdl);
  int nm = ne_nmodules;
  for (int m = 0; m < nm; m++)
    if (ne_modules[m].dl == dl) {
      ne_modules[m] = ne_modules[nm - 1];
      ne_nmodules = nm - 1;
      break;
    }
  dlclose(dl);
  return Val_unit;
}

CAMLprim value ne_stub_sym(value vdl, value vname)
{
  void *dl = (void *)(uintptr_t)Int64_val(vdl);
  void *p = dlsym(dl, String_val(vname));
  if (!p) caml_failwith("nullelim native: missing symbol");
  return caml_copy_int64((int64_t)(uintptr_t)p);
}

CAMLprim value ne_stub_exec(value vfn, value vfuel)
{
  CAMLparam2(vfn, vfuel);
  CAMLlocal1(res);
  int64_t (*fn)(void) = (int64_t (*)(void))(uintptr_t)Int64_val(vfn);
  ne_st.pending = 0;
  ne_st.depth = 0;
  ne_st.fuel = Int64_val(vfuel);
  ne_st.ret_kind = 0;
  ne_st.top = NULL;
  ne_st.in_recovery = 0;
  ne_ev_len = 0;
  ne_trap_count = 0;
  int64_t ret;
  /* Long native runs must not stall the other domains' GC. */
  caml_enter_blocking_section();
  ret = fn();
  caml_leave_blocking_section();
  res = caml_alloc_tuple(3);
  Store_field(res, 0, Val_long((long)ne_st.pending));
  Store_field(res, 1, Val_long((long)ne_st.ret_kind));
  Store_field(res, 2, caml_copy_int64(ret));
  CAMLreturn(res);
}

CAMLprim value ne_stub_events(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(arr, tup);
  size_t n = ne_ev_len;
  if (n == 0) CAMLreturn(Atom(0));
  arr = caml_alloc(n, 0);
  for (size_t i = 0; i < n; i++) {
    tup = caml_alloc_tuple(2);
    Store_field(tup, 0, Val_long((long)ne_ev_buf[i].tag));
    Store_field(tup, 1, caml_copy_int64(ne_ev_buf[i].a));
    Store_field(arr, i, tup);
  }
  CAMLreturn(arr);
}

CAMLprim value ne_stub_trap_count(value unit)
{
  (void)unit;
  return Val_long((long)ne_trap_count);
}

CAMLprim value ne_stub_trap_sites(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(arr);
  long n = (long)(ne_trap_count < NE_TRAP_RING ? ne_trap_count : NE_TRAP_RING);
  if (n == 0) CAMLreturn(Atom(0));
  arr = caml_alloc(n, 0);
  for (long i = 0; i < n; i++)
    Store_field(arr, i, Val_long((long)ne_trap_ring[i]));
  CAMLreturn(arr);
}

CAMLprim value ne_stub_heap_reset(value unit)
{
  (void)unit;
  ne_heap_reset();
  return Val_unit;
}

/* Deliberately read the guard region and recover via the probe path:
   proves PROT_NONE faults and the handler fires, without involving
   any emitted code. */
CAMLprim value ne_stub_probe(value unit)
{
  (void)unit;
  if (!ne_guard_base || !ne_installed) return Val_false;
  if (sigsetjmp(ne_probe_env, 1)) return Val_true;
  ne_probe_armed = 1;
  {
    volatile int64_t x = *(volatile int64_t *)(ne_guard_base + 8);
    (void)x;
  }
  ne_probe_armed = 0;
  return Val_false; /* the read did not fault: the guard is broken */
}

/* Fork a child that faults on the guard from a PC that is in no
   registered trap bracket: the handler must chain to the previous
   disposition and the child must die of SIGSEGV.  Returns the
   terminating signal number (or -exit_status if it exited). */
CAMLprim value ne_stub_fork_unknown_pc(value unit)
{
  (void)unit;
  if (!ne_guard_base || !ne_installed) return Val_long(-1);
  pid_t pid = fork();
  if (pid < 0) return Val_long(-1);
  if (pid == 0) {
    volatile int64_t x = *(volatile int64_t *)ne_guard_base;
    (void)x;
    _exit(0); /* unreachable if the guard works */
  }
  int st = 0;
  if (waitpid(pid, &st, 0) < 0) return Val_long(-1);
  if (WIFSIGNALED(st)) return Val_long(WTERMSIG(st));
  return Val_long(-WEXITSTATUS(st));
}

/* Fork a child that faults on the guard while the in-recovery flag is
   already set: the handler must abort().  Returns the terminating
   signal number (expected SIGABRT). */
CAMLprim value ne_stub_fork_nested(value unit)
{
  (void)unit;
  if (!ne_guard_base || !ne_installed) return Val_long(-1);
  pid_t pid = fork();
  if (pid < 0) return Val_long(-1);
  if (pid == 0) {
    ne_st.in_recovery = 1;
    volatile int64_t x = *(volatile int64_t *)(ne_guard_base + 16);
    (void)x;
    _exit(0);
  }
  int st = 0;
  if (waitpid(pid, &st, 0) < 0) return Val_long(-1);
  if (WIFSIGNALED(st)) return Val_long(WTERMSIG(st));
  return Val_long(-WEXITSTATUS(st));
}

CAMLprim value ne_stub_platform_ok(value unit)
{
  (void)unit;
  return Val_true;
}

#else /* !NE_PLATFORM_OK: every entry point degrades to "unavailable" */

CAMLprim value ne_stub_init(value v) { (void)v; return caml_copy_int64(0); }
CAMLprim value ne_stub_guard_len(value v) { (void)v; return Val_long(0); }
CAMLprim value ne_stub_load(value v)
{
  (void)v;
  caml_failwith("nullelim native: unsupported platform");
}
CAMLprim value ne_stub_unload(value v) { (void)v; return Val_unit; }
CAMLprim value ne_stub_sym(value a, value b)
{
  (void)a;
  (void)b;
  caml_failwith("nullelim native: unsupported platform");
}
CAMLprim value ne_stub_exec(value a, value b)
{
  (void)a;
  (void)b;
  caml_failwith("nullelim native: unsupported platform");
}
CAMLprim value ne_stub_events(value v) { (void)v; return Atom(0); }
CAMLprim value ne_stub_trap_count(value v) { (void)v; return Val_long(0); }
CAMLprim value ne_stub_trap_sites(value v) { (void)v; return Atom(0); }
CAMLprim value ne_stub_heap_reset(value v) { (void)v; return Val_unit; }
CAMLprim value ne_stub_probe(value v) { (void)v; return Val_false; }
CAMLprim value ne_stub_fork_unknown_pc(value v) { (void)v; return Val_long(-1); }
CAMLprim value ne_stub_fork_nested(value v) { (void)v; return Val_long(-1); }
CAMLprim value ne_stub_platform_ok(value v) { (void)v; return Val_false; }

#endif /* NE_PLATFORM_OK */
