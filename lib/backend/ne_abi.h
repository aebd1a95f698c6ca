/* The ABI between emitted native code and the trap runtime (DESIGN.md
 * section 16).  This file is its only definition: native_stubs.c
 * includes it, and Emit_c copies it verbatim into every emitted
 * module's prog.h (a dune rule embeds it as the string Ne_abi_h.text).
 * A module's ne_bind refuses a runtime whose NE_ABI_VERSION differs.
 */

#ifndef NE_ABI_H
#define NE_ABI_H

#include <setjmp.h>
#include <stdint.h>

#define NE_ABI_VERSION 2

/* A recovery frame: pushed by the prologue of every emitted function
   that can trap, jumped to by the signal handler. */
typedef struct ne_frame {
  sigjmp_buf env;
  volatile int32_t trap_idx; /* written by the signal handler */
  struct ne_frame *volatile prev;
} ne_frame;

/* The run cells, reset before each run. */
typedef struct ne_state {
  int64_t fuel;     /* block-granular fuel; <= 0 means out of fuel */
  int64_t depth;    /* call depth, limit 2000 like the interpreter */
  int64_t pending;  /* pending exception code, 0 = none */
  int64_t ret_kind; /* 0 void, 1 int, 2 float, 3 ref (main only) */
  volatile int in_recovery;
  ne_frame *top;    /* top of the recovery-frame stack */
} ne_state;

/* One fault-PC -> site table entry (a module's ne_site_table). */
typedef struct ne_site_ent {
  const char *lo, *hi; /* text addresses bracketing the trapping access */
  int32_t idx;         /* program-dense trap index (switch dispatch key) */
  int32_t site;        /* Ir.site provenance id, -1 for vtable loads */
} ne_site_ent;

/* What ne_bind receives. */
typedef struct ne_rt {
  int64_t abi;    /* NE_ABI_VERSION */
  int64_t null_v; /* the null value: base of the guard region */
  ne_state *st;
  void *(*alloc)(int64_t nbytes); /* zeroed; NULL on heap-cap overflow */
  void (*ev)(int64_t tag, int64_t payload); /* observable-event sink */
} ne_rt;

#endif /* NE_ABI_H */
