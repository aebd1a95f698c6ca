/* Monotonic clock for Obs.Clock: one clock_gettime(CLOCK_MONOTONIC)
   read, which Linux serves from the vDSO without a syscall.  The
   native entry point returns an unboxed int64 and does not allocate. */

#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t ne_clock_now_ns(value unit)
{
  (void)unit;
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0;
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

CAMLprim value ne_clock_now_ns_byte(value unit)
{
  return caml_copy_int64(ne_clock_now_ns(unit));
}
