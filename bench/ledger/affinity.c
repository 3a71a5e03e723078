/* CPU affinity of the calling thread, for the ledger's processes (see
   ledger.ml). Threads and processes started afterwards inherit it. On
   systems without sched_setaffinity, no CPU is reported and pinning
   does nothing. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#endif

/* The CPUs the calling thread may run on, in increasing order. */
value ledger_get_affinity(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
#ifdef __linux__
  cpu_set_t set;
  int n, i, j;
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(Atom(0));
  n = CPU_COUNT(&set);
  if (n == 0) CAMLreturn(Atom(0));
  cpus = caml_alloc(n, 0);
  for (i = 0, j = 0; i < CPU_SETSIZE && j < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(cpus, j++, Val_int(i));
  CAMLreturn(cpus);
#else
  CAMLreturn(Atom(0));
#endif
}

/* Let the calling thread run only on the given CPUs; false if refused. */
value ledger_set_affinity(value cpus)
{
#ifdef __linux__
  cpu_set_t set;
  mlsize_t i;
  CPU_ZERO(&set);
  for (i = 0; i < Wosize_val(cpus); i++) {
    long c = Long_val(Field(cpus, i));
    if (c < 0 || c >= CPU_SETSIZE) return Val_false;
    CPU_SET(c, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)cpus;
  return Val_false;
#endif
}
