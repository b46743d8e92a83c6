/* wait4(2) for the benchmark's process layer: the exit status together
   with the child's peak resident set, which OCaml's Unix library does not
   expose. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4 pid = (code, maxrss_kb); code is the exit status, or
   minus the signal number for a child killed by a signal. */
CAMLprim value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid), r;
  caml_enter_blocking_section();
  do
    r = wait4(pid, &status, 0, &ru);
  while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
