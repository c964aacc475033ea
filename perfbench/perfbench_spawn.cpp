//===- perfbench/perfbench_spawn.cpp - one cold, measured invocation ------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
//   perfbench_spawn PROGRAM [ARGS...]
//
// runs PROGRAM as a child with this process's stdin and stdout and with
// its stderr on /dev/null, waits for it, then writes "<wall seconds>
// <peak RSS in KiB>" of the child to stderr and exits with the child's
// exit status (128 + signal number if it was killed).
//
// perfbench/run.py starts every measured invocation through this
// launcher rather than itself: Linux carries a process's peak-RSS mark
// across fork and exec, so a direct child of the Python driver reports
// at least the driver's own peak RSS (about 20 MB, varying with what the
// driver holds), which hid lima_monitor's.  From here the floor is this
// program's own footprint of about 1 MB.
//
//===----------------------------------------------------------------------===//

#include <cerrno>
#include <cstdio>
#include <ctime>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench_spawn PROGRAM [ARGS...]\n");
    return 2;
  }
  timespec Start, End;
  clock_gettime(CLOCK_MONOTONIC, &Start);
  pid_t Pid = fork();
  if (Pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (Pid == 0) {
    int Null = open("/dev/null", O_WRONLY);
    if (Null < 0 || dup2(Null, STDERR_FILENO) < 0)
      _exit(126);
    execv(Argv[1], Argv + 1);
    _exit(127);
  }
  int Status = 0;
  rusage Usage{};
  while (wait4(Pid, &Status, 0, &Usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_spawn: wait4");
      return 2;
    }
  }
  clock_gettime(CLOCK_MONOTONIC, &End);
  double Wall = static_cast<double>(End.tv_sec - Start.tv_sec) +
                static_cast<double>(End.tv_nsec - Start.tv_nsec) / 1e9;
  std::fprintf(stderr, "%.9f %ld\n", Wall, Usage.ru_maxrss);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
}
