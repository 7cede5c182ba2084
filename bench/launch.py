"""Start one command, wait for it and report its wall time and rusage.

    python3 -S bench/launch.py REPORT_FD TIMEOUT_S COMMAND...

The command inherits stdin, stdout and stderr.  One JSON line with the
wall time, peak RSS, CPU time and exit code goes to file descriptor
REPORT_FD.  The harness starts every measured command through this
small interpreter because Linux charges a child with the peak RSS of
the process it was spawned from: spawned straight from the harness, a
child would report the harness's own peak when that is the larger.
"""

import json
import os
import signal
import sys
import time

report_fd, timeout_s, command = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
os.set_inheritable(report_fd, False)
start = time.perf_counter()
pid = os.posix_spawnp(command[0], command, os.environ)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(timeout_s)
_, status, usage = os.wait4(pid, 0)
wall_s = time.perf_counter() - start
signal.alarm(0)
report = {
    "wall_s": wall_s,
    "rss_mb": usage.ru_maxrss / 1024,
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "exit": os.waitstatus_to_exitcode(status),
}
os.write(report_fd, json.dumps(report).encode())
