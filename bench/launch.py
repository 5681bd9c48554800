"""Start one command, wait for it, and write down what wait4 says about it.

    python3 -S bench/launch.py RESULT COMMAND...

RESULT gets one line: exit status, wall seconds, CPU seconds (user + system,
including descendants the command reaped) and peak RSS in KiB.

The benchmark starts every measured process through this one.  On Linux a
child's ru_maxrss starts from the peak RSS of the process that spawned it,
because the kernel carries the high-water mark across exec.  The benchmark
process reads reports and spans and grows past the smaller CLI runs; this
launcher imports nothing but os, sys and time, so it stays below all of them.
"""

import os
import sys
import time


def main() -> int:
    result_path, cmd = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w") as handle:
        handle.write(
            f"{os.waitstatus_to_exitcode(status)} {wall!r} "
            f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
