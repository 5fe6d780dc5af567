"""Runs the benchmark's child processes and reports what each cost.

The benchmark starts this helper before it loads anything else, and every
timed child is forked from it.  On Linux a child's ``ru_maxrss`` starts from
the peak RSS of the process that spawned it, so spawning from the benchmark
itself, which holds the workload's truth in memory, would report the
benchmark's memory as the CLI's.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "stderr":
path}``; one JSON reply per line on stdout, ``{"seconds", "code",
"maxrss_kb"}``.  The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
