"""Runs the benchmark's subprocesses from a small process of its own.

Linux carries the peak RSS of the process that spawns a child into the
child's own peak across ``exec``, so children spawned by ``run.py`` (which
holds the oracle's data) would report the size of ``run.py`` instead of
their own.  This process stays small.  It reads one JSON request per line
on stdin, ``{"argv", "cwd", "out", "err", "timeout"}``, runs the command
with its output in the two files, and answers one JSON line with the exit
code, wall time around the child, CPU time and peak RSS from ``wait4``, and
whether the timeout killed it.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        timed_out = False
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)

        def kill(*_):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "timed_out": timed_out,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
