"""Runs the benchmark's commands and reports their wall time and peak memory.

The peak RSS that ``wait4`` reports for a child starts from the memory of
the process that spawned it, because the child begins as a copy of it (or
shares it, under vfork) until it execs. ``run.py`` holds generated data and
numpy arrays, so it starts this small process once and has it spawn every
command; a command's peak RSS then shows the command's own memory.

Protocol: one JSON request per line on standard input, with the keys
``argv``, ``env``, ``cwd``, ``stderr`` (a file path) and ``timeout``
(seconds); one JSON reply per line on standard output, with ``wall``
(seconds), ``code`` (exit code, negative for a signal) and ``maxrss_kb``. A
command still running at its timeout is killed with its process group.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def execute(request: dict) -> dict:
    reaped = []
    with open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], env=request["env"], cwd=request["cwd"],
                                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        waiter = threading.Thread(target=lambda: reaped.append(
            (os.wait4(proc.pid, 0), time.perf_counter())))
        waiter.start()
        waiter.join(request["timeout"])
        if waiter.is_alive():
            os.killpg(proc.pid, signal.SIGKILL)
            waiter.join()
    (_, status, usage), t1 = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": t1 - t0, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(execute(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
