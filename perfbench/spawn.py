"""Starts the measured processes for run.py and reports what they cost.

The max-RSS that wait4 reports for a child starts from its parent's memory
high-water mark: the kernel copies the parent's address space, and its
peak, into the child and keeps that peak across exec. run.py holds numpy,
dcx and the generated images, so a process it started itself would report
run.py's size. This helper is a bare interpreter that imports nothing
heavy, and a fresh exec leaves its own address space small, so the
processes it starts report their own peak.

Protocol, one JSON object per line: requests on stdin,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}``;
replies on stdout, ``{"exit_code", "wall_s", "cpu_s", "max_rss_kb"}``.
The helper exits when stdin closes.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time


def run(request: dict) -> dict:
    """Run one child with stdout and stderr to files; kill it at the timeout."""
    writable = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], writable, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], writable, 0o644),
    ]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    timer = threading.Timer(request["timeout"], os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    return {
        "exit_code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
