"""Fork-per-request runner: one child per request, one child alive at a time.

The parent has already imported zeps.  Each request forks a child that
runs a callable with its stdout on a pipe and then exits, much as every
``zeps`` command is a fresh process.  The parent streams the pipe to a
file while it waits (outputs reach megabytes, a pipe holds 64 KB), so its
own memory, which every child inherits, stays flat over the run.  A
second pipe carries an optional trace payload back from the child.
"""

from __future__ import annotations

import io
import os
import selectors
import signal
import sys
import time
import traceback
from dataclasses import dataclass

CHUNK = 1 << 16
EXIT_CRASH = 70


@dataclass
class ChildResult:
    exit_code: int
    started: float  # time.perf_counter() at fork
    wall_s: float
    maxrss_kb: int
    timed_out: bool
    output_bytes: int
    payload: bytes


def run_in_child(body, out_path: str, timeout_s: float) -> ChildResult:
    """Fork, run ``body(payload_fd)`` in the child, reap it, time fork to reap.

    ``body`` returns the child's exit code and may write a payload to the
    file descriptor it is given.  A child still running after
    ``timeout_s`` is killed and reported with ``timed_out``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    out_r, out_w = os.pipe()
    pay_r, pay_w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = EXIT_CRASH
        try:
            os.close(out_r)
            os.close(pay_r)
            os.dup2(out_w, 1)
            os.close(out_w)
            sys.stdout = io.TextIOWrapper(io.FileIO(1, "w", closefd=False), newline="\n")
            code = body(pay_w)
            sys.stdout.flush()
        except BaseException:  # the child reports every failure as an exit code
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(out_w)
    os.close(pay_w)
    deadline = start + timeout_s
    timed_out = False
    written = 0
    payload = bytearray()
    try:
        with open(out_path, "wb") as sink, selectors.DefaultSelector() as selector:
            selector.register(out_r, selectors.EVENT_READ)
            selector.register(pay_r, selectors.EVENT_READ)
            while selector.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0 and not timed_out:
                    os.kill(pid, signal.SIGKILL)
                    timed_out = True
                for key, _ in selector.select(max(remaining, 0.05) if not timed_out else 1.0):
                    chunk = os.read(key.fd, CHUNK)
                    if not chunk:
                        selector.unregister(key.fd)
                        os.close(key.fd)
                    elif key.fd == out_r:
                        sink.write(chunk)
                        written += len(chunk)
                    else:
                        payload += chunk
    except BaseException:  # never leave the child running or unreaped
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    return ChildResult(code, start, wall, usage.ru_maxrss, timed_out, written, bytes(payload))


def self_check(scratch: str) -> None:
    """A child that overruns its timeout is killed and flagged, not waited for."""

    def sleeper(_fd):
        time.sleep(30)
        return 0

    result = run_in_child(sleeper, os.path.join(scratch, "timeout-check.out"), 0.2)
    if not result.timed_out or result.exit_code == 0 or result.wall_s > 5:
        raise RuntimeError(f"timeout self-check failed: {result}")
