"""Two jobs in two worker processes that take turns on the CPU.

The benchmark runs the program and a frozen copy of it side by side and
reports the program's time relative to the copy's.  On a shared host the
speed of the same code swings by up to 2x, in bursts from under a second
to many minutes, so the two must run at the same host speed for the ratio
to hold still.  Running them one after the other is not enough: a burst
that slows one op of 3 s often misses the next one.  So each job runs in
its own process, in its own process group, and this process lets them run
in turn for SLICE_SECONDS each, stopping the one whose turn is over with
SIGSTOP and resuming the other with SIGCONT.  Only one job is on the CPU at
a time, and over any second of wall time both get about half of it.

Slices alone are not enough where the jobs' working sets are large: a
job's caches are cold after each turn of the other, and how cold depends on
what the other did.  So the jobs also keep in step: each calls the `sync`
function it is given before each op, which returns once the other job has
called it as often (or has exited).  With the program and the copy at the
same code, both then run the same stage at the same time.

A job records the clock intervals of its timed stages (time.perf_counter,
the system-wide monotonic clock); `active` gives how much of an interval
the job actually ran, from the slices recorded here.  A job's processes
that it starts itself are in its process group and are stopped and resumed
with it.  The workers are forked, so the calling process must have no
other threads: the runner limits BLAS to one thread before numpy loads.
"""

from __future__ import annotations

import bisect
import ctypes
import json
import os
import signal
import sys
import time
import traceback

SLICE_SECONDS = 0.02
_PR_SET_PDEATHSIG = 1


def _sync(own, peer):
    """A rendezvous of two workers over two pipes: post a token to the
    peer, then take one of the peer's.  Returns at once when the peer has
    exited."""
    def sync():
        try:
            os.write(peer, b".")
            os.read(own, 1)
        except BrokenPipeError:
            pass
    return sync


def _child(job, sync, fd):
    """Runs in the forked worker; never returns."""
    code = 1
    try:
        try:  # die with the parent, even if it is killed
            ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG,
                                                    signal.SIGKILL)
        except (OSError, AttributeError):
            pass
        os.setpgid(0, 0)
        os.kill(os.getpid(), signal.SIGSTOP)  # wait for the first slice
        data = json.dumps(job(sync), default=str).encode()
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        code = 0
    except BaseException:  # report and exit; never return into the parent's code
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def _drain(fd, chunks):
    """Reads what is in the pipe now; True at end of file."""
    while True:
        try:
            data = os.read(fd, 1 << 16)
        except BlockingIOError:
            return False
        if not data:
            return True
        chunks.append(data)


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def run(jobs):
    """Runs each of two jobs (name -> callable that takes a `sync` function
    and gives a JSON-ready value) in its own worker process, in turns of
    SLICE_SECONDS, until both have exited.
    Gives the jobs' values (None for a job that failed), each job's slices
    as (start, end) clock intervals, and a list of problems."""
    if len(os.listdir("/proc/self/task")) > 1:
        raise RuntimeError("forking needs a single-threaded process; "
                           "set OPENBLAS_NUM_THREADS=1 before importing numpy")
    sys.stdout.flush()
    sys.stderr.flush()
    old_term = signal.signal(signal.SIGTERM, _on_term)
    if len(jobs) != 2:
        raise ValueError("paired.run takes two jobs")
    tokens = [os.pipe(), os.pipe()]  # job i reads tokens[i], writes the other
    workers = {}
    try:
        for i, (name, job) in enumerate(jobs.items()):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                own, peer = tokens[i][0], tokens[1 - i][1]
                for fd in (fd for pair in tokens for fd in pair):
                    if fd not in (own, peer):
                        os.close(fd)
                _child(job, _sync(own, peer), w)
            os.close(w)
            try:
                os.setpgid(pid, pid)
            except OSError:  # the child has already done it
                pass
            os.set_blocking(r, False)
            workers[name] = {"pid": pid, "fd": r, "chunks": [], "eof": False,
                             "slices": [], "status": None}
            _, status = os.waitpid(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                workers[name]["status"] = status
        for fd in (fd for pair in tokens for fd in pair):
            os.close(fd)
        tokens = []
        order = list(workers)
        while any(w["status"] is None for w in workers.values()):
            for name in order:
                w = workers[name]
                if w["status"] is not None:
                    continue
                t0 = time.perf_counter()
                os.killpg(w["pid"], signal.SIGCONT)
                time.sleep(SLICE_SECONDS)
                try:
                    os.killpg(w["pid"], signal.SIGSTOP)
                except ProcessLookupError:
                    pass
                _, status = os.waitpid(w["pid"], os.WUNTRACED)
                w["slices"].append((t0, time.perf_counter()))
                if not os.WIFSTOPPED(status):
                    w["status"] = status
                w["eof"] = _drain(w["fd"], w["chunks"]) or w["eof"]
            order.reverse()
    finally:
        for fd in (fd for pair in tokens for fd in pair):
            os.close(fd)
        for w in workers.values():
            if w["status"] is None:
                for sig in (signal.SIGKILL, signal.SIGCONT):
                    try:
                        os.killpg(w["pid"], sig)
                    except ProcessLookupError:
                        pass
                try:
                    os.waitpid(w["pid"], 0)
                except ChildProcessError:
                    pass
        signal.signal(signal.SIGTERM, old_term)

    values, slices, problems = {}, {}, []
    for name, w in workers.items():
        os.set_blocking(w["fd"], True)
        while not w["eof"]:
            data = os.read(w["fd"], 1 << 16)
            w["eof"] = not data
            w["chunks"].append(data)
        os.close(w["fd"])
        slices[name] = w["slices"]
        status = w["status"]
        if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
            values[name] = json.loads(b"".join(w["chunks"]))
        else:
            values[name] = None
            problems.append(f"worker {name} ended with status {status}")
    return values, slices, problems


def active(slices, start, end):
    """Seconds of [start, end] covered by the sorted, disjoint slices."""
    i = bisect.bisect_right(slices, (start,))
    if i > 0 and slices[i - 1][1] > start:
        i -= 1
    total = 0.0
    while i < len(slices) and slices[i][0] < end:
        total += min(end, slices[i][1]) - max(start, slices[i][0])
        i += 1
    return total
