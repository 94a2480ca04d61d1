"""Independent jobs on every CPU the process may use: the one place in the
package that starts processes, and it starts no thread."""

import os
import pickle
import signal
import sys
import threading
import warnings
from collections.abc import Callable

__all__ = ["fan_out", "usable_cpus"]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which ``taskset``
    narrows, where the platform has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the DeprecationWarning of ``os.fork`` (Python 3.12+) while any OS thread runs
_FORK_WITH_THREADS = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"


def fan_out(jobs: list[Callable[[], object]]) -> list:
    """``[job() for job in jobs]``, computed on one process per CPU this one
    may use (``usable_cpus``), itself included, but on no more processes
    than there are jobs.

    Each process takes the next job from a token pipe when it finishes one,
    and takes none after one of its jobs raises.  A forked worker sends its
    jobs' outcomes, each a value or an exception, back pickled and ends with
    ``os._exit``.  The first failure in job order is raised, so a run fails
    as a serial one would; an exception from a worker keeps its type and
    message but not its traceback (``taskset -c 0`` runs every job here).
    Where the platform lacks ``os.fork`` or an affinity mask, or a Python
    thread is running (fork copies only the calling one), this process runs
    every job in order through the same loop.
    Every worker is reaped before this returns; one still running when it
    unwinds early is killed first.  A job's result must not depend on what
    ran before it in its process: which process takes a job is a race."""
    can_fork = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and threading.active_count() == 1)
    workers = min(len(jobs), usable_cpus()) if can_fork else 1
    tokens, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(len(jobs))))
    os.close(feed)

    def take() -> dict:  # job -> (value, None) or (None, what it raised)
        done = {}
        while token := os.read(tokens, 4):
            i = int.from_bytes(token, "little")
            try:
                done[i] = (jobs[i](), None)
            except Exception as e:
                done[i] = (None, e)
                break
        return done

    outcomes, children = {}, []  # children: (pid, read end of its outcome pipe)
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    # BLAS keeps an idle pool of OS threads; no Python thread
                    # runs here (``can_fork``)
                    warnings.filterwarnings("ignore", _FORK_WITH_THREADS, DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no process to spare: the ones started share the jobs
                os.close(r)
                os.close(w)
                break
            if pid == 0:  # a worker: nothing it does outlives this block
                code = 1
                try:
                    with open(w, "wb") as f:
                        f.write(pickle.dumps(take()))
                    code = 0
                except Exception:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, r))
        outcomes = take()
        for _, r in children:
            with open(r, "rb", closefd=False) as f:
                data = f.read()  # up to the worker's exit
            outcomes.update(pickle.loads(data) if data else {})
    finally:
        os.close(tokens)
        for pid, r in children:
            os.close(r)
            os.kill(pid, signal.SIGKILL)  # harmless once a worker has sent its outcomes
            os.waitpid(pid, 0)
    values = []
    for i in range(len(jobs)):
        if i not in outcomes:
            raise ChildProcessError(f"job {i} of {len(jobs)} was lost: its worker ended early")
        value, err = outcomes[i]
        if err is not None:
            raise err
        values.append(value)
    return values
