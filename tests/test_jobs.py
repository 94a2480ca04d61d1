"""``jobs.fan_out``: independent jobs on one process per usable CPU."""

import os
import time

import pytest

from diffgap import jobs


def _cpus(monkeypatch, n):
    """Make the process's affinity mask hold n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _sleep_then(value, seconds=0.3):
    time.sleep(seconds)
    return value


def test_two_cpus_run_jobs_in_two_processes(monkeypatch):
    _cpus(monkeypatch, 2)
    pids = jobs.fan_out([lambda: _sleep_then(os.getpid())] * 2)
    assert os.getpid() in pids and len(set(pids)) == 2
    assert _no_child_left()


def test_one_cpu_runs_every_job_in_order_without_a_fork(monkeypatch):
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
    order = []
    assert jobs.fan_out([lambda i=i: order.append(i) or i for i in range(5)]) == list(range(5))
    assert order == list(range(5))


def test_no_process_to_spare_runs_the_jobs_here(monkeypatch):
    _cpus(monkeypatch, 4)

    def fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert jobs.fan_out([lambda i=i: i * i for i in range(4)]) == [0, 1, 4, 9]


@pytest.mark.parametrize("n", [1, 2])
def test_first_failure_in_job_order_is_raised(monkeypatch, n):
    """On two CPUs job 1 fails after job 2 has: job 1's error is the one
    raised, as on one CPU, where job 2 never runs.  A returned exception is
    a value like any other."""
    _cpus(monkeypatch, n)

    def fail(message, seconds):
        time.sleep(seconds)
        raise ValueError(message)

    work = [lambda: KeyError("returned"), lambda: fail("first", 0.3),
            lambda: fail("second", 0.0)]
    with pytest.raises(ValueError, match="first"):
        jobs.fan_out(work)
    assert _no_child_left()


def test_interrupt_kills_the_running_workers(monkeypatch):
    """An interrupt in the calling process ends the fan-out at once: the
    worker still in its 30 s job is killed and reaped."""
    _cpus(monkeypatch, 2)
    parent = os.getpid()

    def job():
        if os.getpid() == parent:
            time.sleep(0.2)  # the worker has taken the other job by now
            raise KeyboardInterrupt
        time.sleep(30.0)

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        jobs.fan_out([job, job])
    assert time.perf_counter() - t0 < 10.0
    assert _no_child_left()
