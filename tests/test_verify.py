"""verify_suite across processes: the same triples as a serial run, and no
worker outlives the call, however a worker or the calling process ends."""

import functools
import io
import itertools
import os
import pathlib
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from compalg import verify as vf
from compalg.numerics import DEFAULT_SEED, rng


@functools.lru_cache(maxsize=None)
def serial_reference(seed):
    """Each CHECKS entry called in turn on rng([seed] + name bytes), as the
    suite ran before it forked."""
    out = []
    for name, fn in vf.CHECKS:
        try:
            passed, detail = fn(rng([seed] + list(name.encode())), True)
        except Exception as err:
            passed, detail = False, f"{type(err).__name__}: {err}"
        out.append((name, bool(passed), detail))
    return out


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Meeting:
    """A pipe on which workers announce that they ran a check, so that the
    calling process can wait for them before it takes more."""

    def __init__(self):
        self.r, self.w = os.pipe()

    def announce(self):
        os.write(self.w, b"x")

    def wait(self, count):
        got = 0
        while got < count:
            ready, _, _ = select.select([self.r], [], [], 60)
            assert ready, "no worker ran a check within 60 s"
            got += len(os.read(self.r, count - got))

    def close(self):
        os.close(self.r)
        os.close(self.w)


@pytest.fixture
def meeting():
    m = Meeting()
    yield m
    m.close()


def force_cpus(monkeypatch, cpus):
    """cpus usable CPUs, in a process that counts as single-threaded (a
    multi-threaded BLAS pool in the test process would keep every check here)."""
    monkeypatch.setattr(vf, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(vf, "_os_threads", lambda: 1)


def run_split(monkeypatch, cpus, in_parent, in_worker, n=6):
    """verify_suite over n checks that run in_parent() in the calling process
    and in_worker() in a forked worker."""
    parent = os.getpid()

    def check(gen, fast):
        return (in_parent if os.getpid() == parent else in_worker)()

    monkeypatch.setattr(vf, "CHECKS", [(f"check{k}", check) for k in range(n)])
    force_cpus(monkeypatch, cpus)
    results = vf.verify_suite()
    assert os.getpid() == parent
    assert_no_child_left()
    return results


def first_call_waits(meeting, count):
    """A check for the calling process that, on its first call, waits until
    count workers have announced themselves."""
    waited = []

    def check():
        if not waited:
            meeting.wait(count)
            waited.append(True)
        return True, "parent"
    return check


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 7])
def test_suite_equals_serial_reference(monkeypatch, seed, cpus):
    force_cpus(monkeypatch, cpus)
    assert vf.verify_suite(seed, fast=True) == serial_reference(seed)
    assert_no_child_left()


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _exit_3():
    os._exit(3)


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("end, status", [(_kill_self, "killed by signal 9"),
                                         (_exit_3, "exit status 3"),
                                         (_interrupt, "exit status 1")])
def test_dead_worker_fails_the_check_it_took(monkeypatch, meeting, end, status):
    # the worker reports its first check and ends during its second
    ran = itertools.count()

    def in_worker():
        if next(ran):
            meeting.announce()
            end()
        return True, "worker"

    results = run_split(monkeypatch, 2, first_call_waits(meeting, 1), in_worker)
    assert [name for name, _, _ in results] == [f"check{k}" for k in range(6)]
    failed = [(passed, detail) for _, passed, detail in results if not passed]
    assert failed == [(False, f"worker ended before reporting it ({status})")]
    assert sorted(detail for _, passed, detail in results if passed) == ["parent"] * 4 + ["worker"]


def test_every_dead_worker_fails_its_own_check(monkeypatch, meeting):
    def in_worker():
        meeting.announce()
        _kill_self()

    results = run_split(monkeypatch, 4, first_call_waits(meeting, 3), in_worker, n=8)
    failed = [detail for _, passed, detail in results if not passed]
    assert failed == ["worker ended before reporting it (killed by signal 9)"] * 3
    assert sum(passed for _, passed, _ in results) == 5


def test_raising_check_fails_in_worker_and_in_caller(monkeypatch, meeting):
    def raises():
        raise ValueError("no such identity")

    def in_worker():
        meeting.announce()
        raises()

    wait = first_call_waits(meeting, 1)

    def in_parent():
        wait()
        raises()

    results = run_split(monkeypatch, 2, in_parent, in_worker)
    assert [(passed, detail) for _, passed, detail in results] == [(False, "ValueError: no such identity")] * 6


def test_interrupt_in_caller_reaps_the_workers(monkeypatch, meeting):
    def in_worker():
        meeting.announce()
        time.sleep(60)
        return True, "worker"

    wait = first_call_waits(meeting, 2)

    def in_parent():
        wait()
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_split(monkeypatch, 3, in_parent, in_worker)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def _trivial_checks(monkeypatch, cpus, n=5):
    monkeypatch.setattr(vf, "CHECKS", [(f"check{k}", lambda gen, fast: (True, str(os.getpid())))
                                       for k in range(n)])
    force_cpus(monkeypatch, cpus)


def _no_fork():
    raise AssertionError("forked")


def test_one_cpu_runs_every_check_here(monkeypatch):
    _trivial_checks(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert [detail for _, _, detail in vf.verify_suite()] == [str(os.getpid())] * 5


def test_no_fork_on_a_platform_without_it(monkeypatch):
    _trivial_checks(monkeypatch, 4)
    monkeypatch.delattr(os, "fork")
    assert [detail for _, _, detail in vf.verify_suite()] == [str(os.getpid())] * 5


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread listing")
def test_no_fork_while_other_threads_run(monkeypatch):
    # a Python thread here, as a BLAS pool would be, is one more OS thread
    os_threads = vf._os_threads
    _trivial_checks(monkeypatch, 4)
    monkeypatch.setattr(vf, "_os_threads", os_threads)
    monkeypatch.setattr(os, "fork", _no_fork)
    before = vf._os_threads()
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert vf._os_threads() == before + 1
        assert [detail for _, _, detail in vf.verify_suite()] == [str(os.getpid())] * 5
    finally:
        done.set()
        thread.join(timeout=60)
    assert not thread.is_alive()


def test_no_fork_where_threads_are_not_listed(monkeypatch):
    _trivial_checks(monkeypatch, 4)
    monkeypatch.setattr(vf, "_os_threads", lambda: None)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert [detail for _, _, detail in vf.verify_suite()] == [str(os.getpid())] * 5


def test_failed_fork_leaves_the_checks_here(monkeypatch):
    def fork():
        raise BlockingIOError("no process to spare")

    _trivial_checks(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", fork)
    before = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    assert [detail for _, _, detail in vf.verify_suite()] == [str(os.getpid())] * 5
    if before is not None:
        assert len(os.listdir("/proc/self/fd")) == len(before)


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert vf._usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert vf._usable_cpus() == 1


def test_workers_never_flush_the_inherited_stdout():
    # a block-buffered stdout holds "pending" at the fork; only the caller writes it
    program = "\n".join([
        "import os, sys, time",
        "from compalg import verify as vf",
        "vf._usable_cpus, vf._os_threads = lambda: 3, lambda: 1",
        "vf.CHECKS = [(f'check{k}', lambda gen, fast: (time.sleep(0.2) or True, str(os.getpid())))",
        "             for k in range(6)]",
        "sys.stdout.write('pending')",
        "assert len({detail for _, _, detail in vf.verify_suite()}) > 1",
    ])
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(vf.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "pending"


def test_collect_stops_at_a_line_cut_off():
    # a worker ended while writing: "12" cut to "1" must not read as index 1
    reports = [None] * 13
    taken = vf._collect(io.StringIO('3\n[3, true, "ok"]\n12\n[12, tr'), reports)
    assert taken == 12 and reports[3] == (True, "ok") and reports[12] is None
    assert vf._collect(io.StringIO("4\n1"), reports) == 4
