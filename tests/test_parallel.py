import multiprocessing as mp
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from nlslab.errors import InstabilityError
from nlslab.parallel import pmap


@pytest.fixture()
def two_cpus(monkeypatch):
    """A two-CPU mask, so the pool runs whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_results_come_in_item_order(two_cpus):
    items = [3.5, -1.0, 0.0, 2.0, 7.25, 1e300, -0.0]
    got = pmap(lambda x: (x * x, os.getpid()), items)
    assert [v for v, _ in got] == [x * x for x in items]
    assert os.getpid() not in {pid for _, pid in got}
    assert pmap(str, range(0)) == []
    assert mp.active_children() == []


def test_worker_error_reaches_the_caller(two_cpus):
    def guarded(x):
        if x == 5:
            raise InstabilityError(f"mass drifted at item {x}")
        return x

    with pytest.raises(InstabilityError, match="mass drifted at item 5"):
        pmap(guarded, range(8))
    assert mp.active_children() == []


def test_a_dead_worker_raises(two_cpus):
    with pytest.raises(BrokenProcessPool):
        pmap(lambda x: os._exit(3) if x == 1 else x, range(4))
    assert mp.active_children() == []


def test_one_cpu_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert pmap(lambda x: (x, os.getpid()), range(4)) == [
        (x, os.getpid()) for x in range(4)]


def test_a_pool_worker_maps_in_process(two_cpus):
    inner = pmap(lambda _: (os.getpid(), pmap(lambda _: os.getpid(), range(3))),
                 range(2))
    for pid, pids in inner:
        assert pid != os.getpid()
        assert pids == [pid] * 3
    assert mp.active_children() == []


def _pid_and_inner_pids():
    return os.getpid(), pmap(lambda _: os.getpid(), range(3))


def test_a_daemonic_worker_maps_in_process(two_cpus):
    with mp.get_context("fork").Pool(1) as pool:
        pid, pids = pool.apply(_pid_and_inner_pids)
        pool.close()
        pool.join()
    assert pid != os.getpid()
    assert pids == [pid] * 3
    assert mp.active_children() == []
