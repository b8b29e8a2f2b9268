import multiprocessing as mp
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from nlslab.errors import InstabilityError
from nlslab.parallel import CHUNK, WINDOW, OrderedMap, imap, pmap


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


def _counted(n, drawn):
    """range(n), recording in ``drawn[0]`` how many items were drawn."""
    for x in range(n):
        drawn[0] = x + 1
        yield x


def test_stream_returns_results_in_order(two_cpus):
    got = list(imap(lambda x: (x * x, os.getpid()), _counted(41, [0])))
    assert [v for v, _ in got] == [x * x for x in range(41)]
    assert os.getpid() not in {pid for _, pid in got}
    assert list(imap(str, iter(()))) == []
    assert mp.active_children() == []


@pytest.mark.parametrize("cpus, chunk", [({0}, CHUNK), ({0, 1}, CHUNK), ({0, 1}, 1)],
                         ids=["one-cpu", "pool", "pool-unchunked"])
def test_stream_draws_at_most_its_window_ahead(monkeypatch, cpus, chunk):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    drawn, ahead = [0], []
    for consumed, x in enumerate(imap(lambda x: x, _counted(100, drawn), chunk), 1):
        assert x == consumed - 1
        ahead.append(drawn[0] - consumed)
    assert max(ahead) <= WINDOW
    assert max(ahead) == (WINDOW if len(cpus) > 1 else 0)
    assert mp.active_children() == []


def test_stream_worker_error_keeps_class_and_message(two_cpus):
    def guarded(x):
        if x == 45:
            raise InstabilityError(f"mass drifted at item {x}")
        return x

    got = []
    with pytest.raises(InstabilityError, match="mass drifted at item 45"):
        for x in imap(guarded, range(100)):
            got.append(x)
    # the results of the failing item's task are lost with it
    assert got == list(range(45 - 45 % CHUNK))
    assert mp.active_children() == []


def test_stream_runs_in_process_on_one_cpu_and_in_a_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert list(imap(lambda x: (x, os.getpid()), range(4))) == [
        (x, os.getpid()) for x in range(4)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    inner = pmap(lambda _: (os.getpid(), list(imap(lambda _: os.getpid(), range(3)))),
                 range(2))
    for pid, pids in inner:
        assert pid != os.getpid()
        assert pids == [pid] * 3
    assert mp.active_children() == []


def test_no_worker_outlives_a_stream(two_cpus):
    stream = imap(lambda x: x, range(100))
    assert next(stream) == 0
    assert mp.active_children() != []
    stream.close()      # a consumer that stops early
    assert mp.active_children() == []
    put = []
    with pytest.raises(InstabilityError, match="producer failed"):
        with OrderedMap(lambda x: x) as pool:
            for x in range(WINDOW + 3 * CHUNK):
                put += pool.put(x)
            raise InstabilityError("producer failed")
    assert put == list(range(3 * CHUNK))
    assert mp.active_children() == []
