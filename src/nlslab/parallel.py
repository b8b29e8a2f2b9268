"""One map over the CPUs of this process.

``pmap(fn, items)`` is ``[fn(x) for x in items]``, computed by a pool of
forked workers, one per CPU the process may run on.  The workers inherit
``fn`` and ``items`` through the fork, so ``fn`` may be a closure and
only item indices and results are pickled.  With one CPU or one item,
on a platform without ``fork`` or ``sched_getaffinity``, or inside a pool
worker (a ``pmap`` worker or a daemonic ``multiprocessing`` one), the
same list is computed in-process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor

__all__ = ["pmap"]

_job = None     # (fn, items) in a pmap worker, set by its initializer


def _install(fn, items) -> None:
    global _job
    _job = fn, items


def _call(i: int):
    fn, items = _job
    return fn(items[i])


def _workers(count: int) -> int:
    if (_job is not None or mp.current_process().daemon
            or not hasattr(os, "sched_getaffinity")
            or "fork" not in mp.get_all_start_methods()):
        return 1
    return min(count, len(os.sched_getaffinity(0)))


def pmap(fn, items) -> list:
    """``[fn(x) for x in items]`` in item order, one forked worker per CPU.

    An exception raised by ``fn`` in a worker reaches the caller with its
    class and message; a worker that dies raises ``BrokenProcessPool``.
    No worker outlives the call.
    """
    items = list(items)
    workers = _workers(len(items))
    if workers < 2:
        return [fn(x) for x in items]
    chunk = -(-len(items) // (4 * workers))     # as multiprocessing.Pool.map
    with ProcessPoolExecutor(workers, mp.get_context("fork"),
                             initializer=_install, initargs=(fn, items)) as pool:
        return list(pool.map(_call, range(len(items)), chunksize=chunk))
