"""``pmap(fn, items)``: the list ``[fn(x) for x in items]``, computed by a
pool of forked workers, one per CPU the process may run on and at most
one per item, each item a task of its own, so that no worker idles while
another runs two of a few long items (the runs of a sweep).

The workers inherit ``fn`` through the fork, so ``fn`` may be a closure;
items and results are pickled.  With one CPU, on a platform without
``fork`` or ``sched_getaffinity``, or inside a pool worker (one of these
or a daemonic ``multiprocessing`` one), the map runs in-process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor

__all__ = ["pmap"]

_fn = None      # the mapped function in a pool worker, set by its initializer


def _install(fn) -> None:
    global _fn
    _fn = fn


def _call(x):
    return _fn(x)


def pmap(fn, items) -> list:
    """``[fn(x) for x in items]``, in item order.  An exception raised by
    ``fn`` in a worker reaches the caller with its class and message; a
    worker that dies raises ``BrokenProcessPool``.  Tasks not yet started
    are cancelled and the workers waited for, so none outlives the map."""
    items = list(items)
    serial = (_fn is not None or mp.current_process().daemon
              or not hasattr(os, "sched_getaffinity")
              or "fork" not in mp.get_all_start_methods())
    workers = 1 if serial else min(len(items), len(os.sched_getaffinity(0)))
    if workers < 2:
        return [fn(x) for x in items]
    pool = ProcessPoolExecutor(workers, mp.get_context("fork"),
                               initializer=_install, initargs=(fn,))
    try:
        return list(pool.map(_call, items))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
