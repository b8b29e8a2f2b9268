"""Ordered maps over the CPUs of this process.

``OrderedMap(fn)`` maps ``fn`` over items put one at a time and hands the
results back in put order.  A pool of forked workers, one per CPU the
process may run on, computes them, ``chunk`` items to a task, and at most
``WINDOW`` items are in flight: before ``put`` starts a chunk in a full
window it waits for the oldest task.  So neither items nor results pile
up, however many pass through.  ``imap(fn, items)`` is the same map
drawing its items lazily from an iterable, and ``pmap(fn, items)`` the
list ``[fn(x) for x in items]``, one item to a task.

A stream of many short items (snapshot files) sends ``CHUNK`` of them to
a task, which keeps the pool's hand-offs, each some 0.1 ms of the
parent's time, to a fraction of the work; a few long items (the runs of
a sweep) go one to a task, so that no worker idles while another runs
two.

The workers inherit ``fn`` through the fork, so ``fn`` may be a closure;
items and results are pickled, items after ``put`` returns, so an item
must not change once it is put.  With one CPU, on a platform without
``fork`` or ``sched_getaffinity``, or inside a pool worker (one of these
or a daemonic ``multiprocessing`` one), the map runs in-process.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor

__all__ = ["WINDOW", "CHUNK", "OrderedMap", "imap", "pmap"]

WINDOW = 32     # items in flight at most
CHUNK = 4       # items to a task of a stream; divides WINDOW

_fn = None      # the mapped function in a pool worker, set by its initializer


def _install(fn) -> None:
    global _fn
    _fn = fn


def _call(xs) -> list:
    return [_fn(x) for x in xs]


def _workers(tasks: int) -> int:
    if (_fn is not None or mp.current_process().daemon
            or not hasattr(os, "sched_getaffinity")
            or "fork" not in mp.get_all_start_methods()):
        return 1
    return min(tasks, len(os.sched_getaffinity(0)))


class OrderedMap:
    """``fn`` over items put one at a time, results in put order.

    ``put(x)`` returns the results that leave the window, oldest first
    (in-process: ``[fn(x)]``); ``drain()`` yields the rest.  An exception
    raised by ``fn`` in a worker reaches the caller of ``put`` or
    ``drain`` with its class and message; a worker that dies raises
    ``BrokenProcessPool``.  Use it as a context manager: leaving the
    block cancels the tasks not yet started and waits for the workers,
    so none outlives it.  The pool forks at the first ``put``.
    """

    def __init__(self, fn, chunk: int = CHUNK):
        self._fn = fn
        self._size = chunk
        self._workers = _workers(WINDOW // chunk)
        self._pool = None
        self._chunk = []
        self._pending = deque()

    def put(self, x) -> list:
        if self._workers < 2:
            return [self._fn(x)]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                self._workers, mp.get_context("fork"),
                initializer=_install, initargs=(self._fn,))
        out = []
        if not self._chunk and len(self._pending) * self._size == WINDOW:
            out = self._pending.popleft().result()
        self._chunk.append(x)
        if len(self._chunk) == self._size:
            self._pending.append(self._pool.submit(_call, self._chunk))
            self._chunk = []
        return out

    def drain(self):
        if self._chunk:
            self._pending.append(self._pool.submit(_call, self._chunk))
            self._chunk = []
        while self._pending:
            yield from self._pending.popleft().result()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)


def imap(fn, items, chunk: int = CHUNK):
    """``fn(x)`` for each item, in item order, drawing at most ``WINDOW``
    items ahead of the results handed over."""
    with OrderedMap(fn, chunk) as pool:
        for x in items:
            yield from pool.put(x)
        yield from pool.drain()


def pmap(fn, items) -> list:
    """``[fn(x) for x in items]``, computed as ``imap`` one item to a task."""
    return list(imap(fn, items, chunk=1))
