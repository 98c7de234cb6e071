"""Independent tasks in forked processes: the one process-parallel mechanism,
shared by cross-validation folds (``cv.cross_validate``) and sharded
inference (``model.response_grids``).

A fork child sees the caller's memory as it was at the fork, so the task
function and everything it reads reach every process without being
pickled; only each task's result is sent back.  Tasks run in the caller's
``contextvars`` context, so ``autodiff.float64_gemms()`` carries over, and
each process leaves its op pool (``_kernels``) its share of the CPUs.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, TypeVar

from . import _kernels

T = TypeVar("T")

# What a task process runs: the caller's context and the task function.  Set
# by _start_process in each task process, never in the caller, so it also
# tells a task process from the caller.
_job: tuple[contextvars.Context, Callable[[int], object]] | None = None


def _start_process(
    context: contextvars.Context, task: Callable[[int], object], op_threads: int
) -> None:
    global _job
    _job = (context, task)
    _kernels._pool_workers = op_threads


def _run_task(i: int):
    """Process-pool entry point: task i of the caller's run_forked call."""
    context, task = _job
    return context.run(task, i)


def run_forked(task: Callable[[int], T], names: list[str], processes: int) -> list[T]:
    """[task(0), ..., task(len(names) - 1)], run in min(processes,
    len(names)) forked processes.

    Each process keeps (CPUs // processes) - 1 op threads, so the
    processes and their op threads use no more CPUs than the caller may.  A
    task that raises makes this raise RuntimeError "<names[i]> failed:
    <error>" once every process has ended; a process that dies breaks the
    pool, and the first unfinished task is named.  No process outlives the
    call.
    """
    processes = min(processes, len(names))
    op_threads = max(0, len(os.sched_getaffinity(0)) // processes - 1)
    # pinned: the default start method differs between Python versions, and
    # only a fork child receives the closure task without pickling it
    pool = ProcessPoolExecutor(
        max_workers=processes, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_process,
        initargs=(contextvars.copy_context(), task, op_threads),
    )
    try:
        futures = [pool.submit(_run_task, i) for i in range(len(names))]
        results = []
        for name, future in zip(names, futures):
            try:
                results.append(future.result())
            except Exception as exc:
                raise RuntimeError(f"{name} failed: {exc}") from exc
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
