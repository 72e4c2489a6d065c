"""One process map for the simulator's embarrassingly parallel work.

Two callers fan work out to processes: a federated run's simulation
partitions and a campaign's scenario variants.  Both go through
:func:`map_tasks`, which applies one task function to every task — in
process for a single worker, across a ``ProcessPoolExecutor`` otherwise —
and returns the results in task order.  The caller's task function is the
same in every mode, so a task fails identically at every worker count.

Failure is loud.  A task that raises cancels the tasks not yet started,
and :func:`map_tasks` re-raises the error of the earliest failing task —
the one in-process execution would have raised.  A pool that cannot start
raises too.  Nothing retries, and nothing falls back to serial execution,
because a fallback would turn a crash (or a worker killed by the OOM
killer) into a slow pass that reports success.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, TypeVar

Shared = TypeVar("Shared")
Task = TypeVar("Task")
Result = TypeVar("Result")

#: per-worker task function and shared state, installed by the initializer
#: before any task runs (the state rides to each worker once, not per task)
_WORKER_POOL_STATE: dict[str, Any] = {}


def resolve_workers(count: int) -> int:
    """A worker count where ``0`` means one per CPU core."""
    return count or (os.cpu_count() or 1)


def map_tasks(
    fn: Callable[[Shared, Task], Result],
    shared: Shared,
    tasks: Sequence[Task],
    workers: int,
    on_result: Callable[[int, Result], None] | None = None,
) -> list[Result]:
    """``[fn(shared, task) for task in tasks]`` on up to *workers* processes.

    *fn* must be a module-level function, so workers can import it.  With
    at most one worker (or one task) everything runs in this process.
    *on_result* is called with each task's index and result as it
    completes, which in a pool is completion order; the returned list is
    always in task order.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        results: list[Result] = []
        for index, task in enumerate(tasks):
            results.append(fn(shared, task))
            if on_result is not None:
                on_result(index, results[-1])
        return results
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_pool_init, initargs=(fn, shared)
    )
    try:
        futures = [pool.submit(_run_task, task) for task in tasks]
        index_of = {future: index for index, future in enumerate(futures)}
        for future in as_completed(futures):
            if future.exception() is not None:
                break
            if on_result is not None:
                on_result(index_of[future], future.result())
    finally:
        # After a failure this drops the tasks not yet started and waits
        # for the started ones; after success it only joins the workers.
        pool.shutdown(cancel_futures=True)
    # The pool starts tasks in task order, so every task before a failing
    # one has run: reading in task order raises the error a single worker
    # would have raised, whichever failure completed first.
    return [future.result() for future in futures]


def _worker_pool_init(fn: Callable[[Any, Any], Any], shared: Any) -> None:
    _WORKER_POOL_STATE["fn"] = fn
    _WORKER_POOL_STATE["shared"] = shared


def _run_task(task: Any) -> Any:
    return _WORKER_POOL_STATE["fn"](_WORKER_POOL_STATE["shared"], task)
