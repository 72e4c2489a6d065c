"""``map_tasks``: results in task order, the first failure loud and final.

The pool cases run two real worker processes; each task sleeps at most a
fraction of a second.
"""

import time

import pytest

from repro.simulation.pool import map_tasks


def sleep_then_echo(unit_s, task):
    time.sleep(unit_s * task)
    return task


def fail_or_mark(directory, task):
    """Task 0 fails at once; every other task sleeps, then leaves a mark."""
    if task == 0:
        raise ValueError("task 0 failed")
    time.sleep(0.2)
    (directory / str(task)).touch()
    return task


def fail_late_or_early(unit_s, task):
    """Task 0 fails last, task 1 first: a race serial order must decide."""
    time.sleep(unit_s * (1 - task))
    raise ValueError(f"task {task} failed")


def test_results_come_back_in_task_order():
    completed = []
    results = map_tasks(
        sleep_then_echo,
        0.2,
        [3, 0],
        workers=2,
        on_result=lambda index, result: completed.append(index),
    )
    assert completed == [1, 0]  # the first task finished last
    assert results == [3, 0]


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failure_raises_its_own_error_and_cancels_the_pending_tasks(
    tmp_path, workers
):
    tasks = list(range(12))
    with pytest.raises(ValueError, match="task 0 failed"):
        map_tasks(fail_or_mark, tmp_path, tasks, workers=workers)
    ran = {int(path.name) for path in tmp_path.iterdir()}
    if workers == 1:
        assert not ran  # in process nothing runs after the failure
    else:
        # a pool finishes the few tasks already handed to its workers
        assert 0 < len(ran) < len(tasks) - 1


def test_the_earliest_failing_task_is_the_one_raised():
    with pytest.raises(ValueError, match="task 0 failed"):
        map_tasks(fail_late_or_early, 0.3, [0, 1], workers=2)
