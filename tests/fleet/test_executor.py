"""FleetExecutor scheduling: retries, crashes, hangs, failure isolation,
and the worker lifecycle.

Synthetic jobs (sleep / crash / exit / hang / flaky) exercise every
failure mode across real process boundaries without simulating anything,
so these tests stay fast.
"""

import math
import multiprocessing as mp
import time

import pytest

from repro.fleet.executor import FleetExecutor
from repro.fleet.jobs import JobSpec
from repro.fleet.store import ResultStore


def synthetic(op: str, n: int = 0, load: float = 0.0, **kw) -> JobSpec:
    return JobSpec(
        kind="synthetic",
        scenario=op,
        policy="",
        load=load,
        seed=n,
        replicate=n,
        eras=10,
        **kw,
    )


class TestHappyPath:
    def test_payloads_in_spec_order(self):
        jobs = [synthetic("sleep", n) for n in range(5)]
        outcome = FleetExecutor(workers=3).run(jobs)
        assert outcome.ok
        assert [p["replicate"] for p in outcome.payloads] == list(range(5))
        assert outcome.executed == 5
        assert outcome.store_hits == 0
        assert outcome.retried == 0

    def test_empty_job_list(self):
        outcome = FleetExecutor(workers=2).run([])
        assert outcome.ok
        assert outcome.payloads == []

    def test_duplicate_configs_rejected(self):
        job = synthetic("sleep", 1)
        with pytest.raises(ValueError, match="duplicate"):
            FleetExecutor().run([job, job])

    def test_progress_callback_sees_lifecycle(self):
        lines = []
        jobs = [synthetic("sleep", n) for n in range(2)]
        FleetExecutor(workers=1, progress=lines.append).run(jobs)
        assert any(line.startswith("run") for line in lines)
        assert any(line.startswith("ok") for line in lines)


class TestFailures:
    def test_python_crash_fails_after_retries(self):
        jobs = [synthetic("sleep", 0), synthetic("crash", 1)]
        outcome = FleetExecutor(workers=2, max_retries=1).run(jobs)
        assert not outcome.ok
        assert outcome.payloads[0] is not None
        assert outcome.payloads[1] is None
        assert outcome.retried == 1
        (message,) = outcome.failures.values()
        assert "synthetic crash" in message

    def test_hard_worker_death_is_contained(self):
        """os._exit(17) kills the worker with no Python traceback; the
        job fails with the exit code and other jobs are unaffected."""
        jobs = [synthetic("exit", 0), synthetic("sleep", 1)]
        outcome = FleetExecutor(workers=2, max_retries=0).run(jobs)
        assert outcome.payloads[1] is not None
        (message,) = outcome.failures.values()
        assert "exit code 17" in message

    def test_flaky_job_succeeds_on_retry(self, tmp_path):
        marker = tmp_path / "attempted"
        jobs = [synthetic(f"flaky:{marker}", 0)]
        outcome = FleetExecutor(workers=1, max_retries=1).run(jobs)
        assert outcome.ok
        assert outcome.retried == 1
        assert outcome.executed == 1
        assert marker.exists()

    def test_retries_are_bounded(self, tmp_path):
        outcome = FleetExecutor(workers=1, max_retries=2).run(
            [synthetic("crash", 0)]
        )
        assert outcome.retried == 2
        assert not outcome.ok


class TestTimeouts:
    def test_hung_worker_is_killed_within_budget(self):
        jobs = [synthetic("hang", 0, load=30.0), synthetic("sleep", 1)]
        start = time.monotonic()
        outcome = FleetExecutor(
            workers=2, job_timeout_s=0.5, max_retries=0
        ).run(jobs)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, "hung worker must not block the sweep"
        assert outcome.payloads[1] is not None
        (message,) = outcome.failures.values()
        assert "timeout" in message

    def test_fast_jobs_unaffected_by_timeout(self):
        jobs = [synthetic("sleep", n, load=0.01) for n in range(3)]
        outcome = FleetExecutor(workers=2, job_timeout_s=20.0).run(jobs)
        assert outcome.ok


class TestValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError):
            FleetExecutor(workers=0)

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            FleetExecutor(job_timeout_s=0.0)

    @pytest.mark.parametrize("timeout", [math.inf, math.nan, -math.inf])
    def test_non_finite_timeout_refused(self, timeout):
        """inf would overflow ``connection.wait`` once a worker runs; nan
        would disable the timeout and spin the parent loop."""
        with pytest.raises(ValueError, match="finite and positive"):
            FleetExecutor(job_timeout_s=timeout)

    def test_bad_retries(self):
        with pytest.raises(ValueError):
            FleetExecutor(max_retries=-1)


class TestStoreIntegration:
    def test_results_persisted_as_they_complete(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = [synthetic("sleep", n) for n in range(3)]
        outcome = FleetExecutor(workers=2, store=store).run(jobs)
        assert outcome.ok
        assert len(store) == 3
        doc = store.get(jobs[0].digest)
        assert doc["payload"] == outcome.payloads[0]
        assert doc["manifest"]["seed"] == jobs[0].seed

    def test_failed_jobs_never_enter_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        FleetExecutor(workers=1, store=store, max_retries=0).run(
            [synthetic("crash", 0)]
        )
        assert len(store) == 0


@pytest.fixture
def spawns(monkeypatch):
    """The processes each ``FleetExecutor.run`` starts, in start order."""
    started = []
    spawn = FleetExecutor._spawn

    def counting(self):
        worker = spawn(self)
        started.append(worker.proc)
        return worker

    monkeypatch.setattr(FleetExecutor, "_spawn", counting)
    return started


class TestWorkerLifecycle:
    def test_workers_run_job_after_job(self, spawns):
        jobs = [synthetic("sleep", n) for n in range(12)]
        outcome = FleetExecutor(workers=2).run(jobs)
        assert outcome.ok and outcome.executed == 12
        assert len(spawns) == 2

    def test_no_more_workers_than_queued_jobs(self, spawns):
        outcome = FleetExecutor(workers=4).run([synthetic("sleep", 0)])
        assert outcome.ok
        assert len(spawns) == 1

    @pytest.mark.parametrize("op", ["crash", "exit", "hang"])
    def test_a_failed_attempt_retires_its_worker(self, op, spawns):
        jobs = [synthetic(op, 0, load=30.0)] + [
            synthetic("sleep", n) for n in range(1, 4)
        ]
        outcome = FleetExecutor(
            workers=1, job_timeout_s=1.0, max_retries=0
        ).run(jobs)
        assert list(outcome.failures) == [jobs[0].digest]
        assert all(p is not None for p in outcome.payloads[1:])
        assert len(spawns) == 2

    def test_a_retry_runs_in_a_fresh_process(self, tmp_path, spawns):
        marker = tmp_path / "attempted"
        outcome = FleetExecutor(workers=1, max_retries=1).run(
            [synthetic(f"flaky:{marker}", 0)]
        )
        assert outcome.ok and outcome.retried == 1
        assert len(spawns) == 2
        assert spawns[0].pid != spawns[1].pid

    def test_no_worker_outlives_a_run(self):
        jobs = [synthetic("sleep", n, load=0.01) for n in range(6)]
        assert FleetExecutor(workers=3).run(jobs).ok
        assert mp.active_children() == []

    def test_no_worker_outlives_a_run_that_raises(self):
        """A raising progress callback aborts the run while one worker is
        idle and another busy: both are gone when the error surfaces."""

        def progress(line):
            if line.startswith("ok"):
                raise KeyboardInterrupt

        jobs = [synthetic("sleep", 0)] + [
            synthetic("hang", n, load=30.0) for n in range(1, 3)
        ]
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            FleetExecutor(workers=2, progress=progress).run(jobs)
        assert mp.active_children() == []
        assert time.monotonic() - start < 10.0
