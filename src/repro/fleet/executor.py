"""The fleet executor: parallel, resumable, deterministic job running.

Scheduling model
----------------

Every job runs in its own worker process (forked where the platform
allows), with at most ``workers`` alive at once.  Process-per-job is
deliberate -- it is what makes the three hard guarantees cheap:

* **Determinism.**  :func:`~repro.fleet.jobs.execute_job` is a pure
  function of the spec, and worker isolation means no job can observe
  another's interpreter state.  Results are keyed by config digest and
  re-ordered into spec order at the end, so ``--workers 1`` and
  ``--workers 8`` return bit-identical payload lists.
* **Timeouts that actually kill.**  A hung job is a process the parent
  can ``terminate()``; pool-based executors can only abandon it.
* **Crash containment.**  A worker dying mid-job (segfault, OOM kill,
  ``os._exit``) surfaces as a closed pipe, not a poisoned pool; the
  job is retried up to ``max_retries`` times and the rest of the sweep
  is unaffected.

Completed payloads are written to the
:class:`~repro.fleet.store.ResultStore` *as they arrive*, so a sweep
killed at any instant resumes from its last finished job.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Sequence

from repro.fleet.jobs import JobSpec, execute_job
from repro.fleet.store import ResultStore


def _job_worker(job: JobSpec, conn: Connection) -> None:
    """Worker-process entry point: run one job, ship one message back."""
    try:
        payload = execute_job(job)
    except BaseException as exc:  # noqa: BLE001 - report, don't crash silently
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ok", payload))
    conn.close()


@dataclass
class _Running:
    """Bookkeeping for one in-flight worker."""

    job: JobSpec
    attempt: int
    proc: mp.process.BaseProcess
    conn: Connection
    deadline: float | None


@dataclass
class FleetOutcome:
    """Everything one executor run produced, in spec order."""

    jobs: list[JobSpec]
    #: payload per job (spec order); None where the job ultimately failed
    payloads: list[dict | None]
    #: jobs satisfied from the result store without executing
    store_hits: int = 0
    #: jobs actually executed (includes retried successes once)
    executed: int = 0
    #: extra attempts spent on crashed / hung / failed jobs
    retried: int = 0
    #: digest -> last error message, for jobs that exhausted retries
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


class FleetExecutor:
    """Run a job list with bounded parallelism, retries, and resume.

    Parameters
    ----------
    workers:
        Maximum concurrently running worker processes (>= 1).
    store:
        Optional :class:`ResultStore`.  Completed payloads are always
        persisted there; with ``resume=True`` matching entries are
        reused instead of re-executing their jobs.
    resume:
        Whether existing store entries satisfy jobs (the ``--resume``
        flag).  Ignored when ``store`` is None.
    job_timeout_s:
        Wall-clock budget per attempt; a worker exceeding it is killed
        and the attempt counts as failed.  None disables timeouts.
    max_retries:
        Extra attempts allowed per job after its first failure.
    progress:
        Optional callback receiving one line per scheduling event
        (hit / start / ok / retry / fail), for CLI progress output.
    """

    def __init__(
        self,
        workers: int = 1,
        store: ResultStore | None = None,
        resume: bool = True,
        job_timeout_s: float | None = None,
        max_retries: int = 1,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        self.workers = workers
        self.store = store
        self.resume = resume
        self.job_timeout_s = job_timeout_s
        self.max_retries = max_retries
        self.progress = progress
        self._ctx = mp.get_context()

    # -------------------------------------------------------------- #

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _record(self, job: JobSpec, payload: dict) -> None:
        if self.store is not None:
            self.store.put(
                job.digest,
                {
                    "digest": job.digest,
                    "job": job.config(),
                    "payload": payload,
                    "manifest": job.manifest().as_dict(),
                },
            )

    def _spawn(self, job: JobSpec, attempt: int) -> _Running:
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_job_worker, args=(job, send_conn), daemon=True
        )
        proc.start()
        # the worker owns the send end; closing our copy turns a dead
        # worker into an EOF on the receive end
        send_conn.close()
        deadline = (
            time.monotonic() + self.job_timeout_s
            if self.job_timeout_s is not None
            else None
        )
        self._say(f"run  {job.label} (attempt {attempt + 1})")
        return _Running(job, attempt, proc, recv_conn, deadline)

    @staticmethod
    def _reap(item: _Running) -> None:
        """Make sure a finished/killed worker is fully gone."""
        item.proc.join(timeout=5.0)
        if item.proc.is_alive():
            item.proc.kill()
            item.proc.join(timeout=5.0)
        item.conn.close()

    def _kill(self, item: _Running) -> None:
        if item.proc.is_alive():
            item.proc.terminate()
        self._reap(item)

    # -------------------------------------------------------------- #

    def run(self, jobs: Sequence[JobSpec]) -> FleetOutcome:
        """Execute ``jobs``; payloads come back in the given order."""
        jobs = list(jobs)
        digests = [job.digest for job in jobs]
        dupes = [d for d, n in Counter(digests).items() if n > 1]
        if dupes:
            raise ValueError(
                f"duplicate job configurations in sweep: {sorted(dupes)}"
            )

        outcome = FleetOutcome(jobs=jobs, payloads=[None] * len(jobs))
        results: dict[str, dict] = {}

        if self.store is not None and self.resume:
            for job, digest in zip(jobs, digests):
                doc = self.store.get(digest)
                if doc is not None:
                    results[digest] = doc["payload"]
                    outcome.store_hits += 1
                    self._say(f"hit  {job.label} [{digest}]")

        queue: deque[tuple[JobSpec, int]] = deque(
            (job, 0)
            for job, digest in zip(jobs, digests)
            if digest not in results
        )
        running: dict[str, _Running] = {}

        def settle(item: _Running, verdict: str, value) -> None:
            """Fold one finished attempt back into the schedule."""
            digest = item.job.digest
            del running[digest]
            self._reap(item)
            if verdict == "ok":
                results[digest] = value
                outcome.executed += 1
                self._record(item.job, value)
                self._say(f"ok   {item.job.label}")
            elif item.attempt < self.max_retries:
                outcome.retried += 1
                queue.append((item.job, item.attempt + 1))
                self._say(f"retry {item.job.label}: {value}")
            else:
                outcome.failures[digest] = str(value)
                self._say(f"FAIL {item.job.label}: {value}")

        try:
            while queue or running:
                while queue and len(running) < self.workers:
                    job, attempt = queue.popleft()
                    running[job.digest] = self._spawn(job, attempt)

                deadlines = [
                    r.deadline
                    for r in running.values()
                    if r.deadline is not None
                ]
                wait_s = (
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines
                    else None
                )
                ready = set(
                    _conn_wait(
                        [r.conn for r in running.values()], timeout=wait_s
                    )
                )

                now = time.monotonic()
                for item in list(running.values()):
                    if item.conn in ready:
                        try:
                            verdict, value = item.conn.recv()
                        except (EOFError, OSError):
                            item.proc.join(timeout=5.0)
                            verdict, value = (
                                "error",
                                "worker died without reporting "
                                f"(exit code {item.proc.exitcode})",
                            )
                        settle(item, verdict, value)
                    elif item.deadline is not None and now >= item.deadline:
                        self._kill(item)
                        settle(
                            item,
                            "error",
                            f"timeout after {self.job_timeout_s:g}s",
                        )
        finally:
            for item in list(running.values()):
                self._kill(item)

        outcome.payloads = [results.get(digest) for digest in digests]
        return outcome
