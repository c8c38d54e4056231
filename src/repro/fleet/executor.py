"""The fleet executor: parallel, resumable, deterministic job running.

Scheduling model
----------------

Up to ``workers`` long-lived worker processes (forked where the platform
allows) each run job after job: the parent hands the next queued job to
a worker that has just answered ``ok``.  A worker is retired after any
attempt that is not ``ok`` -- an ``error`` reply, a dead pipe, or a
timeout kill -- and a fresh one takes its place while work remains.
Keeping a worker pays a job's cold start (copy-on-write page faults,
lazy imports) once per worker instead of once per job.  The three hard
guarantees rest on:

* **Determinism.**  :func:`~repro.fleet.jobs.execute_job` is a pure
  function of the spec: it reads and writes no interpreter state, so
  the jobs a worker ran before cannot change the next one's payload
  (``tests/fleet/test_determinism.py`` runs one job list forward and
  reversed at one and three workers).  Results are keyed by config
  digest and re-ordered into spec order at the end, so ``--workers 1``
  and ``--workers 8`` return bit-identical payload lists.
* **Timeouts that actually kill.**  A hung job's worker is a process
  the parent can ``terminate()`` and replace; pool-based executors can
  only abandon it.
* **Crash containment.**  A worker dying mid-job (segfault, OOM kill,
  ``os._exit``) surfaces as a closed pipe, not a poisoned pool; it is
  replaced, the job is retried up to ``max_retries`` times, and the
  rest of the sweep is unaffected.  Because a worker retires after any
  failed attempt, a failed job never shares a process with a later
  job, and a retry never runs in the process that failed it.

Completed payloads are written to the
:class:`~repro.fleet.store.ResultStore` *as they arrive*, so a sweep
killed at any instant resumes from its last finished job.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Sequence

from repro.fleet.jobs import JobSpec, execute_job
from repro.fleet.store import ResultStore


def _job_worker(conn: Connection) -> None:
    """Worker-process entry point: run jobs until a ``None`` or EOF.

    Each job is answered ``("ok", payload)`` or ``("error", message)``;
    after an error the worker exits, so no later job runs beside the
    state a failed one left.
    """
    with conn:
        while True:
            try:
                job = conn.recv()
            except EOFError:
                return
            if job is None:
                return
            try:
                payload = execute_job(job)
            except BaseException as exc:  # noqa: BLE001 - report it
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
                return
            conn.send(("ok", payload))


@dataclass
class _Worker:
    """One worker process and the attempt it is running."""

    proc: mp.process.BaseProcess
    conn: Connection
    job: JobSpec | None = field(default=None, init=False)
    attempt: int = field(default=0, init=False)
    deadline: float | None = field(default=None, init=False)


@dataclass
class FleetOutcome:
    """Everything one executor run produced, in spec order."""

    jobs: list[JobSpec]
    #: payload per job (spec order); None where the job ultimately failed
    payloads: list[dict | None]
    #: jobs satisfied from the result store without executing
    store_hits: int = field(default=0, init=False)
    #: jobs actually executed (includes retried successes once)
    executed: int = field(default=0, init=False)
    #: extra attempts spent on crashed / hung / failed jobs
    retried: int = field(default=0, init=False)
    #: digest -> last error message, for jobs that exhausted retries
    failures: dict[str, str] = field(default_factory=dict, init=False)

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
        Wall-clock budget per attempt, finite and positive; a worker
        exceeding it is killed and the attempt counts as failed.  None
        disables timeouts.
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
        if job_timeout_s is not None and not 0 < job_timeout_s < math.inf:
            raise ValueError(
                f"job_timeout_s must be finite and positive, got {job_timeout_s}"
            )
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

    def _spawn(self) -> _Worker:
        conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_job_worker, args=(child_conn,), daemon=True
        )
        proc.start()
        # the worker owns its end; closing our copy turns a dead worker
        # into an EOF on ours
        child_conn.close()
        return _Worker(proc, conn)

    def _assign(self, worker: _Worker, job: JobSpec, attempt: int) -> None:
        worker.job, worker.attempt = job, attempt
        worker.deadline = (
            time.monotonic() + self.job_timeout_s
            if self.job_timeout_s is not None
            else None
        )
        self._say(f"run  {job.label} (attempt {attempt + 1})")
        try:
            worker.conn.send(job)
        except OSError:
            pass  # the worker is gone: its pipe reads as EOF next round

    @staticmethod
    def _reap(worker: _Worker) -> None:
        """Make sure a finished/killed worker is fully gone."""
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        worker.conn.close()

    def _kill(self, worker: _Worker) -> None:
        if worker.proc.is_alive():
            worker.proc.terminate()
        self._reap(worker)

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
        busy: list[_Worker] = []
        idle: list[_Worker] = []

        def settle(worker: _Worker, verdict: str, value) -> None:
            """Fold one finished attempt back into the schedule."""
            job = worker.job
            busy.remove(worker)
            if verdict == "ok":
                idle.append(worker)
                results[job.digest] = value
                outcome.executed += 1
                self._record(job, value)
                self._say(f"ok   {job.label}")
                return
            self._kill(worker)
            if worker.attempt < self.max_retries:
                outcome.retried += 1
                queue.append((job, worker.attempt + 1))
                self._say(f"retry {job.label}: {value}")
            else:
                outcome.failures[job.digest] = str(value)
                self._say(f"FAIL {job.label}: {value}")

        try:
            while queue or busy:
                while queue and len(busy) < self.workers:
                    worker = idle.pop() if idle else self._spawn()
                    busy.append(worker)
                    self._assign(worker, *queue.popleft())

                deadlines = [
                    w.deadline for w in busy if w.deadline is not None
                ]
                wait_s = (
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines
                    else None
                )
                ready = set(_conn_wait([w.conn for w in busy], timeout=wait_s))

                now = time.monotonic()
                for worker in list(busy):
                    if worker.conn in ready:
                        try:
                            verdict, value = worker.conn.recv()
                        except (EOFError, OSError):
                            worker.proc.join(timeout=5.0)
                            verdict, value = (
                                "error",
                                "worker died without reporting "
                                f"(exit code {worker.proc.exitcode})",
                            )
                        settle(worker, verdict, value)
                    elif worker.deadline is not None and now >= worker.deadline:
                        settle(
                            worker,
                            "error",
                            f"timeout after {self.job_timeout_s:g}s",
                        )
        finally:
            for worker in idle:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already gone; the reap below collects it
            for worker in idle:
                self._reap(worker)
            for worker in busy:
                self._kill(worker)

        outcome.payloads = [results.get(digest) for digest in digests]
        return outcome
