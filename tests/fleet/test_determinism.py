"""Acceptance: serial and parallel sweeps are bit-identical.

A sweep with ``--workers 1`` and ``--workers 4`` must produce
bit-identical per-job result payloads and identical aggregate tables.
Payloads are compared as canonical JSON text: ``repr`` of a float
round-trips exactly, so every float must match to the last bit, and a
``nan`` (a chaos cell's ``mttr_s`` when nothing failed) equals itself,
which ``==`` on two separately unpickled payloads would deny.

A worker runs job after job, so a payload must also not depend on which
jobs ran before it in the same process: one job list run forward and
reversed, serially and on three workers, gives the same payload per
digest.
"""

import json

import pytest

from repro.fleet import (
    FleetExecutor,
    ResultStore,
    SweepSpec,
    aggregate,
    markdown_report,
    write_cells_csv,
)


def reference_grid():
    """A small but real grid: 2 policies x 2 replicates of DES runs."""
    return SweepSpec(
        scenarios=("two-region",),
        policies=("uniform", "available-resources"),
        loads=(0.25,),
        replicates=2,
        root_seed=11,
        eras=12,
    )


def canonical(payloads):
    """Each payload as text that is equal iff the payloads are bit-equal."""
    return [json.dumps(p, sort_keys=True) for p in payloads]


def mixed_grid():
    """Policy cells with every optional axis on, plus chaos cells."""
    return SweepSpec(
        scenarios=("two-region",),
        policies=("uniform", "available-resources"),
        loads=(0.25,),
        root_seed=11,
        eras=12,
        domains=("flat", "2x2"),
        slo=("", "p95:0.5"),
        campaigns=("message-loss", "leader-kill", "blackout-heal"),
        campaign_eras=8,
    )


class TestSerialParallelBitIdentity:
    def test_payloads_and_aggregates_identical(self):
        jobs = reference_grid().expand()
        serial = FleetExecutor(workers=1).run(jobs)
        parallel = FleetExecutor(workers=4).run(jobs)
        assert serial.ok and parallel.ok
        # bit-identical per-job payloads, in identical order
        assert canonical(serial.payloads) == canonical(parallel.payloads)
        # identical aggregate tables (same text, byte for byte)
        manifest = reference_grid().manifest()
        table_serial = markdown_report(
            aggregate(jobs, serial.payloads), manifest
        )
        table_parallel = markdown_report(
            aggregate(jobs, parallel.payloads), manifest
        )
        assert table_serial == table_parallel
        # the table leads with its provenance line
        assert table_serial.splitlines()[0] == (
            f"# manifest: {manifest.to_json()}"
        )

    def test_csv_export_identical(self, tmp_path):
        jobs = reference_grid().expand()
        serial = FleetExecutor(workers=1).run(jobs)
        parallel = FleetExecutor(workers=4).run(jobs)
        manifest = reference_grid().manifest()
        p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        write_cells_csv(aggregate(jobs, serial.payloads), str(p1), manifest)
        write_cells_csv(
            aggregate(jobs, parallel.payloads), str(p2), manifest
        )
        assert p1.read_bytes() == p2.read_bytes()

    def test_store_round_trip_preserves_bit_identity(self, tmp_path):
        """A payload read back from the store equals the fresh one, so a
        resumed sweep aggregates identically to an uninterrupted one."""
        jobs = reference_grid().expand()
        store = ResultStore(tmp_path)
        fresh = FleetExecutor(workers=2, store=store).run(jobs)
        resumed = FleetExecutor(workers=2, store=store).run(jobs)
        assert resumed.store_hits == len(jobs)
        assert resumed.payloads == fresh.payloads


class TestOrderIndependence:
    def test_payload_per_digest_ignores_job_order(self):
        jobs = mixed_grid().expand()
        assert {job.kind for job in jobs} == {"policy", "chaos"}
        runs = [
            FleetExecutor(workers=workers).run(order)
            for workers in (1, 3)
            for order in (jobs, jobs[::-1])
        ]
        assert all(run.ok for run in runs)
        by_digest = [
            dict(zip((job.digest for job in run.jobs), canonical(run.payloads)))
            for run in runs
        ]
        assert all(texts == by_digest[0] for texts in by_digest[1:])
        # the case ``==`` gets wrong: a nan survives the comparison
        assert any("NaN" in text for text in by_digest[0].values())
