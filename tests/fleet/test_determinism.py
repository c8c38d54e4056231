"""Acceptance: serial and parallel sweeps are bit-identical.

A sweep with ``--workers 1`` and ``--workers 4`` must produce
bit-identical per-job result payloads and identical aggregate tables
(ISSUE 4 acceptance criterion).  Payloads are compared with ``==`` on
the raw dicts -- every float must match to the last bit.
"""

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


class TestSerialParallelBitIdentity:
    def test_payloads_and_aggregates_identical(self):
        jobs = reference_grid().expand()
        serial = FleetExecutor(workers=1).run(jobs)
        parallel = FleetExecutor(workers=4).run(jobs)
        assert serial.ok and parallel.ok
        # bit-identical per-job payloads, in identical order
        assert serial.payloads == parallel.payloads
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
