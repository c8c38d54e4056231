"""``repro.fleet`` -- parallel, resumable campaign orchestration.

The paper's evaluation is a grid of (scenario x policy x load x seed)
runs; this package is the job-runner substrate that executes such grids
at scale instead of one-by-one in-process:

* :mod:`repro.fleet.spec` -- declarative :class:`SweepSpec` grids with
  per-job seeds derived from a single root seed;
* :mod:`repro.fleet.axes` -- the one table of the grid's optional axes;
* :mod:`repro.fleet.jobs` -- content-addressed :class:`JobSpec` units
  and their worker-side physics;
* :mod:`repro.fleet.executor` -- the :class:`FleetExecutor` and its
  kept worker processes: bounded parallelism, per-job timeouts,
  bounded retries for crashed/hung workers, deterministic ordering
  (serial and parallel runs are bit-identical);
* :mod:`repro.fleet.store` -- the crash-safe on-disk
  :class:`ResultStore` keyed by each job's config digest, giving
  resume-after-kill and recompute-only-what-changed;
* :mod:`repro.fleet.aggregate` -- per-cell mean/stddev/95% CI over
  seed replicates plus markdown / CSV sweep reports.

Exposed on the command line as ``repro sweep``.
"""

from repro.fleet.aggregate import (
    CellStats,
    MetricStats,
    aggregate,
    frontier_report,
    markdown_report,
    write_cells_csv,
)
from repro.fleet.executor import FleetExecutor, FleetOutcome
from repro.fleet.jobs import JobSpec, build_scenario, execute_job
from repro.fleet.spec import DEFAULT_ROOT_SEED, SweepSpec, listing
from repro.fleet.store import ResultStore

__all__ = [
    "SweepSpec",
    "JobSpec",
    "FleetExecutor",
    "FleetOutcome",
    "ResultStore",
    "CellStats",
    "MetricStats",
    "aggregate",
    "frontier_report",
    "markdown_report",
    "write_cells_csv",
    "build_scenario",
    "execute_job",
    "listing",
    "DEFAULT_ROOT_SEED",
]
