"""ACM-as-a-service: the control plane on a wall clock, behind HTTP.

Everything below reuses the simulated deployment's components (VMCs,
policy, degradation ladder, overlay, reliable channel) unchanged -- the
only substitutions are the time source and the load source:

* :mod:`repro.serve.clock` -- :class:`WallClock`, the simulator's event
  heap dispatched against real time under asyncio (speed-scalable);
* :mod:`repro.serve.service` -- :class:`AcmService`, the wall-clock
  MAPE runtime plus the ingress admission/forwarding data path;
* :mod:`repro.serve.ingress` -- the hand-rolled asyncio HTTP/1.1 server
  (``/``, ``/healthz``, ``/metrics``, ``/plan``, ``/regions``, chaos
  admin);
* :mod:`repro.serve.loadgen` -- the open-loop load generator behind
  ``repro loadtest``.

The per-region SLO gate (``ServeConfig.slo``) lives in :mod:`repro.slo`;
:class:`SloConfig` is re-exported here for convenience.

See DESIGN.md ("Clock abstraction & wall-clock mode") for why the
simulated and served control planes share one code path.
"""

from repro.serve.clock import AsyncClock, WallClock
from repro.serve.ingress import HttpIngress, serving
from repro.serve.loadgen import (
    LoadConfig,
    LoadReport,
    SCHEDULES,
    build_schedule,
    run_load,
)
from repro.serve.service import AcmService, ServeConfig
from repro.slo import SloConfig

__all__ = [
    "AcmService",
    "AsyncClock",
    "HttpIngress",
    "LoadConfig",
    "LoadReport",
    "SCHEDULES",
    "ServeConfig",
    "SloConfig",
    "WallClock",
    "build_schedule",
    "run_load",
    "serving",
]
