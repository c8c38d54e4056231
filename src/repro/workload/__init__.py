"""TPC-W-like workload substrate.

The paper's testbed application is the TPC-W e-commerce benchmark (Java
servlets + MySQL) driven by emulated web browsers, modified to inject
software anomalies on a fraction of requests (Sec. VI-A).  Offline we
replace it with this synthetic equivalent:

* :mod:`repro.workload.tpcw` -- the 14 TPC-W web interactions, their
  relative service demands, and the three standard mixes (browsing,
  shopping, ordering);
* :mod:`repro.workload.browsers` -- closed-loop emulated-browser
  populations with exponential think times;
* :mod:`repro.workload.arrivals` -- the open Poisson arrival process for
  rate-driven experiments;
* :mod:`repro.workload.anomalies` -- the per-request anomaly injection
  model: 10 % of requests leak memory, 5 % spawn an unterminated thread.
"""

from repro.workload.anomalies import AnomalyEffect, AnomalyInjector
from repro.workload.arrivals import PoissonArrivals
from repro.workload.browsers import BrowserPopulation, closed_loop_rate
from repro.workload.profiles import DiurnalProfile
from repro.workload.tpcw import (
    MIX_BROWSING,
    MIX_ORDERING,
    MIX_SHOPPING,
    RequestType,
    RequestMix,
    TPCW_INTERACTIONS,
)

__all__ = [
    "AnomalyEffect",
    "AnomalyInjector",
    "PoissonArrivals",
    "BrowserPopulation",
    "closed_loop_rate",
    "DiurnalProfile",
    "RequestType",
    "RequestMix",
    "TPCW_INTERACTIONS",
    "MIX_BROWSING",
    "MIX_SHOPPING",
    "MIX_ORDERING",
]
