"""Chaos engineering for the multi-cloud control plane.

This package injects the failures the paper's architecture claims to
tolerate -- so the repository can *test* that claim instead of asserting
it.  Everything is seeded and driven off the simulator clock: a campaign
is a pure function of ``(topology, workload, seed)`` and replays
bit-identically.

* :mod:`repro.chaos.engine` -- :class:`ChaosEngine`: the fault
  primitives (``crash_vms`` crashes the VMs of any failure domain) with a
  replayable fault log;
* :mod:`repro.chaos.lossy` -- :class:`LossyBus`: probabilistic message
  loss and latency jitter on the controller bus;
* :mod:`repro.chaos.predictor` -- :class:`CorruptiblePredictor`:
  NaN/stale/zero RTTF-prediction faults.

The canned resilience campaigns built from these primitives live in
:mod:`repro.experiments.resilience`; they apply them at era boundaries,
and each public primitive runs in at least one of them.
"""

from repro.chaos.engine import ChaosEngine, FaultEvent
from repro.chaos.lossy import LossyBus
from repro.chaos.predictor import MODES, CorruptiblePredictor

__all__ = [
    "ChaosEngine",
    "FaultEvent",
    "LossyBus",
    "CorruptiblePredictor",
    "MODES",
]
