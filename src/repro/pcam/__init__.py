"""PCAM -- the proactive VM-management substrate.

Reimplementation of the PCAM framework (Di Sanzo, Pellegrini, Avresky,
"Machine Learning for Achieving Self-* Properties and Seamless Execution of
Applications in the Cloud", NCCA 2015) that ACM builds on:

* :mod:`repro.pcam.vm` -- the VM resource/lifecycle model: anomaly
  accumulation (memory leaks, unterminated threads), performance
  degradation, failure points, rejuvenation;
* :mod:`repro.pcam.monitor` -- F2PM's offline profiling harness;
* :mod:`repro.pcam.predictor` -- binding of a trained F2PM model to VMs
  for online RTTF prediction;
* :mod:`repro.pcam.balancer` -- the intra-region load balancer hosted by
  the VMC;
* :mod:`repro.pcam.vmc` -- the Virtual Machine Controller: keeps spare
  VMs in STANDBY, watches predicted RTTF of ACTIVE VMs, and swaps in a
  standby (ACTIVATE + REJUVENATE) before the failure point is reached.
"""

from repro.pcam.balancer import LocalBalancer
from repro.pcam.monitor import ProfilingHarness
from repro.pcam.predictor import (
    OracleRttfPredictor,
    RttfPredictor,
    TrainedRttfPredictor,
    TrendAwareRttfPredictor,
)
from repro.pcam.rejuvenation import (
    NoRejuvenation,
    PeriodicRejuvenation,
    RejuvenationDiscipline,
    RttfThresholdRejuvenation,
)
from repro.pcam.state_table import TableBackedVM, VmStateTable
from repro.pcam.vm import FailurePolicy, VirtualMachine, VmState
from repro.pcam.vmc import VirtualMachineController, VmcConfig

__all__ = [
    "VirtualMachine",
    "VmState",
    "FailurePolicy",
    "ProfilingHarness",
    "RttfPredictor",
    "TrainedRttfPredictor",
    "OracleRttfPredictor",
    "TrendAwareRttfPredictor",
    "RejuvenationDiscipline",
    "RttfThresholdRejuvenation",
    "PeriodicRejuvenation",
    "NoRejuvenation",
    "LocalBalancer",
    "TableBackedVM",
    "VirtualMachineController",
    "VmcConfig",
    "VmStateTable",
]
