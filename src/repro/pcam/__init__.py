"""PCAM -- the proactive VM-management substrate.

Reimplementation of the PCAM framework (Di Sanzo, Pellegrini, Avresky,
"Machine Learning for Achieving Self-* Properties and Seamless Execution of
Applications in the Cloud", NCCA 2015) that ACM builds on:

* :mod:`repro.pcam.vm` -- the VM physics (performance degradation under
  leaked memory and unterminated threads, failure points, the mean-field
  time to failure) and the VM, a view of its state-table row;
* :mod:`repro.pcam.state_table` -- every VM's state and lifecycle
  transitions (anomaly accumulation, failure, rejuvenation), one table
  per pool;
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
from repro.pcam.state_table import VmStateTable
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
    "VirtualMachineController",
    "VmcConfig",
    "VmStateTable",
]
