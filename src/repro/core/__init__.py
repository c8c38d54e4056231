"""ACM -- the Autonomic Cloud Manager core (the paper's contribution).

The pieces map one-to-one onto the paper's sections:

* :mod:`repro.core.rmttf` -- the leader's EWMA aggregation of region MTTF
  reports, Eq. (1);
* :mod:`repro.core.policy` -- the ``POLICY()`` interface of Algorithm 2 and
  the policy registry;
* :mod:`repro.core.sensible` -- Policy 1, sensible routing, Eq. (2);
* :mod:`repro.core.resources` -- Policy 2, available-resources estimation,
  Eqs. (3)-(4);
* :mod:`repro.core.exploration` -- Policy 3, hill-climbing exploration,
  Eqs. (5)-(9);
* :mod:`repro.core.baselines` -- non-paper reference policies (uniform,
  capacity-weighted static);
* :mod:`repro.core.costaware` -- Policy 2 weighted by 1 / relative
  price (non-paper);
* :mod:`repro.core.forward_plan` -- the global forward plan (Sec. V);
* :mod:`repro.core.autoscale` -- reactive VM-pool resizing on measured
  response time and RMTTF (Sec. V);
* :mod:`repro.core.planner` -- capacity planning: the smallest pool of a
  shape that meets an RMTTF target;
* :mod:`repro.core.control_loop` -- the Monitor/Analyze/Plan/Execute loop,
  Algorithms 1-3 and Fig. 2;
* :mod:`repro.core.manager` -- :class:`AcmManager`, the top-level façade
  that wires regions, overlay, election, policies and the loop together;
* :mod:`repro.core.metrics` -- convergence/stability metrics used to
  assess the policies as the paper does qualitatively.
"""

from repro.core.autoscale import Autoscaler, AutoscaleConfig
from repro.core.cost import CostTracker
from repro.core.baselines import StaticWeightsPolicy, UniformPolicy
from repro.core.control_loop import AcmControlLoop, ControlLoopConfig
from repro.core.costaware import CostAwarePolicy
from repro.core.degradation import DegradationTracker
from repro.core.des_loop import DesControlLoop
from repro.core.distributed import (
    DistributedControlPlane,
    PlaneEraReport,
    ReliableTransport,
)
from repro.core.exploration import ExplorationPolicy
from repro.core.forward_plan import ForwardPlan, PlanTable, build_forward_plan
from repro.core.manager import AcmManager, RegionSpec
from repro.core.metrics import PolicyAssessment, assess_policy_run
from repro.core.planner import PoolPlan, recommend_pool
from repro.core.policy import Policy, get_policy, normalize_fractions, POLICY_REGISTRY
from repro.core.resources import AvailableResourcesPolicy
from repro.core.rmttf import RmttfAggregator
from repro.core.sensible import SensibleRoutingPolicy

__all__ = [
    "RmttfAggregator",
    "Policy",
    "POLICY_REGISTRY",
    "get_policy",
    "normalize_fractions",
    "SensibleRoutingPolicy",
    "AvailableResourcesPolicy",
    "ExplorationPolicy",
    "UniformPolicy",
    "StaticWeightsPolicy",
    "CostAwarePolicy",
    "ForwardPlan",
    "PlanTable",
    "build_forward_plan",
    "Autoscaler",
    "AutoscaleConfig",
    "CostTracker",
    "PoolPlan",
    "recommend_pool",
    "AcmControlLoop",
    "ControlLoopConfig",
    "DistributedControlPlane",
    "PlaneEraReport",
    "ReliableTransport",
    "DegradationTracker",
    "DesControlLoop",
    "AcmManager",
    "RegionSpec",
    "PolicyAssessment",
    "assess_policy_run",
]
