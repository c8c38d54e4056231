"""AcmManager -- the top-level façade of the reproduction.

Wires together everything a deployment needs: per-region VM pools built
from the instance catalog, anomaly injectors with disjoint random streams,
an RTTF predictor (a trained F2PM model or the oracle), browser
populations, the controller overlay, and the closed control loop.

This is the public entry point used by the examples and the benchmark
harness::

    manager = AcmManager(
        regions=[
            RegionSpec("region1", "m3.medium", n_vms=6, target_active=4,
                       clients=160),
            RegionSpec("region3", "private.small", n_vms=4, target_active=3,
                       clients=96),
        ],
        policy="available-resources",
        seed=7,
    )
    summaries = manager.run(eras=200)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.autoscale import Autoscaler, AutoscaleConfig
from repro.core.control_loop import AcmControlLoop, ControlLoopConfig, EraSummary
from repro.core.cost import CostTracker, cost_model_for
from repro.core.policy import Policy, get_policy
from repro.obs.telemetry import Telemetry
from repro.overlay.network import OverlayNetwork
from repro.pcam.predictor import OracleRttfPredictor, RttfPredictor
from repro.pcam.vm import FailurePolicy, VirtualMachine
from repro.pcam.vmc import VirtualMachineController, VmcConfig
from repro.sim.instances import get_instance_type
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceRecorder
from repro.topology.domains import FailureDomainTree
from repro.workload.anomalies import DEFAULT_LEAK_PROBABILITY, AnomalyInjector
from repro.workload.browsers import BrowserPopulation
from repro.workload.tpcw import MIX_SHOPPING


@dataclass(frozen=True)
class RegionSpec:
    """Declarative description of one cloud region.

    Parameters
    ----------
    name:
        Region identifier ("region1").
    instance_type:
        Catalog name of the VM shape hosted in this region.
    n_vms:
        Total VM pool (ACTIVE + STANDBY).
    target_active:
        ACTIVE pool size the VMC maintains.
    clients:
        Emulated browsers connected to this region's LB (paper: [16, 512]).
    rttf_threshold_s:
        Proactive-rejuvenation threshold of this region's VMC.
    rejuvenation_time_s:
        Restart duration of this region's VMs.
    n_azs, racks_per_az:
        Failure-domain shape of the region: availability-zone count and
        racks per AZ.  The default ``1 x 1`` (flat) topology puts every
        VM of the region on one rack, which is bit-identical to the
        pre-topology behaviour.
    """

    name: str
    instance_type: str
    n_vms: int
    target_active: int
    clients: int
    rttf_threshold_s: float = 240.0
    rejuvenation_time_s: float = 120.0
    n_azs: int = 1
    racks_per_az: int = 1

    def __post_init__(self) -> None:
        if self.n_vms < 1:
            raise ValueError(f"{self.name}: n_vms must be >= 1")
        if not 1 <= self.target_active <= self.n_vms:
            raise ValueError(
                f"{self.name}: target_active must be in [1, n_vms]"
            )
        if self.clients < 1:
            raise ValueError(f"{self.name}: clients must be >= 1")
        if self.n_azs < 1 or self.racks_per_az < 1:
            raise ValueError(
                f"{self.name}: n_azs and racks_per_az must be >= 1"
            )


@dataclass
class AcmManager:
    """Builds and drives a full ACM deployment.

    Parameters
    ----------
    regions:
        Region specs (at least one).
    policy:
        Policy instance or registry name
        (``"sensible-routing"``, ``"available-resources"``,
        ``"exploration"``, ``"uniform"``, ``"static-weights"``).
    seed:
        Root seed; every stochastic component derives a named stream.
    predictor:
        RTTF predictor shared by all VMCs; defaults to the mean-field
        oracle.  Pass a :class:`~repro.pcam.predictor.TrainedRttfPredictor`
        for the full ML-in-the-loop configuration.
    era_s, beta:
        Control-loop period and Eq. (1) weight.
    leak_probability:
        Memory-leak injection probability (paper: 0.10; a drifted
        scenario raises it).  The deployment runs the TPC-W shopping
        mix, the paper's 5 % thread-injection probability and its 1 s
        response-time SLA.
    autoscale:
        Enable Sec. V pool resizing.
    overlay:
        Controller overlay; ``None`` (the default) is the loop's uniform
        20 ms full mesh.  Pass an
        :class:`~repro.overlay.network.OverlayNetwork` for a custom
        topology.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade threaded
        through the loop and every VMC.  Disabled (the default) the whole
        deployment runs bit-identically to an un-instrumented one.
    spread_k:
        Anti-affinity rejuvenation cap threaded into every VMC (see
        ``VmcConfig.spread_k``); 0 (the default) disables it.

    The deployment's failure-domain hierarchy (built from each spec's
    ``n_azs``/``racks_per_az``) is exposed as ``manager.domains``; each
    VM is assigned its rack at creation, round-robin across the region's
    racks.
    """

    regions: list[RegionSpec]
    policy: Policy | str = "available-resources"
    seed: int = 0
    predictor: RttfPredictor | None = None
    era_s: float = 30.0
    beta: float = 0.5
    leak_probability: float = DEFAULT_LEAK_PROBABILITY
    autoscale: bool = False
    autoscale_config: AutoscaleConfig | None = None
    overlay: OverlayNetwork | None = None
    telemetry: Telemetry | None = None
    spread_k: int = 0
    #: Optional SLO configuration: an :class:`~repro.slo.SloConfig`, or a
    #: compact spec string (``"p95:0.5+dwell:120"``, see
    #: :func:`~repro.slo.parse_slo_spec`).  Builds a
    #: :class:`~repro.slo.SloController` driving the loop's degradation
    #: signal; ``None`` (the default) takes no SLO code path at all.
    slo: object | None = None
    #: Inter-region egress price fed into the cost model ($/forwarded
    #: request); region $/req prices come from the instance catalog.
    egress_usd_per_req: float = 0.0
    loop: AcmControlLoop = field(init=False)
    rngs: RngRegistry = field(init=False)
    domains: FailureDomainTree = field(init=False)
    #: Always-on deployment bill (hourly + per-request + egress); pure
    #: accounting with no RNG/trace footprint, exposed as ``manager.cost``.
    cost: "CostTracker" = field(init=False)
    #: The built SLO controller (``None`` without an ``slo`` config).
    slo_controller: object | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("need at least one region spec")
        names = [spec.name for spec in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names in {names}")
        if self.spread_k < 0:
            raise ValueError("spread_k must be >= 0")
        self.rngs = RngRegistry(seed=self.seed)
        self.domains = FailureDomainTree.from_specs(self.regions)
        policy = (
            self.policy
            if isinstance(self.policy, Policy)
            else get_policy(self.policy)
        )
        # the loop orders regions by sorted name; bind in that order
        policy.bind(sorted(self.regions, key=lambda s: s.name))
        predictor = self.predictor or OracleRttfPredictor(
            mean_demand=MIX_SHOPPING.mean_service_demand()
        )

        vmcs: dict[str, VirtualMachineController] = {}
        populations: dict[str, BrowserPopulation] = {}
        for spec in self.regions:
            vmcs[spec.name] = self._build_vmc(spec, predictor)
            populations[spec.name] = BrowserPopulation(
                n_clients=spec.clients, name=f"clients@{spec.name}"
            )

        if self.slo is not None:
            # imported lazily to keep the manager importable before the
            # slo package on partial checkouts; repro.slo itself depends
            # on nothing from repro.core
            from repro.slo import SloConfig, SloController, parse_slo_spec

            slo_config = (
                parse_slo_spec(self.slo)
                if isinstance(self.slo, str)
                else self.slo
            )
            if not isinstance(slo_config, SloConfig):
                raise TypeError(
                    "slo must be an SloConfig or a spec string, got "
                    f"{type(self.slo).__name__}"
                )
            self.slo_controller = SloController(
                sorted(names), slo_config, telemetry=self.telemetry
            )
        self.cost = CostTracker(
            model=cost_model_for(
                self.regions, egress_usd_per_req=self.egress_usd_per_req
            )
        )

        self.loop = AcmControlLoop(
            vmcs=vmcs,
            populations=populations,
            policy=policy,
            rngs=self.rngs,
            overlay=self.overlay,
            config=ControlLoopConfig(era_s=self.era_s, beta=self.beta),
            autoscaler=(
                Autoscaler(self.autoscale_config) if self.autoscale else None
            ),
            telemetry=self.telemetry,
            slo=self.slo_controller,
            cost=self.cost,
        )

    # ------------------------------------------------------------------ #

    def _build_vmc(
        self, spec: RegionSpec, predictor: RttfPredictor
    ) -> VirtualMachineController:
        itype = get_instance_type(spec.instance_type)
        region_rngs = self.rngs.child(spec.name)
        failure_policy = FailurePolicy()
        vms = [
            VirtualMachine(
                name=f"{spec.name}/vm{i}",
                itype=itype,
                injector=AnomalyInjector(
                    region_rngs.stream(f"anomalies/vm{i}"),
                    leak_probability=self.leak_probability,
                ),
                failure_policy=failure_policy,
                rejuvenation_time_s=spec.rejuvenation_time_s,
                rack_id=self.domains.assign(spec.name, i),
            )
            for i in range(spec.n_vms)
        ]
        return VirtualMachineController(
            region_name=spec.name,
            vms=vms,
            predictor=predictor,
            config=VmcConfig(
                rttf_threshold_s=spec.rttf_threshold_s,
                target_active=spec.target_active,
                mean_demand=MIX_SHOPPING.mean_service_demand(),
                spread_k=self.spread_k,
            ),
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------ #

    def run(self, eras: int) -> list[EraSummary]:
        """Run ``eras`` control cycles; returns their summaries."""
        return self.loop.run(eras)

    @property
    def traces(self) -> TraceRecorder:
        """All time series recorded so far (RMTTF, fractions, ...)."""
        return self.loop.traces

    def region_names(self) -> list[str]:
        """Region order used by every vector in the loop."""
        return list(self.loop.regions)
