"""The paper's testbed scenarios (Sec. VI-A).

"We used three cloud regions: Region 1, hosted in the Ireland Region of
Amazon EC2, Region 2, hosted in the Frankfurt Region of Amazon EC2, and
Region 3, privately hosted in a 32-cores HP ProLiant server ... located in
Munich.  We used 6 m3.medium Amazon EC2 instances in Region 1, 12 m3.small
Amazon EC2 instances in Region 2, and 4 VMs equipped with 2 virtual CPU
cores, 1 GB of RAM, and 4 GB of virtual disk space in Region 3."

Client counts are "in the interval [16, 512], ensuring that the clients
connected to each cloud region ... were significantly different in number";
the concrete values below honour that constraint (the paper does not
publish its exact counts).

Overlay latencies approximate 2015-era inter-site RTTs: Ireland-Frankfurt
about 25 ms, Ireland-Munich about 35 ms, Frankfurt-Munich about 15 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.manager import RegionSpec
from repro.overlay.network import OverlayNetwork
from repro.topology.domains import parse_domain_shape

#: The three policies the paper compares, in paper order.
PAPER_POLICIES: tuple[str, ...] = (
    "sensible-routing",
    "available-resources",
    "exploration",
)


@dataclass(frozen=True)
class Scenario:
    """A named deployment: region specs + overlay latencies + client load."""

    name: str
    regions: tuple[RegionSpec, ...]
    latencies_ms: dict[tuple[str, str], float] = field(default_factory=dict)
    #: Anomaly-rate drift: multiplies the deployment's memory-leak
    #: probability (1.0 = the paper's stationary regime).  A drifted
    #: scenario key (``"three-region+drift6"``) raises it, aging VMs
    #: faster than the static policies and thresholds were tuned for.
    leak_multiplier: float = 1.0
    #: Inter-region egress price ($/forwarded request): cloud providers
    #: bill cross-region transfer, local traffic is free.  The default
    #: approximates $0.02/GB at ~12 KB per response.  Pure accounting
    #: (feeds the run's CostTracker), so it carries no config-digest or
    #: trace footprint.
    egress_usd_per_req: float = 2.5e-7

    def build_overlay(self) -> OverlayNetwork:
        """Instantiate the overlay for this scenario (fresh each run)."""
        net = OverlayNetwork()
        for spec in self.regions:
            net.add_node(spec.name)
        names = [s.name for s in self.regions]
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                lat = self.latencies_ms.get(
                    (a, b), self.latencies_ms.get((b, a), 20.0)
                )
                net.add_link(a, b, lat)
        return net

    def instance_types(self) -> list[str]:
        """Distinct instance types in deployment order."""
        seen: list[str] = []
        for spec in self.regions:
            if spec.instance_type not in seen:
                seen.append(spec.instance_type)
        return seen

    def with_domains(self, descriptor: str) -> "Scenario":
        """Same deployment under a different failure-domain shape.

        ``descriptor`` is ``"flat"`` or ``"NxM"`` (N AZs with M racks
        each, applied to every region) -- the value the fleet sweep's
        ``domains`` axis carries.  ``"flat"`` returns the scenario
        unchanged, so default sweeps build identical deployments.
        """
        n_azs, racks_per_az = parse_domain_shape(descriptor)
        if (n_azs, racks_per_az) == (1, 1):
            return self
        return replace(
            self,
            regions=tuple(
                replace(spec, n_azs=n_azs, racks_per_az=racks_per_az)
                for spec in self.regions
            ),
        )

    def with_drift(self, factor: float) -> "Scenario":
        """Same deployment with the anomaly rate drifted by ``factor``.

        ``factor == 1.0`` returns the scenario unchanged, so default
        sweeps build byte-identical deployments.
        """
        if factor <= 0:
            raise ValueError(f"drift factor must be positive, got {factor}")
        if factor == 1.0:
            return self
        return replace(
            self,
            name=f"{self.name}+drift{factor:g}",
            leak_multiplier=self.leak_multiplier * factor,
        )


#: Region 1 -- Amazon EC2 Ireland, 6 x m3.medium (4 active + 2 standby).
REGION_1 = RegionSpec(
    name="region1-ireland",
    instance_type="m3.medium",
    n_vms=6,
    target_active=4,
    clients=160,
    rttf_threshold_s=240.0,
    rejuvenation_time_s=120.0,
)

#: Region 2 -- Amazon EC2 Frankfurt, 12 x m3.small (10 active + 2 standby).
REGION_2 = RegionSpec(
    name="region2-frankfurt",
    instance_type="m3.small",
    n_vms=12,
    target_active=10,
    clients=320,
    rttf_threshold_s=240.0,
    rejuvenation_time_s=120.0,
)

#: Region 3 -- private HP ProLiant in Munich, 4 VMs (3 active + 1 standby).
REGION_3 = RegionSpec(
    name="region3-munich",
    instance_type="private.small",
    n_vms=4,
    target_active=3,
    clients=64,
    rttf_threshold_s=240.0,
    rejuvenation_time_s=120.0,
)

_LATENCIES = {
    ("region1-ireland", "region2-frankfurt"): 25.0,
    ("region1-ireland", "region3-munich"): 35.0,
    ("region2-frankfurt", "region3-munich"): 15.0,
}


def two_region_scenario() -> Scenario:
    """Figure 3's deployment: Regions 1 (Ireland) and 3 (Munich)."""
    return Scenario(
        name="fig3-two-regions",
        regions=(REGION_1, REGION_3),
        latencies_ms={
            k: v
            for k, v in _LATENCIES.items()
            if "region2-frankfurt" not in k
        },
    )


def three_region_scenario() -> Scenario:
    """Figure 4's deployment: all three regions."""
    return Scenario(
        name="fig4-three-regions",
        regions=(REGION_1, REGION_2, REGION_3),
        latencies_ms=dict(_LATENCIES),
    )


#: The one name -> deployment table: every scenario flag, sweep key,
#: figure and served deployment resolves through it.
SCENARIOS = {
    "two-region": two_region_scenario,
    "three-region": three_region_scenario,
}


def resolve_scenario(name: str) -> Scenario:
    """Build the scenario registered as ``name`` (fresh each call)."""
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {tuple(SCENARIOS)}"
        ) from None
