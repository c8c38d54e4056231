"""The distributed control plane: detectors + gossip + the MAPE loop.

The basic :class:`~repro.core.control_loop.AcmControlLoop` reads liveness
and elects its leader from the overlay *oracle* (the live topology graph),
which is the right abstraction level for the policy study.  This module
composes the real distributed machinery underneath it, as Figure 1 draws:

* every controller runs a :class:`~repro.overlay.heartbeat.HeartbeatDetector`
  and derives its *local* leader from its own detector view;
* every controller publishes its region's era state (RMTTF, fraction,
  pool size) into a :class:`~repro.overlay.state_sync.StateStore`,
  disseminated by anti-entropy gossip -- so whichever controller takes
  over as leader holds warm state;
* the loop's RMTTF reports (Algorithm 1) and fraction pushes
  (Algorithm 3) travel as acked, retried messages on a
  :class:`~repro.overlay.reliable.ReliableChannel`;
* the message traffic (heartbeats, gossip, control) shares one bus per
  overlay, with a per-node handler multiplexer.

:class:`DistributedControlPlane` advances the simulator between control
eras so the background protocols run *in the same simulated time* as the
loop, and reports when the decentralised leader view disagrees with the
oracle (it may, transiently, right after failures -- that window is
exactly the detector timeout, and the tests measure it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.control_loop import AcmControlLoop, EraSummary
from repro.obs.telemetry import Telemetry
# the plane's timings, re-exported for the campaigns that bound by them
from repro.overlay.heartbeat import (  # noqa: F401
    DETECTOR_TIMEOUT_S,
    HEARTBEAT_PERIOD_S,
    HeartbeatDetector,
    build_detector_mesh,
)
from repro.overlay.messaging import Message, MessageBus
from repro.overlay.network import OverlayNetwork
from repro.overlay.reliable import ACK_KIND, DATA_KIND, ReliableChannel
from repro.overlay.routing import Router
from repro.overlay.state_sync import (  # noqa: F401
    GOSSIP_PERIOD_S,
    GossipSync,
    StateStore,
)
from repro.sim.engine import Simulator

#: Simulated seconds granted to each gather/push control exchange: long
#: enough for the channel's retry ladder to resolve (a test holds it to
#: the constants of :mod:`repro.overlay.reliable`).
CONTROL_WINDOW_S = 3.0


class ReliableTransport:
    """Carries the MAPE control traffic over a :class:`ReliableChannel`.

    The plane sets it as the loop's ``transport``, replacing the loop's
    oracle exchange with real messages on the plane's bus: slave VMCs
    send their ``lastRMTTF`` to the leader (Algorithm 1) and the leader
    pushes each slave its new fraction (Algorithm 3), with acks, dedup,
    and bounded retries underneath.  Each exchange opens a window of
    :data:`CONTROL_WINDOW_S` simulated seconds during which the plane's
    simulator runs, so retries and acks resolve *inside* the era that
    issued them; what has not arrived when the window closes counts as
    missing for that era (and feeds the loop's degradation ladder).

    Parameters
    ----------
    channel:
        The reliable channel shared by all controller nodes.
    regions:
        All region names (transport registers an application handler for
        each).
    overlay:
        Liveness source: a dead controller neither sends reports nor
        installs fractions.
    """

    def __init__(
        self,
        channel: ReliableChannel,
        regions: list[str],
        overlay: OverlayNetwork,
    ) -> None:
        self.channel = channel
        self.sim = channel.sim
        self.regions = list(regions)
        self.overlay = overlay
        self._report_inbox: dict[str, float] = {}
        for node in self.regions:
            self.channel.register(node, self._make_app_handler(node))

    def _make_app_handler(self, node: str) -> Callable[[Message], None]:
        def handle(msg: Message) -> None:
            if msg.kind == "rmttf-report":
                self._report_inbox[msg.payload["region"]] = msg.payload[
                    "rmttf"
                ]
            # "fractions" pushes need no receive-side action here: the
            # loop owns the global fraction state, and the ack (observed
            # by the sender) is what marks a region as installed.

        return handle

    # -- the AcmControlLoop transport interface ------------------------- #

    def gather_reports(
        self, leader: str, raw_reports: dict[str, float]
    ) -> dict[str, float]:
        """Algorithm 1's report collection, over real messages.

        Returns region -> lastRMTTF for every report that *arrived at the
        leader* within the exchange window (the leader's own report is
        local and always present).
        """
        self._report_inbox = {}
        for region in sorted(raw_reports):
            if region == leader or not self.overlay.is_alive(region):
                continue
            self.channel.send(
                region,
                leader,
                "rmttf-report",
                {"region": region, "rmttf": raw_reports[region]},
            )
        self.sim.run_until(self.sim.now + CONTROL_WINDOW_S)
        received = dict(self._report_inbox)
        received[leader] = raw_reports[leader]
        return received

    def push_fractions(
        self, leader: str, fractions: dict[str, float]
    ) -> set[str]:
        """Algorithm 3's fraction distribution, over real messages.

        Returns the regions whose push was *acknowledged* within the
        window -- the leader's definition of "installed".
        """
        handles = {}
        for region in sorted(fractions):
            if region == leader:
                continue
            handles[region] = self.channel.send(
                leader,
                region,
                "fractions",
                {"region": region, "fraction": fractions[region]},
            )
        self.sim.run_until(self.sim.now + CONTROL_WINDOW_S)
        return {
            region
            for region, handle in handles.items()
            if handle.status == "acked"
        }


@dataclass(frozen=True, slots=True)
class PlaneEraReport:
    """One era's view of the distributed control plane."""

    summary: EraSummary
    oracle_leader: str
    detector_leaders: dict[str, str]
    views_agree: bool
    #: worst-case staleness (in eras) of any live node's view of any live
    #: region; with continuous updates the vectors are never *identical*,
    #: so freshness-within-a-bound is the meaningful convergence notion.
    max_staleness_eras: int

    @property
    def gossip_fresh(self) -> bool:
        """Every live node's view lags every live region by <= 3 eras."""
        return self.max_staleness_eras <= 3


class DistributedControlPlane:
    """Runs the overlay's distributed services alongside the control loop.

    The loop's VMC->leader RMTTF reports and leader->VMC fraction pushes
    move onto a :class:`ReliableChannel` over this plane's bus: the plane
    installs a :class:`ReliableTransport` as the loop's ``transport``.

    Parameters
    ----------
    loop:
        The configured control loop (its overlay and router are reused).
    bus_factory:
        Optional ``(sim, router) -> MessageBus`` constructor; lets chaos
        campaigns put a :class:`repro.chaos.lossy.LossyBus` under *all*
        plane traffic (heartbeats, gossip, and control messages).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade.  The
        plane's simulator becomes the telemetry clock (it is the finest
        time source of a combined run), the plane's bus and reliable
        channel mirror their counters into the registry, and leader-view
        disagreements leave flight events.
    """

    def __init__(
        self,
        loop: AcmControlLoop,
        bus_factory: Callable[[Simulator, Router], MessageBus] | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.loop = loop
        self._obs = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self.sim = Simulator(telemetry=telemetry)
        self.bus = (
            bus_factory(self.sim, loop.router)
            if bus_factory is not None
            else MessageBus(sim=self.sim, router=loop.router, telemetry=telemetry)
        )
        nodes = list(loop.regions)
        self.detectors: dict[str, HeartbeatDetector] = build_detector_mesh(
            nodes, self.sim, self.bus
        )
        self.stores = {n: StateStore(n) for n in nodes}
        self.gossip = GossipSync(self.stores, self.sim, self.bus)
        self.channel = ReliableChannel(
            self.bus, loop.rngs.stream("reliable/jitter"), telemetry=telemetry
        )
        self.transport = ReliableTransport(self.channel, nodes, loop.overlay)
        loop.transport = self.transport
        # one bus registration per node, demultiplexing by message kind
        for node in nodes:
            self.bus.register(node, self._make_mux(node))
        for det in self.detectors.values():
            det.start()
        self.gossip.start()
        self.reports: list[PlaneEraReport] = []

    def _make_mux(self, node: str):
        gossip_handler = self.gossip.make_handler(node)
        detector = self.detectors[node]
        channel_handler = self.channel.make_bus_handler(node)

        def mux(msg: Message) -> None:
            if msg.kind == "heartbeat":
                detector.on_message(msg)
            elif msg.kind == "state-gossip":
                gossip_handler(msg)
            elif msg.kind in (DATA_KIND, ACK_KIND):
                channel_handler(msg)

        return mux

    # ------------------------------------------------------------------ #

    def run_era(self) -> PlaneEraReport:
        """One control era with the background protocols running.

        Order within the era: background traffic first (heartbeats and
        gossip for the era's duration), then the loop's MAPE cycle, then
        each region publishes its fresh state for the next gossip rounds.
        """
        era_s = self.loop.config.era_s
        self.sim.run_until(self.sim.now + era_s)
        summary = self.loop.run_era()
        for region in self.loop.regions:
            if self.loop.overlay.is_alive(region):
                self.stores[region].update_local(
                    {
                        "rmttf": summary.rmttf[region],
                        "fraction": summary.fractions[region],
                        "active_vms": summary.active_vms[region],
                        "era": summary.era,
                    }
                )
        detector_leaders = {
            n: det.local_leader()
            for n, det in self.detectors.items()
            if self.loop.overlay.is_alive(n)
        }
        views = set(detector_leaders.values())
        live = [r for r in self.loop.regions if self.loop.overlay.is_alive(r)]
        staleness = 0
        for node in live:
            for region in live:
                entry = self.stores[node].get(region)
                if entry is None:
                    staleness = max(staleness, summary.era + 1)
                else:
                    staleness = max(
                        staleness, summary.era - entry.payload["era"]
                    )
        report = PlaneEraReport(
            summary=summary,
            oracle_leader=summary.leader,
            detector_leaders=detector_leaders,
            views_agree=(
                len(views) == 1 and views == {summary.leader}
            ),
            max_staleness_eras=int(staleness),
        )
        if self._obs is not None:
            self._obs.gauge("plane_max_staleness_eras").set(staleness)
            if not report.views_agree:
                self._obs.counter("plane_view_disagreements_total").inc()
                self._obs.event(
                    "election.view_disagreement",
                    era=summary.era,
                    oracle=summary.leader,
                    views=sorted(views),
                )
        self.reports.append(report)
        return report

    def run(self, n_eras: int) -> list[PlaneEraReport]:
        """Run several eras; returns the per-era plane reports."""
        if n_eras < 1:
            raise ValueError("n_eras must be >= 1")
        return [self.run_era() for _ in range(n_eras)]

    # ------------------------------------------------------------------ #

    def state_view(self, node: str) -> dict[str, dict]:
        """What ``node`` currently believes about every region."""
        return {
            region: entry.payload
            for region, entry in self.stores[node].snapshot().items()
        }

    def agreement_fraction(self) -> float:
        """Share of eras where detector views matched the oracle leader."""
        if not self.reports:
            return float("nan")
        return sum(r.views_agree for r in self.reports) / len(self.reports)
