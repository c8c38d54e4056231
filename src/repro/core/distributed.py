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
from functools import partial
from typing import Callable

import numpy as np

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
from repro.overlay.reliable import ACK_KIND, DATA_KIND, ReliableChannel, SendHandle
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
#: The control message kinds: Algorithm 1's report, Algorithm 3's push.
REPORT_KIND = "rmttf-report"
FRACTIONS_KIND = "fractions"


class ReliableTransport:
    """Carries the MAPE control traffic over a :class:`ReliableChannel`.

    Slave VMCs send their ``lastRMTTF`` to the leader (Algorithm 1) and
    the leader pushes each slave the planned fractions (Algorithm 3),
    with acks, dedup and bounded retries underneath.  Every host keeps
    the same rules: each live non-leader region reports, NaN included
    (``plan`` drops it); a report counts only at the leader it was
    addressed to in the current cycle; the leader pushes to every other
    region, dark ones included, one payload carrying the whole fraction
    vector in ``regions`` order.

    Each exchange has non-blocking halves (:meth:`send_reports` /
    :meth:`received_reports`, :meth:`send_fractions` /
    :meth:`acked_regions`); what lies between them is the host's.  The
    plane's :meth:`gather_reports` / :meth:`push_fractions` run the
    simulator through :data:`CONTROL_WINDOW_S`, so retries and acks
    resolve inside the era that issued them and what has not arrived
    counts as missing (and feeds the degradation ladder); serve's wall
    clock runs its Plan phase ``window_s`` after the era tick.

    The channel is built on ``bus`` (its clock times the retry ladder)
    with the jitter stream ``rng``; the owner of the bus's per-node
    registration chains ``channel.make_bus_handler(node)`` into it.
    ``overlay`` is the liveness source: a dead controller sends no
    report.
    """

    def __init__(
        self,
        bus: MessageBus,
        rng: np.random.Generator,
        regions: list[str],
        overlay: OverlayNetwork,
        telemetry: Telemetry | None,
    ) -> None:
        self.channel = ReliableChannel(bus, rng, telemetry=telemetry)
        self.sim = bus.sim
        self.regions = list(regions)
        self.overlay = overlay
        self._leader: str | None = None
        self._inbox: dict[str, float] = {}
        self._pushes: dict[str, SendHandle] = {}
        for node in self.regions:
            self.channel.register(node, partial(self._on_message, node))

    def _on_message(self, node: str, msg: Message) -> None:
        if msg.kind == REPORT_KIND:
            self.report_landed(node, msg.payload)
        elif msg.kind == FRACTIONS_KIND:
            self.fractions_landed(node, msg.payload)

    def report_landed(self, node: str, payload: dict) -> None:
        """A report reached ``node``; only the cycle's leader keeps it."""
        if node == self._leader:
            self._inbox[payload["region"]] = payload["rmttf"]

    def fractions_landed(self, node: str, fractions: tuple) -> None:
        """The fraction vector reached ``node``.  The loop owns the
        fraction state and the sender's ack marks the install, so
        nothing happens here; serve installs the region's row."""

    def send_reports(self, leader: str, raw_reports: dict[str, float]) -> None:
        """Open a cycle addressed to ``leader``: every live non-leader
        region of ``raw_reports`` sends; the leader's own is local."""
        self._leader = leader
        self._inbox = {}
        for region in sorted(raw_reports):
            if region != leader and self.overlay.is_alive(region):
                self.channel.send(
                    region,
                    leader,
                    REPORT_KIND,
                    {"region": region, "rmttf": raw_reports[region]},
                )
        self._inbox[leader] = raw_reports[leader]

    def received_reports(self) -> dict[str, float]:
        """Region -> ``lastRMTTF`` of every report at the leader so far."""
        return dict(self._inbox)

    def send_fractions(self, leader: str, fractions: dict[str, float]) -> None:
        """Push the fraction vector from ``leader`` to every other region."""
        vector = tuple(fractions[r] for r in self.regions)
        self._pushes = {
            region: self.channel.send(leader, region, FRACTIONS_KIND, vector)
            for region in self.regions
            if region != leader
        }

    def acked_regions(self) -> set[str]:
        """The regions that acknowledged their push so far: the leader's
        definition of "installed"."""
        return {r for r, h in self._pushes.items() if h.status == "acked"}

    def gather_reports(
        self, leader: str, raw_reports: dict[str, float]
    ) -> dict[str, float]:
        """Algorithm 1's report collection, blocking through the window."""
        self.send_reports(leader, raw_reports)
        self.sim.run_until(self.sim.now + CONTROL_WINDOW_S)
        return self.received_reports()

    def push_fractions(
        self, leader: str, fractions: dict[str, float]
    ) -> set[str]:
        """Algorithm 3's fraction push, blocking through the window."""
        self.send_fractions(leader, fractions)
        self.sim.run_until(self.sim.now + CONTROL_WINDOW_S)
        return self.acked_regions()


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
        self.transport = ReliableTransport(
            self.bus,
            loop.rngs.stream("reliable/jitter"),
            nodes,
            loop.overlay,
            telemetry,
        )
        self.channel = self.transport.channel
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
