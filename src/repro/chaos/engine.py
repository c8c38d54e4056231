"""Seeded fault injection for resilience campaigns.

:class:`ChaosEngine` holds the fault *primitives* a campaign composes --
link faults, node crashes and partitions (overlay), message loss and
latency jitter (:class:`~repro.chaos.lossy.LossyBus`), VM crashes scoped
to any failure domain and whole-region blackouts (PCAM layer), cooling
failures, flash crowds, and predictor corruption
(:class:`~repro.chaos.predictor.CorruptiblePredictor`).  One primitive,
:meth:`ChaosEngine.crash_vms`, crashes a region's, an AZ's or a rack's
ACTIVE VMs, all of them or a seeded share: rack power loss, AZ cuts,
crash storms and spot-eviction waves are all that one call.  The engine
schedules nothing itself: a campaign applies primitives at era
boundaries (:mod:`repro.experiments.resilience`), and serve applies
blackouts when an operator asks.

Two invariants make campaigns replayable:

* every random decision (which VMs a storm kills) is drawn from the
  engine's own named RNG stream, in an order fixed by the campaign
  script -- never from wall-clock or global state;
* every applied primitive appends a :class:`FaultEvent` to :attr:`log`
  stamped with the clock, so two same-seed runs can assert
  bit-identical fault schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.chaos.predictor import CorruptiblePredictor

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
    from repro.topology.health import DomainHealthTracker
    from repro.workload.browsers import BrowserPopulation
from repro.overlay.network import OverlayNetwork
from repro.pcam.vm import VirtualMachine, VmState
from repro.pcam.vmc import VirtualMachineController
from repro.topology.domains import FailureDomainTree
from repro.workload.anomalies import AnomalyInjector


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One applied fault primitive (an entry of the campaign's fault log)."""

    time: float
    kind: str
    target: str
    detail: tuple = ()


class ChaosEngine:
    """Fault injector bound to the failure surfaces of one deployment.

    Every surface is optional: an engine built with only ``overlay`` can
    still flap links, one with only ``vmcs`` can still black out regions.
    Using a primitive whose surface is missing raises ``RuntimeError``.

    Parameters
    ----------
    sim:
        The clock that stamps the fault log (anything with ``now``).
    rng:
        Seeded stream for the engine's own decisions (victim choice) --
        use a dedicated registry stream such as ``rngs.stream("chaos")``.
    overlay:
        The controller overlay.  Routers over it reroute by themselves:
        their caches are keyed on the overlay's mutation count.
    vmcs:
        Per-region :class:`VirtualMachineController` map for VM-level
        faults.
    bus:
        A :class:`~repro.chaos.lossy.LossyBus` for message-loss/jitter
        primitives.
    predictors:
        Per-region :class:`CorruptiblePredictor` map for prediction
        faults.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade.  Every
        applied fault is mirrored as a ``chaos.<kind>`` flight event and
        a ``chaos_faults_total{kind=...}`` counter, in addition to the
        authoritative :attr:`log`.
    domains:
        The deployment's :class:`~repro.topology.domains.FailureDomainTree`
        (``AcmManager.domains``; a flat region is a 1x1 tree); required
        by the domain-scoped primitives (``crash_vms``,
        ``cooling_failure``, ``domain_heal``).
    health:
        Optional :class:`~repro.topology.health.DomainHealthTracker`.
        When present, correlated primitives mark their domain degraded
        (and heals clear it), which drives the ``fd_*`` telemetry and
        the campaign's per-domain report.
    populations:
        Per-region :class:`~repro.workload.browsers.BrowserPopulation`
        map for the ``flash_crowd`` workload primitive.
    """

    def __init__(
        self,
        sim,
        rng: np.random.Generator,
        overlay: OverlayNetwork | None = None,
        vmcs: dict[str, VirtualMachineController] | None = None,
        bus=None,
        predictors: dict[str, CorruptiblePredictor] | None = None,
        telemetry: "Telemetry | None" = None,
        domains: FailureDomainTree | None = None,
        health: "DomainHealthTracker | None" = None,
        populations: "dict[str, BrowserPopulation] | None" = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.overlay = overlay
        self.vmcs = vmcs or {}
        self.bus = bus
        self.predictors = predictors or {}
        self.domains = domains
        self.health = health
        self.populations = populations
        self.log: list[FaultEvent] = []
        # regions blacked out while no overlay tracks node liveness --
        # keeps region_heal idempotent in VMC-only engines
        self._dark: set[str] = set()
        # cooling faults in force: domain -> saved injector probabilities
        self._cooling: dict[
            str, list[tuple[AnomalyInjector, float, float]]
        ] = {}
        # flash crowds in force: region -> original client count
        self._crowd_base: dict[str, int] = {}
        self._obs = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    def _record(self, kind: str, target: str, detail: tuple = ()) -> None:
        self.log.append(
            FaultEvent(
                time=self.sim.now, kind=kind, target=target, detail=detail
            )
        )
        if self._obs is not None:
            self._obs.counter("chaos_faults_total", kind=kind).inc()
            self._obs.event(
                f"chaos.{kind}", target=target, detail=list(detail)
            )

    def _require_overlay(self) -> OverlayNetwork:
        if self.overlay is None:
            raise RuntimeError("this primitive needs an overlay network")
        return self.overlay

    def _require_vmc(self, region: str) -> VirtualMachineController:
        vmc = self.vmcs.get(region)
        if vmc is None:
            raise RuntimeError(f"no VMC registered for region {region!r}")
        return vmc

    def _require_domains(self) -> FailureDomainTree:
        if self.domains is None:
            raise RuntimeError(
                "this primitive needs a FailureDomainTree (domains=...)"
            )
        return self.domains

    def _domain_vms(
        self, domain: str, state: VmState | None = None
    ) -> list[VirtualMachine]:
        """The domain's VMs (optionally filtered by state), sorted by name.

        A domain path always lives inside one region, so the pool comes
        from that region's VMC; the sort fixes victim-selection order for
        bit-replayability.
        """
        tree = self._require_domains()
        racks = set(tree.racks_in(domain))
        vmc = self._require_vmc(tree.region_of_domain(domain))
        vms = vmc.vms if state is None else vmc.vms_in(state)
        return sorted(
            (vm for vm in vms if vm.rack_id in racks),
            key=lambda vm: vm.name,
        )

    def _mark_fault(self, domain: str, kind: str) -> None:
        if self.health is None:
            return
        try:
            self.health.record_fault(domain, kind)
        except KeyError:
            # the health tracker's tree may not cover this target (e.g.
            # an engine wired to a partial deployment); the fault log
            # stays authoritative either way
            pass

    def _clear_fault(self, domain: str) -> None:
        if self.health is not None:
            self.health.clear_fault(domain)

    # ------------------------------------------------------------------ #
    # overlay primitives
    # ------------------------------------------------------------------ #

    def fail_link(self, a: str, b: str) -> None:
        """Take an overlay link down."""
        self._require_overlay().fail_link(a, b)
        self._record("fail_link", f"{a}--{b}")

    def restore_link(self, a: str, b: str) -> None:
        """Bring an overlay link back up."""
        self._require_overlay().restore_link(a, b)
        self._record("restore_link", f"{a}--{b}")

    def crash_node(self, name: str) -> None:
        """Crash a controller node (e.g. kill the leader)."""
        self._require_overlay().fail_node(name)
        self._record("crash_node", name)

    def restore_node(self, name: str) -> None:
        """Recover a crashed controller node.

        Idempotent: restoring a node that is already alive is a no-op
        (no fault-log entry), so campaign scripts can heal defensively
        without polluting the replayable log.
        """
        net = self._require_overlay()
        if net.is_alive(name):
            return
        net.restore_node(name)
        self._record("restore_node", name)

    def partition(self, group: Iterable[str]) -> list[tuple[str, str]]:
        """Cut every link crossing between ``group`` and the rest.

        Returns the cut links so :meth:`heal_partition` can undo exactly
        this partition.
        """
        net = self._require_overlay()
        inside = set(group)
        cut = [
            (a, b)
            for a, b in net.links()
            if (a in inside) != (b in inside)
        ]
        for a, b in cut:
            net.fail_link(a, b)
        self._record("partition", ",".join(sorted(inside)), tuple(cut))
        return cut

    def heal_partition(self, cut: Sequence[tuple[str, str]]) -> None:
        """Restore the links returned by :meth:`partition`."""
        net = self._require_overlay()
        for a, b in cut:
            net.restore_link(a, b)
        self._record("heal_partition", "*", tuple(cut))

    # ------------------------------------------------------------------ #
    # PCAM-layer primitives
    # ------------------------------------------------------------------ #

    def crash_vms(self, domain: str, fraction: float = 1.0) -> list[str]:
        """Hard-crash the ACTIVE VMs of one failure domain.

        ``domain`` is any path of the deployment's tree: a region, an AZ
        (``region/azN``) or a rack (``region/azN/rackM``).  At
        ``fraction`` 1.0 every ACTIVE VM in it crashes -- a rack's power
        loss, an AZ cut off -- and no randomness is drawn.  A smaller
        fraction crashes a seeded share -- a crash or spot-eviction
        storm -- chosen from the engine's RNG over the name-sorted pool,
        so same-seed replays pick the same victims; a zero fraction or an
        empty pool crashes nobody and draws nothing.  The domain is marked
        degraded until :meth:`domain_heal`; the VMs come back through the
        VMC's reactive-rejuvenation path.  Returns the crashed names.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        victims = self._domain_vms(domain, VmState.ACTIVE)
        if fraction == 0.0:
            victims = []
        elif fraction < 1.0 and victims:
            n = max(1, int(round(fraction * len(victims))))
            picks = self.rng.choice(len(victims), size=n, replace=False)
            victims = [victims[i] for i in sorted(int(i) for i in picks)]
        for vm in victims:
            vm.fail()
        names = tuple(vm.name for vm in victims)
        self._mark_fault(domain, "crash_vms")
        self._record("crash_vms", domain, names)
        return list(names)

    def region_blackout(self, region: str) -> None:
        """Take a whole region dark: controller down, ACTIVE VMs crashed."""
        vmc = self._require_vmc(region)
        crashed = []
        for vm in vmc.vms_in(VmState.ACTIVE):
            vm.fail()
            crashed.append(vm.name)
        if self.overlay is not None and region in self.overlay.nodes():
            self.overlay.fail_node(region)
        self._dark.add(region)
        self._mark_fault(region, "region_blackout")
        self._record("region_blackout", region, tuple(crashed))

    def region_heal(self, region: str) -> None:
        """Bring a blacked-out region back (controller up; its crashed
        VMs recover through the VMC's normal reactive-rejuvenation path).

        Idempotent: healing a region that is not dark is a no-op with no
        fault-log entry.
        """
        self._require_vmc(region)
        node_dead = (
            self.overlay is not None
            and region in self.overlay.nodes()
            and not self.overlay.is_alive(region)
        )
        if not node_dead and region not in self._dark:
            return
        if node_dead:
            self.overlay.restore_node(region)
        self._dark.discard(region)
        self._clear_fault(region)
        self._record("region_heal", region)

    # ------------------------------------------------------------------ #
    # correlated failure-domain primitives
    # ------------------------------------------------------------------ #

    def domain_heal(self, domain: str) -> None:
        """Clear a domain's degraded mark (rack power restored, etc.).

        Idempotent: a no-op (not logged) when the domain is not marked.
        """
        self._require_domains().racks_in(domain)  # validate the path
        if self.health is None or not self.health.clear_fault(domain):
            return
        self._record("domain_heal", domain)

    def cooling_failure(self, domain: str, factor: float = 4.0) -> int:
        """Correlated hazard-rate multiplier across one failure domain.

        Models a cooling/thermal event: every VM in the domain (any
        state -- the hardware is hot, not the software) has its anomaly
        probabilities multiplied by ``factor`` (clamped to 1.0) until
        :meth:`cooling_restore`.  Consumes no randomness itself; the
        raised hazard flows through each VM's own injector stream, so
        replays stay bit-identical.  Returns the number of VMs affected.
        Idempotent while in force: a second call on the same domain is a
        no-op.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        if domain in self._cooling:
            return 0
        vms = self._domain_vms(domain)
        saved: list[tuple[AnomalyInjector, float, float]] = []
        for vm in vms:
            inj = vm.injector
            saved.append(
                (inj, inj.leak_probability, inj.thread_probability)
            )
            inj.leak_probability = min(1.0, inj.leak_probability * factor)
            inj.thread_probability = min(
                1.0, inj.thread_probability * factor
            )
        self._cooling[domain] = saved
        self._mark_fault(domain, "cooling_failure")
        self._record("cooling_failure", domain, (float(factor), len(vms)))
        return len(vms)

    def cooling_restore(self, domain: str) -> None:
        """End a cooling failure: restore the saved injector probabilities.

        Idempotent: a no-op (not logged) when no cooling fault is in
        force on the domain.
        """
        saved = self._cooling.pop(domain, None)
        if saved is None:
            return
        for inj, leak, thread in saved:
            inj.leak_probability = leak
            inj.thread_probability = thread
        self._clear_fault(domain)
        self._record("cooling_restore", domain)

    # ------------------------------------------------------------------ #
    # workload primitives
    # ------------------------------------------------------------------ #

    def flash_crowd(self, region: str, factor: float) -> int:
        """Multiply a region's browser population by ``factor``.

        The original client count is remembered, so repeated calls scale
        from the *base*, not compound, and :meth:`flash_crowd_end`
        restores it exactly.  Returns the new client count.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        if self.populations is None or region not in self.populations:
            raise RuntimeError(
                f"no browser population registered for region {region!r}"
            )
        pop = self.populations[region]
        base = self._crowd_base.setdefault(region, pop.n_clients)
        pop.n_clients = max(1, int(round(base * factor)))
        self._record("flash_crowd", region, (float(factor), pop.n_clients))
        return pop.n_clients

    def flash_crowd_end(self, region: str) -> None:
        """Restore a region's original client count.

        Idempotent: a no-op (not logged) when no flash crowd is active.
        """
        base = self._crowd_base.pop(region, None)
        if base is None:
            return
        assert self.populations is not None
        self.populations[region].n_clients = base
        self._record("flash_crowd_end", region, (base,))

    # ------------------------------------------------------------------ #
    # transport primitives
    # ------------------------------------------------------------------ #

    def set_message_loss(self, probability: float) -> None:
        """Set the bus-wide probability of silent message loss."""
        if not 0.0 <= probability < 1.0:
            raise ValueError(
                f"probability must be in [0, 1), got {probability}"
            )
        if self.bus is None or not hasattr(self.bus, "loss_probability"):
            raise RuntimeError("message-loss primitive needs a LossyBus")
        self.bus.loss_probability = float(probability)
        self._record("message_loss", "*", (float(probability),))

    def set_latency_jitter(self, jitter_ms: float) -> None:
        """Set the bus-wide uniform extra-latency bound (milliseconds)."""
        if jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {jitter_ms}")
        if self.bus is None or not hasattr(self.bus, "jitter_ms"):
            raise RuntimeError("latency-jitter primitive needs a LossyBus")
        self.bus.jitter_ms = float(jitter_ms)
        self._record("latency_jitter", "*", (float(jitter_ms),))

    # ------------------------------------------------------------------ #
    # predictor primitives
    # ------------------------------------------------------------------ #

    def corrupt_predictor(self, mode: str, region: str | None = None) -> None:
        """Switch predictor corruption (``nan``/``stale``/``zero``/``off``).

        Applies to one region, or to every registered predictor when
        ``region`` is None.
        """
        if not self.predictors:
            raise RuntimeError(
                "predictor primitive needs CorruptiblePredictor instances"
            )
        targets = (
            sorted(self.predictors) if region is None else [region]
        )
        for name in targets:
            pred = self.predictors.get(name)
            if pred is None:
                raise RuntimeError(
                    f"no corruptible predictor for region {name!r}"
                )
            pred.set_mode(mode)
        self._record("corrupt_predictor", ",".join(targets), (mode,))
