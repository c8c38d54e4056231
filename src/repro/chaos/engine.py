"""Seeded, clock-driven fault injection for resilience campaigns.

:class:`ChaosEngine` composes campaigns out of fault *primitives* --
link flaps and partitions (overlay), probabilistic message loss and
latency jitter (:class:`~repro.chaos.lossy.LossyBus`), VM crash-storms
and region blackouts (PCAM layer), predictor corruption
(:class:`~repro.chaos.predictor.CorruptiblePredictor`), and correlated
failure-domain faults -- rack power loss, AZ partitions, cooling
failures, spot-eviction storms -- scoped by the deployment's
:class:`~repro.topology.domains.FailureDomainTree`.  Primitives can
fire immediately, at scheduled simulator times (:meth:`at`), on a fixed
cadence (:meth:`link_flap_every`), or at seeded Poisson arrivals
(:meth:`poisson_link_flaps`).

Two invariants make campaigns replayable:

* every random decision (which VMs a storm kills, when a Poisson flap
  arrives) is drawn from the engine's own named RNG stream, in an order
  fixed by the campaign script -- never from wall-clock or global state;
* every applied primitive appends a :class:`FaultEvent` to :attr:`log`
  stamped with the simulator clock, so two same-seed runs can assert
  bit-identical fault schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

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
    still flap links, one with only ``vmcs`` can still run crash-storms.
    Using a primitive whose surface is missing raises ``RuntimeError``.

    Parameters
    ----------
    sim:
        The simulator whose clock drives scheduled faults.
    rng:
        Seeded stream for the engine's own decisions (victim choice,
        Poisson gaps) -- use a dedicated registry stream such as
        ``rngs.stream("chaos")``.
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
        The deployment's :class:`~repro.topology.domains.FailureDomainTree`;
        required by the domain-scoped primitives (``rack_power_loss``,
        ``az_partition``, ``cooling_failure``, ``eviction_storm``, and
        the ``domain=`` selectors).
    health:
        Optional :class:`~repro.topology.health.DomainHealthTracker`.
        When present, correlated primitives mark their domain degraded
        (and heals clear it), which drives the ``fd_*`` telemetry and
        the domain-aware balancer/scheduler.
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

    def vm_crash_storm(
        self, region: str, fraction: float, domain: str | None = None
    ) -> list[str]:
        """Hard-crash a random ``fraction`` of the region's ACTIVE VMs.

        Victims are chosen from the engine's RNG stream over the sorted
        ACTIVE pool, so the storm is identical across same-seed replays.
        ``fraction`` must lie in ``[0, 1]``; a zero fraction is a
        recorded no-op that consumes no randomness.  ``domain``
        optionally restricts the victim pool to one failure domain of
        the region (an AZ or rack path).  Returns the crashed VM names.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        vmc = self._require_vmc(region)
        active = sorted(
            vmc.vms_in(VmState.ACTIVE), key=lambda vm: vm.name
        )
        target = region
        if domain is not None:
            tree = self._require_domains()
            if tree.region_of_domain(domain) != region:
                raise ValueError(
                    f"domain {domain!r} is not in region {region!r}"
                )
            racks = set(tree.racks_in(domain))
            active = [vm for vm in active if vm.rack_id in racks]
            target = domain
        if fraction == 0.0 or not active:
            self._record("vm_crash_storm", target, ())
            return []
        n = max(1, int(round(fraction * len(active))))
        picks = self.rng.choice(len(active), size=n, replace=False)
        victims = [active[i] for i in sorted(int(i) for i in picks)]
        for vm in victims:
            vm.fail()
        names = tuple(vm.name for vm in victims)
        self._record("vm_crash_storm", target, names)
        return list(names)

    def region_blackout(
        self, region: str, domain: str | None = None
    ) -> None:
        """Take a whole region dark: controller down, ACTIVE VMs crashed.

        With ``domain`` the blackout is scoped to one failure domain of
        the region: only its ACTIVE VMs crash, and the region's
        controller stays on the mesh (unless the domain *is* the whole
        region).
        """
        vmc = self._require_vmc(region)
        pool = vmc.vms_in(VmState.ACTIVE)
        target = region
        whole_region = True
        if domain is not None:
            tree = self._require_domains()
            if tree.region_of_domain(domain) != region:
                raise ValueError(
                    f"domain {domain!r} is not in region {region!r}"
                )
            racks = set(tree.racks_in(domain))
            pool = [vm for vm in pool if vm.rack_id in racks]
            target = domain
            whole_region = domain == region
        crashed = []
        for vm in pool:
            vm.fail()
            crashed.append(vm.name)
        if whole_region:
            if self.overlay is not None and region in self.overlay.nodes():
                self.overlay.fail_node(region)
            self._dark.add(region)
        self._mark_fault(target, "region_blackout")
        self._record("region_blackout", target, tuple(crashed))

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

    def rack_power_loss(self, rack: str) -> list[str]:
        """Power-fail one rack: every ACTIVE VM on it crashes at once.

        ``rack`` is a rack-level domain path (``region/azN/rackM``).  The
        rack is marked degraded in the health tracker until
        :meth:`domain_heal` clears it; the VMs themselves recover through
        the VMC's reactive-rejuvenation path.  Returns the crashed names.
        """
        tree = self._require_domains()
        if len(tree.racks_in(rack)) != 1:
            raise ValueError(
                f"rack_power_loss needs a rack-level path, got {rack!r}"
            )
        victims = self._domain_vms(rack, VmState.ACTIVE)
        for vm in victims:
            vm.fail()
        names = tuple(vm.name for vm in victims)
        self._mark_fault(rack, "rack_power_loss")
        self._record("rack_power_loss", rack, names)
        return list(names)

    def az_partition(self, az: str) -> list[tuple[str, str]]:
        """Partition one availability zone off the deployment.

        Every ACTIVE VM in the AZ crashes (unreachable replicas serve
        nothing; they rejoin via reactive rejuvenation).  When the AZ is
        the region's *controller AZ* (``az0`` by convention), the
        region's overlay node is additionally cut from the mesh exactly
        like :meth:`partition` -- heal with :meth:`az_heal`, passing the
        returned cut.
        """
        tree = self._require_domains()
        region = tree.region_of_domain(az)
        victims = self._domain_vms(az, VmState.ACTIVE)
        for vm in victims:
            vm.fail()
        cut: list[tuple[str, str]] = []
        if (
            az == tree.controller_az(region)
            and self.overlay is not None
            and region in self.overlay.nodes()
        ):
            net = self.overlay
            cut = [
                (a, b)
                for a, b in net.links()
                if (a == region) != (b == region)
            ]
            for a, b in cut:
                net.fail_link(a, b)
        self._mark_fault(az, "az_partition")
        self._record(
            "az_partition",
            az,
            (tuple(vm.name for vm in victims), tuple(cut)),
        )
        return cut

    def az_heal(
        self, az: str, cut: Sequence[tuple[str, str]] = ()
    ) -> None:
        """Heal an AZ partition: restore the cut links, clear the mark.

        Idempotent: with no links to restore and no degraded mark to
        clear, nothing happens and nothing is logged.
        """
        tree = self._require_domains()
        tree.racks_in(az)  # validate the path
        healed = False
        if self.overlay is not None and cut:
            for a, b in cut:
                self.overlay.restore_link(a, b)
            healed = True
        if self.health is not None:
            healed = self.health.clear_fault(az) or healed
        if not healed:
            return
        self._record("az_heal", az, tuple(cut))

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

    def eviction_storm(self, domain: str, fraction: float) -> list[str]:
        """Spot-instance eviction wave inside one failure domain.

        A random ``fraction`` of the domain's ACTIVE VMs is reclaimed
        (crashed), chosen from the engine's RNG over the name-sorted
        pool -- same replay contract as :meth:`vm_crash_storm`.  A zero
        fraction or empty pool is a recorded no-op consuming no
        randomness.  Returns the evicted VM names.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        pool = self._domain_vms(domain, VmState.ACTIVE)
        if fraction == 0.0 or not pool:
            self._record("eviction_storm", domain, ())
            return []
        n = max(1, int(round(fraction * len(pool))))
        picks = self.rng.choice(len(pool), size=n, replace=False)
        victims = [pool[i] for i in sorted(int(i) for i in picks)]
        for vm in victims:
            vm.fail()
        names = tuple(vm.name for vm in victims)
        self._record("eviction_storm", domain, names)
        return list(names)

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

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def at(self, time: float, primitive: Callable, *args, **kwargs):
        """Apply a primitive at absolute simulator time ``time``."""
        return self.sim.schedule_at(
            time,
            lambda: primitive(*args, **kwargs),
            label=f"chaos:{getattr(primitive, '__name__', 'fault')}",
        )

    def link_flap_every(
        self,
        a: str,
        b: str,
        period_s: float,
        down_s: float,
        start: float | None = None,
        until_s: float | None = None,
    ) -> Callable[[], None]:
        """Flap a link on a fixed cadence: down for ``down_s`` out of
        every ``period_s``.  Returns the stop function."""
        if down_s <= 0 or down_s >= period_s:
            raise ValueError("need 0 < down_s < period_s")

        def flap() -> None:
            self.fail_link(a, b)
            self.sim.schedule_after(
                down_s,
                lambda: self.restore_link(a, b),
                label="chaos:flap-heal",
            )

        stop = self.sim.schedule_periodic(
            period_s, flap, start=start, label="chaos:flap"
        )
        if until_s is not None:
            self.sim.schedule_at(until_s, stop, label="chaos:flap-stop")
        return stop

    def poisson_link_flaps(
        self,
        pairs: Sequence[tuple[str, str]],
        rate_hz: float,
        down_s: float,
        until_s: float,
    ) -> int:
        """Schedule seeded Poisson-arrival flaps on each link in ``pairs``.

        Each link independently flaps at exponential inter-arrival gaps of
        mean ``1/rate_hz`` until ``until_s``; every flap keeps the link
        down for ``down_s``.  The whole schedule is drawn up-front from
        the engine RNG (fixed pair order, fixed draw order), so it is a
        pure function of the seed.  Returns the number of flaps scheduled.
        """
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if down_s <= 0:
            raise ValueError("down_s must be positive")
        scheduled = 0
        for a, b in pairs:
            t = self.sim.now
            while True:
                t += float(self.rng.exponential(1.0 / rate_hz))
                if t >= until_s:
                    break
                self.at(t, self.fail_link, a, b)
                self.at(t + down_s, self.restore_link, a, b)
                scheduled += 1
        return scheduled
