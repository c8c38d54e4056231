"""Tests for the chaos engine: primitives and replayability."""

import math

import pytest

from repro.chaos import ChaosEngine, CorruptiblePredictor, FaultEvent, LossyBus
from repro.experiments.resilience import run_campaign
from repro.overlay import OverlayNetwork, Router
from repro.pcam import (
    OracleRttfPredictor,
    VirtualMachineController,
    VmcConfig,
    VmState,
)
from repro.sim import Simulator
from repro.sim.rng import RngRegistry
from repro.topology import DomainHealthTracker, FailureDomainTree
from repro.workload.browsers import BrowserPopulation
from repro.workload.tpcw import MIX_SHOPPING

from ..pcam.conftest import build_vm, set_load
from ..pcam.reference_vmc import predict_one


def mesh():
    return OverlayNetwork.full_mesh(
        {("r1", "r2"): 10.0, ("r2", "r3"): 10.0, ("r1", "r3"): 30.0}
    )


def make_vmc(rngs, region="r1", n_vms=6, target=4, tree=None):
    vms = [
        build_vm(
            rngs,
            name=f"{region}/vm{i}",
            rack_id=tree.assign(region, i) if tree is not None else 0,
        )
        for i in range(n_vms)
    ]
    return VirtualMachineController(
        region, vms, OracleRttfPredictor(), VmcConfig(target_active=target)
    )


def make_engine(seed=5, **surfaces):
    sim = Simulator()
    rng = RngRegistry(seed=seed).stream("chaos")
    return sim, ChaosEngine(sim, rng, **surfaces)


def make_flat_engine(vmc, seed=5, **surfaces):
    """An engine over the one flat region r1 (a 1x1 tree: rack 0)."""
    return make_engine(
        seed=seed,
        vmcs={"r1": vmc},
        domains=FailureDomainTree.flat(["r1"]),
        **surfaces,
    )


class TestOverlayPrimitives:
    def test_link_fault_reroutes_and_logs(self):
        net = mesh()
        router = Router(net)
        sim, engine = make_engine(overlay=net)
        assert router.latency("r1", "r3") == 20.0  # via r2
        engine.fail_link("r1", "r2")
        assert router.latency("r1", "r3") == 30.0  # direct, rerouted
        engine.restore_link("r1", "r2")
        assert router.latency("r1", "r3") == 20.0
        assert [e.kind for e in engine.log] == ["fail_link", "restore_link"]
        assert engine.log[0].target == "r1--r2"

    def test_partition_and_heal(self):
        net = mesh()
        sim, engine = make_engine(overlay=net)
        cut = engine.partition({"r3"})
        assert sorted(cut) == [("r1", "r3"), ("r2", "r3")]
        assert net.is_partitioned()
        engine.heal_partition(cut)
        assert not net.is_partitioned()

    def test_crash_and_restore_node(self):
        net = mesh()
        sim, engine = make_engine(overlay=net)
        engine.crash_node("r1")
        assert not net.is_alive("r1")
        engine.restore_node("r1")
        assert net.is_alive("r1")

    def test_missing_surface_raises(self):
        sim, engine = make_engine()
        with pytest.raises(RuntimeError, match="overlay"):
            engine.fail_link("r1", "r2")
        with pytest.raises(RuntimeError, match="VMC"):
            engine.region_blackout("r1")
        with pytest.raises(RuntimeError, match="LossyBus"):
            engine.set_message_loss(0.3)
        with pytest.raises(RuntimeError, match="predictor"):
            engine.corrupt_predictor("nan")


class TestPcamPrimitives:
    def test_crash_storm_kills_fraction_of_active(self):
        rngs = RngRegistry(seed=9)
        vmc = make_vmc(rngs)
        sim, engine = make_flat_engine(vmc)
        victims = engine.crash_vms("r1", 0.5)
        assert len(victims) == 2  # half of 4 ACTIVE
        assert len(vmc.vms_in(VmState.FAILED)) == 2
        assert engine.log[0].detail == tuple(victims)

    def test_crash_storm_is_seed_deterministic(self):
        """Same seed, same victims; another seed, other victims."""

        def storm(seed):
            vmc = make_vmc(RngRegistry(seed=1), n_vms=24, target=20)
            sim, engine = make_flat_engine(vmc, seed=seed)
            return engine.crash_vms("r1", 0.5)

        assert len(storm(5)) == 10
        assert storm(5) == storm(5)
        assert storm(6) != storm(5)

    def test_blackout_and_heal(self):
        net = mesh()
        rngs = RngRegistry(seed=9)
        vmc = make_vmc(rngs)
        sim, engine = make_engine(
            overlay=net, vmcs={"r1": vmc}
        )
        engine.region_blackout("r1")
        assert not net.is_alive("r1")
        assert vmc.vms_in(VmState.ACTIVE) == []
        assert len(vmc.vms_in(VmState.FAILED)) == 4
        engine.region_heal("r1")
        assert net.is_alive("r1")
        # crashed VMs recover through the VMC's reactive path
        vmc.process_era(0, dt=60.0, now=0.0)
        assert vmc.vms_in(VmState.FAILED) == []

    def test_fraction_validation(self):
        rngs = RngRegistry(seed=9)
        sim, engine = make_flat_engine(make_vmc(rngs))
        with pytest.raises(ValueError):
            engine.crash_vms("r1", -0.1)
        with pytest.raises(ValueError):
            engine.crash_vms("r1", 1.5)
        with pytest.raises(ValueError):
            engine.crash_vms("r1", float("nan"))

    def test_zero_fraction_is_recorded_noop(self):
        """fraction=0 kills nobody, logs an empty storm, burns no RNG."""
        rngs = RngRegistry(seed=9)
        vmc = make_vmc(rngs)
        sim, engine = make_flat_engine(vmc)
        state_before = engine.rng.bit_generator.state
        assert engine.crash_vms("r1", 0.0) == []
        assert vmc.vms_in(VmState.FAILED) == []
        assert engine.log[-1].kind == "crash_vms"
        assert engine.log[-1].detail == ()
        assert engine.rng.bit_generator.state == state_before

    def test_crash_storm_victims_are_pinned(self):
        """Regression pin: deterministic victim selection for a fixed seed.

        If this breaks, the RNG consumption order of a partial crash_vms
        changed and every recorded campaign fault log is invalidated.
        """
        vmc = make_vmc(RngRegistry(seed=9))
        sim, engine = make_flat_engine(vmc, seed=5)
        assert engine.crash_vms("r1", 0.5) == ["r1/vm1", "r1/vm3"]

    def test_full_crash_draws_no_randomness(self):
        vmc = make_vmc(RngRegistry(seed=9))
        sim, engine = make_flat_engine(vmc)
        state_before = engine.rng.bit_generator.state
        assert engine.crash_vms("r1") == [f"r1/vm{i}" for i in range(4)]
        assert vmc.vms_in(VmState.ACTIVE) == []
        assert engine.rng.bit_generator.state == state_before


class TestHealIdempotency:
    def test_region_heal_of_healthy_region_is_noop(self):
        net = mesh()
        rngs = RngRegistry(seed=9)
        vmc = make_vmc(rngs)
        sim, engine = make_engine(
            overlay=net, vmcs={"r1": vmc}
        )
        engine.region_heal("r1")  # never blacked out
        assert engine.log == []
        engine.region_blackout("r1")
        engine.region_heal("r1")
        engine.region_heal("r1")  # second heal: no duplicate entry
        assert [e.kind for e in engine.log] == [
            "region_blackout",
            "region_heal",
        ]

    def test_region_heal_idempotent_without_overlay(self):
        rngs = RngRegistry(seed=9)
        sim, engine = make_engine(vmcs={"r1": make_vmc(rngs)})
        engine.region_heal("r1")
        assert engine.log == []
        engine.region_blackout("r1")
        engine.region_heal("r1")
        engine.region_heal("r1")
        assert [e.kind for e in engine.log] == [
            "region_blackout",
            "region_heal",
        ]

    def test_restore_node_of_alive_node_is_noop(self):
        net = mesh()
        sim, engine = make_engine(overlay=net)
        engine.restore_node("r2")  # alive: no-op, no log entry
        assert engine.log == []
        engine.crash_node("r2")
        engine.restore_node("r2")
        engine.restore_node("r2")
        assert [e.kind for e in engine.log] == ["crash_node", "restore_node"]

    def test_restore_node_still_rejects_unknown_nodes(self):
        net = mesh()
        sim, engine = make_engine(overlay=net)
        with pytest.raises(KeyError):
            engine.restore_node("nope")


def hierarchy():
    """A 2-AZ x 2-rack tree for r1 (6 VMs -> racks 0..3 round-robin)."""
    return FailureDomainTree({"r1": (2, 2)})


def make_domain_engine(seed=5, n_vms=6, target=4, health=True, **extra):
    tree = hierarchy()
    vmc = make_vmc(RngRegistry(seed=9), n_vms=n_vms, target=target, tree=tree)
    tracker = DomainHealthTracker(tree) if health else None
    sim, engine = make_engine(
        seed=seed, vmcs={"r1": vmc}, domains=tree, health=tracker, **extra
    )
    return sim, engine, vmc, tree, tracker


class TestDomainPrimitives:
    def test_rack_power_loss_kills_exactly_the_rack(self):
        sim, engine, vmc, tree, health = make_domain_engine()
        # 4 ACTIVE VMs (vm0..vm3) on racks 0..3: rack 1 holds only vm1
        victims = engine.crash_vms("r1/az0/rack1")
        assert victims == ["r1/vm1"]
        assert [vm.name for vm in vmc.vms_in(VmState.FAILED)] == ["r1/vm1"]
        assert engine.log[-1] == FaultEvent(
            0.0, "crash_vms", "r1/az0/rack1", ("r1/vm1",)
        )
        assert health.is_degraded("r1/az0/rack1")
        assert not health.is_degraded("r1/az0/rack0")
        engine.domain_heal("r1/az0/rack1")
        assert not health.is_degraded("r1/az0/rack1")
        engine.domain_heal("r1/az0/rack1")  # idempotent
        assert [e.kind for e in engine.log] == [
            "crash_vms",
            "domain_heal",
        ]

    def test_az_partition_cuts_controller_az_off_the_mesh(self):
        """Partitioning the AZ that hosts the controller is two
        primitives: crash the AZ's VMs and cut the region off the mesh;
        each heals on its own."""
        net = mesh()
        tree = hierarchy()
        vmc = make_vmc(RngRegistry(seed=9), tree=tree)
        health = DomainHealthTracker(tree)
        sim, engine = make_engine(
            overlay=net,
            vmcs={"r1": vmc},
            domains=tree,
            health=health,
        )
        # az0 racks are 0 and 1 -> vm0 and vm1 crash; controller is cut
        assert engine.crash_vms("r1/az0") == ["r1/vm0", "r1/vm1"]
        cut = engine.partition(["r1"])
        assert sorted(cut) == [("r1", "r2"), ("r1", "r3")]
        assert net.is_partitioned()
        assert health.is_degraded("r1/az0")
        engine.heal_partition(cut)
        engine.domain_heal("r1/az0")
        assert not net.is_partitioned()
        assert not health.is_degraded("r1/az0")
        assert [e.kind for e in engine.log] == [
            "crash_vms",
            "partition",
            "heal_partition",
            "domain_heal",
        ]

    def test_az_partition_of_secondary_az_keeps_controller_up(self):
        net = mesh()
        tree = hierarchy()
        vmc = make_vmc(RngRegistry(seed=9), tree=tree)
        sim, engine = make_engine(
            overlay=net, vmcs={"r1": vmc}, domains=tree
        )
        # az1 racks are 2 and 3 -> vm2 and vm3
        assert engine.crash_vms("r1/az1") == ["r1/vm2", "r1/vm3"]
        assert not net.is_partitioned()
        assert {vm.name for vm in vmc.vms_in(VmState.FAILED)} == {
            "r1/vm2",
            "r1/vm3",
        }

    def test_crash_vms_never_touches_the_overlay(self):
        """Crashing VMs, even the whole controller AZ's, leaves the
        region's controller on the mesh: cutting it is ``partition``."""
        net = mesh()
        tree = hierarchy()
        vmc = make_vmc(RngRegistry(seed=9), tree=tree)
        sim, engine = make_engine(
            overlay=net, vmcs={"r1": vmc}, domains=tree
        )
        assert engine.crash_vms("r1/az0/rack0") == ["r1/vm0"]
        assert engine.crash_vms("r1/az0") == ["r1/vm1"]
        assert net.is_alive("r1")
        assert not net.is_partitioned()
        assert engine.log[0].target == "r1/az0/rack0"

    def test_cooling_failure_scales_hazard_and_restores(self):
        sim, engine, vmc, tree, health = make_domain_engine()
        inj = vmc.vms[0].injector  # vm0 is on rack 0, in r1/az0
        base_leak, base_thread = (
            inj.leak_probability,
            inj.thread_probability,
        )
        n = engine.cooling_failure("r1/az0", factor=4.0)
        # az0 racks are 0 and 1 -> vm0, vm1, vm4, vm5 (i % 4 placement)
        assert n == 4
        assert inj.leak_probability == pytest.approx(base_leak * 4.0)
        assert inj.thread_probability == pytest.approx(base_thread * 4.0)
        # untouched domain keeps its probabilities
        assert vmc.vms[2].injector.leak_probability == base_leak
        assert health.is_degraded("r1/az0")
        assert engine.cooling_failure("r1/az0") == 0  # already in force
        engine.cooling_restore("r1/az0")
        assert inj.leak_probability == base_leak
        assert inj.thread_probability == base_thread
        assert not health.is_degraded("r1/az0")
        engine.cooling_restore("r1/az0")  # idempotent
        assert [e.kind for e in engine.log] == [
            "cooling_failure",
            "cooling_restore",
        ]

    def test_cooling_failure_probability_clamped(self):
        sim, engine, vmc, *_ = make_domain_engine()
        engine.cooling_failure("r1", factor=1e6)
        assert vmc.vms[0].injector.leak_probability == 1.0
        engine.cooling_restore("r1")
        assert vmc.vms[0].injector.leak_probability < 1.0

    def test_eviction_storm_is_domain_scoped_and_replayable(self):
        def run(seed):
            sim, engine, vmc, tree, _ = make_domain_engine(seed=seed)
            victims = engine.crash_vms("r1/az0", 0.5)
            return victims, engine.log

        victims, log = run(5)
        # az0 holds exactly the ACTIVE VMs vm0 (rack0) and vm1 (rack1)
        assert len(victims) == 1 and victims[0] in ("r1/vm0", "r1/vm1")
        assert run(5) == (victims, log)

    def test_eviction_storm_zero_fraction_is_noop(self):
        sim, engine, vmc, *_ = make_domain_engine()
        state_before = engine.rng.bit_generator.state
        assert engine.crash_vms("r1/az1", 0.0) == []
        assert vmc.vms_in(VmState.FAILED) == []
        assert engine.rng.bit_generator.state == state_before
        with pytest.raises(ValueError):
            engine.crash_vms("r1/az1", 1.2)

    def test_crash_storm_domain_selector(self):
        sim, engine, vmc, tree, _ = make_domain_engine()
        victims = engine.crash_vms("r1/az1", 1.0)
        assert victims == ["r1/vm2", "r1/vm3"]
        assert engine.log[-1].target == "r1/az1"
        with pytest.raises(KeyError):
            engine.crash_vms("r2/az0", 0.5)

    def test_domain_primitives_need_a_tree(self):
        rngs = RngRegistry(seed=9)
        sim, engine = make_engine(vmcs={"r1": make_vmc(rngs)})
        with pytest.raises(RuntimeError, match="FailureDomainTree"):
            engine.crash_vms("r1/az0/rack0")
        with pytest.raises(RuntimeError, match="FailureDomainTree"):
            engine.cooling_failure("r1")


class TestWorkloadPrimitives:
    def test_flash_crowd_scales_and_restores_from_base(self):
        pop = BrowserPopulation(n_clients=100, mix=MIX_SHOPPING)
        sim, engine = make_engine(populations={"r1": pop})
        assert engine.flash_crowd("r1", 2.0) == 200
        assert pop.n_clients == 200
        # scales from the remembered base, not compounding
        assert engine.flash_crowd("r1", 3.0) == 300
        engine.flash_crowd_end("r1")
        assert pop.n_clients == 100
        engine.flash_crowd_end("r1")  # idempotent
        assert [e.kind for e in engine.log] == [
            "flash_crowd",
            "flash_crowd",
            "flash_crowd_end",
        ]

    def test_flash_crowd_needs_population(self):
        sim, engine = make_engine()
        with pytest.raises(RuntimeError, match="population"):
            engine.flash_crowd("r1", 2.0)


class TestTransportAndPredictorPrimitives:
    def test_message_loss_knob(self):
        net = mesh()
        sim = Simulator()
        bus = LossyBus(
            sim=sim,
            router=Router(net),
            rng=RngRegistry(seed=2).stream("chaos/network"),
        )
        engine = ChaosEngine(sim, RngRegistry(seed=2).stream("chaos"), bus=bus)
        engine.set_message_loss(0.3)
        assert bus.loss_probability == 0.3
        engine.set_latency_jitter(50.0)
        assert bus.jitter_ms == 50.0
        with pytest.raises(ValueError):
            engine.set_message_loss(1.0)

    def test_predictor_corruption_modes(self):
        rngs = RngRegistry(seed=9)
        vmc = make_vmc(rngs)
        corruptible = CorruptiblePredictor(vmc.predictor)
        vmc.predictor = corruptible
        vm = vmc.vms_in(VmState.ACTIVE)[0]
        set_load(vm, last_request_rate=2.0)

        healthy = predict_one(corruptible, vm)
        assert math.isfinite(healthy) and healthy > 0

        sim, engine = make_engine(predictors={"r1": corruptible})
        engine.corrupt_predictor("nan")
        assert math.isnan(predict_one(corruptible, vm))
        engine.corrupt_predictor("zero")
        assert predict_one(corruptible, vm) == 0.0
        engine.corrupt_predictor("stale")
        # state changed, prediction must not
        set_load(vm, leaked_mb=vm.leaked_mb + 500.0)
        assert predict_one(corruptible, vm) == healthy
        engine.corrupt_predictor("off")
        assert predict_one(corruptible, vm) != healthy
        with pytest.raises(ValueError):
            engine.corrupt_predictor("bogus")


class TestFaultLogReplay:
    def test_campaign_fault_log_is_bit_identical(self):
        """Same seed, same campaign script => byte-for-byte same log."""
        log_a, log_b = (
            run_campaign("crash-storm", seed=33).fault_log for _ in range(2)
        )
        assert log_a == log_b
        assert all(isinstance(e, FaultEvent) for e in log_a)
        # the log is ordered by the clock, and the seeded storms hit
        assert [e.time for e in log_a] == sorted(e.time for e in log_a)
        assert any(e.kind == "crash_vms" and e.detail for e in log_a)
