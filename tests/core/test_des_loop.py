"""Tests for the request-level multi-region control loop."""

import numpy as np
import pytest

from repro.core import get_policy
from repro.core.des_loop import DesControlLoop
from repro.pcam import OracleRttfPredictor, VirtualMachine, VmState
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector, BrowserPopulation


def build_loop(policy="available-resources", seed=5, clients=(80, 48),
               **kwargs):
    rngs = RngRegistry(seed=seed)

    def pool(name, itype, n):
        return [
            VirtualMachine(
                f"{name}/vm{i}",
                itype,
                AnomalyInjector(rngs.child(f"{name}{i}").stream("a")),
            )
            for i in range(n)
        ]

    regions = {
        "r1": (pool("r1", M3_MEDIUM, 6),
               BrowserPopulation(n_clients=clients[0]), 4),
        "r3": (pool("r3", PRIVATE_SMALL, 4),
               BrowserPopulation(n_clients=clients[1]), 3),
    }
    return DesControlLoop(
        regions,
        get_policy(policy) if isinstance(policy, str) else policy,
        OracleRttfPredictor(),
        rngs,
        **kwargs,
    )


class TestMechanics:
    def test_era_produces_traces(self):
        loop = build_loop()
        loop.run(5)
        assert len(loop.traces.series("rmttf/r1")) == 5
        assert len(loop.traces.series("fraction/r3")) == 5
        f1 = loop.traces.series("fraction/r1").values
        f3 = loop.traces.series("fraction/r3").values
        assert np.allclose(f1 + f3, 1.0)

    def test_requests_actually_served(self):
        loop = build_loop()
        loop.run(10)
        total = sum(
            vm.total_requests
            for state in loop._states.values()
            for vm in state.vms
        )
        assert total > 100

    def test_active_pools_maintained(self):
        loop = build_loop()
        loop.run(30)
        assert len(loop._states["r1"].active_slots) == 4
        assert len(loop._states["r3"].active_slots) == 3

    def test_rejuvenations_happen(self):
        loop = build_loop(clients=(120, 72))
        loop.run(60)
        assert loop.total_rejuvenations > 0

    def test_deterministic(self):
        a = build_loop(seed=9)
        b = build_loop(seed=9)
        ra = a.run(15)
        rb = b.run(15)
        assert ra == rb

    def test_validation(self):
        with pytest.raises(ValueError):
            build_loop(era_s=0.0)
        loop = build_loop()
        with pytest.raises(ValueError):
            loop.run(0)


class TestPolicyDynamicsAtRequestLevel:
    """The fluid loop's headline results hold per-request too."""

    @pytest.fixture(scope="class")
    def spreads(self):
        out = {}
        for policy in ("sensible-routing", "available-resources"):
            loop = build_loop(policy, seed=5, clients=(120, 72))
            loop.run(100)
            tails = [
                s.tail_fraction(0.3).mean()
                for s in loop.traces.matching("rmttf/").values()
            ]
            out[policy] = (max(tails) - min(tails)) / np.mean(tails)
        return out

    def test_policy1_diverges(self, spreads):
        assert spreads["sensible-routing"] > 0.25

    def test_policy2_converges(self, spreads):
        assert spreads["available-resources"] < 0.08

    def test_ordering(self, spreads):
        assert (
            spreads["sensible-routing"]
            > 4 * spreads["available-resources"]
        )


class TestOverlayForwarding:
    def test_remote_forwarding_pays_overlay_rtt(self):
        """With an overlay attached, remotely-served requests carry the
        round-trip latency, so a policy that forwards heavily shows a
        higher measured response time than local processing alone."""
        from repro.overlay import OverlayNetwork

        def run(with_overlay):
            overlay = None
            if with_overlay:
                overlay = OverlayNetwork()
                overlay.add_node("r1")
                overlay.add_node("r3")
                overlay.add_link("r1", "r3", 150.0)  # deliberately slow
            loop = build_loop(
                "available-resources",
                seed=21,
                clients=(120, 72),
                overlay=overlay,
            )
            loop.run(60)
            return float(
                np.mean(
                    [
                        s.tail_fraction(0.5).mean()
                        for s in loop.traces.matching(
                            "response_time/"
                        ).values()
                    ]
                )
            )

        rt_without = run(False)
        rt_with = run(True)
        # Policy 2 forwards a sizeable share from r3's clients to r1 (the
        # capacity imbalance), so the 300 ms RTT must be visible
        assert rt_with > rt_without + 0.01

    def test_partitioned_overlay_falls_back_to_penalty(self):
        from repro.overlay import OverlayNetwork

        overlay = OverlayNetwork()
        overlay.add_node("r1")
        overlay.add_node("r3")
        overlay.add_link("r1", "r3", 20.0)
        loop = build_loop("uniform", seed=22, overlay=overlay)
        loop.run(5)
        overlay.fail_link("r1", "r3")
        # the loop keeps running; forwarded requests absorb the timeout
        # penalty instead of crashing
        loop.run(5)
        assert loop.era_index == 10
