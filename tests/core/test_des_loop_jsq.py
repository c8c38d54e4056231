"""Join-shortest-queue in ``DesControlLoop._issue`` at every pool size.

JSQ is one Python scan over the list-backed ``in_flight`` counts; until
the tuple-heap PR, pools above 16 active slots took a NumPy fancy-index
branch instead.  The contract either way is the per-request reference
semantics: the chosen slot is ``Generator.choice`` over the least-loaded
active slots, consuming the region's stream exactly as that call does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_policy
from repro.core.des_loop import DesControlLoop
from repro.pcam import OracleRttfPredictor, VirtualMachine
from repro.sim import M3_MEDIUM, RngRegistry
from repro.workload import AnomalyInjector, BrowserPopulation


@st.composite
def pools(draw):
    """(pool size 1..80, active target, in-flight count per slot)."""
    n = draw(st.integers(1, 80))
    target = draw(st.integers(1, n))
    # small counts: ties at the minimum are the common case, as in a run
    in_flight = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return n, target, in_flight


@settings(max_examples=150, deadline=None)
@given(pool=pools(), seed=st.integers(0, 2**16))
def test_issue_picks_like_generator_choice(pool, seed):
    n, target, in_flight = pool
    rngs = RngRegistry(seed=seed)
    vms = [
        VirtualMachine(
            f"r1/vm{i}",
            M3_MEDIUM,
            AnomalyInjector(rngs.child(f"r1{i}").stream("a")),
        )
        for i in range(n)
    ]
    loop = DesControlLoop(
        {"r1": (vms, BrowserPopulation(n_clients=1), target)},
        get_policy("available-resources"),
        OracleRttfPredictor(),
        rngs,
    )
    state = loop._states["r1"]
    active = state.active_slots
    assert len(active) == target
    state.in_flight[:] = in_flight

    rng = loop._rng_by_idx[0]
    ref = np.random.default_rng()
    ref.bit_generator.state = rng.bit_generator.state
    ref.random()  # the routing draw
    loads = np.asarray(in_flight)[active]
    expected = active[ref.choice(np.flatnonzero(loads == loads.min()))]
    ref.exponential()  # the service draw (scale does not move the stream)

    loop._issue(0)

    after = state.in_flight
    assert after[expected] == in_flight[expected] + 1
    assert sum(after) == sum(in_flight) + 1
    assert rng.bit_generator.state == ref.bit_generator.state
    assert loop.sim.pending_count == 1
