"""Property-based tests for the global forward plan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlanTable, build_forward_plan


@st.composite
def fraction_pairs(draw):
    """Random (arrival, target) simplex pairs over 2..6 regions."""
    n = draw(st.integers(2, 6))
    raw_a = draw(
        st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n).filter(
            lambda xs: sum(xs) > 0.1
        )
    )
    raw_f = draw(
        st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n).filter(
            lambda xs: sum(xs) > 0.1
        )
    )
    a = np.asarray(raw_a) / sum(raw_a)
    f = np.asarray(raw_f) / sum(raw_f)
    regions = [f"r{i}" for i in range(n)]
    return regions, a, f


@settings(max_examples=120, deadline=None)
@given(pair=fraction_pairs())
def test_plan_always_realises_targets(pair):
    """sum_i a_i P[i,j] = f_j for every valid input (the Sec. V contract)."""
    regions, a, f = pair
    plan = build_forward_plan(regions, a, f)
    assert np.allclose(plan.processed_fractions(), f, atol=1e-9)


@settings(max_examples=120, deadline=None)
@given(pair=fraction_pairs())
def test_plan_rows_stochastic_and_nonnegative(pair):
    regions, a, f = pair
    plan = build_forward_plan(regions, a, f)
    assert np.all(plan.matrix >= -1e-12)
    assert np.allclose(plan.matrix.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=120, deadline=None)
@given(pair=fraction_pairs())
def test_plan_maximises_local_traffic(pair):
    """Local share equals the theoretical maximum sum_i min(a_i, f_i)."""
    regions, a, f = pair
    plan = build_forward_plan(regions, a, f)
    assert plan.local_fraction() == pytest.approx(
        float(np.minimum(a, f).sum()), abs=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(pair=fraction_pairs(), total=st.integers(0, 5000), seed=st.integers(0, 999))
def test_route_counts_conserve_requests(pair, total, seed):
    """Integer routing never creates or destroys requests."""
    regions, a, f = pair
    plan = build_forward_plan(regions, a, f)
    rng = np.random.default_rng(seed)
    arrivals = rng.multinomial(total, a)
    routed = plan.route_counts(arrivals, rng=rng)
    assert routed.sum() == total
    assert np.array_equal(routed.sum(axis=1), arrivals)


@settings(max_examples=60, deadline=None)
@given(pair=fraction_pairs())
def test_identity_plan_when_targets_equal_arrivals(pair):
    regions, a, _ = pair
    plan = build_forward_plan(regions, a, a)
    assert plan.forwarded_fraction() == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------- #
# PlanTable: the installed plan's per-request draw
# ---------------------------------------------------------------------- #

#: exact zeros (dead columns) or ordinary magnitudes; subnormal weights
#: would only probe ``Generator.choice``'s own ``sum(p) == 1`` tolerance
_weights = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))


@st.composite
def weight_matrices(draw):
    """Square non-negative matrices (2..6 regions), rows not normalised."""
    n = draw(st.integers(2, 6))
    rows = draw(
        st.lists(
            st.lists(_weights, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(rows, dtype=float)


@settings(max_examples=120, deadline=None)
@given(matrix=weight_matrices(), seed=st.integers(0, 2**32 - 1))
def test_route_is_generator_choice_bit_for_bit(matrix, seed):
    """One uniform through the table == ``Generator.choice`` from an
    equal generator state: the identity the DES golden traces rely on."""
    n = len(matrix)
    table = PlanTable(matrix)
    ours = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    for _ in range(8):
        for i in range(n):
            row = matrix[i]
            if not row.sum() > 0.0:
                continue  # degenerate rows: see the test below
            assert table.route(i, ours.random()) == ref.choice(
                n, p=row / row.sum()
            )
    assert ours.random() == ref.random()  # equal stream consumption


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    bad=st.sampled_from([0.0, np.nan, np.inf]),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_row_without_usable_mass_serves_locally(n, bad, u):
    matrix = np.eye(n)
    table = PlanTable(matrix)
    for i in range(n):
        row = np.zeros(n)
        row[(i + 1) % n] = bad
        table.install_row(i, row)
        assert table.route(i, u) == i


@settings(max_examples=120, deadline=None)
@given(
    matrix=weight_matrices(),
    u=st.floats(0.0, 1.0, exclude_max=True),
    data=st.data(),
)
def test_route_live_never_picks_a_dead_region(matrix, u, data):
    n = len(matrix)
    alive = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    )
    table = PlanTable(matrix)
    for i in range(n):
        j = table.route_live(i, u, alive)
        if not alive.any():
            assert j is None
        else:
            assert j is not None and alive[j]
            if matrix[i, alive].sum() > 0.0:
                assert matrix[i, j] > 0.0  # follows the row's live mass


def test_route_live_uniform_when_row_mass_is_dead():
    table = PlanTable(np.array([[0.0, 0.0, 0.0, 1.0]] * 4))
    alive = np.array([True, True, True, False])
    draws = np.random.default_rng(3).random(6000)
    picks = np.bincount(
        [table.route_live(0, u, alive) for u in draws], minlength=4
    )
    assert picks[3] == 0
    assert np.all(np.abs(picks[:3] / draws.size - 1 / 3) < 0.03)
    # the thirds are exact, not just close
    assert [table.route_live(0, u, alive) for u in (0.0, 0.34, 0.67)] == [
        0,
        1,
        2,
    ]


@settings(max_examples=60, deadline=None)
@given(pair=fraction_pairs(), seed=st.integers(0, 999))
def test_mutating_source_matrix_after_install_changes_no_draw(pair, seed):
    regions, a, f = pair
    plan = build_forward_plan(regions, a, f)
    table = PlanTable(plan.matrix)
    draws = np.random.default_rng(seed).random(32)
    n = len(regions)
    before = [table.route(i, u) for i in range(n) for u in draws]
    plan.matrix[:, :] = 0.0  # the plan the table was built from
    table.matrix[:, :] = 0.0  # and the table's own snapshot
    assert [table.route(i, u) for i in range(n) for u in draws] == before
