"""Tests for the global forward plan (Sec. V)."""

import numpy as np
import pytest

from repro.core import ForwardPlan, build_forward_plan


REGIONS = ["r1", "r2", "r3"]


def plan(a, f):
    return build_forward_plan(REGIONS, np.asarray(a), np.asarray(f))


class TestBuildForwardPlan:
    def test_realises_target_fractions(self):
        p = plan([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])
        assert np.allclose(p.processed_fractions(), [0.2, 0.3, 0.5])

    def test_identity_when_targets_match_arrivals(self):
        p = plan([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
        assert np.allclose(p.matrix, np.eye(3))
        assert p.forwarded_fraction() == pytest.approx(0.0)

    def test_maximises_local_processing(self):
        # r1 has surplus 0.3; r3 has deficit 0.3; r2 balanced.
        p = plan([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])
        # every region keeps min(a, f) locally
        assert p.local_fraction() == pytest.approx(0.2 + 0.3 + 0.2)
        # r2 keeps everything local
        assert p.matrix[1, 1] == pytest.approx(1.0)

    def test_forwarded_fraction_complement(self):
        p = plan([0.6, 0.2, 0.2], [0.2, 0.4, 0.4])
        assert p.local_fraction() + p.forwarded_fraction() == pytest.approx(1.0)
        assert p.forwarded_fraction() == pytest.approx(0.4)

    def test_surplus_split_proportional_to_deficits(self):
        p = plan([0.8, 0.1, 0.1], [0.2, 0.4, 0.4])
        # r1 ships 0.6, split evenly between equal deficits
        assert p.matrix[0, 1] == pytest.approx(p.matrix[0, 2])
        assert np.allclose(p.processed_fractions(), [0.2, 0.4, 0.4])

    def test_region_with_no_arrivals(self):
        p = plan([0.7, 0.3, 0.0], [0.4, 0.3, 0.3])
        assert np.allclose(p.processed_fractions(), [0.4, 0.3, 0.3])
        # its row is never exercised but must stay stochastic
        assert p.matrix[2].sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            plan([0.5, 0.5, 0.5], [0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="non-negative"):
            plan([-0.1, 0.6, 0.5], [0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="vectors"):
            build_forward_plan(REGIONS, np.array([1.0]), np.array([1.0]))

    @pytest.mark.parametrize(
        "total", [1 + 1.0e-5, 1 - 1.0e-5, 1 + 1.2e-5, 1 - 1.2e-5, float("nan")]
    )
    def test_simplex_tolerance_is_np_isclose(self, total):
        arrivals = np.array([0.5, 0.3, total - 0.8])
        if np.isclose(arrivals.sum(), 1.0, atol=1e-6):
            plan(arrivals, [0.2, 0.3, 0.5])
        else:
            with pytest.raises(ValueError, match="sum to 1"):
                plan(arrivals, [0.2, 0.3, 0.5])


class TestForwardPlanObject:
    def test_row_stochastic_enforced(self):
        bad = np.array([[0.5, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="sum to 1"):
            ForwardPlan(("a", "b"), bad, np.array([0.5, 0.5]))

    def test_negative_entries_rejected(self):
        bad = np.array([[1.5, -0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="negative"):
            ForwardPlan(("a", "b"), bad, np.array([0.5, 0.5]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            ForwardPlan(("a", "b"), np.eye(3), np.array([0.5, 0.5]))

    #: name -> (matrix, the refusal's message or None if accepted); the
    #: accept/refuse set of ``np.any(m < -1e-9)`` then ``np.allclose(row
    #: sums, 1.0, atol=1e-6)``, however ``__post_init__`` spells it
    EDGES = {
        "wrong-shape": (np.eye(3), "matrix shape (3, 3) does not match 2 regions"),
        "not-square": (np.full((2, 3), 1 / 3), "matrix shape (2, 3) does not match 2 regions"),
        "entry-at-minus-2e-9": ([[1.0 + 2e-9, -2e-9], [0.0, 1.0]], "plan has negative entries"),
        "entry-at-minus-5e-10": ([[1.0 + 5e-10, -5e-10], [0.0, 1.0]], None),
        "row-sum-off-by-2e-5": ([[0.5, 0.5 + 2e-5], [0.0, 1.0]], "plan rows must sum to 1"),
        "row-sum-off-by-minus-2e-5": ([[1.0, 0.0], [0.5 - 2e-5, 0.5]], "plan rows must sum to 1"),
        "row-sum-off-by-5e-6": ([[0.5, 0.5 + 5e-6], [0.5 - 5e-6, 0.5]], None),
        "nan-row": ([[float("nan"), 0.5], [0.0, 1.0]], "plan rows must sum to 1"),
        "inf-entry": ([[float("inf"), 0.0], [0.0, 1.0]], "plan rows must sum to 1"),
        "minus-inf-entry": ([[-float("inf"), 1.0], [0.0, 1.0]], "plan has negative entries"),
        "nan-beside-a-negative": ([[float("nan"), -0.5], [0.0, 1.0]], "plan has negative entries"),
        "second-row-only": ([[1.0, 0.0], [0.7, 0.2]], "plan rows must sum to 1"),
        "identity": (np.eye(2), None),
    }

    @pytest.mark.parametrize("name", EDGES)
    def test_validation_edges(self, name):
        matrix, message = self.EDGES[name]
        matrix = np.array(matrix, dtype=float)
        arrivals = np.array([0.5, 0.5])
        if message is None:
            assert ForwardPlan(("a", "b"), matrix, arrivals).matrix is matrix
        else:
            with pytest.raises(ValueError) as refusal:
                ForwardPlan(("a", "b"), matrix, arrivals)
            assert str(refusal.value) == message


class TestRouteCounts:
    def test_stochastic_routing_conserves_totals(self):
        p = plan([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])
        arrivals = np.array([500, 300, 200])
        routed = p.route_counts(arrivals, rng=np.random.default_rng(0))
        assert np.array_equal(routed.sum(axis=1), arrivals)

    def test_zero_arrivals(self):
        p = plan([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])
        routed = p.route_counts(
            np.zeros(3, dtype=int), rng=np.random.default_rng(0)
        )
        assert routed.sum() == 0

    def test_validation(self):
        p = plan([0.5, 0.3, 0.2], [0.2, 0.3, 0.5])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            p.route_counts(np.array([1, 2]), rng=rng)
        with pytest.raises(ValueError):
            p.route_counts(np.array([-1, 0, 0]), rng=rng)
