"""The global forward plan -- Sec. V.

"ACM Framework assumes that a user can arbitrarily connect to whichever
cloud region.  Each region has a load balancer (LB) to which users send
requests.  In order to achieve that any region i processes the established
fraction of requests f_i over the global incoming requests, ACM Framework
uses a global forward plan.  ...  this plan establishes the fractions of
requests that are sent from users to the LB of a region that have to be
forwarded to the local region and to be forwarded to LBs of other regions."

Formally: clients deliver share ``a_i`` of the global stream to region i's
LB; the plan is a row-stochastic matrix ``P`` with

    sum_i a_i * P[i, j] = f_j        for every region j,

so that after forwarding, region j processes exactly its assigned fraction.
:func:`build_forward_plan` computes the plan that maximises locally served
traffic (process at home what you can; forward only the surplus), which
minimises the inter-region redirection overhead the paper worries about.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ForwardPlan:
    """An immutable forwarding matrix with its region order.

    Attributes
    ----------
    regions:
        Region order indexing both matrix axes.
    matrix:
        ``P[i, j]`` = fraction of requests arriving at region i's LB that
        are forwarded to region j (row-stochastic).
    arrival_fractions:
        The client arrival shares ``a_i`` the plan was built for.
    """

    regions: tuple[str, ...]
    matrix: np.ndarray
    arrival_fractions: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.regions)
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{n} regions"
            )
        if (self.matrix < -1e-9).any():
            raise ValueError("plan has negative entries")
        # np.allclose(row sums, 1.0, atol=1e-6) at its default rtol, as
        # floats (a NaN or inf sum fails the compare and is refused)
        for row_sum in self.matrix.sum(axis=1).tolist():
            if not abs(row_sum - 1.0) <= 1e-6 + 1e-5:
                raise ValueError("plan rows must sum to 1")

    def processed_fractions(self) -> np.ndarray:
        """The ``f_j`` this plan realises: ``a @ P``."""
        return self.arrival_fractions @ self.matrix

    def local_fraction(self) -> float:
        """Share of global traffic served in its arrival region."""
        return float(
            (self.arrival_fractions * np.diag(self.matrix)).sum()
        )

    def forwarded_fraction(self) -> float:
        """Share of global traffic redirected between regions.

        The redirection overhead proxy: Policy 1's oscillations inflate
        this, which "generates additional overhead in the system"
        (Sec. VI-B).
        """
        return 1.0 - self.local_fraction()

    def route_counts(
        self, arrivals: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Forward per-region arrival counts through the plan.

        Parameters
        ----------
        arrivals:
            Integer requests arriving at each region's LB this era.
        rng:
            If given, requests are routed multinomially (stochastic); if
            ``None``, deterministic largest-remainder apportionment.

        Returns the integer matrix ``C[i, j]`` of requests moved i -> j.
        """
        arrivals = np.asarray(arrivals)
        n = len(self.regions)
        if arrivals.shape != (n,):
            raise ValueError(f"expected {n} arrival counts")
        if (arrivals < 0).any():
            raise ValueError("arrival counts must be >= 0")
        out = np.zeros((n, n), dtype=int)
        for i in range(n):
            total = int(arrivals[i])
            if total == 0:
                continue
            row = self.matrix[i]
            if rng is not None:
                out[i] = rng.multinomial(total, row / row.sum())
            else:
                exact = total * row / row.sum()
                base = np.floor(exact).astype(int)
                leftover = total - int(base.sum())
                if leftover > 0:
                    order = (base - exact).argsort(kind="stable")
                    base[order[:leftover]] += 1
                out[i] = base
        return out


def _row_cdf(row: np.ndarray) -> np.ndarray | None:
    """Sampling CDF of one plan row; ``None`` if its mass is zero or
    non-finite.

    Exactly ``Generator.choice``'s construction -- normalise, cumsum,
    renormalise the last bin to 1 -- so ``searchsorted(u, side="right")``
    on one uniform draw is bit-equal to ``choice(n, p=row / row.sum())``
    and can never index past the last region.
    """
    total = row.sum()
    if not 0.0 < total < np.inf:
        return None
    cdf = (row / total).cumsum()
    cdf /= cdf[-1]
    return cdf


def _row_cdf_list(row: np.ndarray) -> list[float] | None:
    """:func:`_row_cdf` as a Python list, the form :meth:`PlanTable.route`
    bisects."""
    cdf = _row_cdf(row)
    return None if cdf is None else cdf.tolist()


class PlanTable:
    """The installed forward plan as a per-request data path reads it.

    A private copy of the forwarding matrix plus one CDF per row
    (:func:`_row_cdf`, kept as a list); draws change only through the
    constructor or :meth:`install_row`, so a plan is never observed
    mid-update.  The DES loop installs whole plans, the serve runtime one
    row per plan-row message.  (The fluid loop's
    :meth:`ForwardPlan.route_counts` is a batch multinomial, a different
    operation.)
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.array(matrix, dtype=float)
        self._cdfs = [_row_cdf_list(row) for row in self.matrix]

    def install_row(self, i: int, row: np.ndarray) -> None:
        """Replace arrival region ``i``'s row (and its CDF)."""
        self.matrix[i] = row
        self._cdfs[i] = _row_cdf_list(self.matrix[i])

    def route(self, i: int, u: float) -> int:
        """Processing region for a request arriving at ``i``, given one
        uniform draw ``u`` on [0, 1); a degenerate row serves locally
        instead of sampling NaN probabilities.

        ``bisect_right`` on the list runs the binary search NumPy's
        single-key ``searchsorted(side="right")`` runs (same midpoints,
        same comparison), so the index is the same even on a row whose
        CDF dips by the -1e-9 :class:`ForwardPlan` tolerates.
        """
        cdf = self._cdfs[i]
        if cdf is None:
            return i
        return bisect_right(cdf, u)

    def route_live(self, i: int, u: float, alive) -> int | None:
        """Draw from row ``i`` restricted to ``alive`` (a bool per region):
        ``None`` if nothing is alive, uniform over the live set if the
        row's mass sits entirely on dead regions."""
        live = np.flatnonzero(alive)
        if live.size == 0:
            return None
        cdf = _row_cdf(self.matrix[i, live])
        if cdf is None:
            cdf = _row_cdf(np.ones(live.size))
        return int(live[cdf.searchsorted(u, side="right")])


def build_forward_plan(
    regions: list[str],
    arrival_fractions: np.ndarray,
    target_fractions: np.ndarray,
) -> ForwardPlan:
    """Compute the locality-maximising plan realising ``target_fractions``.

    Greedy transportation solve: every region first keeps
    ``min(a_i, f_i)`` of its arrivals; regions with surplus arrivals
    (``a_i > f_i``) ship the excess to regions with deficits
    (``f_j > a_j``), apportioned proportionally to the deficits.  This
    yields the plan with the maximum possible :meth:`ForwardPlan.local_fraction`.

    Parameters
    ----------
    regions:
        Region order.
    arrival_fractions:
        ``a_i`` >= 0, summing to 1 (validated within tolerance).
    target_fractions:
        ``f_j`` >= 0, summing to 1 (the policy output).
    """
    a = np.asarray(arrival_fractions, dtype=float)
    f = np.asarray(target_fractions, dtype=float)
    n = len(regions)
    if a.shape != (n,) or f.shape != (n,):
        raise ValueError(
            f"need {n}-vectors; got arrivals {a.shape}, targets {f.shape}"
        )
    for name, v in (("arrival", a), ("target", f)):
        if (v < -1e-12).any():
            raise ValueError(f"{name} fractions must be non-negative")
        # np.isclose(x, 1.0, atol=1e-6) at its default rtol, as floats
        if not abs(float(v.sum()) - 1.0) <= 1e-6 + 1e-5:
            raise ValueError(f"{name} fractions must sum to 1, got {v.sum()}")

    surplus = np.maximum(a - f, 0.0)  # arrivals beyond local assignment
    deficit = np.maximum(f - a, 0.0)  # assignment beyond local arrivals
    total_deficit = deficit.sum()

    P = np.zeros((n, n))
    for i in range(n):
        if a[i] <= 1e-15:
            # No arrivals here: the row is never exercised; keep local.
            P[i, i] = 1.0
            continue
        keep = min(a[i], f[i])
        P[i, i] = keep / a[i]
        if surplus[i] > 0 and total_deficit > 0:
            # ship the surplus proportionally to deficits elsewhere
            for j in range(n):
                if j != i and deficit[j] > 0:
                    P[i, j] = (surplus[i] * deficit[j] / total_deficit) / a[i]
    # Normalise rows against floating-point drift.
    rows = P.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    P = P / rows
    return ForwardPlan(
        regions=tuple(regions), matrix=P, arrival_fractions=a.copy()
    )
