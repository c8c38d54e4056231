"""``PlanTable.route`` bisects a list CDF: the index must be the one
NumPy's ``searchsorted(side="right")`` gives on the ndarray CDF, and the
one ``Generator.choice`` draws, on every row shape the plan can hold."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.forward_plan import PlanTable, _row_cdf
from repro.experiments.scenarios import three_region_scenario
from repro.serve.clock import WallClock
from repro.serve.service import AcmService, ServeConfig

ROWS = {
    "spread": [0.2, 0.3, 0.5],
    "zeros": [0.0, 1.0, 0.0],
    "leading_zeros": [0.0, 0.0, 0.7, 0.3],
    "one_region": [1.0],
    "unnormalised": [3.0, 0.0, 1.0, 4.0, 2.0],
    # a CDF that dips: ForwardPlan tolerates entries down to -1e-9
    "negative_entry": [0.5, -1e-10, 0.5 + 1e-10],
}


def _edge_draws(cdf: np.ndarray) -> list[float]:
    """u == 0, every CDF value, and the floats either side of each."""
    draws = [0.0]
    for value in cdf.tolist():
        draws += [
            value,
            float(np.nextafter(value, 0.0)),
            float(np.nextafter(value, 2.0)),
        ]
    return draws


def _assert_same_index(table: PlanTable, i: int, cdf: np.ndarray, u: float):
    assert table.route(i, u) == int(cdf.searchsorted(u, side="right"))


@pytest.mark.parametrize("name", sorted(ROWS))
def test_route_equals_ndarray_searchsorted_and_choice(name):
    row = np.asarray(ROWS[name])
    n = row.size
    table = PlanTable(np.tile(row, (n, 1)))
    cdf = _row_cdf(row)
    for i in range(n):
        for u in _edge_draws(cdf):
            _assert_same_index(table, i, cdf, u)
    ours = np.random.default_rng(17)
    ref = np.random.default_rng(17)
    for _ in range(2000):
        u = ours.random()
        _assert_same_index(table, 0, cdf, u)
        if (row >= 0.0).all():
            # Generator.choice refuses negative p; the dip row stops at
            # searchsorted
            assert table.route(0, u) == ref.choice(n, p=row / row.sum())
    if (row >= 0.0).all():
        assert ours.random() == ref.random()  # one draw per route


def test_serve_install_row_path_routes_like_the_ndarray_cdf():
    """The rows serve installs from plan-row messages."""
    service = AcmService(
        three_region_scenario(), WallClock(speed=100.0), ServeConfig(seed=7)
    )
    draws = np.random.default_rng(11).random(500).tolist()
    for fractions in (
        [0.2, 0.3, 0.5],
        [1.0, 0.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.6, 0.1, 0.3],
    ):
        payload = {"fractions": fractions, "stamp": service.clock.now, "era": 0}
        for region in service.regions:
            service._install_row(region, payload)
        table = service.plan_table
        for i in range(len(service.regions)):
            cdf = _row_cdf(table.matrix[i])
            for u in _edge_draws(cdf) + draws:
                _assert_same_index(table, i, cdf, u)
