"""Differential for the leader step across its three hosts.

One scripted ``lastRMTTF`` sequence -- all reports present, one ``NaN``,
quorum lost long enough to walk ``normal -> hold -> fallback``, a
blacked-out slave, a blacked-out leader -- goes through

* a fluid :meth:`AcmControlLoop.plan`, called directly, and
* :meth:`AcmService._plan_phase`, reached the way production reaches it:
  the era tick reports over the reliable channel and the Plan phase fires
  ``window_s`` later off the :class:`WallClock` heap.

Both must walk the same ladder and, before serve zeroes dead regions,
produce the same fractions bit for bit.  The wall clock is frozen
(``time_fn`` pinned to 0) and its heap stepped with ``run_until``, so
nothing sleeps and nothing depends on the host's speed.

The report-only head of the script (no region goes dark) also drives a
request-level :class:`DesControlLoop`, whose VMCs report the scripted
values at each era boundary: its installed fractions must equal those of
an :meth:`AcmControlLoop.plan` fed the same reports and the DES's own
measured load, era by era, through the same ladder.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.control_loop import AcmControlLoop
from repro.core.des_loop import DesControlLoop
from repro.core.manager import AcmManager
from repro.core.policy import get_policy, renormalize_live
from repro.experiments.scenarios import three_region_scenario
from repro.pcam import OracleRttfPredictor, VirtualMachine
from repro.pcam.vmc import RegionGroup
from repro.serve import service as service_module
from repro.serve.clock import WallClock
from repro.serve.service import AcmService, ServeConfig
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector, BrowserPopulation

NAN = float("nan")
POLICY = "sensible-routing"
SEED = 7
ERA_S = 30.0
WINDOW_S = 3.0
REQUESTS_PER_ERA = 45

#: (reports of region 1..3, regions blacked out during the era)
SCRIPT: list[tuple[tuple[float, float, float], tuple[int, ...]]] = (
    [((1000.0, 800.0, 600.0), ()), ((900.0, 850.0, 500.0), ())]
    + [((990.0, NAN, 520.0), ())]  # one corrupted predictor
    + [((940.0, 700.0, 560.0), ())]
    # only the leader's own report is usable: quorum is lost once the
    # other two go stale, and stays lost past fallback_after_eras
    + [((930.0 - 10.0 * k, NAN, NAN), ()) for k in range(9)]
    + [((800.0, 900.0, 1000.0), ())]  # quorum back
    + [((810.0, 890.0, 990.0), (2,))] * 2  # a slave goes dark ...
    + [((820.0, 880.0, 980.0), ())]  # ... and heals
    + [((830.0, 870.0, 970.0), (0,))]  # the leader goes dark
    + [((840.0, 860.0, 960.0), ())]
)
EXPECTED_MODES = (
    ["normal"] * 6 + ["hold"] * 5 + ["fallback"] * 2 + ["normal"] * 6
)
#: the script's eras in which every region is up
REPORT_ONLY_ERAS = 14
assert all(not dark for _, dark in SCRIPT[:REPORT_ONLY_ERAS])


def test_fluid_plan_and_serve_plan_phase_agree(monkeypatch):
    scenario = three_region_scenario()
    fluid = AcmManager(
        regions=list(scenario.regions),
        policy=POLICY,
        seed=SEED,
        era_s=ERA_S,
        overlay=scenario.build_overlay(),
    ).loop

    clock = WallClock(time_fn=lambda: 0.0)  # heap time only
    service = AcmService(
        scenario,
        clock,
        ServeConfig(
            era_s=ERA_S,
            window_s=WINDOW_S,
            policy=POLICY,
            seed=SEED,
            admission_rps=1e9,
        ),
    )
    regions = service.regions
    assert regions == fluid.regions and len(regions) == 3

    # scripted reports in place of the VMCs' predictions: the era tick's
    # one step over the live regions answers with the scripted values
    current: dict[str, float] = {}
    monkeypatch.setattr(
        service_module,
        "process_eras",
        lambda vmcs, served, dt, now: [
            SimpleNamespace(last_rmttf=current[vmc.region_name])
            for vmc in vmcs
        ],
    )
    # what serve's Plan phase got back from the shared leader step
    serve_planned: list[tuple[np.ndarray, str]] = []
    real_plan = service.loop.plan

    def spy(*args, **kwargs):
        planned, mode, rmttf_vec = real_plan(*args, **kwargs)
        serve_planned.append((planned.copy(), mode))
        return planned, mode, rmttf_vec

    monkeypatch.setattr(service.loop, "plan", spy)

    service.start()
    fluid_modes = []
    dark_before: tuple[int, ...] = ()
    for era, (values, dark) in enumerate(SCRIPT):
        for k in set(dark_before) - set(dark):
            service.chaos.region_heal(regions[k])
        for k in set(dark) - set(dark_before):
            service.chaos.region_blackout(regions[k])
        dark_before = dark
        alive = np.array([k not in dark for k in range(3)])
        current.update(zip(regions, values))
        live = [r for k, r in enumerate(regions) if alive[k]]
        for n in range(REQUESTS_PER_ERA):
            status, _ = service.handle_request(live[n % len(live)])
            assert status == 200

        # era tick, report delivery, and the deferred Plan phase
        clock.run_until((era + 1) * ERA_S + WINDOW_S + 1.0)
        assert len(serve_planned) == era + 1, "Plan phase did not fire"

        received = {r: v for r, v, up in zip(regions, values, alive) if up}
        planned, mode, _ = fluid.plan(
            era, received, REQUESTS_PER_ERA / ERA_S
        )
        fluid_modes.append(mode)
        assert serve_planned[era][1] == mode
        assert np.array_equal(serve_planned[era][0], planned), f"era {era}"

        # Execute: serve's renormalize_live, mirrored on the fluid side
        fluid.fractions = renormalize_live(planned, alive)
        installed = service.loop.fractions
        assert np.array_equal(installed, fluid.fractions)
        assert installed.sum() == pytest.approx(1.0)
        for k in dark:
            assert installed[k] == 0.0
        # ... and every live LB installed a row that avoids the dead
        for i in np.flatnonzero(alive):
            row = service.plan_table.matrix[i]
            assert row.sum() == pytest.approx(1.0)
            assert all(row[k] == 0.0 for k in dark)
        snap = service.plan_snapshot()
        assert snap["degradation"] == mode
        assert snap["plan_era"] == era
        assert snap["leader"] == live[0]

    assert fluid_modes == EXPECTED_MODES
    assert [m for _, m in serve_planned] == EXPECTED_MODES
    # the script really moved the plan: not a comparison of constants
    assert len({tuple(p) for p, _ in serve_planned}) > 10
    service.shutdown()


def test_des_leader_walks_the_fluid_ladder(monkeypatch):
    rngs = RngRegistry(seed=SEED)
    regions = {}
    for name, itype, n_vms in (
        ("r1", M3_MEDIUM, 6), ("r2", PRIVATE_SMALL, 4), ("r3", M3_MEDIUM, 4)
    ):
        pool = [
            VirtualMachine(
                f"{name}/vm{i}",
                itype,
                AnomalyInjector(rngs.child(f"{name}{i}").stream("a")),
            )
            for i in range(n_vms)
        ]
        regions[name] = (pool, BrowserPopulation(n_clients=40), n_vms - 1)
    des = DesControlLoop(
        regions, get_policy(POLICY), OracleRttfPredictor(), rngs, era_s=ERA_S
    )
    names = des.region_names
    assert len(names) == 3

    # the real close-out runs; only its lastRMTTF is the scripted value
    current: dict[str, float] = {}
    close_era = RegionGroup.close_era

    def scripted(group, *args):
        return [
            dataclasses.replace(report, last_rmttf=current[report.region])
            for report in close_era(group, *args)
        ]

    monkeypatch.setattr(RegionGroup, "close_era", scripted)

    # the fluid leader step over the same VMCs, for the fallback's
    # healthy capacities at the same instant
    fluid = AcmControlLoop(
        des.vmcs,
        {r: regions[r][1] for r in names},
        get_policy(POLICY),
        RngRegistry(seed=SEED),
    )
    modes = []
    for era, (values, _) in enumerate(SCRIPT[:REPORT_ONLY_ERAS]):
        current.update(zip(names, values))
        des.run_era()
        # the load the DES measured, summed in its own order
        lam = 0.0
        for r in names:
            lam += des.traces.series(f"completed/{r}").values[-1] / ERA_S
        assert lam > 0.0
        planned, mode, _ = fluid.plan(era, dict(current), lam)
        fluid.fractions = planned
        modes.append(mode)
        installed = np.array(
            [des.traces.series(f"fraction/{r}").values[-1] for r in names]
        )
        assert np.array_equal(installed, planned), f"era {era} ({mode})"
        assert des.leader.degradation.mode == mode

    assert modes == EXPECTED_MODES[:REPORT_ONLY_ERAS]
    # the script really moved the plan: not a comparison of constants
    traced = {
        tuple(des.traces.series(f"fraction/{r}").values[k] for r in names)
        for k in range(REPORT_ONLY_ERAS)
    }
    assert len(traced) > 5
