"""Parity harness: the table-backed VMC vs the one-VM reference.

:class:`~repro.pcam.state_table.VmStateTable` is the only VM-state store
in production; its array kernels were built against one contract: *same
seed -> bit-identical behaviour* with the scalar, one-object-at-a-time
semantics of :class:`~tests.pcam.reference_vmc.ReferenceVm`.  This
module keeps that contract checked two ways:

* **VMC (fluid eras): live comparator.**  Every test builds two pools from
  identically-seeded RNG registries -- one driven by the tests-only
  :class:`~tests.pcam.reference_vmc.ReferenceVmc` (scalar
  :class:`~tests.pcam.reference_vmc.ReferenceVm` objects), one by the real
  :class:`~repro.pcam.vmc.VirtualMachineController` -- runs both through
  the same scenario, and compares era reports, per-VM mutable state,
  capacities and ``stats()`` **exactly** (``==`` on floats, no
  tolerance).  A :class:`~tests.pcam.reference_vmc.RecordingPredictor`
  around each side's predictor holds what the era monitored: the feature
  rows, VM names and RTTFs of its one ``predict_rttf_rows`` call must be
  equal too.
* **DES loop (per-request events): snapshot.**  The object-walking arm
  of ``DesControlLoop`` was deleted; before that, blake2b digests of its
  complete outcome were recorded *from the object path* into
  ``snapshots/des_parity.json`` and shown equal on the table path.  The
  test below holds the table path to those digests.  Regenerate only for
  an intended semantic change::

      PYTHONPATH=src python -m tests.pcam.test_columnar_parity --regen

A divergence here is a bookkeeping bug, not noise: both sides consume the
same RNG streams in the same order, so any drift means an operation was
reordered, an accumulation changed its numeric association, or per-VM
state leaked across rows.  The fuzz driver sweeps randomized scenarios
(pool mix, predictor, discipline, balancer, churn and crash storms) to
flush out exactly that class of bug.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.pcam.predictor as predictor_module
from repro.chaos.predictor import CorruptiblePredictor
from repro.pcam import (
    LocalBalancer,
    NoRejuvenation,
    OracleRttfPredictor,
    PeriodicRejuvenation,
    TrainedRttfPredictor,
    TrendAwareRttfPredictor,
    VirtualMachine,
    VirtualMachineController,
    VmcConfig,
    VmState,
)
from repro.pcam.balancer import DomainAwareBalancer
from repro.sim import M3_MEDIUM, PRIVATE_SMALL, RngRegistry
from repro.topology import DomainHealthTracker, FailureDomainTree
from repro.workload import AnomalyInjector

from .reference_vmc import RecordingPredictor, ReferenceVm, ReferenceVmc

SNAPSHOT_PATH = Path(__file__).parent / "snapshots" / "des_parity.json"

#: Per-VM fields that must stay bit-identical between the two sides.
MUTABLE_FIELDS = (
    "leaked_mb",
    "stuck_threads",
    "uptime_s",
    "last_request_rate",
    "last_response_time_s",
    "total_requests",
    "rejuvenation_count",
    "failure_count",
)


class _LinModel:
    """Deterministic stand-in for a trained F2PM model.

    A fixed linear read-out over the feature row -- enough to make the
    predicted RTTF depend on the table's feature extraction, so any
    feature-matrix divergence surfaces as a prediction divergence.
    """

    def predict(self, rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return 900.0 - 0.5 * rows[:, 1] - 4.0 * rows[:, 6] - 0.2 * rows[:, 0]


def _pool(side, rngs: RngRegistry, n: int, mixer, **vm_kw) -> list:
    """``n`` VMs for ``side``: scalar ones for the reference, views for
    the real controller."""
    vm_cls = ReferenceVm if side is ReferenceVmc else VirtualMachine
    return [
        vm_cls(
            f"vm{i:03d}",
            M3_MEDIUM if mixer(i) else PRIVATE_SMALL,
            AnomalyInjector(rngs.child(f"vm{i:03d}").stream("a")),
            **vm_kw,
        )
        for i in range(n)
    ]


def _snapshot(vm: VirtualMachine) -> dict:
    state = {name: getattr(vm, name) for name in MUTABLE_FIELDS}
    state["state"] = vm.state
    return state


def _assert_pools_equal(
    ref: ReferenceVmc,
    vmc: VirtualMachineController,
    era: int,
) -> int:
    """Assert the two sides equal after ``era``; returns how many VMs the
    era monitored."""
    assert [vm.name for vm in ref.vms] == [vm.name for vm in vmc.vms]
    for r_vm, t_vm in zip(ref.vms, vmc.vms):
        r_snap, t_snap = _snapshot(r_vm), _snapshot(t_vm)
        assert r_snap == t_snap, (
            f"era {era}: VM {r_vm.name} diverged: {r_snap} != {t_snap}"
        )
    assert ref.healthy_capacity() == vmc.healthy_capacity()
    # stats() carries the ACTIVE pool's effective capacity
    assert ref.stats() == vmc.stats()
    assert ref.spread_deferrals == vmc.spread_deferrals
    # the era's one prediction: each VM's sample_features() on one side,
    # a row of the pool's feature_matrix() on the other
    (r_call,), (t_call,) = ref.predictor.calls, vmc.predictor.calls
    assert r_call.names == t_call.names, f"era {era}: monitored VMs diverged"
    assert r_call.rows == t_call.rows, f"era {era}: feature rows diverged"
    assert r_call.rttf == t_call.rttf, f"era {era}: predictions diverged"
    ref.predictor.calls.clear()
    vmc.predictor.calls.clear()
    return len(t_call.names)


def _recorded(side):
    """``side`` with its predictor wrapped in a :class:`RecordingPredictor`."""
    side.predictor = RecordingPredictor(side.predictor)
    return side


def _make_pair(seed: int, n_vms: int, build, **vm_kw):
    """Build (reference, real) VMCs from identically-seeded registries.

    ``build(cls, rngs, vms)`` constructs ``cls`` over the given pool.
    """
    out = []
    for cls in (ReferenceVmc, VirtualMachineController):
        rngs = RngRegistry(seed=seed)
        vms = _pool(cls, rngs, n_vms, lambda i: i % 2 == 0, **vm_kw)
        out.append(_recorded(build(cls, rngs, vms)))
    return out[0], out[1]


def _load(era: int, peak: int) -> int:
    """A quarter of ``peak``, and ``peak`` itself every eighth era.

    At these scenarios' peaks every ACTIVE VM fails within the era, so a
    constant peak leaves nothing to monitor, predict or swap
    proactively; the quiet eras let VMs age into the at-risk band.
    """
    return peak if era % 8 == 7 else peak // 4


# --------------------------------------------------------------------- #
# steady-state parity
# --------------------------------------------------------------------- #


def test_vmc_era_parity_oracle():
    """60 high-load eras with failures + rejuvenations stay bit-identical."""

    def build(cls, rngs, vms):
        return cls(
            "r1",
            vms,
            OracleRttfPredictor(),
            VmcConfig(target_active=4),
        )

    ref, vmc = _make_pair(7, 8, build)
    monitored = 0
    for era in range(60):
        rep_r = ref.process_era(_load(era, 4000), 30.0, era * 30.0)
        rep_t = vmc.process_era(_load(era, 4000), 30.0, era * 30.0)
        assert rep_r == rep_t, f"era {era}: {rep_r} != {rep_t}"
        monitored += _assert_pools_equal(ref, vmc, era)
    # the scenario must actually exercise the lifecycle machinery:
    # predictions, proactive swaps and failures
    assert monitored > 0
    assert ref.total_rejuvenations > ref.total_failures > 0


@pytest.mark.parametrize(
    "predictor_kind",
    ["trained", "trend", "corruptible", "corruptible-stale"],
)
def test_vmc_era_parity_predictor_variants(predictor_kind, monkeypatch):
    """Every predictor stack sees identical features on both paths."""
    monkeypatch.setattr(predictor_module, "FLOOR_S", 5.0)

    def make_predictor():
        if predictor_kind == "trained":
            return TrainedRttfPredictor(_LinModel())
        if predictor_kind == "trend":
            return TrendAwareRttfPredictor(_LinModel(), window=3)
        inner = TrainedRttfPredictor(_LinModel())
        corruptible = CorruptiblePredictor(inner)
        corruptible.set_mode("stale" if predictor_kind.endswith("stale") else "off")
        return corruptible

    def build(cls, rngs, vms):
        return cls(
            "r1",
            vms,
            make_predictor(),
            VmcConfig(target_active=3, rttf_threshold_s=400.0),
        )

    ref, vmc = _make_pair(11, 6, build)
    monitored = 0
    for era in range(40):
        rep_r = ref.process_era(_load(era, 3000), 30.0, era * 30.0)
        rep_t = vmc.process_era(_load(era, 3000), 30.0, era * 30.0)
        assert rep_r == rep_t, f"era {era}: {predictor_kind} diverged"
        monitored += _assert_pools_equal(ref, vmc, era)
    assert monitored > 0


@pytest.mark.parametrize("kind", ["periodic", "none"])
def test_vmc_era_parity_disciplines(kind):
    """Periodic/no-rejuvenation disciplines vectorise identically."""
    disc = (
        PeriodicRejuvenation(period_s=150.0)
        if kind == "periodic"
        else NoRejuvenation()
    )

    def build(cls, rngs, vms):
        return cls(
            "r1",
            vms,
            OracleRttfPredictor(),
            VmcConfig(target_active=3),
            discipline=disc,
        )

    ref, vmc = _make_pair(13, 6, build)
    monitored = 0
    for era in range(40):
        rep_r = ref.process_era(_load(era, 2500), 30.0, era * 30.0)
        rep_t = vmc.process_era(_load(era, 2500), 30.0, era * 30.0)
        assert rep_r == rep_t
        monitored += _assert_pools_equal(ref, vmc, era)
    assert monitored > 0
    if kind == "periodic":  # the discipline swapped, not only failures
        assert ref.total_rejuvenations > ref.total_failures


@pytest.mark.parametrize("discipline", ["uniform", "capacity", "domain-aware"])
@pytest.mark.parametrize("stochastic", [False, True])
def test_vmc_era_parity_balancers(discipline, stochastic):
    """Both balancer disciplines, deterministic and multinomial splits,
    and the domain-aware balancer with one of two racks degraded."""

    def build(cls, rngs, vms):
        rng = rngs.child("bal").stream("split") if stochastic else None
        if discipline != "domain-aware":
            balancer = LocalBalancer(discipline, rng=rng)
        else:
            for i, vm in enumerate(vms):
                vm.rack_id = i % 2
            health = DomainHealthTracker(FailureDomainTree({"r1": (2, 1)}))
            health.record_fault("r1/az1", "rack_power_loss")
            assert health.degraded_racks() == {1}
            balancer = DomainAwareBalancer(health, rng=rng)
        return cls(
            "r1",
            vms,
            OracleRttfPredictor(),
            VmcConfig(target_active=3),
            balancer=balancer,
        )

    ref, vmc = _make_pair(17, 6, build)
    for era in range(30):
        rep_r = ref.process_era(2000, 30.0, era * 30.0)
        rep_t = vmc.process_era(2000, 30.0, era * 30.0)
        assert rep_r == rep_t
        _assert_pools_equal(ref, vmc, era)


def test_vmc_era_parity_spread_cap():
    """The per-rack REJUVENATING count (one ``np.unique`` over the table)
    defers exactly the swaps the per-VM walk defers."""

    def build(cls, rngs, vms):
        for i, vm in enumerate(vms):
            vm.rack_id = i % 3
        return cls(
            "r1",
            vms,
            OracleRttfPredictor(),
            VmcConfig(target_active=6, rttf_threshold_s=400.0, spread_k=1),
        )

    ref, vmc = _make_pair(29, 9, build, rejuvenation_time_s=90.0)
    for era in range(60):
        rep_r = ref.process_era(2000, 30.0, era * 30.0)
        rep_t = vmc.process_era(2000, 30.0, era * 30.0)
        assert rep_r == rep_t, f"era {era}: {rep_r} != {rep_t}"
        _assert_pools_equal(ref, vmc, era)
    # deferred swaps, proactive swaps and reactive (failed-VM) swaps all ran
    assert ref.spread_deferrals > 0
    assert ref.total_rejuvenations > ref.total_failures > 0


# --------------------------------------------------------------------- #
# churn + chaos parity
# --------------------------------------------------------------------- #


def _fail_by_name(vmc: VirtualMachineController, names: list[str]) -> None:
    by_name = {vm.name: vm for vm in vmc.vms}
    for name in names:
        by_name[name].fail()


def test_vmc_parity_under_chaos_and_churn():
    """Crash storms and autoscaling target churn stay in lockstep.

    The scripted events mirror what a chaos campaign does, applied
    symmetrically to both pools.
    """

    def build(cls, rngs, vms):
        return cls(
            "r1",
            vms,
            OracleRttfPredictor(),
            VmcConfig(target_active=4),
        )

    ref, vmc = _make_pair(23, 8, build)
    storm_rng = np.random.default_rng(23)
    monitored = 0
    for era in range(50):
        if era % 9 == 4:  # crash storm: fail ~half the ACTIVE pool
            active = sorted(
                vm.name for vm in ref.vms_in(VmState.ACTIVE)
            )
            if active:
                k = max(1, len(active) // 2)
                picks = storm_rng.choice(
                    len(active), size=k, replace=False
                )
                victims = [active[i] for i in sorted(int(i) for i in picks)]
                _fail_by_name(ref, victims)
                _fail_by_name(vmc, victims)
        if era % 11 == 7:  # autoscale up/down
            target = 3 if ref.target_active == 4 else 4
            ref.set_target_active(target)
            vmc.set_target_active(target)

        rep_r = ref.process_era(_load(era, 4000), 30.0, era * 30.0)
        rep_t = vmc.process_era(_load(era, 4000), 30.0, era * 30.0)
        assert rep_r == rep_t, f"era {era}: {rep_r} != {rep_t}"
        monitored += _assert_pools_equal(ref, vmc, era)
    assert ref.total_failures > 0 and monitored > 0


# --------------------------------------------------------------------- #
# seeded fuzz driver
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(6))
def test_vmc_parity_fuzz(seed, monkeypatch):
    """Randomized scenario sweep; any drift is a real bookkeeping bug."""
    fuzz = np.random.default_rng(seed)
    n_vms = int(fuzz.integers(3, 11))
    target = int(fuzz.integers(1, n_vms + 1))
    rejuvenation_time_s = float(fuzz.choice([0.0, 45.0, 120.0]))
    threshold_s = float(fuzz.choice([120.0, 240.0, 500.0]))
    discipline = fuzz.choice(["threshold", "periodic", "none"])
    balancer_kind = fuzz.choice(["capacity", "uniform"])
    predictor_kind = fuzz.choice(["oracle", "trained", "trend"])
    n_eras = int(fuzz.integers(25, 60))
    loads = fuzz.integers(0, 6000, size=n_eras)
    storm_eras = set(
        int(e) for e in fuzz.choice(n_eras, size=3, replace=False)
    )
    storm_rng = np.random.default_rng(seed + 7919)

    def build(cls, rngs, vms):
        if predictor_kind == "trained":
            monkeypatch.setattr(predictor_module, "FLOOR_S", 1.0)
            predictor = TrainedRttfPredictor(_LinModel())
        elif predictor_kind == "trend":
            predictor = TrendAwareRttfPredictor(_LinModel(), window=4)
        else:
            predictor = OracleRttfPredictor()
        disc = None
        if discipline == "periodic":
            disc = PeriodicRejuvenation(period_s=200.0)
        elif discipline == "none":
            disc = NoRejuvenation()
        return cls(
            "fuzz",
            vms,
            predictor,
            VmcConfig(rttf_threshold_s=threshold_s, target_active=target),
            balancer=LocalBalancer(balancer_kind),
            discipline=disc,
        )

    def make(cls):
        rngs = RngRegistry(seed=seed * 31 + 5)
        vms = _pool(
            cls,
            rngs,
            n_vms,
            lambda i: i % 3 != 0,
            rejuvenation_time_s=rejuvenation_time_s,
        )
        return _recorded(build(cls, rngs, vms))

    ref, vmc = make(ReferenceVmc), make(VirtualMachineController)
    for era in range(n_eras):
        if era in storm_eras:
            active = sorted(
                vm.name for vm in ref.vms_in(VmState.ACTIVE)
            )
            if active:
                k = int(storm_rng.integers(1, len(active) + 1))
                picks = storm_rng.choice(len(active), size=k, replace=False)
                victims = [active[i] for i in sorted(int(i) for i in picks)]
                _fail_by_name(ref, victims)
                _fail_by_name(vmc, victims)
        rep_r = ref.process_era(int(loads[era]), 30.0, era * 30.0)
        rep_t = vmc.process_era(int(loads[era]), 30.0, era * 30.0)
        assert rep_r == rep_t, (
            f"seed {seed} era {era}: scenario "
            f"(n={n_vms} t={target} {predictor_kind}/{discipline}/"
            f"{balancer_kind}) diverged"
        )
        _assert_pools_equal(ref, vmc, era)


# --------------------------------------------------------------------- #
# request-granular layer: the DES control loop (snapshot)
# --------------------------------------------------------------------- #

#: The snapshot file's one section.
SECTION = "des_loop"

#: DES-loop cases: 8 quiet eras, and 20 eras under enough load that the
#: era boundary swaps at-risk VMs and mid-era failures drop active slots.
DES_LOOP_CASES = {
    "steady": {"seed": 9, "clients": (120, 72), "think_time_s": 7.0,
               "eras": 8},
    "swaps": {"seed": 9, "clients": (160, 96), "think_time_s": 3.0,
              "eras": 20},
}


def _digest(obj) -> str:
    """blake2b over sorted JSON (``repr`` round-trips doubles exactly)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def _vm_state(vm: VirtualMachine) -> dict:
    """Per-VM mutable state as plain JSON scalars."""
    return {
        k: (v.value if isinstance(v, VmState)
            else int(v) if isinstance(v, (int, np.integer))
            else float(v))
        for k, v in _snapshot(vm).items()
    }


def _build_des_loop(case: str):
    from repro.core import get_policy
    from repro.core.des_loop import DesControlLoop
    from repro.workload import BrowserPopulation

    cfg = DES_LOOP_CASES[case]
    rngs = RngRegistry(seed=cfg["seed"])

    def pool(region, itype, n):
        return [
            VirtualMachine(
                f"{region}/vm{i}",
                itype,
                AnomalyInjector(rngs.child(f"{region}{i}").stream("a")),
            )
            for i in range(n)
        ]

    regions = {
        "r1": (pool("r1", M3_MEDIUM, 6),
               BrowserPopulation(n_clients=cfg["clients"][0]), 4),
        "r3": (pool("r3", PRIVATE_SMALL, 4),
               BrowserPopulation(n_clients=cfg["clients"][1]), 3),
    }
    return DesControlLoop(
        regions,
        get_policy("available-resources"),
        OracleRttfPredictor(),
        rngs,
    )


def _collect_des_loop(case: str) -> dict:
    from repro.workload import browsers

    cfg = DES_LOOP_CASES[case]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(browsers, "THINK_TIME_S", cfg["think_time_s"])
        loop = _build_des_loop(case)
        loop.run(cfg["eras"])
    series = loop.traces.matching("")
    out = {
        "total_rejuvenations": int(loop.total_rejuvenations),
        "total_failures": int(loop.total_failures),
        "series_names": sorted(series),
        "traces": _digest(
            {
                name: [
                    [float(t) for t in ts.times],
                    [float(v) for v in ts.values],
                ]
                for name, ts in series.items()
            }
        ),
    }
    for region in loop.region_names:
        state = loop._states[region]
        out[f"life/{region}"] = [int(n) for n in state.life]
        out[f"active_slots/{region}"] = [int(n) for n in state.active_slots]
        out[f"vms/{region}"] = _digest([_vm_state(vm) for vm in state.vms])
    return out


def _collect() -> dict:
    return {case: _collect_des_loop(case) for case in DES_LOOP_CASES}


def test_des_loop_parity():
    """Full request-level MAPE loop: every trace series stays identical."""
    assert SNAPSHOT_PATH.exists(), (
        f"missing snapshot {SNAPSHOT_PATH}; see this module's docstring"
    )
    expected = json.loads(SNAPSHOT_PATH.read_text())[SECTION]
    actual = _collect()
    assert sorted(actual) == sorted(expected)
    for case, exp_case in expected.items():
        assert sorted(actual[case]) == sorted(exp_case)
        for key, exp in exp_case.items():
            assert actual[case][key] == exp, (
                f"{SECTION}/{case}/{key}: {actual[case][key]!r} != snapshot "
                f"{exp!r} (recorded from the deleted object path; bit-exact "
                "parity broken)"
            )
    assert actual["swaps"]["total_rejuvenations"] > 0
    assert actual["swaps"]["total_failures"] > 0


def test_columnar_option_is_gone():
    """One store: no caller can select another."""
    import inspect

    from repro.core.des_loop import DesControlLoop

    with pytest.raises(ValueError, match="columnar"):
        VmcConfig(columnar=False)
    assert "columnar" not in inspect.signature(DesControlLoop).parameters


def main() -> int:
    if "--regen" not in sys.argv:
        print(__doc__)
        return 2
    SNAPSHOT_PATH.parent.mkdir(exist_ok=True)
    snapshot = {SECTION: _collect()}
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {SNAPSHOT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
