"""The mean-field RTTF oracle: exactness, purity, and the policy clauses.

``reference_ttf`` is the algorithm the oracle ran before it became
:func:`repro.pcam.vm.mean_field_ttf_s` -- kept verbatim, because it finds
the SLA crossing by driving a VM's *public* properties, so equality with
the kernel pins both the kernel's arithmetic and the property chain.  The
VMs it drives are the scalar :class:`~tests.pcam.reference_vmc.ReferenceVm`;
the "table-row" cases ask the production oracle, which reads a
:class:`~repro.pcam.state_table.VmStateTable`, about a twin row at the
same state.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.predictor import CorruptiblePredictor
from repro.pcam.predictor import OracleRttfPredictor
from repro.pcam import vm as vm_module
from repro.pcam.state_table import VmStateTable
from repro.pcam.vm import FailurePolicy, VirtualMachine, VmState
from repro.sim import INSTANCE_CATALOG, M3_MEDIUM, PRIVATE_SMALL
from repro.workload import AnomalyInjector

from .conftest import set_load
from .reference_vmc import (
    ReferenceOracle,
    ReferenceVm,
    feature_rows,
    predict_one,
    predict_rows,
    table_rows,
)

SHAPES = [
    *INSTANCE_CATALOG.values(),
    dataclasses.replace(PRIVATE_SMALL, name="swapless", swap_mb=0.0),
]


def reference_ttf(vm, request_rate, mean_demand=1.5):
    """The pre-kernel ``true_time_to_failure_s``: mutate, scan, restore."""
    if request_rate <= 0:
        return float("inf")
    leak_rate = vm.injector.expected_leak_rate_mb(request_rate)
    if leak_rate <= 0:
        return float("inf")
    remaining = max(vm.anomaly_budget_mb - vm.leaked_mb, 0.0)
    t_crash = remaining / leak_rate

    saved = (vm.leaked_mb, vm.stuck_threads, vm.last_response_time_s)
    thread_rate = vm.injector.expected_thread_rate(request_rate)

    def violates(t):
        vm.leaked_mb = saved[0] + leak_rate * t
        vm.stuck_threads = int(saved[1] + thread_rate * t)
        return (
            vm.response_time_s(request_rate, mean_demand)
            > vm.failure_policy.sla_response_time_s
        )

    t_sla = float("inf")
    try:
        t, dt = 0.0, max(t_crash / 400.0, 1.0)
        while t < t_crash:
            t += dt
            if violates(t):
                lo, hi = max(t - dt, 0.0), t
                for _ in range(30):
                    mid = 0.5 * (lo + hi)
                    if violates(mid):
                        hi = mid
                    else:
                        lo = mid
                t_sla = hi
                break
    finally:
        vm.leaked_mb, vm.stuck_threads, vm.last_response_time_s = saved
    return min(t_crash, t_sla)


def make_vm(
    itype=PRIVATE_SMALL,
    leaked=0.0,
    stuck=0,
    rate=0.0,
    policy=None,
    name="oracle/vm",
    thread_probability=None,
    **injector_kw,
):
    injector = AnomalyInjector(np.random.default_rng(0), **injector_kw)
    if thread_probability is not None:
        injector.thread_probability = thread_probability
    vm = ReferenceVm(
        name,
        itype,
        injector,
        failure_policy=policy,
        state=VmState.ACTIVE,
    )
    vm.leaked_mb = leaked
    vm.stuck_threads = stuck
    vm.last_request_rate = rate
    return vm


def table_twins(refs, rate=None):
    """Views of ``refs``' specs in one table, each row at its reference's
    load state (at ``rate`` instead of its last rate, if given)."""
    views = [
        VirtualMachine(
            ref.name, ref.itype, ref.injector, ref.failure_policy,
            state=VmState.ACTIVE,
        )
        for ref in refs
    ]
    VmStateTable(views)
    for ref, view in zip(refs, views):
        set_load(
            view,
            leaked_mb=ref.leaked_mb,
            stuck_threads=ref.stuck_threads,
            last_request_rate=ref.last_request_rate if rate is None else rate,
        )
    return views


def table_ttf(vm, rate, mean_demand=1.5):
    """The production oracle's answer for a table twin of ``vm`` at
    ``rate`` (> 0: the oracle reports an idle VM at 1 req/s)."""
    (twin,) = table_twins([vm], rate)
    return pooled(OracleRttfPredictor(mean_demand), [twin])[0]


def aged_pool(n=8, table=False):
    """ACTIVE VMs of mixed shapes at different anomaly levels and rates:
    scalar reference VMs, or (``table``) their table twins."""
    vms = []
    for i in range(n):
        itype = SHAPES[i % len(SHAPES)]
        vms.append(
            make_vm(
                itype,
                leaked=0.15 * i * itype.memory_mb,
                stuck=11 * i,
                rate=0.0 if i == 3 else 2.0 + 1.5 * i,
                name=f"pool/vm{i}",
            )
        )
    return table_twins(vms) if table else vms


# ---------------------------------------------------------------------- #
# exactness
# ---------------------------------------------------------------------- #


@settings(max_examples=300, deadline=None)
@given(
    itype=st.sampled_from(SHAPES),
    leak_fraction=st.floats(0.0, 1.2),
    thread_fraction=st.floats(0.0, 2.0),
    rate=st.one_of(st.floats(0.05, 60.0), st.sampled_from([0.0, -1.0])),
    mean_demand=st.floats(0.5, 4.0),
    sla=st.one_of(st.floats(0.02, 10.0), st.just(1e6)),
    leak_probability=st.sampled_from([0.10, 0.02, 0.0]),
)
def test_kernel_equals_reference_exactly(
    itype, leak_fraction, thread_fraction, rate, mean_demand, sla,
    leak_probability,
):
    # leak_probability == 0 leaves only the thread overhead leaking;
    # with thread_probability == 0 as well the leak rate is exactly 0
    thread_probability = 0.05 if leak_probability else 0.0
    vm = make_vm(
        itype,
        policy=FailurePolicy(sla_response_time_s=sla),
        leak_probability=leak_probability,
        thread_probability=thread_probability,
    )
    vm.leaked_mb = leak_fraction * vm.anomaly_budget_mb
    vm.stuck_threads = int(thread_fraction * vm.thread_free_slots)

    # the thread clause adds its closed-form bound to the reference's
    # crash and SLA clauses
    expected = reference_ttf(vm, rate, mean_demand)
    thread_rate = vm.injector.expected_thread_rate(max(rate, 0.0))
    t_threads = (
        max(vm.thread_free_slots - vm.stuck_threads, 0) / thread_rate
        if thread_rate > 0 and math.isfinite(expected)
        else float("inf")
    )
    assert vm.true_time_to_failure_s(rate, mean_demand) == min(
        expected, t_threads
    )

    # same value from a table row
    if rate > 0:
        assert table_ttf(vm, rate, mean_demand) == min(expected, t_threads)


def reference_policy_ttf(vm, request_rate, mean_demand=1.5):
    """``reference_ttf`` with the thread clause.

    The kernel's clause logic (scan horizon, final ``min`` over the three
    clauses) around the same property-driven probe.  Also returns the
    probe times, so a case can show which regime it exercised.
    """
    leak_rate = vm.injector.expected_leak_rate_mb(request_rate)
    thread_rate = vm.injector.expected_thread_rate(request_rate)
    assert request_rate > 0 and leak_rate > 0
    policy = vm.failure_policy
    t_crash = max(vm.anomaly_budget_mb - vm.leaked_mb, 0.0) / leak_rate
    t_threads = (
        max(vm.thread_free_slots - vm.stuck_threads, 0) / thread_rate
        if thread_rate > 0
        else float("inf")
    )
    horizon = t_crash

    saved = (vm.leaked_mb, vm.stuck_threads)
    probes = []

    def violates(t):
        probes.append(t)
        vm.leaked_mb = saved[0] + leak_rate * t
        vm.stuck_threads = int(saved[1] + thread_rate * t)
        return (
            vm.response_time_s(request_rate, mean_demand)
            > policy.sla_response_time_s
        )

    t_sla = float("inf")
    try:
        t, dt = 0.0, max(horizon / 400.0, 1.0)
        while t < horizon:
            t += dt
            if violates(t):
                lo, hi = max(t - dt, 0.0), t
                for _ in range(30):
                    mid = 0.5 * (lo + hi)
                    if violates(mid):
                        hi = mid
                    else:
                        lo = mid
                t_sla = hi
                break
    finally:
        vm.leaked_mb, vm.stuck_threads = saved
    return min(t_crash, t_sla, t_threads), probes, horizon


SWAPLESS = SHAPES[-1]
#: 6 free thread slots: the regimes below start with 7 stuck threads
FEW_SLOTS = dataclasses.replace(PRIVATE_SMALL, name="few-slots", thread_slots=30)

#: The regimes no sweep cell visits (there every prediction is an SLA
#: crossing found after ~20 scan steps).  name -> (VM kwargs, policy
#: kwargs, fraction of the RAM+swap budget already leaked, rate, and what
#: the reference's probe record must show for the case to be the regime
#: it is named for).  Both hard clauses are on, so where the SLA is never
#: crossed the thread clause may end the life before the crash horizon.
REGIMES = {
    "swapless-step-before-and-after": (
        dict(itype=SWAPLESS), {}, 0.5, 12.0,
        lambda ttf, probes, horizon: len(probes) > 31,
    ),
    "swapless-sla-out-of-reach": (
        dict(itype=SWAPLESS),
        dict(sla_response_time_s=1e6), 0.0, 12.0,
        lambda ttf, probes, horizon: ttf <= horizon and len(probes) >= 400,
    ),
    "no-thread-rate": (
        dict(thread_probability=0.0), {}, 0.2, 9.0,
        lambda ttf, probes, horizon: len(probes) > 31,
    ),
    "past-the-budget": (
        {}, {}, 1.25, 8.0,
        lambda ttf, probes, horizon: horizon == 0.0 and not probes and ttf == 0.0,
    ),
    "horizon-under-one-second": (
        {}, dict(sla_response_time_s=1e6), 0.9999, 20.0,
        lambda ttf, probes, horizon: 0.0 < horizon < 1.0 and probes == [1.0],
    ),
    "horizon-under-one-second-crossing": (
        {}, {}, 0.9999, 20.0,
        lambda ttf, probes, horizon: 0.0 < ttf < horizon < 1.0
        and probes[0] == 1.0 and len(probes) == 31,
    ),
    "violating-at-the-first-step": (
        {}, dict(sla_response_time_s=0.02), 0.0, 30.0,
        lambda ttf, probes, horizon: len(probes) == 31 and 0.0 < ttf < 1e-6,
    ),
    "never-violating-before-the-crash": (
        {}, dict(sla_response_time_s=1e6), 0.3, 6.0,
        lambda ttf, probes, horizon: ttf <= horizon and len(probes) >= 400,
    ),
    # the edges of sla_crossing_estimate_s: private.small has 136 free
    # slots and 40 units of CPU, so at the default SLA of 1 s the factor
    # threshold is (rate + 1) * 1.5 / 40
    "crossing-on-a-thread-step": (
        # no swap for 4 000 s, 0.6 threads/s: 1 - n/136 < 0.4875 from
        # n = 70, reached at (70 - 7) / 0.6 = 105 s exactly
        dict(leak_probability=0.0), {}, 0.0, 12.0,
        lambda ttf, probes, horizon: ttf == 105.0 and len(probes) > 31,
    ),
    "crossing-with-rho-capped": (
        # 99 / 12 <= 10: the crossing is where 100 / mu passes the SLA
        {}, dict(sla_response_time_s=10.0), 0.0, 12.0,
        lambda ttf, probes, horizon: 0.0 < ttf < horizon and len(probes) > 31,
    ),
    "threshold-above-one": (
        # (26 + 1) * 1.5 / 40 > 1: violated before any anomaly accrues
        {}, {}, 0.0, 26.0,
        lambda ttf, probes, horizon: len(probes) == 31 and 0.0 < ttf < 1e-6,
    ),
    "threshold-at-the-floor": (
        # 100 / 187.5 * 1.5 / 40 == 0.02: the floored capacity never
        # violates, even with every thread slot stuck
        {}, dict(sla_response_time_s=187.5), 0.0, 20.0,
        lambda ttf, probes, horizon: ttf <= horizon and len(probes) >= 400,
    ),
    "threshold-just-above-the-floor": (
        # ... while at 187 s it does, at the thread step where the factor
        # first drops under 0.02 (n = 134, t = 127 s)
        {}, dict(sla_response_time_s=187.0), 0.0, 20.0,
        lambda ttf, probes, horizon: abs(ttf - 127.0) < 1e-6,
    ),
    "swapless-swap-step-with-threads": (
        # the step to swap_p = 1 at (640 - 192) / 0.99 s trips the SLA
        # between two thread steps
        dict(itype=SWAPLESS, thread_probability=0.01),
        {}, 0.3, 12.0,
        lambda ttf, probes, horizon: abs(ttf - 448.0 / 0.99) < 1e-6
        and len(probes) > 31,
    ),
    "stuck-past-the-slots": (
        dict(itype=FEW_SLOTS), {}, 0.0, 12.0,
        lambda ttf, probes, horizon: len(probes) == 31 and ttf == 0.0,
    ),
}


@pytest.mark.parametrize("name", REGIMES)
@pytest.mark.parametrize("table", [False, True], ids=["object", "table-row"])
def test_kernel_regimes_equal_reference_exactly(name, table):
    vm_kw, policy_kw, leak_fraction, rate, is_the_regime = REGIMES[name]
    vm = make_vm(policy=FailurePolicy(**policy_kw), **vm_kw)
    vm.leaked_mb = leak_fraction * vm.anomaly_budget_mb
    vm.stuck_threads = 7
    expected, probes, horizon = reference_policy_ttf(vm, rate)
    assert is_the_regime(expected, probes, horizon), (expected, len(probes), horizon)
    if table:
        assert table_ttf(vm, rate) == expected
    else:
        assert vm.true_time_to_failure_s(rate) == expected


# ---------------------------------------------------------------------- #
# the closed-form estimate: checked, never trusted
# ---------------------------------------------------------------------- #

#: A wrong estimate: name -> (estimate, thread rate) -> what the helper
#: returns instead.
WRONG_ESTIMATES = {
    "zero": lambda est, thread_rate: 0.0,
    "inf": lambda est, thread_rate: math.inf,
    "nan": lambda est, thread_rate: math.nan,
    "negative": lambda est, thread_rate: -1.0,
    "double": lambda est, thread_rate: 2.0 * est,
    "one-thread-step-early": lambda est, thread_rate: (
        est - 1.0 / thread_rate if thread_rate > 0 else 0.5 * est
    ),
    "one-thread-step-late": lambda est, thread_rate: (
        est + 1.0 / thread_rate if thread_rate > 0 else 1.5 * est
    ),
}


def regime_vms():
    """One VM per ``REGIMES`` row, at that row's state, with its rate."""
    for vm_kw, policy_kw, leak_fraction, rate, _ in REGIMES.values():
        vm = make_vm(policy=FailurePolicy(**policy_kw), **vm_kw)
        vm.leaked_mb = leak_fraction * vm.anomaly_budget_mb
        vm.stuck_threads = 7
        yield vm, rate


@pytest.mark.parametrize("wrong", WRONG_ESTIMATES)
def test_kernel_exact_whatever_the_estimate(monkeypatch, wrong):
    """The bracket is probed before it is used: a wrong one costs probes."""
    cases = list(regime_vms())
    cases += [(vm, max(vm.last_request_rate, 1.0)) for vm in aged_pool()]
    want = [reference_policy_ttf(vm, rate)[0] for vm, rate in cases]

    estimate = vm_module.sla_crossing_estimate_s
    calls = []

    def wrong_estimate(*args):
        calls.append(args)
        return WRONG_ESTIMATES[wrong](estimate(*args), args[10])

    monkeypatch.setattr(vm_module, "sla_crossing_estimate_s", wrong_estimate)
    assert [vm.true_time_to_failure_s(rate) for vm, rate in cases] == want
    assert len(calls) == len(cases)


def violates_at(vm, request_rate, t, mean_demand=1.5):
    """``reference_policy_ttf``'s probe, on its own: violated at ``t``?"""
    leak_rate = vm.injector.expected_leak_rate_mb(request_rate)
    thread_rate = vm.injector.expected_thread_rate(request_rate)
    saved = (vm.leaked_mb, vm.stuck_threads)
    try:
        vm.leaked_mb = saved[0] + leak_rate * t
        vm.stuck_threads = int(saved[1] + thread_rate * t)
        return (
            vm.response_time_s(request_rate, mean_demand)
            > vm.failure_policy.sla_response_time_s
        )
    finally:
        vm.leaked_mb, vm.stuck_threads = saved


def test_estimate_brackets_the_crossing():
    """A seeded corpus of aged VMs x rates: the estimate's bracket holds.

    The kernel is exact whatever the estimate says, so only this test
    notices an estimate gone wrong (each miss costs the ~50 probes the
    bracket saves).
    """
    rng = np.random.default_rng(11)
    hits = crossings = 0
    for vm in aged_pool(n=16):
        for rate in np.exp(rng.uniform(np.log(0.5), np.log(60.0), 40)).tolist():
            policy = vm.failure_policy
            est = vm_module.sla_crossing_estimate_s(
                vm.leaked_mb, vm.stuck_threads, rate, 1.5,
                vm.itype.cpu_power, vm.usable_memory_mb, vm.itype.swap_mb,
                vm.thread_free_slots, policy.sla_response_time_s,
                vm.injector.expected_leak_rate_mb(rate),
                vm.injector.expected_thread_rate(rate),
            )
            if not 0.0 < est < math.inf:
                continue
            crossings += 1
            width = est * vm_module.ESTIMATE_BRACKET
            hits += not violates_at(vm, rate, est - width) and violates_at(
                vm, rate, est + width
            )
    assert crossings >= 200
    assert hits >= 0.95 * crossings, (hits, crossings)


def pooled(predictor, vms):
    """One pooled call over ``vms``."""
    return predict_rows(predictor, vms)


def reference_predict_rttf(vm, mean_demand, noise_std, rng):
    """The pre-kernel oracle, one VM at a time."""
    rate = vm.last_request_rate
    if rate <= 0:
        rate = 1.0
    ttf = reference_ttf(vm, rate, mean_demand)
    if noise_std > 0 and np.isfinite(ttf):
        ttf *= max(1.0 + rng.normal(0.0, noise_std), 0.05)
    return ttf


@pytest.mark.parametrize("table", [False, True])
@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_batch_equals_per_vm_loop(table, noise_std):
    """Default policy: a pooled call == one-row calls == the old per-VM
    loop, same draws; for the production oracle over table rows, and for
    the reference VMC's oracle over scalar VMs."""
    vms = aged_pool(table=table)
    rngs = [np.random.default_rng(7) for _ in range(3)]

    def oracle(rng):
        predictor = OracleRttfPredictor(1.4, noise_std=noise_std, rng=rng)
        return predictor if table else ReferenceOracle(predictor)

    batch, scalar = oracle(rngs[0]), oracle(rngs[1])
    want = [
        reference_predict_rttf(vm, 1.4, noise_std, rngs[2])
        for vm in aged_pool()
    ]

    assert pooled(batch, vms).tolist() == want
    assert [predict_one(scalar, vm) for vm in vms] == want
    states = [rng.bit_generator.state for rng in rngs]
    assert states[0] == states[1] == states[2]
    # an idle VM is reported at the nominal 1 req/s, not as immortal
    assert math.isfinite(want[3])


def test_scalar_and_table_pools_agree():
    scalar = pooled(ReferenceOracle(OracleRttfPredictor()), aged_pool())
    table = pooled(OracleRttfPredictor(), aged_pool(table=True))
    assert scalar.tolist() == table.tolist()


def stale(inner):
    """``inner`` behind a corruptible predictor in its stale mode."""
    corruptible = CorruptiblePredictor(inner)
    corruptible.set_mode("stale")
    return corruptible


@pytest.mark.parametrize(
    "wrap",
    [
        lambda inner: stale(inner),
        CorruptiblePredictor,
        lambda inner: stale(CorruptiblePredictor(inner)),
    ],
)
def test_wrappers_batch_equals_loop(wrap):
    vms = aged_pool(table=True)
    batch_rng, loop_rng = np.random.default_rng(3), np.random.default_rng(3)
    batch = wrap(OracleRttfPredictor(noise_std=0.2, rng=batch_rng))
    loop = wrap(OracleRttfPredictor(noise_std=0.2, rng=loop_rng))
    table, rows = table_rows(vms)

    assert batch.predict_rttf_rows(
        table.feature_matrix(rows), vms, table, rows
    ).tolist() == [
        predict_one(loop, vm) for vm in vms
    ]
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


# ---------------------------------------------------------------------- #
# purity: an observer between steps must never see fabricated state
# ---------------------------------------------------------------------- #


def test_batch_writes_no_table_cell():
    vms = aged_pool(table=True)
    # every column read-only: a store would raise
    columns = [
        column for column in vars(vms[0].table).values()
        if isinstance(column, np.ndarray)
    ]
    for column in columns:
        column.flags.writeable = False
    try:
        predict_rows(OracleRttfPredictor(), vms)
    finally:
        for column in columns:
            column.flags.writeable = True


def test_batch_writes_no_vm_attribute(monkeypatch):
    vms = aged_pool(table=True)
    writes = []

    def counting(self, name, value):
        writes.append(name)
        object.__setattr__(self, name, value)

    monkeypatch.setattr(VirtualMachine, "__setattr__", counting)
    vms[0].rack_id = vms[0].rack_id
    assert writes == ["rack_id"]
    writes.clear()

    def spec(vm):
        return [getattr(vm, name) for name in VirtualMachine.__slots__]

    before = [spec(vm) for vm in vms]
    predict_rows(OracleRttfPredictor(), vms)
    assert writes == []
    assert [spec(vm) for vm in vms] == before


# ---------------------------------------------------------------------- #
# the FailurePolicy clauses
# ---------------------------------------------------------------------- #


def mean_field_failure_time(vm, rate, step_s=0.25, mean_demand=1.5):
    """Step the expected trajectory until ``failure_point_reached()``."""
    leak_rate = vm.injector.expected_leak_rate_mb(rate)
    thread_rate = vm.injector.expected_thread_rate(rate)
    leaked0, stuck0 = vm.leaked_mb, vm.stuck_threads
    t = 0.0
    while t < 1e5:
        vm.leaked_mb = leaked0 + leak_rate * t
        vm.stuck_threads = int(stuck0 + thread_rate * t)
        vm.last_response_time_s = vm.response_time_s(rate, mean_demand)
        if vm.failure_point_reached():
            break
        t += step_s
    else:
        t = float("inf")
    vm.leaked_mb, vm.stuck_threads, vm.last_response_time_s = leaked0, stuck0, 0.0
    return t


@pytest.mark.parametrize(
    "policy",
    [
        FailurePolicy(),
        FailurePolicy(sla_response_time_s=1e6),
    ],
    # both hard clauses are always on
    ids=lambda p: f"sla{p.sla_response_time_s:g}-swap1-threads1",
)
@pytest.mark.parametrize("itype", [M3_MEDIUM, PRIVATE_SMALL], ids=lambda t: t.name)
def test_oracle_matches_stepped_failure_point(itype, policy):
    rate, step_s = 20.0, 0.25
    vm = make_vm(itype, policy=policy)
    stepped = mean_field_failure_time(vm, rate, step_s)
    assert math.isfinite(stepped)
    assert vm.true_time_to_failure_s(rate) == pytest.approx(
        stepped, abs=step_s + 1e-6
    )


def test_thread_exhaustion_bounds_the_oracle():
    """m3.medium at 20 req/s, SLA out of reach: 232 free slots at 1/s."""
    vm = make_vm(M3_MEDIUM, policy=FailurePolicy(sla_response_time_s=1e6))
    assert vm.true_time_to_failure_s(20.0) == 232.0
    # already exhausted
    vm.stuck_threads = 500
    assert vm.true_time_to_failure_s(20.0) == 0.0
