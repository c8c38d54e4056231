"""Tests for the anomaly-injection model (paper Sec. VI-A probabilities)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import AnomalyEffect, AnomalyInjector, anomalies
from repro.workload.anomalies import (
    DEFAULT_LEAK_PROBABILITY,
    DEFAULT_THREAD_PROBABILITY,
    ZERO_EFFECT,
    draw_pool,
)


#: the leak-size constants an injector reads when it is built
SIZES = ("leak_mean_mb", "leak_sigma", "thread_overhead_mb")


def make_injector(seed=0, thread_probability=DEFAULT_THREAD_PROBABILITY, **kw):
    """An injector; a size keyword (``leak_mean_mb=1.0``) patches its
    module constant (``LEAK_MEAN_MB``) while the injector is built."""
    sizes = {name: kw.pop(name) for name in SIZES if name in kw}
    with pytest.MonkeyPatch.context() as patch:
        for name, value in sizes.items():
            patch.setattr(anomalies, name.upper(), value)
        inj = AnomalyInjector(np.random.default_rng(seed), **kw)
    inj.thread_probability = thread_probability  # the setter validates it
    return inj


def test_paper_default_probabilities():
    assert DEFAULT_LEAK_PROBABILITY == 0.10
    assert DEFAULT_THREAD_PROBABILITY == 0.05
    inj = make_injector()
    assert inj.leak_probability == 0.10
    assert inj.thread_probability == 0.05


def test_zero_requests_zero_effect():
    assert make_injector().inject(0) is ZERO_EFFECT


def test_negative_requests_rejected():
    with pytest.raises(ValueError):
        make_injector().inject(-1)


def test_injection_rates_match_probabilities():
    inj = make_injector(seed=1)
    n = 200_000
    effect = inj.inject(n)
    assert effect.n_requests == n
    assert effect.stuck_threads / n == pytest.approx(0.05, abs=0.005)
    # mean leak contribution: p_leak * mean + p_thread * overhead per request
    expected_mb = n * (0.10 * inj.leak_mean_mb + 0.05 * inj.thread_overhead_mb)
    assert effect.leaked_mb == pytest.approx(expected_mb, rel=0.05)


def test_effects_add():
    a = AnomalyEffect(1.0, 2, 10)
    b = AnomalyEffect(0.5, 1, 5)
    c = a + b
    assert c.leaked_mb == 1.5
    assert c.stuck_threads == 3
    assert c.n_requests == 15


def test_expected_leak_rate_formula():
    inj = make_injector(leak_mean_mb=1.0, thread_overhead_mb=0.0)
    # 100 req/s * 10% * 1 MB = 10 MB/s
    assert inj.expected_leak_rate_mb(100.0) == pytest.approx(10.0)


def test_expected_thread_rate_formula():
    inj = make_injector()
    assert inj.expected_thread_rate(100.0) == pytest.approx(5.0)


def test_expected_rates_validate_input():
    inj = make_injector()
    with pytest.raises(ValueError):
        inj.expected_leak_rate_mb(-1.0)
    with pytest.raises(ValueError):
        inj.expected_thread_rate(-1.0)


def test_empirical_mean_matches_expected_rate():
    """inject() and expected_leak_rate_mb() agree (mean-field consistency)."""
    inj = make_injector(seed=2)
    n, dt_rate = 100_000, 50.0
    effect = inj.inject(n)
    per_request_expected = inj.expected_leak_rate_mb(dt_rate) / dt_rate
    assert effect.leaked_mb / n == pytest.approx(per_request_expected, rel=0.05)


def test_deterministic_given_stream():
    e1 = make_injector(seed=7).inject(1000)
    e2 = make_injector(seed=7).inject(1000)
    assert e1 == e2


def test_zero_probability_injector_never_injects():
    inj = make_injector(leak_probability=0.0, thread_probability=0.0)
    e = inj.inject(10_000)
    assert e.leaked_mb == 0.0
    assert e.stuck_threads == 0


@pytest.mark.parametrize(
    "kw",
    [
        dict(leak_probability=-0.1),
        dict(leak_probability=1.1),
        dict(thread_probability=2.0),
        dict(leak_mean_mb=0.0),
        dict(leak_sigma=-1.0),
        dict(thread_overhead_mb=-0.1),
    ],
)
def test_parameter_validation(kw):
    with pytest.raises(ValueError):
        make_injector(**kw)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("name", SIZES)
def test_non_finite_parameters_refused(name, value):
    # a NaN or infinite size would become a NaN leak in ``leaked_mb`` and a
    # NaN ``expected_leak_rate_mb`` in the oracle
    with pytest.raises(ValueError, match=name.upper()):
        make_injector(**{name: value})


# --------------------------------------------------------------------- #
# the lean pool-level draw vs. a walk of inject() calls
# --------------------------------------------------------------------- #

#: 0 and 1 (the DES batch), per-era batches, and batches large enough to
#: draw >= 8 leaks and leave the sequential-sum branch
COUNTS = st.one_of(
    st.integers(0, 1), st.integers(2, 60), st.integers(150, 5_000)
)


def _reference_effect(rng, inj, n):
    """The Sec. VI-A draw spelled on the bare generator: the stream contract.

    Two binomials, then one log-normal batch iff a leak was drawn; always
    ``ndarray.sum``, which the injector's small-batch Python sum must equal.
    """
    if n == 0:
        return 0.0, 0, 0
    n_leaks = int(rng.binomial(n, inj.leak_probability))
    n_threads = int(rng.binomial(n, inj.thread_probability))
    leaked = 0.0
    if n_leaks:
        sizes = rng.lognormal(inj._leak_mu, inj.leak_sigma, size=n_leaks)
        leaked = float(sizes.sum())
    return leaked + n_threads * inj.thread_overhead_mb, n_threads, n


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rounds=st.lists(
        st.lists(COUNTS, min_size=1, max_size=8), min_size=1, max_size=4
    ),
)
def test_draw_pool_is_a_walk_of_inject_calls(seed, rounds):
    """Same values, same types, and every stream left in the same state."""
    width = max(map(len, rounds))
    bare = [np.random.default_rng([seed, i]) for i in range(width)]
    walked = [make_injector([seed, i]) for i in range(width)]
    pooled = [make_injector([seed, i]) for i in range(width)]
    for counts in rounds:
        expected = [
            _reference_effect(rng, inj, c)
            for rng, inj, c in zip(bare, walked, counts)
        ]
        effects = [inj.inject(c) for inj, c in zip(walked, counts)]
        assert effects == expected
        leaked, threads = draw_pool(pooled[: len(counts)], counts)
        assert leaked.dtype == np.float64 and threads.dtype == np.int64
        assert leaked.tolist() == [e.leaked_mb for e in effects]
        assert threads.tolist() == [e.stuck_threads for e in effects]
        for rng, a, b in zip(bare, walked, pooled):
            state = rng.bit_generator.state
            assert a._rng.bit_generator.state == state
            assert b._rng.bit_generator.state == state


@pytest.mark.parametrize("k", range(1, 8))
def test_small_batch_sum_is_ndarray_sum(k):
    """Below 8 leaks the injector adds the sizes in a Python loop; the
    total must equal ``ndarray.sum`` bit for bit on every Python version
    (builtin ``sum`` compensates float rounding from 3.12 on)."""
    for seed in range(400):
        inj = make_injector(seed, leak_probability=1.0, thread_probability=0.0)
        leaked, threads, _ = _reference_effect(
            np.random.default_rng(seed), inj, k
        )
        assert threads == 0
        assert inj.draw(k) == (leaked, 0)


def test_draw_matches_inject_and_validates():
    assert make_injector().draw(0) == (0.0, 0)
    pair = make_injector(seed=11).draw(300)
    effect = make_injector(seed=11).inject(300)
    assert pair == (effect.leaked_mb, effect.stuck_threads)
    assert type(pair[0]) is float and type(pair[1]) is int
    with pytest.raises(ValueError):
        make_injector().draw(-1)
    with pytest.raises(ValueError):
        draw_pool([make_injector(), make_injector()], [3, -1])
    with pytest.raises(ValueError):
        draw_pool([make_injector()], [3, 4])


def test_anomaly_effect_record_unchanged():
    assert AnomalyEffect._fields == ("leaked_mb", "stuck_threads", "n_requests")
    assert ZERO_EFFECT == (0.0, 0, 0)
    effect = make_injector(seed=4).inject(50)
    assert type(effect) is AnomalyEffect and effect.n_requests == 50
    assert effect + ZERO_EFFECT == effect
