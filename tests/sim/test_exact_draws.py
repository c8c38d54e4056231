"""ExactDraws against the Generator calls it replaces.

Each draw runs beside a twin ``Generator`` on the same seed, interleaved
with the ``exponential`` and ``lognormal`` draws the simulator makes
between them; values and the full ``bit_generator.state`` (PCG64's
buffered 32-bit half-word included) must agree after every sequence.
"""

import math

import numpy as np
import pytest

from repro.sim.rng import ExactDraws
from repro.workload.anomalies import AnomalyInjector

#: 2**31 + 1, 3 * 2**30 and 2**32 - 1 reach Lemire's rejection loop
#: often; k <= 80 almost never does
KS = [1, 2, 3, 16, 80, 2**31 + 1, 3 * 2**30, 2**32 - 1]
PS = [0.0, 1e-12, 0.05, 0.1, 0.3, 0.5, math.nextafter(0.5, 1.0), 0.9, 1.0]
SEEDS = range(20)


def twins(seed):
    """A reference generator, and a generator on the same seed with its
    ExactDraws."""
    generator = np.random.default_rng(seed)
    return np.random.default_rng(seed), generator, ExactDraws(generator)


def interleave(step, ref, gen):
    """The continuous draws that sit between the scalar ones."""
    if step % 3 == 0:
        assert gen.exponential(2.0) == ref.exponential(2.0)
    if step % 5 == 0:
        assert gen.lognormal(-0.1, 0.5) == ref.lognormal(-0.1, 0.5)


@pytest.mark.parametrize("k", KS)
def test_integers_is_generator_integers(k):
    for seed in SEEDS:
        ref, gen, draws = twins(seed)
        for step in range(200):
            got = draws.integers(k)
            assert type(got) is int
            assert got == int(ref.integers(0, k)), (seed, step)
            interleave(step, ref, gen)
        assert gen.bit_generator.state == ref.bit_generator.state


def test_integers_over_mixed_widths_keeps_the_half_word_buffer():
    # an odd number of 32-bit draws leaves PCG64's buffered half-word
    # set; the next draw of any width must find it where NumPy left it
    for seed in SEEDS:
        ref, gen, draws = twins(seed)
        for step in range(500):
            k = KS[(step * 7) % len(KS)]
            assert draws.integers(k) == int(ref.integers(0, k))
            if step % 4 == 0:
                assert draws.random() == ref.random()
            interleave(step, ref, gen)
            if step % 50 == 0:
                assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.bit_generator.state == ref.bit_generator.state


def test_random_is_generator_random():
    for seed in SEEDS:
        ref, gen, draws = twins(seed)
        for step in range(300):
            got = draws.random()
            assert type(got) is float
            assert got == ref.random()
            interleave(step, ref, gen)
        assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("p", PS)
def test_binomial_one_is_generator_binomial(p):
    for seed in SEEDS:
        ref, gen, draws = twins(seed)
        draw = draws.binomial_one(p)
        for step in range(300):
            got = draw()
            assert type(got) is int
            assert got == int(ref.binomial(1, p)), (seed, step)
            if step % 7 == 0:
                assert draws.integers(5) == int(ref.integers(0, 5))
            interleave(step, ref, gen)
        assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("k", [0, -1, 2**32])
def test_integers_refuses_an_empty_or_wide_range(k):
    draws = ExactDraws(np.random.default_rng(0))
    with pytest.raises(ValueError, match="k must be"):
        draws.integers(k)


def test_binomial_one_refuses_a_bad_probability_as_numpy_does():
    draws = ExactDraws(np.random.default_rng(0))
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            draws.binomial_one(p)()


# ------------------------------------------------------------------ #
# AnomalyInjector.draw(1): the one-request branch
# ------------------------------------------------------------------ #

#: (leak, thread) pairs; those with a zero or a > 1/2 probability take
#: NumPy's binomial call for that count
PAIRS = [
    (0.10, 0.05),
    (0.3, 0.5),
    (1e-12, 0.2),
    (0.0, 0.05),
    (0.9, 0.05),
    (0.1, 1.0),
    (math.nextafter(0.5, 1.0), 0.0),
]


def reference_draw(rng, n, p_leak, p_thread, mu, sigma, overhead):
    """``AnomalyInjector.draw(n)`` as it was before its one-request branch:
    binomial, binomial, then one lognormal batch."""
    n_leaks = int(rng.binomial(n, p_leak))
    n_threads = int(rng.binomial(n, p_thread))
    if n_leaks:
        sizes = rng.lognormal(mu, sigma, size=n_leaks)
        leaked = float(sum(sizes.tolist())) if n_leaks < 8 else float(sizes.sum())
    else:
        leaked = 0.0
    return leaked + n_threads * overhead, n_threads


def reference_args(injector):
    return (
        injector.leak_probability, injector.thread_probability,
        injector._leak_mu, injector.leak_sigma, injector.thread_overhead_mb,
    )


@pytest.mark.parametrize("p_leak, p_thread", PAIRS)
def test_one_request_draw_matches_the_generator_body(p_leak, p_thread):
    for seed in SEEDS:
        ref = np.random.default_rng([seed, 7])
        gen = np.random.default_rng([seed, 7])
        injector = AnomalyInjector(gen, p_leak)
        injector.thread_probability = p_thread
        args = reference_args(injector)
        for step in range(150):
            # mostly one-request draws, with a batch draw every tenth step
            n = 1 if step % 10 else 2 + step % 7
            got = injector.draw(n)
            assert got == reference_draw(ref, n, *args), (seed, step)
        assert gen.bit_generator.state == ref.bit_generator.state


def test_changing_a_probability_rebuilds_the_one_request_draws():
    ref = np.random.default_rng(3)
    injector = AnomalyInjector(np.random.default_rng(3))
    for _ in range(20):
        assert injector.draw(1) == reference_draw(ref, 1, *reference_args(injector))
    assert injector._one_request is not None
    # a chaos leak surge writes the probabilities of a live injector
    injector.leak_probability = 0.6
    injector.thread_probability = 0.3
    assert injector._one_request is None
    args = reference_args(injector)
    assert args[:2] == (0.6, 0.3)
    for _ in range(50):
        assert injector.draw(1) == reference_draw(ref, 1, *args)
    with pytest.raises(ValueError, match="leak_probability"):
        injector.leak_probability = math.nan
