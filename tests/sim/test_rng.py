"""Tests for deterministic named RNG streams."""

import numpy as np
import pytest

from repro.sim import RngRegistry


def test_same_seed_same_name_reproduces():
    a = RngRegistry(seed=7).stream("arrivals").random(16)
    b = RngRegistry(seed=7).stream("arrivals").random(16)
    assert np.array_equal(a, b)


def test_different_names_differ():
    r = RngRegistry(seed=7)
    a = r.stream("arrivals").random(16)
    b = r.stream("anomalies").random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("s").random(16)
    b = RngRegistry(seed=2).stream("s").random(16)
    assert not np.array_equal(a, b)


def test_stream_is_cached_and_stateful():
    r = RngRegistry(seed=0)
    g1 = r.stream("x")
    g2 = r.stream("x")
    assert g1 is g2
    first = g1.random()
    second = g2.random()
    assert first != second  # shared position advanced


def test_adding_stream_does_not_perturb_existing():
    r1 = RngRegistry(seed=3)
    a_before = r1.stream("a").random(8)

    r2 = RngRegistry(seed=3)
    _ = r2.stream("zzz").random(8)  # extra stream created first
    a_after = r2.stream("a").random(8)
    assert np.array_equal(a_before, a_after)


def test_child_registries_are_disjoint_and_deterministic():
    root = RngRegistry(seed=11)
    c1 = root.child("region1").stream("anomalies").random(8)
    c2 = root.child("region2").stream("anomalies").random(8)
    c1_again = RngRegistry(seed=11).child("region1").stream("anomalies").random(8)
    assert not np.array_equal(c1, c2)
    assert np.array_equal(c1, c1_again)


def test_names_sorted():
    r = RngRegistry(seed=0)
    r.stream("b")
    r.stream("a")
    assert r.names() == ["a", "b"]


def test_non_int_seed_rejected():
    with pytest.raises(TypeError):
        RngRegistry(seed="42")  # type: ignore[arg-type]


def test_seed_property():
    assert RngRegistry(seed=99).seed == 99
