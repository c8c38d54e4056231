"""Tests for the instance-type catalog."""

import pytest

from repro.sim import (
    INSTANCE_CATALOG,
    M3_MEDIUM,
    M3_SMALL,
    PRIVATE_SMALL,
    InstanceType,
    get_instance_type,
)

def test_catalog_contains_papers_three_shapes():
    assert {"m3.medium", "m3.small", "private.small"} <= set(INSTANCE_CATALOG)


def test_lookup_returns_frozen_singletons():
    assert get_instance_type("m3.medium") is M3_MEDIUM
    assert get_instance_type("m3.small") is M3_SMALL
    assert get_instance_type("private.small") is PRIVATE_SMALL


def test_unknown_type_raises_keyerror_with_known_names():
    with pytest.raises(KeyError, match="m3.medium"):
        get_instance_type("c5.xlarge")


def test_heterogeneity_ordering_matches_paper():
    # m3.medium is the beefiest shape; the private VMs have 2 vCPUs but only
    # 1 GB RAM; m3.small is the weakest CPU.
    assert M3_MEDIUM.cpu_power > PRIVATE_SMALL.cpu_power > M3_SMALL.cpu_power
    assert M3_MEDIUM.memory_mb > M3_SMALL.memory_mb > PRIVATE_SMALL.memory_mb


def test_instance_type_is_frozen():
    with pytest.raises(AttributeError):
        M3_MEDIUM.cpu_power = 1.0  # type: ignore[misc]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(cpu_power=0.0),
        dict(cpu_power=-1.0),
        dict(memory_mb=0.0),
        dict(thread_slots=0),
        dict(swap_mb=-1.0),
    ],
)
def test_invalid_shapes_rejected(kwargs):
    base = dict(
        name="bad",
        cpu_power=1.0,
        memory_mb=1.0,
        swap_mb=0.0,
        thread_slots=1,
        disk_gb=1.0,
        hourly_cost=0.0,
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        InstanceType(**base)

