"""Tests for TPC-W interactions and mixes."""

import pytest

from repro.workload import (
    MIX_BROWSING,
    MIX_ORDERING,
    MIX_SHOPPING,
    RequestMix,
    RequestType,
    TPCW_INTERACTIONS,
)


def test_all_14_interactions_defined():
    assert len(RequestType) == 14
    assert set(TPCW_INTERACTIONS) == set(RequestType)


def test_standard_mix_browse_fractions():
    # TPC-W's six browse-class interactions; the rest are order-class
    browse = list(RequestType)[:6]
    for mix, share in ((MIX_BROWSING, 0.95), (MIX_SHOPPING, 0.80),
                       (MIX_ORDERING, 0.50)):
        assert sum(mix.weights[rt] for rt in browse) == pytest.approx(share)


def test_mix_weights_normalised():
    for mix in (MIX_BROWSING, MIX_SHOPPING, MIX_ORDERING):
        assert sum(mix.weights.values()) == pytest.approx(1.0)


def test_order_heavy_mix_has_higher_service_demand():
    # Buy Confirm / Admin Confirm are expensive, so the ordering mix costs
    # more per request on average than browsing.
    assert (
        MIX_ORDERING.mean_service_demand()
        > MIX_SHOPPING.mean_service_demand()
        > MIX_BROWSING.mean_service_demand()
    )



def test_custom_mix_normalises():
    mix = RequestMix("custom", {RequestType.HOME: 2.0, RequestType.BUY_CONFIRM: 2.0})
    assert mix.weights[RequestType.HOME] == pytest.approx(0.5)


def test_custom_mix_validation():
    with pytest.raises(ValueError):
        RequestMix("bad", {RequestType.HOME: 0.0})
    with pytest.raises(ValueError):
        RequestMix("bad", {RequestType.HOME: -1.0, RequestType.BUY_REQUEST: 2.0})
