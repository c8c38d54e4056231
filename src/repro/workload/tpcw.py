"""TPC-W web interactions and workload mixes.

TPC-W (Smith 2000, paper ref. [35]) models an online bookstore with 14 web
interactions.  The specification defines three workload mixes by the ratio
of browse-type to order-type interactions:

* **browsing** mix: 95 % browse / 5 % order;
* **shopping** mix: 80 % browse / 20 % order;
* **ordering** mix: 50 % browse / 50 % order.

We model each interaction with a *relative service demand* (CPU work at the
server, expressed relative to the cheapest interaction = 1.0), calibrated to
the common observation that order-path interactions (which hit the database
hardest: Buy Confirm, Admin Confirm) cost several times a static page hit.
A mix enters the model only through its mean service demand -- the paper
relies on the aggregate request stream, not on per-session transition
structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RequestType(enum.Enum):
    """The 14 TPC-W web interactions."""

    HOME = "home"
    NEW_PRODUCTS = "new_products"
    BEST_SELLERS = "best_sellers"
    PRODUCT_DETAIL = "product_detail"
    SEARCH_REQUEST = "search_request"
    SEARCH_RESULTS = "search_results"
    SHOPPING_CART = "shopping_cart"
    CUSTOMER_REGISTRATION = "customer_registration"
    BUY_REQUEST = "buy_request"
    BUY_CONFIRM = "buy_confirm"
    ORDER_INQUIRY = "order_inquiry"
    ORDER_DISPLAY = "order_display"
    ADMIN_REQUEST = "admin_request"
    ADMIN_CONFIRM = "admin_confirm"


#: Relative service demand per interaction (1.0 = cheapest static page).
TPCW_INTERACTIONS: dict[RequestType, float] = {
    RequestType.HOME: 1.0,
    RequestType.NEW_PRODUCTS: 2.0,
    RequestType.BEST_SELLERS: 2.5,
    RequestType.PRODUCT_DETAIL: 1.2,
    RequestType.SEARCH_REQUEST: 1.0,
    RequestType.SEARCH_RESULTS: 2.2,
    RequestType.SHOPPING_CART: 1.5,
    RequestType.CUSTOMER_REGISTRATION: 1.3,
    RequestType.BUY_REQUEST: 1.8,
    RequestType.BUY_CONFIRM: 4.0,
    RequestType.ORDER_INQUIRY: 1.1,
    RequestType.ORDER_DISPLAY: 1.6,
    RequestType.ADMIN_REQUEST: 1.4,
    RequestType.ADMIN_CONFIRM: 3.5,
}


def _mix_weights(browse_fraction: float) -> dict[RequestType, float]:
    """Stationary interaction weights for a given browse/order split.

    Within each class, weight interactions by typical TPC-W visit ratios
    (heavier on Home/Product Detail/Search for browsing; on Cart/Buy for
    ordering).
    """
    browse_profile = {
        RequestType.HOME: 0.25,
        RequestType.NEW_PRODUCTS: 0.12,
        RequestType.BEST_SELLERS: 0.12,
        RequestType.PRODUCT_DETAIL: 0.25,
        RequestType.SEARCH_REQUEST: 0.13,
        RequestType.SEARCH_RESULTS: 0.13,
    }
    order_profile = {
        RequestType.SHOPPING_CART: 0.26,
        RequestType.CUSTOMER_REGISTRATION: 0.12,
        RequestType.BUY_REQUEST: 0.16,
        RequestType.BUY_CONFIRM: 0.14,
        RequestType.ORDER_INQUIRY: 0.10,
        RequestType.ORDER_DISPLAY: 0.10,
        RequestType.ADMIN_REQUEST: 0.06,
        RequestType.ADMIN_CONFIRM: 0.06,
    }
    weights = {
        rt: browse_fraction * w for rt, w in browse_profile.items()
    }
    weights.update(
        {rt: (1.0 - browse_fraction) * w for rt, w in order_profile.items()}
    )
    return weights


@dataclass(frozen=True)
class RequestMix:
    """A stationary distribution over the TPC-W interactions.

    Parameters
    ----------
    name:
        Mix label ("browsing", "shopping", "ordering", or custom).
    weights:
        Interaction -> probability; normalised at construction.
    """

    name: str
    weights: dict[RequestType, float]

    def __post_init__(self) -> None:
        total = sum(self.weights.values())
        if total <= 0:
            raise ValueError(f"mix {self.name!r}: weights must sum > 0")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError(f"mix {self.name!r}: negative weight")
        object.__setattr__(
            self,
            "weights",
            {rt: w / total for rt, w in self.weights.items()},
        )

    @property
    def types(self) -> list[RequestType]:
        """Interaction types in deterministic (enum-definition) order."""
        return [rt for rt in RequestType if rt in self.weights]

    def mean_service_demand(self) -> float:
        """Expected relative service demand of one request under this mix."""
        return float(
            sum(self.weights[rt] * TPCW_INTERACTIONS[rt] for rt in self.types)
        )


#: The three standard TPC-W mixes.
MIX_BROWSING = RequestMix("browsing", _mix_weights(0.95))
MIX_SHOPPING = RequestMix("shopping", _mix_weights(0.80))
MIX_ORDERING = RequestMix("ordering", _mix_weights(0.50))
