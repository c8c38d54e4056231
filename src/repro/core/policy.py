"""The ``POLICY()`` interface of Algorithm 2, and the policy registry.

Each policy computes, from the previous fractions and the current RMTTF
vector, "the fraction f_i of global incoming requests to be forwarded to a
cloud region i to ensure that the different values of the current RMTTF of
all regions converge (fast) to the same value" (Sec. IV).

All policies return a point on the probability simplex; the shared
:func:`normalize_fractions` enforces that invariant (which is also
property-tested).  A small ``min_fraction`` floor keeps every region
observable: multiplicative policies would otherwise pin a region at exactly
zero forever (no requests -> no RMTTF signal -> no recovery), a failure
mode the real system avoids because monitoring traffic never fully stops.
"""

from __future__ import annotations

import abc

import numpy as np

#: Default observability floor on each region's fraction.
DEFAULT_MIN_FRACTION = 1e-3


def normalize_fractions(
    raw: np.ndarray, min_fraction: float = DEFAULT_MIN_FRACTION
) -> np.ndarray:
    """Project raw non-negative scores onto the simplex with a floor.

    * negative inputs are clipped to 0 (policies can transiently produce
      tiny negatives from floating-point cancellation);
    * an all-zero vector falls back to uniform (no information = spread);
    * every coordinate ends at >= ``min_fraction`` (see module docstring)
      and the result sums to exactly 1.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("fractions must be a non-empty 1-D vector")
    if not np.isfinite(raw).all():
        raise ValueError("fractions contain non-finite values")
    if min_fraction < 0 or min_fraction * raw.size >= 1.0:
        raise ValueError(
            f"min_fraction {min_fraction} infeasible for {raw.size} regions"
        )
    clipped = np.maximum(raw, 0.0)
    total = clipped.sum()
    if total <= 0:
        f = np.full(raw.size, 1.0 / raw.size)
    else:
        f = clipped / total
    if min_fraction > 0:
        # Raise the floor, then renormalise the slack above the floor.
        f = np.maximum(f, min_fraction)
        excess = f.sum() - 1.0
        above = f - min_fraction
        scale = above.sum()
        if scale > 0:
            f = f - excess * above / scale
        else:
            f = np.full(raw.size, 1.0 / raw.size)
    return f / f.sum()


def compute_fractions(
    policy: "Policy",
    prev_fractions: np.ndarray,
    rmttf: np.ndarray,
    global_rate: float,
    mode: str = "normal",
    capacities: np.ndarray | None = None,
) -> np.ndarray:
    """The Plan-phase ladder: one mode in, one fraction vector out.

    Called by :meth:`AcmControlLoop.plan
    <repro.core.control_loop.AcmControlLoop.plan>` (the leader step of
    the fluid loop and, through it, of the request-level DES and the
    wall-clock serve runtime), so a new host wraps exactly one seam:

    * ``"normal"`` -- ``POLICY(f^{t-1}, RMTTF_1..RMTTF_n)`` (Algorithm 2);
    * ``"hold"``   -- quorum lost: keep the last-known-good fractions;
    * ``"fallback"`` -- reports missing too long: static split from the
      deployment's healthy capacities (requires ``capacities``).

    Every branch is float-op-identical to the inlined ladders it
    replaced, so golden traces are preserved.
    """
    if mode == "normal":
        return policy.compute(prev_fractions, rmttf, global_rate)
    if mode == "hold":
        return np.asarray(prev_fractions, dtype=float)
    if mode == "fallback":
        if capacities is None:
            raise ValueError("fallback mode requires healthy capacities")
        return normalize_fractions(capacities, policy.min_fraction)
    raise ValueError(f"unknown plan mode {mode!r}")


def renormalize_live(
    fractions: np.ndarray, alive: np.ndarray
) -> np.ndarray | None:
    """Zero dead regions out of a plan and renormalise over the live ones.

    The serve path does this to every plan (a dead region must not be
    planned traffic, whatever the policy said):

    * every region alive -> the plan is returned unchanged (a simplex
      point stays one);
    * no region alive -> ``None`` (there is nothing to install);
    * otherwise dead coordinates are zeroed and the survivors
      renormalised -- uniform over the live set if the policy had put
      all its mass on dead regions.
    """
    fractions = np.asarray(fractions, dtype=float)
    alive = np.asarray(alive, dtype=bool)
    if fractions.shape != alive.shape:
        raise ValueError(
            f"fractions {fractions.shape} and alive {alive.shape} "
            "must have the same shape"
        )
    if alive.all():
        return fractions
    if not alive.any():
        return None
    planned = np.where(alive, fractions, 0.0)
    total = planned.sum()
    if total <= 0:
        return alive.astype(float) / alive.sum()
    return planned / total


class Policy(abc.ABC):
    """Base class for workload-fraction policies.

    Subclasses implement :meth:`_compute`; the base validates inputs and
    guarantees the simplex invariant on the way out.
    """

    #: Registry key; subclasses set this.
    name: str = ""

    def __init__(self, min_fraction: float = DEFAULT_MIN_FRACTION) -> None:
        self.min_fraction = float(min_fraction)

    def compute(
        self,
        prev_fractions: np.ndarray,
        rmttf: np.ndarray,
        global_rate: float,
    ) -> np.ndarray:
        """The ``POLICY(f^{t-1}, RMTTF_1..RMTTF_n)`` call of Algorithm 2.

        Parameters
        ----------
        prev_fractions:
            ``f^{t-1}``, a simplex point.
        rmttf:
            Current per-region RMTTF values (Eq. 1 output), same order.
        global_rate:
            The global incoming request rate ``lambda`` (used by Policy 2).

        Returns the new simplex point ``f^t``.
        """
        prev_fractions = np.asarray(prev_fractions, dtype=float)
        rmttf = np.asarray(rmttf, dtype=float)
        if prev_fractions.shape != rmttf.shape:
            raise ValueError(
                f"fractions {prev_fractions.shape} and rmttf {rmttf.shape} "
                "must have the same shape"
            )
        if prev_fractions.ndim != 1 or prev_fractions.size == 0:
            raise ValueError("need a non-empty 1-D region vector")
        if (rmttf < 0).any():
            raise ValueError("rmttf values must be >= 0")
        if global_rate < 0:
            raise ValueError("global_rate must be >= 0")
        # np.isclose(x, 1.0, atol=1e-6) at its default rtol, as floats
        if not abs(float(prev_fractions.sum()) - 1.0) <= 1e-6 + 1e-5:
            raise ValueError(
                f"prev_fractions must sum to 1, got {prev_fractions.sum()}"
            )
        raw = self._compute(prev_fractions, rmttf, global_rate)
        return normalize_fractions(raw, self.min_fraction)

    @abc.abstractmethod
    def _compute(
        self,
        prev_fractions: np.ndarray,
        rmttf: np.ndarray,
        global_rate: float,
    ) -> np.ndarray:
        """Policy-specific raw scores (validated and normalised by base)."""

    def bind(self, regions) -> None:
        """Learn the deployment before the first ``compute``.

        ``regions`` are the deployment's region specs in name-sorted
        order, the order of every vector the loop passes.
        :class:`~repro.core.manager.AcmManager` calls this once; the
        default ignores it.
        """

    def initial_fractions(self, n_regions: int) -> np.ndarray:
        """Starting point ``f^0``: uniform, as nothing is known yet."""
        if n_regions < 1:
            raise ValueError("need at least one region")
        return np.full(n_regions, 1.0 / n_regions)


#: name -> policy class; populated by the concrete policy modules.
POLICY_REGISTRY: dict[str, type[Policy]] = {}


def register_policy(cls: type[Policy]) -> type[Policy]:
    """Class decorator adding a policy to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a registry name")
    if cls.name in POLICY_REGISTRY:
        raise ValueError(f"duplicate policy name {cls.name!r}")
    POLICY_REGISTRY[cls.name] = cls
    return cls


def get_policy(name: str, **kwargs) -> Policy:
    """Instantiate a registered policy by name.

    The registry keys are ``"sensible-routing"`` (Policy 1),
    ``"available-resources"`` (Policy 2), ``"exploration"`` (Policy 3),
    ``"cost-aware"`` (Policy 2 weighted by 1/relative-$), ``"uniform"``
    and ``"static-weights"`` (baselines).
    """
    # Importing the concrete modules fills the registry lazily.
    from repro.core import (  # noqa: F401
        baselines,
        costaware,
        exploration,
        resources,
        sensible,
    )

    try:
        cls = POLICY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None
    return cls(**kwargs)
