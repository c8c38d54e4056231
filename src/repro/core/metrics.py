"""Convergence and stability metrics for policy assessment.

The paper's evaluation is qualitative ("the values of the RMTTF ... do not
converge", "fi shows less-oscillating values", "Policy 2 converges more
quickly").  To *assert* those claims in benchmarks we quantify them:

* **RMTTF spread** -- relative gap between regions' steady-state RMTTF
  levels; convergence means spread near zero.
* **Convergence time** -- first era after which all region RMTTFs stay
  within a tolerance band of their common mean forever.
* **Oscillation index** -- mean absolute step of the fraction series,
  normalised (from :meth:`repro.sim.tracing.TraceSeries.oscillation_index`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.tracing import TraceRecorder, TraceSeries

#: Fewest eras a policy run may have: the assessment reads its tail.
MIN_ASSESS_ERAS = 10


def rmttf_spread(series: dict[str, TraceSeries], tail: float = 0.3) -> float:
    """Relative spread of steady-state RMTTF levels across regions.

    ``(max_i m_i - min_i m_i) / mean_i m_i`` where ``m_i`` is region i's
    mean over the last ``tail`` of the run.  0 = perfectly converged.
    """
    if not series:
        raise ValueError("no series given")
    means = np.array([s.tail_fraction(tail).mean() for s in series.values()])
    center = float(means.mean())
    if center <= 0:
        raise ValueError("non-positive steady-state RMTTF")
    return float((means.max() - means.min()) / center)


def convergence_time(
    series: dict[str, TraceSeries],
    tolerance: float = 0.15,
    allowed_violation_rate: float = 0.05,
    min_window: int = 10,
) -> float:
    """First time after which all regions stay within the tolerance band.

    At each sample instant the band is
    ``|rmttf_i(t) - mean(t)| <= tolerance * mean(t)``; the convergence time
    is the earliest ``t`` such that at most ``allowed_violation_rate`` of
    the *subsequent* samples leave the band (a single stochastic excursion
    must not undo convergence), with at least ``min_window`` samples left
    to judge on.  Returns ``inf`` when the run never converges (the paper's
    Policy-1 outcome).
    """
    if not series:
        raise ValueError("no series given")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if not 0.0 <= allowed_violation_rate < 1.0:
        raise ValueError("allowed_violation_rate must be in [0, 1)")
    its = list(series.values())
    n = min(len(s) for s in its)
    if n < min_window:
        return float("inf")
    # align on the first n samples (all series share the era grid)
    values = np.vstack([s.values[:n] for s in its])
    times = its[0].times[:n]
    mean = values.mean(axis=0)
    mean_safe = np.maximum(mean, 1e-12)
    within = np.all(
        np.abs(values - mean) <= tolerance * mean_safe, axis=0
    )
    # suffix violation counts: viol[i] = violations among samples i..n-1
    viol_suffix = np.cumsum((~within)[::-1])[::-1]
    remaining = n - np.arange(n)
    ok = (viol_suffix <= allowed_violation_rate * remaining) & (
        remaining >= min_window
    )
    candidates = np.flatnonzero(ok)
    if candidates.size == 0:
        return float("inf")
    return float(times[candidates[0]])


def mean_oscillation(series: dict[str, TraceSeries], tail: float = 0.5) -> float:
    """Average oscillation index of the given series over their tail."""
    if not series:
        raise ValueError("no series given")
    return float(
        np.mean([s.tail_fraction(tail).oscillation_index() for s in series.values()])
    )


@dataclass(frozen=True, slots=True)
class PolicyAssessment:
    """Quantified version of the paper's qualitative policy verdicts."""

    policy: str
    rmttf_spread: float
    convergence_time_s: float
    fraction_oscillation: float
    rmttf_oscillation: float
    mean_response_time_s: float
    max_response_time_s: float
    sla_threshold_s: float
    total_rejuvenations: float
    total_failures: float

    @property
    def converged(self) -> bool:
        """Whether the RMTTF band was ever permanently entered."""
        return np.isfinite(self.convergence_time_s)

    @property
    def sla_met(self) -> bool:
        """Paper's Sec. VI-B check: response time below the 1 s threshold."""
        return self.mean_response_time_s < self.sla_threshold_s


def assess_policy_run(
    policy_name: str,
    traces: TraceRecorder,
    tail: float = 0.3,
    convergence_tolerance: float = 0.15,
    sla_threshold_s: float = 1.0,
    settle_fraction: float = 0.2,
) -> PolicyAssessment:
    """Build a :class:`PolicyAssessment` from a control-loop trace set.

    ``settle_fraction`` of the initial samples is discarded before the
    convergence analysis (the EWMA warm-up would otherwise dominate).
    """
    rmttf = {
        name: s.tail_fraction(1.0 - settle_fraction)
        for name, s in traces.matching("rmttf/").items()
    }
    fractions = {
        name: s.tail_fraction(1.0 - settle_fraction)
        for name, s in traces.matching("fraction/").items()
    }
    if not rmttf:
        raise ValueError("traces contain no rmttf/* series")
    response = traces.series("response_time")
    rejuv = traces.series("rejuvenations")
    failures = traces.series("failures")
    return PolicyAssessment(
        policy=policy_name,
        rmttf_spread=rmttf_spread(rmttf, tail),
        convergence_time_s=convergence_time(rmttf, convergence_tolerance),
        fraction_oscillation=mean_oscillation(fractions, tail=0.5),
        rmttf_oscillation=mean_oscillation(rmttf, tail=0.5),
        mean_response_time_s=response.mean(),
        max_response_time_s=response.max(),
        sla_threshold_s=sla_threshold_s,
        total_rejuvenations=float(rejuv.values.sum()),
        total_failures=float(failures.values.sum()),
    )
