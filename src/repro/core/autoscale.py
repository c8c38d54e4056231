"""Reactive VM-pool resizing -- Sec. V.

"during the execution of this Algorithm, each local VMC controller uses the
ML-based prediction models ... to determine ... whether the clients directly
connected to the region are experiencing a Response Time which is over a
pre-defined threshold.  In this case, the system adds new VMs to the pool
...  If the RMTTF of a cloud region becomes less (more) than a given
threshold, then the local controller can activate new VMs (deactivate some
active VMs) by using MTTF prediction models to evaluate the expected RMTTF
as a result of the VM activation (deactivation)."

:class:`Autoscaler` implements both triggers over a pool provisioned once:
ADDVMS activates pre-provisioned STANDBY capacity and a shrink rejuvenates
the excess ACTIVE VMs back to STANDBY, both through
:meth:`~repro.pcam.vmc.VirtualMachineController.set_target_active`.  The
expected-RMTTF model it uses for sizing is the mean-field relation the whole
reproduction is built on: per-VM load scales as ``1/n_active``, so RMTTF
scales roughly as ``n_active`` -- adding a VM multiplies the expected RMTTF
by ``(n+1)/n``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pcam.vmc import EraReport, VirtualMachineController


@dataclass(frozen=True, slots=True)
class AutoscaleConfig:
    """Autoscaler thresholds.

    Parameters
    ----------
    response_time_threshold_s:
        ADDVMS trigger: grow when the era's measured client response time
        exceeds this (the paper's "pre-defined threshold").
    rmttf_low_s:
        Grow when the region RMTTF falls below this.
    rmttf_high_s:
        Shrink when the region RMTTF rises above this (and the response
        time has headroom).
    cooldown_eras:
        Minimum eras between consecutive scaling actions per region
        (prevents thrash on noisy signals).
    """

    response_time_threshold_s: float = 0.8
    rmttf_low_s: float = 300.0
    rmttf_high_s: float = 3000.0
    cooldown_eras: int = 5

    def __post_init__(self) -> None:
        if self.response_time_threshold_s <= 0:
            raise ValueError("response_time_threshold_s must be positive")
        if self.rmttf_low_s < 0 or self.rmttf_high_s <= self.rmttf_low_s:
            raise ValueError(
                "need 0 <= rmttf_low_s < rmttf_high_s"
            )
        if self.cooldown_eras < 0:
            raise ValueError("cooldown_eras must be >= 0")


class Autoscaler:
    """Per-region reactive scaling decisions.

    Stateless apart from per-region cooldown counters; the actual pool
    mutation happens through
    :meth:`repro.pcam.vmc.VirtualMachineController.set_target_active`.
    """

    def __init__(self, config: AutoscaleConfig | None = None) -> None:
        self.config = config or AutoscaleConfig()
        self._cooldown: dict[str, int] = {}
        self.scale_up_count = 0
        self.scale_down_count = 0

    def expected_rmttf_after(
        self, current_rmttf: float, n_active: int, delta: int
    ) -> float:
        """Mean-field expected RMTTF after changing the pool by ``delta``.

        RMTTF ~ n_active (per-VM load halves when the pool doubles), so the
        projection is ``rmttf * (n + delta) / n``.
        """
        if n_active < 1:
            raise ValueError("n_active must be >= 1")
        if n_active + delta < 1:
            raise ValueError("cannot scale below one active VM")
        return current_rmttf * (n_active + delta) / n_active

    def decide(
        self, vmc: VirtualMachineController, report: EraReport, rmttf: float
    ) -> int:
        """Return the pool delta (-1, 0, +1) for this region this era.

        Grow when either trigger fires and a STANDBY VM exists to absorb
        the growth; shrink only when RMTTF is high *and* response time has
        at least 2x headroom (never trade an SLA violation for savings).
        """
        cfg = self.config
        region = vmc.region_name

        remaining = self._cooldown.get(region, 0)
        if remaining > 0:
            self._cooldown[region] = remaining - 1
            return 0

        n_active = report.n_active
        can_grow = report.n_standby > 0
        wants_grow = (
            report.response_time_s > cfg.response_time_threshold_s
            or rmttf < cfg.rmttf_low_s
        )
        if wants_grow and can_grow:
            projected = self.expected_rmttf_after(rmttf, max(n_active, 1), +1)
            if projected > rmttf:  # always true; kept for the paper's
                self._cooldown[region] = cfg.cooldown_eras  # "evaluate" step
                self.scale_up_count += 1
                return +1

        wants_shrink = (
            rmttf > cfg.rmttf_high_s
            and report.response_time_s < cfg.response_time_threshold_s / 2
            and n_active > 1
        )
        if wants_shrink:
            projected = self.expected_rmttf_after(rmttf, n_active, -1)
            if projected > cfg.rmttf_low_s:
                self._cooldown[region] = cfg.cooldown_eras
                self.scale_down_count += 1
                return -1
        return 0

    def apply(
        self, vmc: VirtualMachineController, report: EraReport, rmttf: float
    ) -> int:
        """Decide and actuate; returns the applied delta."""
        delta = self.decide(vmc, report, rmttf)
        if delta != 0:
            vmc.set_target_active(vmc.target_active + delta)
        return delta
