"""The virtual-machine resource and lifecycle model.

Each VM hosts one server replica of the client-server application.  Under
load, injected software anomalies accumulate (memory leaks, unterminated
threads -- Sec. VI-A); the accumulation degrades performance and eventually
drives the VM to its *failure point*.  Following F2PM, the failure point is
configurable and "not necessarily related to an actual crash ... it can
describe as well the violation of one or more SLA" (Sec. III).

State machine (PCAM, Sec. III)::

    STANDBY --activate--> ACTIVE --rejuvenate--> REJUVENATING --done--> STANDBY
                             |
                             +--(failure point reached)--> FAILED --recover--> STANDBY

Performance model
-----------------
A healthy VM serves ``cpu_power`` demand-units/second (instance catalog).
Degradation is driven by two pressures:

* **swap pressure** -- once leaked memory exceeds free RAM it spills into
  swap; each swapped MB costs service capacity (thrashing);
* **thread pressure** -- stuck threads occupy scheduler slots; capacity
  falls linearly in the occupied fraction.

Mean response time for an era follows an M/M/1 approximation on the
*effective* service rate, which reproduces the paper's observed behaviour:
response time stays low until a VM approaches its failure point, then grows
steeply -- giving the ML models a learnable signal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.ml.features import FeatureVector
from repro.sim.instances import InstanceType
from repro.workload.anomalies import AnomalyInjector


class VmState(enum.Enum):
    """PCAM VM lifecycle states."""

    ACTIVE = "active"
    STANDBY = "standby"
    REJUVENATING = "rejuvenating"
    FAILED = "failed"


@dataclass(frozen=True, slots=True)
class FailurePolicy:
    """The F2PM configurable failure point.

    A VM reaches its failure point when *any* of these trips:

    * leaked memory exhausts RAM+swap (hard crash);
    * stuck threads exhaust the thread slots (hard crash);
    * mean response time exceeds ``sla_response_time_s`` (SLA violation).
    """

    sla_response_time_s: float = 1.0
    swap_exhaustion: bool = True
    thread_exhaustion: bool = True

    def __post_init__(self) -> None:
        if self.sla_response_time_s <= 0:
            raise ValueError("sla_response_time_s must be positive")


#: Memory the OS + application baseline occupies before any leak (MB).
BASELINE_MEMORY_MB = 384.0

#: Fraction of capacity lost per unit of swap-occupancy ratio.
SWAP_CAPACITY_PENALTY = 0.7

#: Baseline thread count of a healthy server replica.
BASELINE_THREADS = 24


# ---------------------------------------------------------------------- #
# the scalar capacity / response-time model
# ---------------------------------------------------------------------- #
# The physics over plain Python numbers.  The ``VirtualMachine``
# properties and ``VmStateTable._refresh`` (one row's derived capacity,
# which the DES request path reads) call these functions, so they agree
# bit-for-bit by construction.  The
# mean-field oracle kernel below does *not*: its SLA search probes the
# model ~50 times a prediction, and five calls a probe were 1.5 M of a
# 12-cell sweep's 3.0 M Python calls, so its probe spells
# ``effective_capacity`` and ``mm1_response_time_s`` a second time on
# local floats, operation for operation.  What holds the two spellings
# together is ``tests/pcam/test_oracle_kernel.py``: exact equality of the
# kernel against a reference that drives the VM properties.  Change the
# model here and there in the same commit.  (``VmStateTable.pressures_of``
# in :mod:`repro.pcam.state_table` is the array form, pinned against these
# by ``tests/pcam/test_columnar_parity.py``.)


def usable_memory_mb(memory_mb: float) -> float:
    """RAM available to absorb leaks before spilling to swap."""
    return max(memory_mb - BASELINE_MEMORY_MB, 1.0)


def thread_free_slots(thread_slots: int) -> int:
    """Scheduler slots stuck threads can occupy before exhaustion."""
    return max(thread_slots - BASELINE_THREADS, 1)


def swap_used_mb(leaked_mb: float, usable_mb: float, swap_mb: float) -> float:
    """Leaked memory that spilled past RAM into swap, in [0, swap_mb]."""
    # pure-Python clamp: this sits on the per-request DES hot path, where
    # np.clip on a scalar costs ~50x a float comparison
    spilled = leaked_mb - usable_mb
    if spilled <= 0.0:
        return 0.0
    return swap_mb if spilled >= swap_mb else spilled


def swap_pressure(leaked_mb: float, usable_mb: float, swap_mb: float) -> float:
    """Swap occupancy in [0, 1]."""
    if swap_mb == 0:
        return 1.0 if leaked_mb >= usable_mb else 0.0
    return swap_used_mb(leaked_mb, usable_mb, swap_mb) / swap_mb


def thread_pressure(stuck_threads: int, free_slots: int) -> float:
    """Thread-slot occupancy by stuck threads, in [0, 1]."""
    ratio = stuck_threads / free_slots
    return 1.0 if ratio >= 1.0 else ratio


def effective_capacity(
    cpu_power: float,
    leaked_mb: float,
    usable_mb: float,
    swap_mb: float,
    stuck_threads: int,
    free_slots: int,
) -> float:
    """Service capacity in demand-units/second.

    Healthy capacity shrunk by swap thrashing and thread-slot loss; a
    floor of 2 % keeps the queueing model defined until the hard failure
    point trips.
    """
    factor = (
        1.0 - SWAP_CAPACITY_PENALTY * swap_pressure(leaked_mb, usable_mb, swap_mb)
    ) * (1.0 - thread_pressure(stuck_threads, free_slots))
    return cpu_power * max(factor, 0.02)


def mm1_response_time_s(
    capacity: float, request_rate: float, mean_demand: float
) -> float:
    """M/M/1-style mean response time on ``capacity`` demand-units/second.

    Utilisation is clamped at 0.99: past saturation the model reports a
    steeply growing but finite response time, which is what a real
    overloaded server (with queue limits) exhibits.
    """
    mu = capacity / mean_demand  # requests/second
    service_time = 1.0 / mu
    rho = min(request_rate / mu, 0.99)
    return service_time / (1.0 - rho)


def mean_field_ttf_s(
    leaked_mb: float,
    stuck_threads: int,
    request_rate: float,
    mean_demand: float,
    cpu_power: float,
    usable_mb: float,
    swap_mb: float,
    free_slots: int,
    sla_response_time_s: float,
    leak_rate: float,
    thread_rate: float,
    swap_exhaustion: bool,
    thread_exhaustion: bool,
) -> float:
    """Mean-field (noise-free) time to the F2PM failure point.

    At a constant ``request_rate`` the leak grows at ``leak_rate`` MB/s
    and stuck threads at ``thread_rate``/s (the injector's expected
    rates), so each hard clause has a closed-form horizon; the SLA
    crossing is found on that deterministic trajectory by a coarse scan
    followed by bisection.  Returns the earliest clause the policy
    enables.  Pure: reads nothing but its arguments and writes nothing.
    """
    if request_rate <= 0 or leak_rate <= 0:
        return math.inf
    t_crash = max(usable_mb + swap_mb - leaked_mb, 0.0) / leak_rate
    if thread_rate > 0:
        t_threads = max(free_slots - stuck_threads, 0) / thread_rate
    else:
        t_threads = math.inf

    # The state stops changing once swap and thread slots have both
    # saturated, so an SLA crossing lies before that.  With swap
    # exhaustion on (the default) the scan need not pass ``t_crash``.
    horizon = t_crash
    if not swap_exhaustion and math.isfinite(t_threads):
        horizon = max(t_crash, t_threads)

    # Scan the trajectory coarsely, then bisect inside the crossing
    # interval (the coarse step alone would quantise the answer by
    # horizon/400, which breaks monotonicity between VMs whose crash
    # horizons differ).  One loop, so the probe is written once: ``t``
    # takes the scan steps, then exactly 30 midpoints; ``halvings`` is
    # None while the scan is still looking for the crossing interval.
    t_sla = math.inf
    scan_t, dt = 0.0, max(horizon / 400.0, 1.0)
    lo = hi = 0.0
    halvings = None
    while True:
        if halvings is None:
            if not scan_t < horizon:
                break
            scan_t += dt
            t = scan_t
        elif halvings:
            t = 0.5 * (lo + hi)
        else:
            t_sla = hi
            break
        # The probe: is the SLA violated at ``t``?  The second spelling
        # of effective_capacity() and mm1_response_time_s() -- same
        # operations, same order, or every sweep digest moves.
        leaked = leaked_mb + leak_rate * t
        if swap_mb == 0:
            swap_p = 1.0 if leaked >= usable_mb else 0.0
        else:
            spilled = leaked - usable_mb
            if spilled <= 0.0:
                spilled = 0.0
            elif spilled >= swap_mb:
                spilled = swap_mb
            swap_p = spilled / swap_mb
        thread_p = int(stuck_threads + thread_rate * t) / free_slots
        if thread_p >= 1.0:
            thread_p = 1.0
        factor = (1.0 - SWAP_CAPACITY_PENALTY * swap_p) * (1.0 - thread_p)
        mu = cpu_power * (0.02 if factor < 0.02 else factor) / mean_demand
        rho = request_rate / mu
        if rho > 0.99:
            rho = 0.99
        violated = (1.0 / mu) / (1.0 - rho) > sla_response_time_s
        if halvings is None:
            if violated:
                lo, hi, halvings = max(t - dt, 0.0), t, 30
        else:
            halvings -= 1
            if violated:
                hi = t
            else:
                lo = t
    return min(
        t_crash if swap_exhaustion else math.inf,
        t_sla,
        t_threads if thread_exhaustion else math.inf,
    )


class VirtualMachine:
    """One simulated VM hosting a server replica.

    Parameters
    ----------
    name:
        Unique identifier ("region1/vm3").
    itype:
        Hardware shape from the instance catalog.
    injector:
        Per-VM anomaly injector (owns its own random stream).
    failure_policy:
        The failure-point definition.
    rejuvenation_time_s:
        How long a rejuvenation (process/system restart) takes.
    state:
        Initial lifecycle state.
    rack_id:
        Global rack id in the deployment's
        :class:`~repro.topology.domains.FailureDomainTree` (0 -- the
        region's single rack -- for flat topologies).  Fixed for the
        VM's lifetime: rejuvenation restarts the software, not the
        hardware placement.
    """

    def __init__(
        self,
        name: str,
        itype: InstanceType,
        injector: AnomalyInjector,
        failure_policy: FailurePolicy | None = None,
        rejuvenation_time_s: float = 120.0,
        state: VmState = VmState.STANDBY,
        rack_id: int = 0,
    ) -> None:
        if rejuvenation_time_s < 0:
            raise ValueError("rejuvenation_time_s must be >= 0")
        if rack_id < 0:
            raise ValueError("rack_id must be >= 0")
        self.name = name
        self.itype = itype
        self.injector = injector
        self.failure_policy = failure_policy or FailurePolicy()
        self.rejuvenation_time_s = float(rejuvenation_time_s)
        self.state = state
        self.rack_id = int(rack_id)
        # anomaly accumulation
        self.leaked_mb = 0.0
        self.stuck_threads = 0
        self.uptime_s = 0.0
        # rejuvenation progress
        self._rejuvenation_remaining_s = 0.0
        # last-era telemetry
        self.last_request_rate = 0.0
        self.last_response_time_s = 0.0
        self.total_requests = 0
        self.rejuvenation_count = 0
        self.failure_count = 0

    # ------------------------------------------------------------------ #
    # resource pressures and capacity
    # ------------------------------------------------------------------ #

    @property
    def usable_memory_mb(self) -> float:
        """RAM available to absorb leaks before spilling to swap."""
        return usable_memory_mb(self.itype.memory_mb)

    @property
    def anomaly_budget_mb(self) -> float:
        """Total leak absorption before the hard-crash point (RAM + swap)."""
        return self.usable_memory_mb + self.itype.swap_mb

    @property
    def thread_free_slots(self) -> int:
        """Scheduler slots stuck threads can occupy before exhaustion."""
        return thread_free_slots(self.itype.thread_slots)

    @property
    def swap_used_mb(self) -> float:
        """Leaked memory that spilled past RAM into swap."""
        return swap_used_mb(
            self.leaked_mb, self.usable_memory_mb, self.itype.swap_mb
        )

    @property
    def swap_pressure(self) -> float:
        """Swap occupancy in [0, 1]."""
        return swap_pressure(
            self.leaked_mb, self.usable_memory_mb, self.itype.swap_mb
        )

    @property
    def thread_pressure(self) -> float:
        """Thread-slot occupancy by stuck threads, in [0, 1]."""
        return thread_pressure(self.stuck_threads, self.thread_free_slots)

    @property
    def effective_capacity(self) -> float:
        """Current service capacity in demand-units/second."""
        itype = self.itype
        return effective_capacity(
            itype.cpu_power,
            self.leaked_mb,
            self.usable_memory_mb,
            itype.swap_mb,
            self.stuck_threads,
            self.thread_free_slots,
        )

    def response_time_s(self, request_rate: float, mean_demand: float = 1.5) -> float:
        """M/M/1-style mean response time at ``request_rate`` req/s.

        ``mean_demand`` is the average demand-units per request (from the
        TPC-W mix); see :func:`mm1_response_time_s`.
        """
        if request_rate < 0:
            raise ValueError("request_rate must be >= 0")
        return mm1_response_time_s(
            self.effective_capacity, request_rate, mean_demand
        )

    # ------------------------------------------------------------------ #
    # failure point
    # ------------------------------------------------------------------ #

    def failure_point_reached(self) -> bool:
        """Evaluate the F2PM failure-point predicate on the current state."""
        p = self.failure_policy
        if p.swap_exhaustion and self.leaked_mb >= self.anomaly_budget_mb:
            return True
        if p.thread_exhaustion and self.thread_pressure >= 1.0:
            return True
        if self.last_response_time_s > p.sla_response_time_s:
            return True
        return False

    def true_time_to_failure_s(
        self, request_rate: float, mean_demand: float = 1.5
    ) -> float:
        """Mean-field (noise-free) time to this VM's failure point.

        Used by tests, the planner and the oracle predictor:
        :func:`mean_field_ttf_s` on the current anomaly level, with the
        injector's expected leak and thread rates at ``request_rate``.
        """
        if request_rate <= 0:
            return float("inf")
        itype = self.itype
        policy = self.failure_policy
        return mean_field_ttf_s(
            self.leaked_mb,
            self.stuck_threads,
            request_rate,
            mean_demand,
            itype.cpu_power,
            self.usable_memory_mb,
            itype.swap_mb,
            self.thread_free_slots,
            policy.sla_response_time_s,
            self.injector.expected_leak_rate_mb(request_rate),
            self.injector.expected_thread_rate(request_rate),
            policy.swap_exhaustion,
            policy.thread_exhaustion,
        )

    # ------------------------------------------------------------------ #
    # era advancement
    # ------------------------------------------------------------------ #

    def apply_load(
        self, n_requests: int, dt: float, mean_demand: float = 1.5
    ) -> float:
        """Serve ``n_requests`` over an era of ``dt`` seconds.

        Injects anomalies, advances uptime, updates telemetry, and returns
        the era's mean response time.  Only valid for ACTIVE VMs.
        """
        if self.state is not VmState.ACTIVE:
            raise RuntimeError(
                f"{self.name}: apply_load on {self.state.value} VM"
            )
        if dt <= 0:
            raise ValueError("dt must be positive")
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        leaked_mb, stuck_threads = self.injector.draw(n_requests)
        self.leaked_mb += leaked_mb
        self.stuck_threads += stuck_threads
        self.uptime_s += dt
        self.total_requests += n_requests
        self.last_request_rate = n_requests / dt
        self.last_response_time_s = self.response_time_s(
            self.last_request_rate, mean_demand
        )
        if self.failure_point_reached():
            self.fail()
        return self.last_response_time_s

    def idle(self, dt: float) -> None:
        """Advance time without load (STANDBY/idle ACTIVE bookkeeping)."""
        if dt < 0:
            raise ValueError("dt must be >= 0")
        if self.state is VmState.ACTIVE:
            self.uptime_s += dt
            self.last_request_rate = 0.0
        elif self.state is VmState.REJUVENATING:
            self._rejuvenation_remaining_s -= dt
            if self._rejuvenation_remaining_s <= 0:
                self._finish_rejuvenation()

    # ------------------------------------------------------------------ #
    # lifecycle transitions
    # ------------------------------------------------------------------ #

    def activate(self) -> None:
        """STANDBY -> ACTIVE (the PCAM ACTIVATE command)."""
        if self.state is not VmState.STANDBY:
            raise RuntimeError(
                f"{self.name}: cannot ACTIVATE from {self.state.value}"
            )
        self.state = VmState.ACTIVE
        self.uptime_s = 0.0

    def start_rejuvenation(self) -> None:
        """ACTIVE/FAILED -> REJUVENATING (the PCAM REJUVENATE command)."""
        if self.state not in (VmState.ACTIVE, VmState.FAILED):
            raise RuntimeError(
                f"{self.name}: cannot REJUVENATE from {self.state.value}"
            )
        self.state = VmState.REJUVENATING
        self._rejuvenation_remaining_s = self.rejuvenation_time_s
        self.rejuvenation_count += 1
        if self.rejuvenation_time_s == 0:
            self._finish_rejuvenation()

    def _finish_rejuvenation(self) -> None:
        self.state = VmState.STANDBY
        self.leaked_mb = 0.0
        self.stuck_threads = 0
        self.uptime_s = 0.0
        self.last_response_time_s = 0.0
        self.last_request_rate = 0.0
        self._rejuvenation_remaining_s = 0.0

    def fail(self) -> None:
        """Transition to FAILED (failure point reached before rejuvenation)."""
        if self.state is VmState.FAILED:
            return
        self.state = VmState.FAILED
        self.failure_count += 1

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #

    def sample_features(self) -> FeatureVector:
        """Produce one F2PM monitoring sample of the current state."""
        mem_used = BASELINE_MEMORY_MB + min(self.leaked_mb, self.usable_memory_mb)
        mu = self.effective_capacity / 1.5
        rho = min(self.last_request_rate / mu, 0.99) if mu > 0 else 0.99
        cpu_user = 70.0 * rho
        cpu_system = 10.0 * rho + 20.0 * self.swap_pressure
        return FeatureVector(
            mem_used_mb=mem_used,
            mem_free_mb=max(self.itype.memory_mb - mem_used, 0.0),
            swap_used_mb=self.swap_used_mb,
            cpu_user_pct=cpu_user,
            cpu_system_pct=cpu_system,
            cpu_idle_pct=max(100.0 - cpu_user - cpu_system, 0.0),
            num_threads=BASELINE_THREADS + self.stuck_threads,
            num_processes=60.0,
            disk_read_mbps=0.5 + 4.0 * self.swap_pressure,
            disk_write_mbps=0.3 + 6.0 * self.swap_pressure,
            net_in_mbps=0.02 * self.last_request_rate,
            net_out_mbps=0.12 * self.last_request_rate,
            request_rate=self.last_request_rate,
            response_time_ms=self.last_response_time_s * 1000.0,
            uptime_s=self.uptime_s,
        )

    def __repr__(self) -> str:
        return (
            f"VirtualMachine({self.name!r}, {self.itype.name}, "
            f"{self.state.value}, leaked={self.leaked_mb:.0f}MB, "
            f"threads+{self.stuck_threads})"
        )
