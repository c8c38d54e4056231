"""The virtual-machine resource and lifecycle model.

The physics (capacity, failure point, the mean-field time to failure) as
functions over plain numbers, the lifecycle states, and
:class:`VirtualMachine`: a VM's identity and spec, and a view of the
:class:`~repro.pcam.state_table.VmStateTable` row that holds its state and
runs its transitions.

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


#: Row state codes of a :class:`~repro.pcam.state_table.VmStateTable`.
CODE_ACTIVE = 0
CODE_STANDBY = 1
CODE_REJUVENATING = 2
CODE_FAILED = 3

#: Code -> enum member (index by code).
CODE_TO_STATE: tuple[VmState, ...] = (
    VmState.ACTIVE,
    VmState.STANDBY,
    VmState.REJUVENATING,
    VmState.FAILED,
)

#: Enum member -> code.
STATE_TO_CODE: dict[VmState, int] = {
    state: code for code, state in enumerate(CODE_TO_STATE)
}


@dataclass(frozen=True, slots=True)
class FailurePolicy:
    """The F2PM configurable failure point.

    A VM reaches its failure point when *any* of these trips:

    * leaked memory exhausts RAM+swap (hard crash);
    * stuck threads exhaust the thread slots (hard crash);
    * mean response time exceeds ``sla_response_time_s`` (SLA violation;
      ``inf`` turns the clause off).
    """

    sla_response_time_s: float = 1.0
    swap_exhaustion: bool = True
    thread_exhaustion: bool = True

    def __post_init__(self) -> None:
        # ``not > 0`` also refuses NaN, which would silently disable the
        # SLA clause (every comparison with it is False)
        if not self.sla_response_time_s > 0:
            raise ValueError("sla_response_time_s must be positive")


#: Memory the OS + application baseline occupies before any leak (MB).
BASELINE_MEMORY_MB = 384.0

#: Fraction of capacity lost per unit of swap-occupancy ratio.
SWAP_CAPACITY_PENALTY = 0.7

#: Baseline thread count of a healthy server replica.
BASELINE_THREADS = 24

#: Relative half-width of the bracket :func:`mean_field_ttf_s` probes
#: around :func:`sla_crossing_estimate_s`: the estimate is a few roundings
#: off the probe's crossing, and every scan step or midpoint that falls
#: inside the bracket costs a probe.
ESTIMATE_BRACKET = 1e-13


# ---------------------------------------------------------------------- #
# the scalar capacity / response-time model
# ---------------------------------------------------------------------- #
# The physics over plain Python numbers.  ``VmStateTable._refresh`` (one
# row's derived capacity, which the DES request path reads) calls these
# functions; ``VmStateTable.pressures_of`` and ``era_load_update`` in
# :mod:`repro.pcam.state_table` are the array form, pinned against the
# scalar VM of ``tests/pcam/reference_vmc.py`` (which calls these too, and
# spells the M/M/1 response time) by ``tests/pcam/test_columnar_parity.py``.
# The mean-field oracle kernel below does *not* call them: its SLA search
# visits ~50 scan steps and midpoints a prediction, and five calls a
# probe were 1.5 M of a 12-cell sweep's 3.0 M Python calls, so its probe
# spells ``effective_capacity`` and the M/M/1 response time a second time
# on local floats, operation for operation.  (Most of those points are
# decided by comparison against two probes around a closed-form estimate,
# ``sla_crossing_estimate_s``: about two probes a prediction.)  What holds
# the two spellings together is ``tests/pcam/test_oracle_kernel.py``:
# exact equality of the kernel against a reference that drives the
# reference VM's properties.  Change the model here and there in the same
# commit, and the estimate's threshold algebra with it (the same file's
# bracket hit-rate test says when it stops bracketing; a stale estimate
# costs probes, never bits).


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


def sla_crossing_estimate_s(
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
) -> float:
    """Closed-form estimate of the first ``t`` at which the SLA probe trips.

    The response time falls as ``mu`` rises, so the SLA is a threshold on
    ``mu`` and, through ``mu = cpu_power * max(factor, 0.02) /
    mean_demand``, a threshold ``f_star`` on ``factor``.  On thread step
    ``n`` the thread term is the constant ``1 - n / free_slots`` and the
    swap term falls linearly in ``t``, so each step's crossing is one
    division; the first step that holds a crossing is found by bisecting
    over ``n`` (the crossing times fall with ``n``, the step starts
    rise).  Returns ``inf`` when the SLA is never violated and ``0`` when
    it already is.  Only an estimate: :func:`mean_field_ttf_s` probes
    around it and trusts nothing it has not confirmed.
    """
    if 99.0 / request_rate <= sla_response_time_s:
        mu_star = 100.0 / sla_response_time_s  # crossing with rho capped
    else:
        mu_star = request_rate + 1.0 / sla_response_time_s
    f_star = mu_star * mean_demand / cpu_power
    if f_star <= 0.02:
        return math.inf
    if f_star > 1.0 or stuck_threads >= free_slots:
        return 0.0
    # Bisect for the first thread step n that holds a crossing: the swap
    # occupancy that violates there (``need``; < 0: any, >= 1: none) is
    # reached, in thread counts, before step n + 1 starts.  With no thread
    # growth there is one step, and it never ends.
    threads_per_mb = thread_rate / leak_rate
    lo = stuck_threads
    hi = free_slots if thread_rate > 0 else stuck_threads + 1
    while lo < hi:
        n = (lo + hi) >> 1
        need = (1.0 - f_star / (1.0 - n / free_slots)) / SWAP_CAPACITY_PENALTY
        if need < 0.0 or need < 1.0 and (
            (usable_mb + need * swap_mb - leaked_mb) * threads_per_mb
            < n + 1 - stuck_threads
        ):
            hi = n
        else:
            lo = n + 1
    n = lo
    if n == stuck_threads:
        step_t = 0.0
    elif thread_rate > 0:
        step_t = (n - stuck_threads) / thread_rate
    else:
        return math.inf
    if n >= free_slots:  # the thread slots run out first
        return step_t
    need = (1.0 - f_star / (1.0 - n / free_slots)) / SWAP_CAPACITY_PENALTY
    if need < 0.0:
        return step_t
    return max(step_t, (usable_mb + need * swap_mb - leaked_mb) / leak_rate)


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

    The probe is monotone in ``t`` (every step from ``t`` to the SLA
    test -- the leak, the swap clamp, ``int(stuck + rate * t)``, the 0.02
    floor, the 0.99 ``rho`` cap -- is a correctly rounded monotone
    operation), so one probe answers for every point on its side: a clear
    ``t`` clears every earlier point, a violated one violates every later
    point.  Two probes just below and above
    :func:`sla_crossing_estimate_s` usually pin the crossing between
    them, and then the scan steps and midpoints are decided by
    comparison.  The points visited and the value returned are the
    plain scan-and-bisect's, whatever the estimate says.
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
    # takes the two bracket points, then the scan steps, then exactly 30
    # midpoints; ``halvings`` is None while the scan is still looking for
    # the crossing interval.  ``clear_t`` and ``violated_t`` are the
    # largest point probed clear and the smallest probed violated: a
    # point at or below the one is clear, at or above the other violated,
    # and only a point strictly between them is probed.
    t_sla = math.inf
    scan_t, dt = 0.0, max(horizon / 400.0, 1.0)
    t_hat = sla_crossing_estimate_s(
        leaked_mb, stuck_threads, request_rate, mean_demand, cpu_power,
        usable_mb, swap_mb, free_slots, sla_response_time_s, leak_rate,
        thread_rate,
    )
    if not 0.0 <= t_hat < horizon + dt:
        # no crossing before the last scan step (or a NaN or negative
        # estimate): a probe past it clears the whole scan
        t_hat = horizon + 2.0 * dt
    width = t_hat * ESTIMATE_BRACKET
    bracket = [t_hat + width, t_hat - width]  # popped: the lower one first
    clear_t, violated_t = -1.0, math.inf
    lo = hi = 0.0
    halvings = None
    while True:
        if bracket:
            t = bracket.pop()
            if not clear_t < t < violated_t:
                continue
        elif halvings is None:
            if scan_t <= clear_t or not scan_t:
                # not started, or this step is clear: step on past every
                # step already known clear
                if not scan_t < horizon:
                    break
                scan_t += dt
                while scan_t <= clear_t and scan_t < horizon:
                    scan_t += dt
                continue
            if scan_t >= violated_t:
                lo, hi, halvings = max(scan_t - dt, 0.0), scan_t, 30
                continue
            t = scan_t
        else:
            while halvings:
                t = 0.5 * (lo + hi)
                if t <= clear_t:
                    lo = t
                elif t >= violated_t:
                    hi = t
                else:
                    break
                halvings -= 1
            else:
                t_sla = hi
                break
        # The probe: is the SLA violated at ``t``?  The second spelling
        # of effective_capacity() and the M/M/1 response time -- same
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
        if (1.0 / mu) / (1.0 - rho) > sla_response_time_s:
            violated_t = t
        else:
            clear_t = t
    return min(
        t_crash if swap_exhaustion else math.inf,
        t_sla,
        t_threads if thread_exhaustion else math.inf,
    )


def fresh_ttf_s(
    itype: InstanceType,
    policy: FailurePolicy,
    injector: AnomalyInjector,
    request_rate: float,
    mean_demand: float,
) -> float:
    """:func:`mean_field_ttf_s` of a fresh VM of this spec (no leak, no
    stuck thread) at a steady ``request_rate``, with the injector's
    expected leak and thread rates."""
    return mean_field_ttf_s(
        0.0,
        0,
        request_rate,
        mean_demand,
        itype.cpu_power,
        usable_memory_mb(itype.memory_mb),
        itype.swap_mb,
        thread_free_slots(itype.thread_slots),
        policy.sla_response_time_s,
        injector.expected_leak_rate_mb(request_rate),
        injector.expected_thread_rate(request_rate),
        policy.swap_exhaustion,
        policy.thread_exhaustion,
    )


class VirtualMachine:
    """One simulated VM hosting a server replica: a view of a table row.

    The VM holds its identity and the spec it was built with; its load
    state and lifecycle live in one row of the
    :class:`~repro.pcam.state_table.VmStateTable` that adopts it
    (:attr:`table`, :attr:`row`), and every read below goes to that row.
    Before adoption there is no state to read.

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
        Initial lifecycle state (:attr:`initial_state`).
    rack_id:
        Global rack id in the deployment's
        :class:`~repro.topology.domains.FailureDomainTree` (0 -- the
        region's single rack -- for flat topologies).  Fixed for the
        VM's lifetime: rejuvenation restarts the software, not the
        hardware placement.
    """

    __slots__ = (
        "name",
        "itype",
        "injector",
        "failure_policy",
        "rejuvenation_time_s",
        "initial_state",
        "rack_id",
        "table",
        "row",
    )

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
        self.initial_state = state
        self.rack_id = int(rack_id)
        #: the adopting :class:`~repro.pcam.state_table.VmStateTable`
        self.table = None
        #: this VM's row in :attr:`table`: its position in the pool
        self.row = -1

    # the lifecycle state and load state: reads of this VM's row

    @property
    def state(self) -> VmState:
        return CODE_TO_STATE[self.table.state_code[self.row]]

    @property
    def leaked_mb(self) -> float:
        return float(self.table.leaked_mb[self.row])

    @property
    def stuck_threads(self) -> int:
        return int(self.table.stuck_threads[self.row])

    @property
    def uptime_s(self) -> float:
        return float(self.table.uptime_s[self.row])

    @property
    def last_request_rate(self) -> float:
        return float(self.table.last_request_rate[self.row])

    @property
    def last_response_time_s(self) -> float:
        return float(self.table.last_response_time_s[self.row])

    @property
    def total_requests(self) -> int:
        return int(self.table.total_requests[self.row])

    @property
    def rejuvenation_count(self) -> int:
        return int(self.table.rejuvenation_count[self.row])

    @property
    def failure_count(self) -> int:
        return int(self.table.failure_count[self.row])

    def fail(self) -> None:
        """-> FAILED (the failure point, or a crash), on this VM's row."""
        self.table.fail(np.array([self.row]))

    def sample_features(self) -> FeatureVector:
        """One F2PM monitoring sample: this row of the table's
        :meth:`~repro.pcam.state_table.VmStateTable.feature_matrix`."""
        row = self.table.feature_matrix(np.array([self.row]))[0]
        return FeatureVector(*row.tolist())

    def __repr__(self) -> str:
        return (
            f"VirtualMachine({self.name!r}, {self.itype.name}, "
            f"row={self.row})"
        )
