"""Per-request software-anomaly injection.

Sec. VI-A: "We modified the TPC-W implementation to randomly generate
software anomalies at run-time, including memory leaks and unterminated
threads.  Specifically, anomalies were generated with different
probabilities on each VM when receiving a client request -- 10% of requests
generate a memory leak, 5% of requests generate an unterminated thread."

:class:`AnomalyInjector` reproduces exactly this model.  Leak sizes are
drawn from a log-normal (leaks in real applications are bursty: many small
allocations, occasional large ones); each unterminated thread permanently
occupies one thread slot and a small resident-set overhead.

The sampling body is written once, in :meth:`AnomalyInjector.draw`, and
returns a plain ``(leaked_mb, stuck_threads)`` pair: the simulator's hot
callers (one draw per ACTIVE VM per era through :func:`draw_pool`, one per
completed request in the DES) only ever add the two numbers to a VM's
state.  :meth:`AnomalyInjector.inject` is the same draw wrapped into an
:class:`AnomalyEffect` for callers that want the named, addable record.
A one-request draw takes its two counts from
:class:`~repro.sim.rng.ExactDraws`, bound on the first such draw.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from repro.sim.rng import ExactDraws

#: Paper's injection probabilities (Sec. VI-A).
DEFAULT_LEAK_PROBABILITY = 0.10
DEFAULT_THREAD_PROBABILITY = 0.05

#: Mean size of one leak in MB, and the log-normal shape of the leak-size
#: distribution; read when an injector is built.
LEAK_MEAN_MB = 0.8
LEAK_SIGMA = 0.5
#: Resident memory pinned by each stuck thread (stack + locals), in MB.
THREAD_OVERHEAD_MB = 0.25


class AnomalyEffect(NamedTuple):
    """Aggregate anomaly damage from a batch of requests.

    Attributes
    ----------
    leaked_mb:
        Total memory leaked (MB).
    stuck_threads:
        Number of new unterminated threads.
    n_requests:
        Size of the batch that produced this effect.
    """

    leaked_mb: float
    stuck_threads: int
    n_requests: int

    def __add__(self, other: "AnomalyEffect") -> "AnomalyEffect":
        return AnomalyEffect(
            self.leaked_mb + other.leaked_mb,
            self.stuck_threads + other.stuck_threads,
            self.n_requests + other.n_requests,
        )


ZERO_EFFECT = AnomalyEffect(0.0, 0, 0)


class AnomalyInjector:
    """Stochastic per-request anomaly generator.

    Parameters
    ----------
    rng:
        Dedicated random stream (one per VM, from the VM's child registry).
    leak_probability:
        Probability a request leaks memory (paper: 0.10; a drifted
        scenario raises it).  A leak's size is log-normal with mean
        :data:`LEAK_MEAN_MB` and shape :data:`LEAK_SIGMA`; a stuck thread
        pins :data:`THREAD_OVERHEAD_MB`.

    A request leaves an unterminated thread with probability
    :data:`DEFAULT_THREAD_PROBABILITY` (paper: 0.05); the
    ``thread_probability`` attribute moves only under a chaos fault.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        leak_probability: float = DEFAULT_LEAK_PROBABILITY,
    ) -> None:
        # the setters validate both probabilities
        self.leak_probability = leak_probability
        self.thread_probability = DEFAULT_THREAD_PROBABILITY
        # read here, so a patched size is checked here; written as
        # ``not <range>`` so that NaN fails too
        if not 0.0 < LEAK_MEAN_MB < math.inf:
            raise ValueError("LEAK_MEAN_MB must be positive and finite")
        if not 0.0 <= LEAK_SIGMA < math.inf:
            raise ValueError("LEAK_SIGMA must be non-negative and finite")
        if not 0.0 <= THREAD_OVERHEAD_MB < math.inf:
            raise ValueError("THREAD_OVERHEAD_MB must be non-negative and finite")
        self._rng = rng
        self.leak_mean_mb = LEAK_MEAN_MB
        self.leak_sigma = LEAK_SIGMA
        self.thread_overhead_mb = THREAD_OVERHEAD_MB
        # log-normal with the requested *mean*: mu = ln(mean) - sigma^2/2
        self._leak_mu = np.log(self.leak_mean_mb) - 0.5 * self.leak_sigma**2
        # bound methods skip the per-call attribute chase on the hot path
        self._binomial = rng.binomial
        self._lognormal = rng.lognormal

    #: the one-request count draws, ``(leaks, threads)``: built on the
    #: first ``draw(1)``, dropped when a probability changes
    _one_request: tuple[Callable[[], int], Callable[[], int]] | None = None

    @property
    def leak_probability(self) -> float:
        """Probability a request leaks memory."""
        return self._p_leak

    @leak_probability.setter
    def leak_probability(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("leak_probability must be in [0, 1]")
        self._p_leak = float(p)
        self._one_request = None

    @property
    def thread_probability(self) -> float:
        """Probability a request leaves an unterminated thread."""
        return self._p_thread

    @thread_probability.setter
    def thread_probability(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("thread_probability must be in [0, 1]")
        self._p_thread = float(p)
        self._one_request = None

    # ------------------------------------------------------------------ #

    def draw(self, n_requests: int) -> tuple[float, int]:
        """Sample ``(leaked_mb, stuck_threads)`` done by ``n_requests`` requests.

        Vectorised: counts are binomial, leak sizes a single log-normal
        batch.  Suitable both for per-request DES (``n_requests=1``) and for
        the fluid per-era model (``n_requests`` in the thousands).  A batch
        of zero requests consumes nothing from the stream.
        """
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        if n_requests == 0:
            return 0.0, 0
        if n_requests == 1:
            counts = self._one_request
            if counts is None:
                # bound here, not in __init__: binding costs ~50 us and
                # ~2 KB a stream, which a fleet of batch-drawing VMs
                # must not pay
                exact = ExactDraws(self._rng)
                counts = self._one_request = (
                    exact.binomial_one(self._p_leak),
                    exact.binomial_one(self._p_thread),
                )
            leaks, threads = counts
            n_leaks = leaks()
            n_threads = threads()
        else:
            n_leaks = int(self._binomial(n_requests, self._p_leak))
            n_threads = int(self._binomial(n_requests, self._p_thread))
        if n_leaks:
            sizes = self._lognormal(
                self._leak_mu, self.leak_sigma, size=n_leaks
            )
            if n_leaks < 8:
                # a left-to-right loop: bit-identical to ndarray.sum at
                # these sizes (numpy's pairwise kernel degenerates to the
                # same loop below 8 elements) and ~3x cheaper -- this
                # branch covers the DES (n=1) and every realistic per-era
                # batch.  Spelled out, not builtin sum(), which adds
                # floats with compensation from Python 3.12 on.
                leaked = 0.0
                for size in sizes.tolist():
                    leaked += size
            else:
                leaked = float(sizes.sum())
        else:
            leaked = 0.0
        return leaked + n_threads * self.thread_overhead_mb, n_threads

    def inject(self, n_requests: int) -> AnomalyEffect:
        """:meth:`draw` as an :class:`AnomalyEffect` record."""
        if n_requests == 0:
            return ZERO_EFFECT
        leaked_mb, stuck_threads = self.draw(n_requests)
        return AnomalyEffect(leaked_mb, stuck_threads, n_requests)

    def expected_leak_rate_mb(self, request_rate: float) -> float:
        """Mean MB leaked per second at the given request rate.

        The mean-field quantity that drives a VM's expected MTTF:
        ``rate * (p_leak * E[leak] + p_thread * thread_overhead)``.
        """
        if request_rate < 0:
            raise ValueError("request_rate must be >= 0")
        per_request = (
            self._p_leak * self.leak_mean_mb
            + self._p_thread * self.thread_overhead_mb
        )
        return request_rate * per_request

    def expected_thread_rate(self, request_rate: float) -> float:
        """Mean unterminated threads created per second."""
        if request_rate < 0:
            raise ValueError("request_rate must be >= 0")
        return request_rate * self._p_thread


def draw_pool(
    injectors: list[AnomalyInjector], counts: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """One :meth:`AnomalyInjector.draw` per injector, as two delta arrays.

    Each injector consumes its own stream, in list order, exactly as a
    walk of ``inject(count)`` calls would; the result is the per-VM
    ``(leaked_mb, stuck_threads)`` columns an era adds to the pool state.
    """
    leaked: list[float] = []
    threads: list[int] = []
    for injector, n_requests in zip(injectors, counts, strict=True):
        leaked_mb, stuck_threads = injector.draw(n_requests)
        leaked.append(leaked_mb)
        threads.append(stuck_threads)
    return (
        np.array(leaked, dtype=np.float64),
        np.array(threads, dtype=np.int64),
    )
