"""Request-level discrete-event simulation of one cloud region.

The control loop in :mod:`repro.core.control_loop` advances in fluid eras
(batched request counts) for speed.  This module provides the *request
granular* counterpart used to validate the fluid model and to run
small-scale experiments exactly the way the paper's testbed operated:
emulated browsers issue individual requests, each request queues at a VM,
is served at the VM's (degrading) rate, and triggers anomaly injection on
completion.

The two models must agree where their assumptions overlap -- the
cross-validation test drives the same deployment through both and compares
mean response times and anomaly-accumulation rates.  (That test is the
reproduction's answer to "is the fluid shortcut trustworthy?")

Implementation notes
--------------------
* each VM is an M/M/1-PS-like station: we track in-flight request count
  and approximate processor sharing by re-scheduling the completion of
  the *oldest* request when service speed changes era-to-era would be
  overkill; instead each request samples its full service time at entry
  with the VM's *current* effective rate -- accurate while degradation is
  slow relative to service times (milliseconds vs minutes), which holds
  by construction in this system;
* browsers are closed-loop: completion schedules the next request after
  an exponential think time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pcam.state_table import CODE_ACTIVE, CODE_FAILED, VmStateTable
from repro.pcam.vm import VirtualMachine
from repro.sim.engine import Simulator
from repro.workload.browsers import BrowserPopulation
from repro.workload.sessions import STATES, SessionChain, _INDEX
from repro.workload.tpcw import TPCW_INTERACTIONS


@dataclass
class DesStats:
    """Aggregated outcome of a DES run."""

    completed: int = 0
    response_times: list[float] = field(default_factory=list)
    dropped: int = 0

    def mean_response_time(self) -> float:
        """Mean response time over completed requests (nan if none)."""
        if not self.response_times:
            return float("nan")
        return float(np.mean(self.response_times))

    def p95_response_time(self) -> float:
        """95th-percentile response time (nan if no completions)."""
        if not self.response_times:
            return float("nan")
        return float(np.percentile(self.response_times, 95))


class DesRegion:
    """Request-granular simulation of one region's VM pool.

    Parameters
    ----------
    sim:
        The discrete-event simulator to schedule on.
    vms:
        The pool; only ACTIVE VMs receive requests.  Adopted into a
        :class:`~repro.pcam.state_table.VmStateTable` in pool order (row
        index == slot), so the JSQ scan and the per-completion
        bookkeeping read and write columns; the VM objects stay valid
        views.
    population:
        Closed-loop browser population driving the load.
    rng:
        Stream for think times, service times, and VM choice.
    mean_demand:
        Demand-units per request when no session chain is given.
    session_chain:
        Optional TPC-W navigation chain: each browser then walks the
        chain, and every request's service demand is its interaction's
        catalog cost (heavy Buy Confirms, cheap Home hits) instead of a
        single mean -- the demand mix the real benchmark produces.
    """

    def __init__(
        self,
        sim: Simulator,
        vms: list[VirtualMachine],
        population: BrowserPopulation,
        rng: np.random.Generator,
        mean_demand: float = 1.5,
        session_chain: SessionChain | None = None,
    ) -> None:
        if not vms:
            raise ValueError("need at least one VM")
        if mean_demand <= 0:
            raise ValueError("mean_demand must be positive")
        self.sim = sim
        self.vms = vms
        self.population = population
        self.rng = rng
        self.mean_demand = float(mean_demand)
        self.session_chain = session_chain
        self.stats = DesStats()
        #: Outstanding requests per VM, indexed by slot (position in vms).
        self._in_flight = np.zeros(len(vms), dtype=np.int64)
        self.table = VmStateTable(len(vms))
        self.table.adopt_all(vms)  # adoption order: row == slot
        # per-browser navigation state (index into the chain's STATES)
        self._browser_page: dict[int, int] = {}
        self.interaction_counts: dict[str, int] = {}
        self._started = False

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Schedule the first request of every emulated browser (once).

        The population is closed-loop: every browser always has exactly
        one pending event (a think timer or a completion), so a second
        call would add ``n_clients`` more browsers, not restart these.
        """
        if self._started:
            return
        self._started = True
        for browser in range(self.population.n_clients):
            if self.session_chain is not None:
                self._browser_page[browser] = _INDEX[
                    self.session_chain.entry
                ]
            delay = float(
                self.rng.exponential(self.population.think_time_s)
            )
            self.sim.schedule_after(
                delay, lambda b=browser: self._issue_request(b)
            )

    def _next_demand(self, browser: int) -> float:
        """Service demand of the browser's next click.

        Walks the session chain when one is configured; otherwise the
        fixed mean demand.
        """
        if self.session_chain is None:
            return self.mean_demand
        page = self._browser_page[browser]
        nxt = int(
            self.rng.choice(
                len(STATES), p=self.session_chain.matrix[page]
            )
        )
        self._browser_page[browser] = nxt
        interaction = STATES[nxt]
        key = interaction.value
        self.interaction_counts[key] = self.interaction_counts.get(key, 0) + 1
        return TPCW_INTERACTIONS[interaction]

    def _pick_slot(self) -> int | None:
        """Slot of the least-loaded ACTIVE VM (join-the-shortest-queue).

        Ties are broken uniformly at random -- under light load every
        queue is empty, and deterministic tie-breaking would funnel the
        whole stream to the first VM in the list.
        """
        active = np.flatnonzero(self.table.state_code == CODE_ACTIVE)
        if active.size == 0:
            return None
        loads = self._in_flight[active]
        candidates = np.flatnonzero(loads == loads.min())
        return int(active[int(self.rng.choice(candidates))])

    def _issue_request(self, browser: int) -> None:
        slot = self._pick_slot()
        if slot is None:
            # outage: request dropped; browser retries after thinking
            self.stats.dropped += 1
            self._schedule_next_request(browser)
            return
        self._in_flight[slot] += 1
        t_start = self.sim.now
        demand = self._next_demand(browser)
        # processor sharing approximation: service rate divided by the
        # number of requests now in flight at this VM
        share = max(int(self._in_flight[slot]), 1)
        mu = self.table.capacity_at(slot) / demand / share
        service = float(self.rng.exponential(1.0 / mu)) if mu > 0 else 1.0

        def complete(slot=slot, t_start=t_start, browser=browser) -> None:
            self._in_flight[slot] -= 1
            rt = self.sim.now - t_start
            self.stats.completed += 1
            self.stats.response_times.append(rt)
            # anomaly injection on completion (one request's worth)
            table = self.table
            if table.state_code[slot] == CODE_ACTIVE:
                leaked_mb, stuck_threads = self.vms[slot].injector.draw(1)
                table.leaked_mb[slot] += leaked_mb
                table.stuck_threads[slot] += stuck_threads
                table.total_requests[slot] += 1
                table.last_response_time_s[slot] = rt
                if table.failure_point_at(slot):
                    table.state_code[slot] = CODE_FAILED
                    table.failure_count[slot] += 1
            self._schedule_next_request(browser)

        self.sim.schedule_after(service, complete)

    def _schedule_next_request(self, browser: int) -> None:
        think = float(self.rng.exponential(self.population.think_time_s))
        self.sim.schedule_after(
            think, lambda: self._issue_request(browser)
        )

    # ------------------------------------------------------------------ #

    def run(self, duration_s: float) -> DesStats:
        """Run for ``duration_s`` simulated seconds.

        The first call starts the browsers (unless :meth:`start` already
        did); later calls only advance the clock, so repeated runs keep
        one browser population and cumulative ``stats``.

        VM uptime accounting is synchronised at the end so that feature
        samples taken afterwards see the right ``uptime_s``.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        t_end = self.sim.now + duration_s
        # Rate accounting snapshots taken at run start: the per-VM rate
        # must use only *this* run's completions (``self.stats`` is
        # cumulative across repeated run() calls) and divide by the
        # active count that started the run -- VMs that fail mid-run
        # served part of it, and dividing by the survivors would inflate
        # the rate downstream predictors see (same fix as the DES loop's
        # ``era_active_start``).
        completed_at_start = self.stats.completed
        n_active_start = int(
            np.count_nonzero(self.table.state_code == CODE_ACTIVE)
        )
        self.start()
        self.sim.run_until(t_end)
        rate = (
            (self.stats.completed - completed_at_start)
            / max(n_active_start, 1)
            / duration_s
        )
        active = self.table.state_code == CODE_ACTIVE
        self.table.uptime_s[active] += duration_s
        # refresh last_request_rate for downstream predictors
        self.table.last_request_rate[active] = rate
        return self.stats
