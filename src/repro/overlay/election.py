"""Failure-tolerant leader election among VMCs.

The paper elects the leader VMC "using the algorithm in [33]" (Avresky &
Natchev, *Dynamic reconfiguration in computer clusters with irregular
topologies in the presence of multiple node and link failures*), which
rebuilds a rooted structure after arbitrary node/link failures.  We
implement the same guarantees in its essential bully-over-components form:

* **safety** -- at most one leader per connected component of the live
  topology; a node only follows a leader it can reach;
* **liveness** -- after any sequence of failures/recoveries, a single call
  to :meth:`LeaderElection.elect` (per component) restores a leader;
* **determinism** -- the elected node is the smallest identifier in the
  component, so repeated elections agree without extra rounds.

Election history is recorded for the experiments that count takeovers:
one record per *change* of ``(component, leader)``, so a control plane that
re-elects every era on a quiet topology records the outcome once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.overlay.network import OverlayNetwork


@dataclass(frozen=True, slots=True)
class ElectionRecord:
    """One election outcome."""

    time: float
    component: frozenset[str]
    leader: str


@dataclass
class LeaderElection:
    """Deterministic leader election on the live overlay.

    Parameters
    ----------
    network:
        Topology whose live components define electorates.
    """

    network: OverlayNetwork
    history: list[ElectionRecord] = field(default_factory=list, init=False)

    def elect(self, caller: str, now: float = 0.0) -> str:
        """Elect the leader of ``caller``'s component.

        Returns the leader's identifier (the minimum node id in the
        component -- every member computes the same answer independently,
        which is what makes the election message-free here).

        Raises
        ------
        RuntimeError
            If ``caller`` is itself down (a dead node cannot elect).
        """
        component = self.network.component_of(caller)
        if not component:
            raise RuntimeError(f"node {caller!r} is down; cannot elect")
        return self._record(component, now)

    def _record(self, component: set[str], now: float) -> str:
        """The component's leader; appended to history if it is news."""
        leader = min(component)
        last = self.history[-1] if self.history else None
        if (
            last is None
            or last.leader != leader
            or last.component != component
        ):
            self.history.append(
                ElectionRecord(
                    time=float(now),
                    component=frozenset(component),
                    leader=leader,
                )
            )
        return leader

