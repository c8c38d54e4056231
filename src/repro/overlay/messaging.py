"""Latency-accurate message delivery between controllers.

Slave VMCs send their ``lastRMTTF`` to the leader; the leader pushes the
new workload fractions back (Algorithms 1-2).  :class:`MessageBus` carries
those messages over the overlay: delivery is scheduled on the simulator
after the best-path latency, and messages are dropped (and counted) if
the endpoints are partitioned at *send* time.

Every drop is tagged with a reason so operators (and the chaos campaigns)
can tell failure modes apart:

* ``no_route`` -- the endpoints were partitioned at send time;
* ``no_handler`` -- the destination never registered a receive handler;
* ``dead_dst`` -- the destination died while the message was in flight.

:class:`repro.chaos.lossy.LossyBus` extends the vocabulary with
``chaos_loss`` for injected message loss.  The bus itself is *unreliable
by design* (it models a datagram overlay); callers that need delivery
guarantees layer :class:`repro.overlay.reliable.ReliableChannel` on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.overlay.routing import NoRouteError, Router
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry


@dataclass(frozen=True, slots=True)
class Message:
    """One controller-to-controller message."""

    src: str
    dst: str
    kind: str
    payload: Any
    sent_at: float


@dataclass
class MessageBus:
    """Delivers messages over the overlay with path latency.

    Parameters
    ----------
    sim:
        The simulator used to schedule deliveries.
    router:
        Path/latency source.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade mirroring
        ``delivered_count``/``drop_counts`` into the metrics registry and
        recording a flight event per drop.  The integer attributes remain
        authoritative and are maintained regardless.
    """

    sim: Simulator
    router: Router
    delivered_count: int = field(default=0, init=False)
    dropped_count: int = field(default=0, init=False)
    drop_counts: dict[str, int] = field(default_factory=dict, init=False)
    telemetry: "Telemetry | None" = None
    _handlers: dict[str, Callable[[Message], None]] = field(
        default_factory=dict, init=False
    )

    def __post_init__(self) -> None:
        tel = self.telemetry
        self._obs = tel if tel is not None and tel.enabled else None
        self._obs_delivered = (
            self._obs.counter("bus_delivered_total")
            if self._obs is not None
            else None
        )

    def register(
        self, node: str, handler: Callable[[Message], None]
    ) -> None:
        """Register the receive handler of a controller node."""
        self._handlers[node] = handler

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any,
    ) -> bool:
        """Send a message; returns False if dropped (no route / no handler).

        Delivery happens ``latency_ms / 1000`` simulated seconds later; a
        destination that dies in flight still receives the message only if
        it is alive at delivery time.  Every outcome is counted:
        ``delivered_count``, or ``drop_counts`` by reason.
        """
        msg = Message(
            src=src, dst=dst, kind=kind, payload=payload, sent_at=self.sim.now
        )
        try:
            _, latency_ms = self.router.route(src, dst)
        except NoRouteError:
            self._drop(msg, "no_route")
            return False
        if dst not in self._handlers:
            self._drop(msg, "no_handler")
            return False

        def deliver() -> None:
            if not self.router.network.is_alive(dst):
                self._drop(msg, "dead_dst")
                return
            self.delivered_count += 1
            if self._obs_delivered is not None:
                self._obs_delivered.inc()
            self._handlers[dst](msg)

        self.sim.schedule_after(latency_ms / 1000.0, deliver, label=f"msg:{kind}")
        return True

    def _drop(self, msg: Message, reason: str) -> None:
        self.dropped_count += 1
        self.drop_counts[reason] = self.drop_counts.get(reason, 0) + 1
        if self._obs is not None:
            self._obs.counter("bus_dropped_total", reason=reason).inc()
            self._obs.event(
                "bus.drop",
                reason=reason,
                src=msg.src,
                dst=msg.dst,
                msg_kind=msg.kind,
            )
