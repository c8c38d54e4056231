"""Reliable, exactly-once-delivery messaging over the unreliable bus.

:class:`~repro.overlay.messaging.MessageBus` is a datagram overlay: it
drops messages on partitions, on in-flight crashes, and (under chaos
injection) at random.  The MAPE loop's control traffic -- slave-to-leader
``lastRMTTF`` reports and leader-to-slave fraction pushes -- must survive
that, so :class:`ReliableChannel` layers the classic end-to-end recipe on
top:

* every application message is wrapped in an envelope carrying a
  channel-unique id and sent as an ``rc-data`` bus message;
* the receiver always answers with an ``rc-ack`` (acks themselves may be
  lost) and de-duplicates by ``(src, id)``, so the application handler
  sees each message **at most once** even when retries race an ack;
* the sender retries on ack timeout with exponential backoff plus a
  deterministic jitter drawn from a dedicated RNG stream (replayable runs
  stay bit-identical), up to :data:`MAX_RETRIES` retries;
* exhausted sends resolve to ``failed`` -- the caller decides how to
  degrade (the control loop holds its last-known good plan; see
  :mod:`repro.core.degradation`).

Send outcomes are first-class: :meth:`send` returns a :class:`SendHandle`
whose ``status`` resolves to ``"acked"`` or ``"failed"`` as the simulator
runs, and :attr:`ReliableChannel.stats` aggregates the telemetry the
resilience campaigns report (retries, duplicates, give-ups).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.overlay.messaging import Message, MessageBus

if TYPE_CHECKING:
    from repro.obs.metrics import Counter
    from repro.obs.telemetry import Telemetry
    from repro.sim.clock import Clock

#: Bus message kind carrying an application payload envelope.
DATA_KIND = "rc-data"
#: Bus message kind carrying an acknowledgement.
ACK_KIND = "rc-ack"
#: Retransmissions after the first attempt before a send gives up.
MAX_RETRIES = 3
#: Ack timeout of the first attempt (seconds); each retry multiplies it
#: by :data:`BACKOFF_FACTOR`.
BASE_TIMEOUT_S = 0.25
BACKOFF_FACTOR = 2.0
#: Upper bound of the uniform jitter added to every timeout (seconds):
#: it decorrelates retry storms without breaking determinism.
JITTER_S = 0.05


@dataclass(slots=True)
class SendHandle:
    """Tracks one reliable send through retries to its final outcome."""

    msg_id: int
    src: str
    dst: str
    kind: str
    #: ``pending`` | ``acked`` | ``failed``
    status: str = field(default="pending", init=False)
    attempts: int = field(default=0, init=False)
    acked_at: float | None = field(default=None, init=False)

    @property
    def resolved(self) -> bool:
        return self.status != "pending"


@dataclass(slots=True)
class ChannelStats:
    """Send-outcome telemetry of one :class:`ReliableChannel`.

    The integer attributes stay authoritative (campaign reports read them
    directly); when bound to a metrics registry via :meth:`bind`, every
    :meth:`bump` also increments the matching registry counter, so the
    same numbers appear in `obs` exports without double bookkeeping.
    """

    #: application messages submitted
    sent: int = field(default=0, init=False)
    #: bus transmissions (first tries + retries)
    attempts: int = field(default=0, init=False)
    #: retransmissions after an ack timeout
    retries: int = field(default=0, init=False)
    #: sends that resolved to ``acked``
    acked: int = field(default=0, init=False)
    #: sends that exhausted their retries
    gave_up: int = field(default=0, init=False)
    #: received data suppressed by dedup
    duplicates: int = field(default=0, init=False)
    #: acknowledgements transmitted
    acks_sent: int = field(default=0, init=False)
    _mirror: "dict[str, Counter] | None" = field(
        default=None, repr=False, compare=False, init=False
    )

    FIELDS = (
        "sent",
        "attempts",
        "retries",
        "acked",
        "gave_up",
        "duplicates",
        "acks_sent",
    )

    def bind(self, counters: "dict[str, Counter]") -> None:
        """Mirror future bumps into the given registry counters."""
        self._mirror = counters

    def bump(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        if self._mirror is not None:
            counter = self._mirror.get(name)
            if counter is not None:
                counter.inc(1)

    def as_dict(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "attempts": self.attempts,
            "retries": self.retries,
            "acked": self.acked,
            "gave_up": self.gave_up,
            "duplicates": self.duplicates,
            "acks_sent": self.acks_sent,
        }


class ReliableChannel:
    """Ack/retry/dedup messaging shared by every node on one bus.

    One channel instance serves all nodes of an overlay (mirroring how
    :class:`~repro.overlay.state_sync.GossipSync` is structured): each
    node registers its application handler with :meth:`register`, and the
    owner of the per-node bus registration chains
    :meth:`make_bus_handler` into its demultiplexer (or calls
    :meth:`attach` when the channel owns the registration outright).

    Parameters
    ----------
    bus:
        The unreliable transport.
    rng:
        Jitter stream (use a dedicated
        :meth:`repro.sim.rng.RngRegistry.stream`, e.g.
        ``rngs.stream("reliable/jitter")``, so replays are bit-identical).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` facade.  When
        enabled, :attr:`stats` mirrors into registry counters
        (``channel_<field>_total``), every send records an async
        ``channel`` span from submission to ack/give-up, and give-ups
        leave a flight event.

    The retry/backoff timers and ``acked_at`` stamps run on the bus's
    clock: virtual time on a simulator, real elapsed seconds on the
    serve runtime's :class:`~repro.serve.clock.WallClock`, with the same
    bounded-retry ladder.
    """

    def __init__(
        self,
        bus: MessageBus,
        rng: np.random.Generator,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.bus = bus
        self.clock: "Clock" = bus.sim
        self.rng = rng
        self.stats = ChannelStats()
        self._obs = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        if self._obs is not None:
            self.stats.bind(
                {
                    name: self._obs.counter(f"channel_{name}_total")
                    for name in ChannelStats.FIELDS
                }
            )
        #: msg_id -> open async ``channel`` span (telemetry only)
        self._obs_spans: dict[int, Any] = {}
        self._next_id = 0
        self._pending: dict[int, tuple[SendHandle, str, Any]] = {}
        self._timers: dict[int, Any] = {}
        self._app_handlers: dict[str, Callable[[Message], None]] = {}
        #: per receiving node: (src, msg_id) pairs already delivered
        self._seen: dict[str, set[tuple[str, int]]] = {}

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #

    def register(self, node: str, handler: Callable[[Message], None]) -> None:
        """Set ``node``'s application handler (called at most once per
        message, with the unwrapped application :class:`Message`)."""
        self._app_handlers[node] = handler

    def make_bus_handler(self, node: str) -> Callable[[Message], None]:
        """Bus handler for ``node``; chain it from a demultiplexer for
        the :data:`DATA_KIND` and :data:`ACK_KIND` message kinds."""

        def handle(msg: Message) -> None:
            if msg.kind == DATA_KIND:
                self._on_data(node, msg)
            elif msg.kind == ACK_KIND:
                self._on_ack(msg)

        return handle

    def attach(self, node: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` and give the channel the node's bus
        registration (standalone use, no demultiplexer)."""
        self.register(node, handler)
        self.bus.register(node, self.make_bus_handler(node))

    # ------------------------------------------------------------------ #
    # sending
    # ------------------------------------------------------------------ #

    def send(self, src: str, dst: str, kind: str, payload: Any) -> SendHandle:
        """Reliably send ``payload``; returns the tracking handle.

        The handle's ``status`` is ``pending`` until the simulator runs
        the delivery/ack/timeout events.
        """
        handle = SendHandle(
            msg_id=self._next_id, src=src, dst=dst, kind=kind
        )
        self._next_id += 1
        self.stats.bump("sent")
        if self._obs is not None:
            self._obs_spans[handle.msg_id] = self._obs.open_span(
                f"send {src}->{dst}",
                "channel",
                msg_kind=kind,
                src=src,
                dst=dst,
            )
        self._pending[handle.msg_id] = (handle, kind, payload)
        self._attempt(handle, kind, payload)
        return handle

    def pending_count(self) -> int:
        """Sends still awaiting an ack or final timeout."""
        return len(self._pending)

    def _attempt(self, handle: SendHandle, kind: str, payload: Any) -> None:
        handle.attempts += 1
        self.stats.bump("attempts")
        envelope = {"id": handle.msg_id, "kind": kind, "payload": payload}
        self.bus.send(handle.src, handle.dst, DATA_KIND, envelope)
        timeout = BASE_TIMEOUT_S * BACKOFF_FACTOR ** (handle.attempts - 1)
        timeout += float(self.rng.uniform(0.0, JITTER_S))
        self._timers[handle.msg_id] = self.clock.schedule_after(
            timeout,
            lambda: self._on_timeout(handle),
            label=f"rc-timer:{handle.kind}",
        )

    def _on_timeout(self, handle: SendHandle) -> None:
        entry = self._pending.get(handle.msg_id)
        if entry is None or handle.resolved:
            return
        self._timers.pop(handle.msg_id, None)
        if handle.attempts > MAX_RETRIES:
            handle.status = "failed"
            self.stats.bump("gave_up")
            del self._pending[handle.msg_id]
            if self._obs is not None:
                span = self._obs_spans.pop(handle.msg_id, None)
                if span is not None:
                    self._obs.close_span(
                        span, outcome="failed", attempts=handle.attempts
                    )
                self._obs.event(
                    "channel.give_up",
                    src=handle.src,
                    dst=handle.dst,
                    msg_kind=handle.kind,
                    attempts=handle.attempts,
                )
            return
        self.stats.bump("retries")
        self._attempt(handle, entry[1], entry[2])

    # ------------------------------------------------------------------ #
    # receiving
    # ------------------------------------------------------------------ #

    def _on_data(self, node: str, msg: Message) -> None:
        envelope = msg.payload
        msg_id = envelope["id"]
        # Always ack, even duplicates: the previous ack may have been lost.
        self.stats.bump("acks_sent")
        self.bus.send(node, msg.src, ACK_KIND, {"id": msg_id})
        seen = self._seen.setdefault(node, set())
        key = (msg.src, msg_id)
        if key in seen:
            self.stats.bump("duplicates")
            return
        seen.add(key)
        handler = self._app_handlers.get(node)
        if handler is not None:
            handler(
                Message(
                    src=msg.src,
                    dst=node,
                    kind=envelope["kind"],
                    payload=envelope["payload"],
                    sent_at=msg.sent_at,
                )
            )

    def _on_ack(self, msg: Message) -> None:
        entry = self._pending.pop(msg.payload["id"], None)
        if entry is None:
            return  # duplicate/stale ack
        handle = entry[0]
        handle.status = "acked"
        handle.acked_at = self.clock.now
        self.stats.bump("acked")
        if self._obs is not None:
            span = self._obs_spans.pop(handle.msg_id, None)
            if span is not None:
                self._obs.close_span(
                    span, outcome="acked", attempts=handle.attempts
                )
        timer = self._timers.pop(handle.msg_id, None)
        if timer is not None:
            timer.cancel()
