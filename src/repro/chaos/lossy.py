"""Probabilistic message loss and latency jitter for the overlay bus.

:class:`LossyBus` is the chaos-injection transport: a drop-in
:class:`~repro.overlay.messaging.MessageBus` whose ``send`` path first
rolls a seeded RNG for message loss and (optionally) defers dispatch by a
uniform latency jitter.  Loss is *silent* in the datagram sense -- the
sender's ``send`` still returns True (the network accepted the packet; it
just never arrives), which is exactly the failure mode
:class:`~repro.overlay.reliable.ReliableChannel` exists to mask.

Both knobs are plain mutable attributes, so a campaign can open and
close a loss window ("30 % loss from era 5 to era 16") through
:class:`~repro.chaos.engine.ChaosEngine` at era boundaries.  All
randomness comes from one named stream, so a campaign replays
bit-identically from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.overlay.messaging import Message, MessageBus


@dataclass
class LossyBus(MessageBus):
    """A :class:`MessageBus` with injectable loss and latency jitter.

    Parameters
    ----------
    rng:
        Seeded stream for the loss roll and jitter draw (e.g.
        ``rngs.stream("chaos/network")``).  Required as soon as
        ``loss_probability`` or ``jitter_ms`` is non-zero.
    loss_probability:
        Per-message probability of silent loss (applies to *every* bus
        message: data, acks, heartbeats, gossip).
    jitter_ms:
        Upper bound of a uniform extra delay added before dispatch.
    """

    rng: np.random.Generator | None = None
    loss_probability: float = field(default=0.0, init=False)
    jitter_ms: float = field(default=0.0, init=False)
    chaos_dropped: int = field(default=0, init=False)
    chaos_delayed: int = field(default=0, init=False)

    def send(self, src, dst, kind, payload) -> bool:
        if self.loss_probability > 0.0 or self.jitter_ms > 0.0:
            if self.rng is None:
                raise RuntimeError(
                    "LossyBus needs an rng once loss/jitter is enabled"
                )
        if (
            self.loss_probability > 0.0
            and float(self.rng.random()) < self.loss_probability
        ):
            msg = Message(
                src=src, dst=dst, kind=kind, payload=payload,
                sent_at=self.sim.now,
            )
            self.chaos_dropped += 1
            self._drop(msg, "chaos_loss")
            return True  # the datagram was accepted; it just never arrives
        if self.jitter_ms > 0.0:
            delay_s = float(self.rng.uniform(0.0, self.jitter_ms)) / 1000.0
            self.chaos_delayed += 1
            self.sim.schedule_after(
                delay_s,
                lambda: MessageBus.send(self, src, dst, kind, payload),
                label=f"jitter:{kind}",
            )
            return True
        return super().send(src, dst, kind, payload)
