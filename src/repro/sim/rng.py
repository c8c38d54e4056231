"""Named, reproducible random-number streams.

Every stochastic component of the reproduction (workload arrivals, anomaly
injection, service-time noise, ML train/test splits, link failures, ...)
draws from its own named child stream of a single root seed.  Child streams
are derived with :class:`numpy.random.SeedSequence` using a stable hash of
the stream name, so:

* two components never share a stream (no accidental coupling);
* adding a new component does not perturb the draws of existing ones;
* a run is fully determined by ``(root_seed, set of stream names)``.

This is the "no hidden global RNG" rule from the project's HPC guides made
concrete.

:class:`ExactDraws` takes the per-request path's scalar draws straight from
a stream's bit generator, consuming it exactly as the ``Generator`` call it
replaces.
"""

from __future__ import annotations

import hashlib
import math
from functools import cache, partial
from typing import Callable

import numpy as np
# NumPy 2 loads ``numpy.random`` lazily.  Import it here, once, so a
# forking parent (the fleet executor) has it loaded before the fork and
# every sweep job does not import it again.
import numpy.random


def _stable_name_words(name: str) -> list[int]:
    """Map a stream name to four stable 32-bit words via BLAKE2b.

    Python's built-in ``hash`` is salted per process; we need a digest that is
    stable across runs and machines.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=16).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def derive_seed(root_seed: int, name: str) -> int:
    """Stable 63-bit child seed for ``(root_seed, name)``.

    The canonical seed-spawning rule for anything that needs a *seed*
    (not a stream): fleet sweep jobs, replicate runs, worker processes.
    Unlike :meth:`RngRegistry.child` (a legacy affine map kept for
    golden-trace compatibility) this hashes the root seed together with
    the name, so child seeds are uniform over the 63-bit space and two
    different roots never produce colliding families.
    """
    if not isinstance(root_seed, (int, np.integer)):
        raise TypeError(
            f"root_seed must be an int, got {type(root_seed).__name__}"
        )
    payload = f"{int(root_seed)}\x1f{name}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") % (2**63)


class RngRegistry:
    """Factory of named :class:`numpy.random.Generator` streams.

    Examples
    --------
    >>> rngs = RngRegistry(seed=42)
    >>> a = rngs.stream("arrivals").integers(0, 100, size=3)
    >>> b = RngRegistry(seed=42).stream("arrivals").integers(0, 100, size=3)
    >>> bool((a == b).all())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was built from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so consumers share stream position intentionally only when they share
        the name.
        """
        gen = self._streams.get(name)
        if gen is None:
            entropy = [self._seed, *_stable_name_words(name)]
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
            self._streams[name] = gen
        return gen

    def child(self, name: str) -> "RngRegistry":
        """Derive a sub-registry whose streams are namespaced under ``name``.

        Used to give each cloud region / VM its own disjoint family of
        streams: ``registry.child("region1").stream("anomalies")``.
        """
        words = _stable_name_words(name)
        child_seed = (self._seed * 1_000_003 + words[0]) % (2**63)
        sub = RngRegistry(seed=child_seed)
        return sub

    def names(self) -> list[str]:
        """Names of streams created so far (sorted, for reproducible logs)."""
        return sorted(self._streams)


#: The largest double a bit generator's ``next_double`` returns (it draws
#: on [0, 1) with 53 bits).
_U_MAX = math.nextafter(1.0, 0.0)


@cache
def _gil_keeping_draws():
    """``ctypes.cast`` and the ``next_double`` / ``next_uint32`` pointer
    types whose call keeps the GIL: the C function touches no Python
    object and runs for less time than releasing and re-taking the GIL.

    ``ctypes`` is imported on first use, as NumPy's interface does.
    """
    import ctypes

    return (
        ctypes.cast,
        ctypes.PYFUNCTYPE(ctypes.c_double, ctypes.c_void_p),
        ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p),
    )


class ExactDraws:
    """Scalar draws taken straight from a ``Generator``'s bit generator.

    Each draw returns what the ``Generator`` call it replaces returns and
    consumes the stream exactly as that call does, including PCG64's
    buffered 32-bit half-word, so a caller may interleave these draws with
    the generator's own (``exponential``, ``lognormal``) and every trace
    stays bit-identical.  What it saves is NumPy's per-call scalar
    overhead (argument parsing, the ``Generator.lock``, boxing): 0.5-2.5 us
    a draw, which the DES pays per request.

    * :attr:`random` is ``Generator.random()``;
    * :meth:`integers` is ``int(Generator.integers(0, k))``;
    * :meth:`binomial_one` builds a draw of ``int(Generator.binomial(1, p))``.

    Only these have exact bit-generator equivalents: ``exponential`` and
    ``lognormal`` sample by ziggurat, whose tables NumPy does not export.

    The draws bypass ``Generator.lock``.  That is safe for a stream only
    one thread draws from, which is how every stream of the simulator is
    used (the DES is single-threaded); do not share one across threads.

    Binding costs ~50 us and ~2 KB a stream (NumPy builds the ``ctypes``
    interface on first use), so a caller that holds many streams binds
    lazily, on the first scalar draw it needs.
    """

    __slots__ = ("random", "_next_uint32", "_generator")

    def __init__(self, generator: np.random.Generator) -> None:
        cast, next_double, next_uint32 = _gil_keeping_draws()
        iface = generator.bit_generator.ctypes
        #: ``Generator.random()``: one ``next_double``.
        self.random: Callable[[], float] = partial(
            cast(iface.next_double, next_double), iface.state
        )
        self._next_uint32 = partial(
            cast(iface.next_uint32, next_uint32), iface.state
        )
        # also what keeps the bit generator, whose state the partials
        # address by pointer, alive
        self._generator = generator

    def integers(self, k: int) -> int:
        """``int(Generator.integers(0, k))`` for ``1 <= k < 2**32``.

        Lemire's multiply-and-reject over ``next_uint32``, as NumPy's
        ``buffered_bounded_lemire_uint32`` runs it; ``k == 1`` draws
        nothing, as NumPy's zero-width range does not.
        """
        if k < 2:
            if k == 1:
                return 0
            raise ValueError(f"k must be >= 1, got {k}")
        if k > 0xFFFFFFFF:
            raise ValueError(f"k must be < 2**32, got {k}")
        m = self._next_uint32() * k
        if (m & 0xFFFFFFFF) < k:
            threshold = (0x100000000 - k) % k
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next_uint32() * k
        return m >> 32

    def binomial_one(self, p: float) -> Callable[[], int]:
        """A draw of ``int(Generator.binomial(1, p))``.

        For ``0 < p <= 1/2`` NumPy samples by inversion: a uniform ``U``
        at or below ``qn = exp(1 * log(1 - p))`` is 0, else ``U - qn`` at
        or below ``p * qn / (1 - p)`` is 1, else it redraws ``U``.  When
        no ``U`` can reach the redraw (``U - qn`` grows with ``U``, so the
        largest one decides), the draw is one ``next_double`` against
        ``qn``.  Otherwise, and for ``p == 0`` or ``p > 1/2``, it is
        NumPy's own call.
        """
        p = float(p)
        if 0.0 < p <= 0.5:
            q = 1.0 - p
            qn = math.exp(math.log(q))
            if _U_MAX - qn <= p * qn / q:
                next_double = self.random
                return lambda: 1 if next_double() > qn else 0
        binomial = self._generator.binomial
        return lambda: int(binomial(1, p))
