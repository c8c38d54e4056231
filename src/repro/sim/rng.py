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
"""

from __future__ import annotations

import hashlib

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

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``, reset to stream start.

        Unlike :meth:`stream` this does not cache; useful for tests that need
        to replay a stream from the beginning.
        """
        entropy = [self._seed, *_stable_name_words(name)]
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

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
