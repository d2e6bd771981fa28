"""Deterministic, stream-split random number generation.

Every stochastic decision in a simulated cluster (gossip peer selection,
network jitter, boot staggering) draws from a named stream derived from a
single experiment seed.  Splitting by name means adding a new consumer of
randomness does not perturb the draws seen by existing consumers -- a
property we rely on when comparing "real-scale" and "replay" runs that must
share some streams (workload) but not others (contention noise).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 rather than Python's ``hash`` because the latter is
    randomized per interpreter run and would destroy reproducibility.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SplittableRng:
    """A registry of named, independently-seeded ``random.Random`` streams."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}
        #: Draws taken so far from each :meth:`uniform_once` stream.
        self._drawn: Dict[str, int] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            if name in self._drawn:
                raise ValueError(f"stream {name!r} is drawn by uniform_once")
            stream = self._streams[name] = random.Random(
                derive_seed(self.seed, name))
        return stream

    def uniform(self, name: str, low: float, high: float) -> float:
        """Uniform draw from the named stream."""
        return self.stream(name).uniform(low, high)

    def uniform_once(self, name: str, low: float, high: float) -> float:
        """:meth:`uniform` for a stream drawn once or twice per run.

        Keeps a draw count instead of a generator (a ``random.Random`` is
        about 2.5 KB): each call re-derives the stream and replays the
        earlier draws, one ``random()`` each as ``uniform`` takes, so the
        values are the ones :meth:`uniform` would return.  A name belongs
        to one of the two: mixing them raises ``ValueError``.
        """
        if name in self._streams:
            raise ValueError(f"stream {name!r} is drawn by stream()")
        drawn = self._drawn.get(name, 0)
        stream = random.Random(derive_seed(self.seed, name))
        for __ in range(drawn):
            stream.random()
        self._drawn[name] = drawn + 1
        return stream.uniform(low, high)

    def expovariate(self, name: str, rate: float) -> float:
        """Exponential draw from the named stream."""
        return self.stream(name).expovariate(rate)

    def gauss(self, name: str, mu: float, sigma: float) -> float:
        """Gaussian draw from the named stream."""
        return self.stream(name).gauss(mu, sigma)

    def choice(self, name: str, seq: Sequence[T]) -> T:
        """Uniform choice from the named stream."""
        return self.stream(name).choice(seq)

    def sample(self, name: str, seq: Sequence[T], k: int) -> List[T]:
        """Sample a value."""
        population = list(seq)
        k = min(k, len(population))
        return self.stream(name).sample(population, k)

    def shuffled(self, name: str, seq: Sequence[T]) -> List[T]:
        """A shuffled copy of ``seq`` (input untouched)."""
        items = list(seq)
        self.stream(name).shuffle(items)
        return items

    def randint(self, name: str, low: int, high: int) -> int:
        """Uniform integer in [low, high] from the named stream."""
        return self.stream(name).randint(low, high)

    def random(self, name: str) -> float:
        """Uniform float in [0, 1) from the named stream."""
        return self.stream(name).random()

    def iter_jitter(self, name: str, base: float, spread: float) -> Iterator[float]:
        """Yield ``base`` +/- uniform jitter forever (for periodic timers)."""
        stream = self.stream(name)
        while True:
            yield base + stream.uniform(-spread, spread)
