"""Deterministic random-number helpers for reproducible simulations.

Every stochastic component takes an explicit :class:`SimRng` (never the
global ``random`` module), so a run is fully determined by its seed and
independent subsystems can be given independent streams via
:meth:`SimRng.fork`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["SimRng"]


class SimRng:
    """A seeded random stream with domain-specific helpers."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, tag: str) -> "SimRng":
        """Derive an independent, reproducible sub-stream.

        Forking by tag (rather than drawing from the parent) keeps the
        child stream stable when unrelated draws are added to the
        parent.
        """
        child_seed = hash((self.seed, tag)) & 0x7FFFFFFFFFFFFFFF
        return SimRng(child_seed)

    # -- thin wrappers ----------------------------------------------------

    def random(self) -> float:
        return self._random.random()

    def uniform(self, lo: float, hi: float) -> float:
        return self._random.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._random.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def shuffle(self, items: List[T]) -> None:
        self._random.shuffle(items)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._random.sample(seq, k)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time for a Poisson process."""
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        return self._random.expovariate(rate)

    def random_block(self, n: int):
        """``n`` floats identical to ``n`` successive :meth:`random` calls.

        CPython's ``random.Random`` and numpy's legacy ``RandomState``
        share both the MT19937 generator and the 53-bit double recipe,
        so the block is produced vectorized by transplanting the
        Mersenne state into numpy, drawing, and transplanting it back —
        the stream advances exactly as ``n`` scalar calls would.  This
        is what lets trace generation vectorize without perturbing any
        seeded run.  Returns an ndarray (a plain list without numpy).
        numpy is imported here, on first use, so runs that never draw a
        block never load it.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        try:
            import numpy
        except ImportError:
            scalar = self._random.random
            return [scalar() for _ in range(n)]
        version, internal, gauss = self._random.getstate()
        state = numpy.random.RandomState()
        state.set_state(("MT19937", internal[:-1], internal[-1]))
        block = state.random_sample(n)
        _, keys, pos, _, _ = state.get_state()
        self._random.setstate(
            (version, tuple(map(int, keys)) + (pos,), gauss))
        return block

    def numpy_generator(self, tag: Optional[str] = None):
        """A numpy ``Generator`` seeded from this stream.

        The blessed way for numerics-heavy code (the MIMO DSP) to get
        vectorized randomness without touching the ``numpy.random``
        module state: the generator is constructed from this stream's
        seed (or, with ``tag``, from the :meth:`fork` sub-seed), so it
        is exactly as reproducible as the scalar stream and stable
        against unrelated draws elsewhere.  Equivalent to
        ``numpy.random.default_rng(seed)`` for the same seed.
        """
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is a baked-in dependency
            raise RuntimeError("numpy is not available") from None
        seed = self.seed if tag is None else self.fork(tag).seed
        return numpy.random.default_rng(seed)

    # -- domain helpers ---------------------------------------------------

    def zipf_index(self, n: int, alpha: float = 0.99) -> int:
        """Draw an index in [0, n) with Zipfian popularity skew.

        Uses the standard rejection-free inverse-CDF approximation of
        Gray et al., adequate for workload generation.
        """
        if n <= 0:
            raise ValueError(f"n must be > 0, got {n}")
        if n == 1:
            return 0
        # Approximate inverse CDF: x = n * u^(1/(1-alpha)) clipped.
        if alpha == 1.0:
            alpha = 0.9999
        u = self._random.random()
        # Normalized power-law inverse; clamp to valid range.
        x = int(n * (u ** (1.0 / (1.0 - alpha)))) if alpha < 1.0 else 0
        if x >= n:
            x = n - 1
        return x

    def bernoulli(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        return self._random.random() < p

    def pareto_bounded(self, lo: float, hi: float, shape: float = 1.5) -> float:
        """Bounded Pareto draw, for heavy-tailed message sizes."""
        if not 0 < lo < hi:
            raise ValueError(f"need 0 < lo < hi, got {lo}, {hi}")
        u = self._random.random()
        la, ha = lo ** shape, hi ** shape
        return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / shape)
