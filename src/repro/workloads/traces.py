"""Synthetic memory-access trace generators.

All generators yield ``(address, is_write)`` tuples suitable for
:meth:`repro.infra.cpu.CpuCore.run` and the Table 2 / ablation
benchmarks.  Addresses are aligned to cachelines.

The heavy generators (``sequential``, ``zipfian``, ``pointer_chase``,
``read_write_mix``) vectorize their arithmetic and random draws with
numpy in cacheline-sized chunks, then stream the tuples out lazily.
The random draws go through :meth:`repro.sim.SimRng.random_block`,
which advances the underlying Mersenne stream exactly as the scalar
calls would — a seeded trace is bit-identical with or without numpy.
numpy is imported only once a generator has chosen its vectorized
path, so short traces never load it.
``uniform`` stays scalar: ``randint`` consumes a data-dependent number
of raw draws, which no block transplant can reproduce.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .. import params
from ..sim import SimRng

__all__ = ["sequential", "uniform", "zipfian", "pointer_chase",
           "phased_working_sets", "read_write_mix", "instrumented"]

LINE = params.CACHELINE_BYTES

#: Tuples generated per vectorized batch.
_CHUNK = 8192


def _align(addr: int) -> int:
    return (addr // LINE) * LINE


def _numpy():
    """numpy, imported on first use; None where it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a baked-in dependency
        return None
    return numpy


def sequential(base: int, count: int, stride: int = LINE,
               is_write: bool = False) -> Iterator[Tuple[int, bool]]:
    """A streaming scan: base, base+stride, ..."""
    if stride == 0:
        raise ValueError("stride must be non-zero")
    np = _numpy() if count >= 256 else None
    if np is not None:
        start = 0
        while start < count:
            n = min(_CHUNK, count - start)
            steps = np.arange(start, start + n, dtype=np.int64)
            addrs = ((base + steps * stride) // LINE) * LINE
            for addr in addrs.tolist():
                yield addr, is_write
            start += n
        return
    for i in range(count):
        yield _align(base + i * stride), is_write


def uniform(base: int, span: int, count: int, rng: SimRng,
            write_fraction: float = 0.0) -> Iterator[Tuple[int, bool]]:
    """Uniformly random lines in [base, base+span)."""
    if span < LINE:
        raise ValueError("span must cover at least one line")
    lines = span // LINE
    for _ in range(count):
        line = rng.randint(0, lines - 1)
        yield base + line * LINE, rng.bernoulli(write_fraction)


def zipfian(base: int, span: int, count: int, rng: SimRng,
            alpha: float = 0.99,
            write_fraction: float = 0.0) -> Iterator[Tuple[int, bool]]:
    """Zipf-skewed accesses: a few lines dominate (hot objects)."""
    if span < LINE:
        raise ValueError("span must cover at least one line")
    lines = span // LINE
    np = _numpy()
    if np is None:
        for _ in range(count):
            line = rng.zipf_index(lines, alpha)
            yield base + line * LINE, rng.bernoulli(write_fraction)
        return
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {write_fraction}")
    # Mirror SimRng.zipf_index exactly: same alpha clamp, the same
    # `n * u**(1/(1-alpha))` evaluation order, truncation, and top clip
    # — and, for a single line, no zipf draw at all.
    adjusted = 0.9999 if alpha == 1.0 else alpha
    start = 0
    while start < count:
        n = min(_CHUNK, count - start)
        if lines == 1:
            writes = rng.random_block(n) < write_fraction
            for is_write in writes.tolist():
                yield base, is_write
        else:
            block = rng.random_block(2 * n)
            zipf_draws = block[0::2]
            if adjusted < 1.0:
                xs = (lines * zipf_draws **
                      (1.0 / (1.0 - adjusted))).astype(np.int64)
                np.minimum(xs, lines - 1, out=xs)
            else:
                xs = np.zeros(n, dtype=np.int64)
            addrs = (base + xs * LINE).tolist()
            writes = (block[1::2] < write_fraction).tolist()
            for pair in zip(addrs, writes):
                yield pair
        start += n


def pointer_chase(base: int, span: int, count: int, rng: SimRng
                  ) -> Iterator[Tuple[int, bool]]:
    """A dependent-chain walk over a random permutation of lines.

    The worst case for prefetchers: the next address is unknown until
    the current line returns (modelled by the random successor chain).
    """
    lines = span // LINE
    if lines < 2:
        raise ValueError("span must cover at least two lines")
    order = list(range(lines))
    rng.shuffle(order)
    # One cycle of concrete addresses, replayed modulo its length.
    cycle = [base + line * LINE for line in order]
    for i in range(count):
        yield cycle[i % lines], False


def phased_working_sets(base: int, phase_span: int, phases: int,
                        accesses_per_phase: int, rng: SimRng,
                        write_fraction: float = 0.1
                        ) -> Iterator[Tuple[int, bool]]:
    """Phase-structured locality: each phase hammers a different range.

    This is the access pattern that rewards temperature-driven object
    migration: the hot set changes every phase.
    """
    for phase in range(phases):
        phase_base = base + phase * phase_span
        yield from uniform(phase_base, phase_span, accesses_per_phase,
                           rng, write_fraction)


def instrumented(trace: Iterator[Tuple[int, bool]], env,
                 name: str = "trace") -> Iterator[Tuple[int, bool]]:
    """Pass a trace through telemetry read/write counters.

    Returns the trace unchanged when the environment has no telemetry,
    so generators stay zero-overhead in uninstrumented runs.
    """
    tel = env.telemetry
    if tel is None:
        return trace
    reads = tel.registry.counter(f"workload.{name}.reads")
    writes = tel.registry.counter(f"workload.{name}.writes")

    def _stream() -> Iterator[Tuple[int, bool]]:
        for addr, is_write in trace:
            (writes if is_write else reads).inc(time=env.now)
            yield addr, is_write
    return _stream()


def read_write_mix(addrs: List[int], rng: SimRng,
                   write_fraction: float = 0.5
                   ) -> Iterator[Tuple[int, bool]]:
    """Stamp a write fraction onto a fixed address list."""
    if len(addrs) < 64 or _numpy() is None:
        for addr in addrs:
            yield _align(addr), rng.bernoulli(write_fraction)
        return
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {write_fraction}")
    writes = (rng.random_block(len(addrs)) < write_fraction).tolist()
    for addr, is_write in zip(addrs, writes):
        yield _align(addr), is_write
