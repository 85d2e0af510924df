"""Monte Carlo oracle: phi(x) on [-1, 0] as a probability.

For independent u_1, u_2, ... uniform on [0, 1], phi(x) is the probability
that sum_k u_k 2^-k <= x + 1.  The estimator truncates the series at a fixed
depth (bias at most 2^-depth, far below statistical noise at any feasible
sample count) and draws from a counter-based generator so results are
reproducible regardless of how work is scheduled: sample block i is generated
from Philox keyed by (seed, i), so the estimate depends only on
(x, samples, depth, seed), never on worker count.

The blocks of one run are split into stripes over one worker per available
CPU, never more workers than blocks: the calling thread works the first
stripe and a plain thread each of the others.  A stripe that fails or is
interrupted records its error and stops, and every other stripe stops
before its next block; the first error recorded is raised once every
stripe has stopped.  numpy releases the GIL inside the draws and the array
arithmetic, and the integer hit counts add up to the same total in any
order.

A block runs chunk by chunk: each chunk of ``_CHUNK`` samples goes
through all of its terms before the next chunk starts, so a worker holds
one chunk of running sums and one chunk of draws, whatever the block
size.  One Philox keyed by (seed, block) serves the whole block: the
double of term j of sample s is word (j - 1) * count + s of its stream,
and ``_seek`` moves the Philox to any word before a draw.

A chunk runs in two phases and counts exactly the hits of summing all
``depth`` terms for every sample.  Phase 1 draws whole terms, one at a
time, into a reused buffer.  After each term k it looks for the samples
whose outcome is still open.  Every later term is >= 0, and a rounded
add of a value >= 0 never lowers the running total, so a total above
x + 1 is already a miss.  The later terms add less than 2^-k, and their
rounding errors less than 2^-46, so a total at most x + 1 - ``_margin(k)``
is already a hit.  The last term is decided by the same step, with x + 1
itself as the bound: no sample is open after it, so the step counts the
totals at most x + 1.  Once only a handful of the chunk's samples are open,
phase 2 finishes each alone: it seeks the same Philox to the stream
position of term j of sample s, draws that double through the same
Generator and adds it as the chunk would, until the sample is decided.
Each scaled term u * 2^-j is exact, so the scalar sums equal the array
sums bit for bit.

numpy is imported on the first block drawn, not with this module, so the
exact commands that import the package never load it.
"""

from __future__ import annotations

import math
import os
import threading
from typing import NamedTuple

__all__ = ["BLOCK_SIZE", "McEstimate", "mc_phi"]

# Samples per generator block; fixed so that parallel schedules cannot
# change which block a sample belongs to.
BLOCK_SIZE = 1 << 16

# Samples a block works on at a time.  Every draw starts at its own
# stream position, so the chunking never changes which double a sample
# gets.
_CHUNK = 1 << 14

# Deepest series truncation accepted: a double-precision sum gains nothing
# beyond about 53 terms.
MAX_DEPTH = 64

# First term after which a chunk looks for open samples (also the least
# depth mc_phi accepts, so the last term is always checked), and the switch to
# phase 2: once at most n >> _SCALAR_SHIFT of a chunk's n samples are open,
# each is finished alone.  One scalar draw costs about 3 us and one whole
# term of a full chunk about 0.15 ms; another term halves the open samples,
# which then need about 1.4 draws each.  Phase 2 holds the GIL that the
# array terms release, so the switch sits well below the one-thread
# break-even: on two CPUs, n >> 10 and n >> 9 timed no faster and n >> 8
# slower.
_FIRST_CHECK = 8
_SCALAR_SHIFT = 11

# Largest run accepted: 10^8 samples take about 12 s on two CPUs at depth
# 40 or 64, and the standard error is already below 10^-4.
MAX_SAMPLES = 10**8


class McEstimate(NamedTuple):
    """Result of one Monte Carlo run.

    estimate is the hit fraction in [0, 1], stderr the binomial normal
    approximation sqrt(p(1-p)/samples), bias_bound the series-truncation
    bound 2^-depth.  Identical (x, samples, depth, seed) give bit-identical
    results.
    """

    x: float
    samples: int
    depth: int
    estimate: float
    stderr: float
    seed: int

    @property
    def bias_bound(self) -> float:
        return 2.0 ** -self.depth


def _seek(bits, state, position: int) -> None:
    """Move the Philox ``bits`` so that the next word it yields is ``position``.

    ``state`` is the state dict ``bits`` had before its first draw: its
    key, counter 0 and an empty buffer.  Philox yields four 64-bit words
    per counter step, and its first step uses counter 1, so word p comes
    from counter p // 4 + 1: load ``state`` with its counter set to p // 4,
    then skip p % 4 words.  Reading ``bits.state`` anew would cost about as
    much as the rest of the seek.
    """
    state["state"]["counter"][0] = position // 4
    bits.state = state
    if position % 4:
        bits.random_raw(position % 4)


def _block_hits(x: float, seed: int, block_index: int, count: int, depth: int) -> int:
    """Hits within one self-contained generator block."""
    import numpy as np

    bits = np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64))
    rng = np.random.Generator(bits)
    state = bits.state
    thr = x + 1.0
    totals = np.empty(min(count, _CHUNK))
    buffer = np.empty_like(totals)
    hits = 0
    for start in range(0, count, _CHUNK):
        total = totals[: min(_CHUNK, count - start)]
        part = buffer[: len(total)]
        total[:] = 0.0
        for k in range(1, depth + 1):
            _seek(bits, state, (k - 1) * count + start)
            rng.random(out=part)
            part *= 2.0**-k
            total += part
            if k >= _FIRST_CHECK:
                # above thr: a miss, since later terms never lower a total;
                # at most low: a hit, since they add less than _margin(k);
                # after the last term none is open, and a total equal to
                # thr is a hit (closed inequality; a measure-zero event)
                low = thr - _margin(k) if k < depth else thr
                open_ = (total > low) & (total <= thr)
                if np.count_nonzero(open_) <= len(total) >> _SCALAR_SHIFT:
                    hits += int(np.count_nonzero(total <= low))
                    for s in np.flatnonzero(open_).tolist():
                        hits += _finish(
                            float(total[s]), thr, rng, state, start + s, count, k, depth
                        )
                    break
    return hits


def _margin(k: int) -> float:
    """More than the terms after term k can still add to a running total.

    They add less than 2^-k in exact arithmetic.  Each rounded add errs by
    at most 2^-53, because every total is below 2, so at most 64 adds err
    by less than 2^-46.
    """
    return 2.0 ** (1 - k) + 2.0**-46


def _finish(
    total: float, thr: float, rng, state, s: int, count: int, k: int, depth: int
) -> int:
    """1 if sample s, whose running total after term k is ``total``, hits."""
    for j in range(k + 1, depth + 1):
        _seek(rng.bit_generator, state, (j - 1) * count + s)
        # u * 2^-j is exact, so this add rounds as the array add does
        total += rng.random() * 2.0**-j
        if total > thr or total <= thr - _margin(j):
            break
    return int(total <= thr)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_phi(x: float, samples: int, depth: int = 40, seed: int = 0) -> McEstimate:
    """Estimate phi(x) for x in [-1, 0].

    The probabilistic interpretation is proven on [-1, 0] only; callers can
    reach (0, 1) through the evenness phi(x) = phi(-x).
    """
    if not -1.0 <= x <= 0.0:
        raise ValueError("mc_phi requires x in [-1, 0]")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in 1..{MAX_SAMPLES}")
    if not _FIRST_CHECK <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in {_FIRST_CHECK}..{MAX_DEPTH}")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    blocks = -(-samples // BLOCK_SIZE)
    workers = min(_cpus(), blocks)
    # one slot per stripe, written only by the worker that owns it
    hits = [0] * workers
    errors = []

    def work(stripe: int) -> None:
        try:
            for block in range(stripe, blocks, workers):
                if errors:  # another stripe failed or was interrupted
                    return
                count = min(BLOCK_SIZE, samples - block * BLOCK_SIZE)
                hits[stripe] += _block_hits(x, seed, block, count, depth)
        except BaseException as exc:  # raised once every stripe has stopped
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    try:
        for thread in threads:
            thread.join()
    except BaseException as exc:  # an interrupt while joining stops the helpers
        errors.append(exc)
        raise
    if errors:
        raise errors[0]
    p = sum(hits) / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return McEstimate(
        x=x, samples=samples, depth=depth, estimate=p, stderr=stderr, seed=seed
    )
