"""Monte Carlo oracle: determinism, block independence, parallel blocks, agreement."""

import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fabius import stochastic
from fabius.core import Dyadic
from fabius.exact import phi_exact
from fabius.stochastic import (
    BLOCK_SIZE,
    MAX_DEPTH,
    MAX_SAMPLES,
    McEstimate,
    _block_hits,
    mc_phi,
)
from test_exact import phi_enclosure

SEED = 1234


class TestDeterminism:
    def test_identical_runs(self):
        a = mc_phi(-0.5, 50_000, 40, SEED)
        b = mc_phi(-0.5, 50_000, 40, SEED)
        assert a == b

    def test_block_counts_are_position_independent(self):
        # block i depends only on (seed, i); a run over several blocks is the
        # sum of standalone block counts, which is what makes worker-parallel
        # execution bit-identical to sequential
        samples = 3 * BLOCK_SIZE + 777
        est = mc_phi(-0.5, samples, 40, SEED)
        hits = 0
        offset = 0
        block = 0
        while offset < samples:
            count = min(BLOCK_SIZE, samples - offset)
            hits += _block_hits(-0.5, SEED, block, count, 40)
            offset += count
            block += 1
        assert est.estimate == hits / samples

    def test_distinct_seeds_within_sanity_band(self):
        runs = [mc_phi(-0.5, 100_000, 40, seed) for seed in (1, 2, 3)]
        for a in runs:
            for b in runs:
                assert abs(a.estimate - b.estimate) <= 8 * max(a.stderr, b.stderr)


def _one_line_totals(seed, block_index, count, depth):
    """Every sample's sum of all depth terms, one full-length draw per term."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64))
    )
    total = np.zeros(count)
    weight = 0.5
    for _ in range(depth):
        total += rng.random(count) * weight
        weight *= 0.5
    return total


def _one_line_hits(x, seed, block_index, count, depth):
    """The unchunked, single-phase block kernel."""
    total = _one_line_totals(seed, block_index, count, depth)
    return int(np.count_nonzero(total <= x + 1.0))


def _patch_cpus(monkeypatch, cpus):
    monkeypatch.setattr(
        stochastic.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )


class TestParallelBlocks:
    def test_estimate_independent_of_worker_count(self, monkeypatch):
        # 3 workers exceed the 2 CPUs of a small machine; a short switch
        # interval makes a lost update of the hit counts likely to show
        samples = 3 * BLOCK_SIZE + 777
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for cpus in (1, 2, 3):
                _patch_cpus(monkeypatch, cpus)
                runs.append(mc_phi(-0.5, samples, 40, SEED))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("depth", [8, 40, 64])
    @pytest.mark.parametrize(
        "count",
        [1, stochastic._CHUNK - 1, stochastic._CHUNK, stochastic._CHUNK + 1, BLOCK_SIZE],
    )
    def test_chunked_kernel_matches_one_line_kernel(self, count, depth):
        for x in (-0.75, -0.5, -0.3):
            assert _block_hits(x, SEED, 5, count, depth) == _one_line_hits(
                x, SEED, 5, count, depth
            )

    @pytest.mark.parametrize("blocks,cpus,helpers", [(1, 2, 0), (4, 2, 1)])
    def test_helper_threads_started(self, monkeypatch, blocks, cpus, helpers):
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        _patch_cpus(monkeypatch, cpus)
        monkeypatch.setattr(stochastic.threading, "Thread", CountingThread)
        mc_phi(-0.5, blocks * BLOCK_SIZE, 8, SEED)
        assert len(started) == helpers
        assert not any(thread.is_alive() for thread in started)

    def test_helper_error_is_raised(self, monkeypatch):
        class Boom(RuntimeError):
            pass

        def block_hits(x, seed, block_index, count, depth):
            # with 2 workers, odd blocks belong to the helper thread; it fails
            # well after the calling thread has finished its own stripe
            if block_index == 1:
                time.sleep(0.1)
                raise Boom
            return 0

        before = threading.active_count()
        _patch_cpus(monkeypatch, 2)
        monkeypatch.setattr(stochastic, "_block_hits", block_hits)
        with pytest.raises(Boom):
            mc_phi(-0.5, 4 * BLOCK_SIZE, 8, SEED)
        assert threading.active_count() == before

    def test_calling_thread_error_is_raised(self, monkeypatch):
        class Boom(RuntimeError):
            pass

        done = []
        helper_busy = threading.Event()

        def block_hits(x, seed, block_index, count, depth):
            # with 2 workers, even blocks belong to the calling thread; block 0
            # fails while the helper is working block 1 of its stripe 1, 3
            if block_index == 0:
                assert helper_busy.wait(10)
                raise Boom
            helper_busy.set()
            time.sleep(0.1)
            done.append(block_index)
            return 0

        before = threading.active_count()
        _patch_cpus(monkeypatch, 2)
        monkeypatch.setattr(stochastic, "_block_hits", block_hits)
        with pytest.raises(Boom):
            mc_phi(-0.5, 4 * BLOCK_SIZE, 8, SEED)
        assert done == [1]  # the helper stopped after its current block
        assert threading.active_count() == before

    def test_helper_error_stops_calling_thread(self, monkeypatch):
        class Boom(RuntimeError):
            pass

        done = []
        caller_busy = threading.Event()

        def block_hits(x, seed, block_index, count, depth):
            # with 2 workers, odd blocks belong to the helper; block 1 fails
            # while the calling thread is working block 0 of its stripe
            # 0, 2, 4, 6
            if block_index == 1:
                assert caller_busy.wait(10)
                raise Boom
            caller_busy.set()
            time.sleep(0.1)
            done.append(block_index)
            return 0

        before = threading.active_count()
        _patch_cpus(monkeypatch, 2)
        monkeypatch.setattr(stochastic, "_block_hits", block_hits)
        with pytest.raises(Boom):
            mc_phi(-0.5, 8 * BLOCK_SIZE, 8, SEED)
        assert done == [0]  # the calling thread stopped after its current block
        assert threading.active_count() == before

    @pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
    def test_cpus_without_affinity(self, monkeypatch, count, cpus):
        monkeypatch.delattr(stochastic.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(stochastic.os, "cpu_count", lambda: count)
        assert stochastic._cpus() == cpus


class TestTwoPhaseKernel:
    # Phase 1 stops drawing a sample once its total is above thr = x + 1
    # (later terms are >= 0 and a rounded add never lowers a total) or at
    # most thr - 2^-(k-1) - 2^-46 after term k (later terms add less than
    # 2^-k, their at most 64 rounded adds err by at most 2^-53 each);
    # phase 2 finishes the few open samples from their Philox counters.
    # The hit count must equal summing every term for every sample.
    @pytest.mark.parametrize("depth", [8, 9, 20, 40, 53, 64])
    @pytest.mark.parametrize(
        "count",
        [
            1,
            2,
            stochastic._CHUNK - 1,
            stochastic._CHUNK,
            stochastic._CHUNK + 1,
            BLOCK_SIZE,
        ],
    )
    def test_matches_one_line_kernel(self, count, depth):
        total = _one_line_totals(SEED, 3, count, depth)
        for x in (-1.0, -0.999999, -0.75, -0.5, -0.3, -1e-9, 0.0):
            expected = int(np.count_nonzero(total <= x + 1.0))
            assert _block_hits(x, SEED, 3, count, depth) == expected

    @pytest.mark.parametrize("depth", [9, 20, 53, 64])
    def test_sample_exactly_on_threshold_is_a_hit(self, depth):
        total = _one_line_totals(SEED, 4, BLOCK_SIZE, depth)
        t = float(total[np.flatnonzero(total >= 0.5)[0]])
        # both differences are exact for totals in [0.5, 1]
        x = t - 1.0
        below = float(np.nextafter(t, 0.0)) - 1.0
        assert x + 1.0 == t
        assert _one_line_hits(x, SEED, 4, BLOCK_SIZE, depth) > _one_line_hits(
            below, SEED, 4, BLOCK_SIZE, depth
        )
        assert _block_hits(x, SEED, 4, BLOCK_SIZE, depth) == _one_line_hits(
            x, SEED, 4, BLOCK_SIZE, depth
        )
        assert _block_hits(below, SEED, 4, BLOCK_SIZE, depth) == _one_line_hits(
            below, SEED, 4, BLOCK_SIZE, depth
        )

    @pytest.mark.parametrize("x", [-0.75, -0.5, -0.3])
    def test_phase_two_is_live(self, monkeypatch, x):
        # scalar draws must run, and only for a small share of the block;
        # phase 2 seeks once before each of its draws
        scalar_draws = []
        seek = stochastic._seek

        def counting_seek(bits, state, position):
            if sys._getframe(1).f_code is stochastic._finish.__code__:
                scalar_draws.append(position)
            seek(bits, state, position)

        monkeypatch.setattr(stochastic, "_seek", counting_seek)
        hits = _block_hits(x, SEED, 6, BLOCK_SIZE, 53)
        monkeypatch.undo()
        assert 0 < len(scalar_draws) < BLOCK_SIZE // 256
        assert hits == _one_line_hits(x, SEED, 6, BLOCK_SIZE, 53)

    @pytest.mark.parametrize("seed,block", [(SEED, 0), (2**64 - 1, 15)])
    def test_stream_double_reads_the_generator_stream(self, seed, block):
        # if numpy changed Philox's counter or how Generator.random spends
        # its words, phase 2 would read other doubles than phase 1 draws;
        # one Generator reads positions out of order and backwards, so each
        # seek must be absolute
        key = np.array([seed, block], dtype=np.uint64)
        chunk = stochastic._CHUNK
        positions = [
            *(5, 3, 0, 8, 1, 7, 2, 4, 4),
            *(BLOCK_SIZE, chunk - 1, 3 * BLOCK_SIZE + 5, chunk, BLOCK_SIZE - 1, 6),
        ]
        stream = np.random.Generator(np.random.Philox(key=key)).random(
            max(positions) + 1
        )
        rng = np.random.Generator(np.random.Philox(key=key))
        state = rng.bit_generator.state
        for p in positions:
            stochastic._seek(rng.bit_generator, state, p)
            assert rng.random() == stream[p]

    def test_block_holds_one_chunk(self):
        # a worker keeps one chunk of running sums and one of draws, never
        # an array the size of the block
        tracemalloc.start()
        try:
            _block_hits(-0.5, SEED, 6, BLOCK_SIZE, 53)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * stochastic._CHUNK * 8


class TestBoundaries:
    def test_left_support_edge_is_exact_zero(self):
        est = mc_phi(-1.0, 10_000, 40, SEED)
        assert est.estimate == 0.0
        assert est.stderr == 0.0

    def test_midpoint(self):
        est = mc_phi(-0.5, 200_000, 40, SEED)
        assert abs(est.estimate - 0.5) <= 4 * est.stderr

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            mc_phi(0.25, 100, 40, SEED)
        with pytest.raises(ValueError):
            mc_phi(-0.5, 0, 40, SEED)
        with pytest.raises(ValueError):
            mc_phi(-0.5, 100, 4, SEED)
        with pytest.raises(ValueError):
            mc_phi(-0.5, 10, depth=MAX_DEPTH + 1)
        with pytest.raises(ValueError):
            mc_phi(-0.5, 100, 40, -1)
        with pytest.raises(ValueError):
            mc_phi(-0.5, MAX_SAMPLES + 1, 40, SEED)


class TestAgreement:
    @pytest.mark.parametrize(
        "x,target",
        [
            (-0.75, Fraction(5, 72)),
            (-0.5, Fraction(1, 2)),
            (-0.25, Fraction(67, 72)),
        ],
    )
    def test_matches_exact_values(self, x, target):
        assert phi_exact(Dyadic.from_fraction(Fraction(x))) == target
        est = mc_phi(x, 200_000, 40, SEED)
        assert abs(est.estimate - float(target)) <= 4 * est.stderr

    @pytest.mark.parametrize("x", [-1 / 3, -0.3, -0.123456789])
    def test_matches_enclosure_off_grid(self, x):
        value, bound = phi_enclosure(Fraction(x), 10)
        est = mc_phi(x, 1_000_000, 40, SEED)
        error = abs(est.estimate - float(value)) + float(bound)
        assert error <= 4 * est.stderr + est.bias_bound

    def test_monotone_under_common_random_numbers(self):
        estimates = [
            mc_phi(x, 100_000, 40, SEED).estimate for x in (-0.75, -0.5, -0.25)
        ]
        assert estimates[0] <= estimates[1] <= estimates[2]


class TestEstimateRecord:
    def test_fields_and_bias_bound(self):
        est = mc_phi(-0.5, 1000, depth=40, seed=9)
        assert isinstance(est, McEstimate)
        assert 0.0 <= est.estimate <= 1.0
        assert est.bias_bound == 2.0**-40
        assert est.samples == 1000 and est.depth == 40 and est.seed == 9

    def test_deepest_accepted_depth(self):
        est = mc_phi(-0.5, 1000, depth=MAX_DEPTH, seed=9)
        assert est.depth == 64 and est.bias_bound == 2.0**-64
