"""Seeded operation lists for the four benchmark workloads.

Each workload is a closed loop: one client sends one op, waits for it to
finish, then sends the next.  A run is a whole number of *rounds*; every
round holds the same multiset of op shapes (command and size), and the seed
chooses only the free inputs (points, lengths, sample seeds) and the order.
Fixing the shapes keeps the cost mix, and so the medians and the tail, the
same across seeds, while the program still only ever sees generated inputs.

The round count follows ``--seconds``: ``round(seconds / round_s)`` rounds,
where ``round_s`` is the cost of one round measured at the commit
that introduced the benchmark (2-CPU Xeon VM, Python 3.11.7, numpy 2.4.6).
The op count of a run therefore depends only on ``--seconds``, never on how
fast the machine or the program is, so a faster program finishes the same
work sooner instead of doing more of it.

"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("grid", "session", "cli", "oracle")

# Every run has at least this many ops, so the tail percentile (the one with
# ten samples above it) always exists.
MIN_OPS = 20


@dataclass(frozen=True)
class Op:
    """One client request.

    ``kind`` labels the op shape in reports.  CLI ops carry ``argv`` for
    ``python -m fabius.cli`` and the exit code a correct program gives.
    Session ops carry ``params`` for one library call; ``repeat_of`` is the
    index of the earlier op a repeat replays.
    """

    kind: str
    argv: tuple[str, ...] = ()
    expect_rc: int = 0
    params: dict = field(default_factory=dict)
    repeat_of: int | None = None


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    rounds: int
    ops: tuple[Op, ...]
    op_timeout_s: float


def _dyadic_text(q: int, n: int) -> str:
    # exact decimal form of q/2^n (every such value is a float without rounding)
    return repr(q / (1 << n))


def _rounds(seconds: float, round_s: float, round_len: int) -> int:
    return max(round(seconds / round_s), math.ceil(MIN_OPS / round_len))


# --- grid: the O(4^n) level wall, one fresh process per op -----------------

def _grid(rng: random.Random, seconds: float, tiny: bool) -> tuple[list[Op], int]:
    small, mid, big = (4, 5, 6) if tiny else (9, 10, 11)
    round_s = 5.3
    commands = ("table", "eval", "eval-float")

    def op(cmd: str, n: int) -> Op:
        if cmd == "table":
            return Op(f"table-{n}", ("table", str(n)), params={"n": n})
        if cmd == "eval":
            q = rng.randrange(-(1 << n) + 1, 1 << n)
            return Op(f"eval-{n}", ("eval", str(q), str(n)), params={"q": q, "n": n})
        return Op(f"eval-float-grid-{n}", ("eval-float", "--grid", str(n)), params={"n": n})

    # Most ops sit at the lowest level and only a handful above it, so the
    # median and the tail (ten samples above) are both order statistics well
    # inside one cost class, never on the edge between two.
    round_len = 4 * len(commands) + 1
    rounds = _rounds(seconds, round_s, round_len)
    ops: list[Op] = []
    for r in range(rounds):
        block = [op(c, small) for c in commands for _ in range(4)]
        block.append(op(commands[r % len(commands)], mid))
        rng.shuffle(block)
        ops += block
    # the top level costs about half a round: once per run
    ops.insert(rng.randrange(len(ops) + 1), op("table", big))
    return ops, rounds


# --- session: deep single points and coefficient recurrences, in process ---

_SESSION_ROUND = (
    "phi_exact", "phi_exact", "phi_exact",
    "phi_derivative", "phi_derivative",
    "taylor_at", "moment", "build",
    "repeat", "repeat",
)


def _session(rng: random.Random, seconds: float, tiny: bool) -> tuple[list[Op], int]:
    levels = (5, 6, 7, 8) if tiny else (13, 14, 15, 16)
    lengths = (5, 15) if tiny else (30, 100)
    round_s = 0.42
    rounds = _rounds(seconds, round_s, len(_SESSION_ROUND))
    seen = {kind: 0 for kind in _SESSION_ROUND}
    ops: list[Op] = []
    for _ in range(rounds):
        kinds = list(_SESSION_ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            i = seen[kind]
            seen[kind] += 1
            n = levels[i % len(levels)]
            q = rng.randrange(-(1 << n) + 1, 1 << n, 2)  # odd: the point sits at level n
            if kind == "repeat" and not ops:
                kind = "phi_exact"
            if kind == "repeat":
                earlier = [j for j, o in enumerate(ops) if o.repeat_of is None]
                j = rng.choice(earlier)
                ops.append(Op(f"repeat-{ops[j].kind}", params=ops[j].params, repeat_of=j))
            elif kind == "phi_exact":
                ops.append(Op(f"phi_exact-{n}", params={"call": kind, "q": q, "n": n}))
            elif kind == "phi_derivative":
                k = 1 + i % 3
                ops.append(Op(f"phi_derivative-{n}", params={"call": kind, "k": k, "q": q, "n": n}))
            elif kind == "taylor_at":
                order = 1 + i % 3
                ops.append(Op(f"taylor_at-{n}", params={"call": kind, "order": order, "q": q, "n": n}))
            else:
                m = rng.randint(*lengths)
                ops.append(Op(kind, params={"call": kind, "m": m}))
    return ops, rounds


# --- cli: short commands from every subcommand, startup-bound ---------------

_MALFORMED = (
    ("eval", "1"),
    ("eval", "x", "3"),
    ("coeffs", "Z", "5"),
    ("mc", "0.5"),
    ("table", "13"),
    ("taylor", "1", "3", "-1"),
    ("deriv", "-1", "1", "3"),
    ("mc", "-0.5", "--streams", "0"),
    ("mc", "-0.5", "--depth", "4"),
    ("fourier-coeffs", "0"),
    ("approx", "-1"),
    ("eval-float", "--grid", "-1"),
    ("frobnicate",),
)


def _point(rng: random.Random, n_max: int, lo: int = -1, hi: int = 1) -> tuple[int, int]:
    """A dyadic q/2^n with 1 <= n <= n_max and lo <= q/2^n <= hi."""
    n = rng.randint(1, n_max)
    return rng.randint(lo << n, hi << n), n


def _mc_op(rng: random.Random, samples: int, depth: int) -> Op:
    q, n = _point(rng, 8, -1, 0)
    seed = rng.randrange(1 << 32)
    argv = ("mc", _dyadic_text(q, n), "--samples", str(samples),
            "--depth", str(depth), "--seed", str(seed))
    return Op(f"mc-{samples}", argv, params={"q": q, "n": n})


def _eval_float_op(rng: random.Random) -> Op:
    q, n = _point(rng, 8)
    return Op("eval-float", ("eval-float", _dyadic_text(q, n)), params={"q": q, "n": n})


def _fourier_op(rng: random.Random, k_range: tuple[int, int]) -> Op:
    k = rng.randint(*k_range)
    return Op("fourier-coeffs", ("fourier-coeffs", str(k)), params={"K": k})


def _cli(rng: random.Random, seconds: float, tiny: bool) -> tuple[list[Op], int]:
    round_s = 2.7
    kinds = ("eval", "deriv", "taylor", "coeffs", "table", "fourier-coeffs",
             "eval-float", "approx", "mc", "malformed")
    rounds = _rounds(seconds, round_s, len(kinds))
    ops: list[Op] = []
    for _ in range(rounds):
        block = []
        for kind in kinds:
            if kind == "eval":
                n = rng.randint(1, 8)
                q = rng.randrange(-(1 << n) + 1, 1 << n)
                block.append(Op(kind, ("eval", str(q), str(n)), params={"q": q, "n": n}))
            elif kind == "deriv":
                n = rng.randint(3, 8)
                q = rng.randrange(-(1 << n) + 1, 1 << n)
                k = rng.randint(1, 4)
                block.append(Op(kind, ("deriv", str(k), str(q), str(n)),
                                params={"k": k, "q": q, "n": n}))
            elif kind == "taylor":
                n = rng.randint(3, 8)
                q = rng.randrange(-(1 << n) + 1, 1 << n)
                order = rng.randint(1, 4)
                block.append(Op(kind, ("taylor", str(q), str(n), str(order)),
                                params={"q": q, "n": n, "order": order}))
            elif kind == "coeffs":
                which = rng.choice("cFdG")
                count = rng.randint(10 if tiny else 20, 40)
                block.append(Op(kind, ("coeffs", which, str(count)),
                                params={"which": which, "count": count}))
            elif kind == "table":
                n = rng.randint(4, 6)
                block.append(Op(kind, ("table", str(n)), params={"n": n}))
            elif kind == "fourier-coeffs":
                block.append(_fourier_op(rng, (8, 128)))
            elif kind == "eval-float":
                block.append(_eval_float_op(rng))
            elif kind == "approx":
                m = rng.randint(1, 8)
                block.append(Op(kind, ("approx", str(m)), params={"m": m}))
            elif kind == "mc":
                block.append(_mc_op(rng, rng.choice((10_000, 30_000, 100_000)), 40))
            else:
                block.append(Op(kind, rng.choice(_MALFORMED), expect_rc=1))
        rng.shuffle(block)
        ops += block
    return ops, rounds


# --- oracle: the Monte Carlo oracle and the step approximants --------------

def _oracle(rng: random.Random, seconds: float, tiny: bool) -> tuple[list[Op], int]:
    samples = 20_000 if tiny else 1_000_000
    approx_levels = (4, 5, 6) if tiny else (10, 11, 12)
    depths = range(40, 54)
    round_s = 2.5
    round_len = 5
    rounds = _rounds(seconds, round_s, round_len)
    ops: list[Op] = []
    n_mc = n_approx = 0
    for _ in range(rounds):
        block = []
        for _ in range(2):
            block.append(_mc_op(rng, samples, depths[n_mc % len(depths)]))
            n_mc += 1
        m = approx_levels[n_approx % len(approx_levels)]
        n_approx += 1
        block.append(Op(f"approx-{m}", ("approx", str(m)), params={"m": m}))
        block.append(_fourier_op(rng, (64, 256)))
        block.append(_eval_float_op(rng))
        rng.shuffle(block)
        ops += block
    return ops, rounds


_PLANNERS = {"grid": _grid, "session": _session, "cli": _cli, "oracle": _oracle}
_OP_TIMEOUT_S = {"grid": 60.0, "session": 30.0, "cli": 30.0, "oracle": 30.0}


def plan(workload: str, seed: int, seconds: float, tiny: bool = False) -> Plan:
    """The op list for one run; the same arguments always give the same list."""
    rng = random.Random(f"{workload}:{seed}:{'tiny' if tiny else 'full'}")
    ops, rounds = _PLANNERS[workload](rng, seconds, tiny)
    return Plan(workload, seed, rounds, tuple(ops), _OP_TIMEOUT_S[workload])
