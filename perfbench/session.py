"""The ``session`` workload: one long-lived library session in this process.

    python perfbench/session.py --seed N --seconds S --budget B [--tiny] [--spans PATH]

Imports ``fabius`` (from ``PYTHONPATH``), runs the seeded ops one at a time
through the package namespace, and prints one JSON line with the per-op
latencies, the failures and the process's peak RSS, read before the checks
run.  Caches persist across ops, as they do for a user holding a session.
With ``--spans`` the layer wrappers are installed before the first op and
the spans are written to PATH at the end.

Checks run after the timed loop on a seeded sample of ops, against
``phi_exact_raw`` or an exact identity: the functional equation
phi^(k)(t) = 2^k (phi^(k-1)(2t+1) - phi^(k-1)(2t-1)), moment(2m) = c_m/2, the
reflection identity for odd moments, and phi_near_one against
phi_near_one_from_series.  Every repeat must return what its original did.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from math import comb, factorial

from workloads import plan

SAMPLE_PER_KIND = 2


def _call(fabius, params):
    name = params["call"]
    if name == "moment":
        return fabius.moment(params["m"])
    if name == "build":
        return fabius.CoefficientTable.build(params["m"])
    t = fabius.Dyadic(params["q"], params["n"])
    if name == "phi_exact":
        return fabius.phi_exact(t)
    if name == "phi_derivative":
        return fabius.phi_derivative(params["k"], t)
    return fabius.taylor_at(t, params["order"])


def _digest(result) -> int:
    return hash((type(result).__name__, result))


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def _derivative_rhs(fabius, k: int, t) -> Fraction:
    # 2^k (phi^(k-1)(2t+1) - phi^(k-1)(2t-1)), phi^(0) = phi
    def d(x):
        return fabius.phi_derivative(k - 1, x) if k > 1 else fabius.phi_exact(x)

    two_t = t.mul_pow2(1)
    return (1 << k) * (d(two_t + 1) - d(two_t - 1))


def _odd_moment_identity(fabius, m: int) -> bool:
    # phi(1-s) = 1 - phi(s) on [0, 1] gives, at even order m+1,
    # 2 moment(m+1) = 1/(m+2) - sum_{j<=m} C(m+1, j) (-1)^j moment(j).
    rhs = Fraction(1, m + 2) - sum(
        comb(m + 1, j) * (-1) ** j * fabius.moment(j) for j in range(m + 1)
    )
    c = fabius.series_coefficients((m + 1) // 2)[(m + 1) // 2]
    return c == rhs


def _check_moment(fabius, m: int, value) -> str | None:
    if m % 2 == 0:
        if value != fabius.series_coefficients(m // 2)[m // 2] / 2:
            return "moment(2m) != c_m/2"
    elif value != fabius.moment(m) or not _odd_moment_identity(fabius, m):
        return "odd moment breaks the reflection identity"
    return None


def check(fabius, op, result, raw_check: bool) -> str | None:
    p = op.params
    kind = p["call"]
    if kind in ("moment", "build"):
        m = p["m"]
        if kind == "moment":
            return _check_moment(fabius, m, result)
        for seq in (result.c, result.F, result.d, result.G, result.moments, result.phi_near_one):
            if len(seq) != m + 1:
                return "table length"
        for j in range(0, m + 1, 2):
            if result.moments[j] != result.c[j // 2] / 2:
                return f"moments[{j}] != c_{j // 2}/2"
        for j in range(1, m + 1, 2):
            if result.phi_near_one[j] != fabius.phi_near_one_from_series(j // 2):
                return f"phi_near_one[{j}] != phi_near_one_from_series({j // 2})"
        if m % 2 == 1 and not _odd_moment_identity(fabius, m):
            return "odd moment breaks the reflection identity"
        return None
    t = fabius.Dyadic(p["q"], p["n"])
    if kind == "phi_exact":
        # phi'((t-1)/2) = 2 (phi(t) - phi(t-2)) = 2 phi(t) for |t| < 1
        if fabius.phi_derivative(1, (t - 1).mul_pow2(-1)) != 2 * result:
            return "functional equation"
        if raw_check and result != fabius.phi_exact_raw(p["q"], p["n"]):
            return "phi_exact != phi_exact_raw"
        return None
    if kind == "phi_derivative":
        if result != _derivative_rhs(fabius, p["k"], t):
            return "derivative functional equation"
        return None
    coeffs = result.coeffs
    if len(coeffs) != p["order"] + 1 or coeffs[0] != fabius.phi_exact(t):
        return "Taylor constant term"
    for k in range(1, len(coeffs)):
        if coeffs[k] * factorial(k) != _derivative_rhs(fabius, k, t):
            return f"Taylor coefficient {k} breaks the functional equation"
    return None


def _sample(ops, rng) -> dict[int, bool]:
    """Op index -> whether it also gets the phi_exact_raw check."""
    by_kind: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        if op.repeat_of is None:
            by_kind.setdefault(op.params["call"], []).append(i)
    chosen = {}
    for idxs in by_kind.values():
        for i in rng.sample(idxs, min(SAMPLE_PER_KIND, len(idxs))):
            chosen[i] = False
    exact = by_kind.get("phi_exact")
    if exact:
        # one raw check, on the op whose literal double sum is shortest
        # (it has q + 2^n terms)
        chosen[min(exact, key=lambda i: ops[i].params["q"] + (1 << ops[i].params["n"]))] = True
    return chosen


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="send no op after this many seconds of the loop")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import fabius

    run = plan("session", args.seed, args.seconds, args.tiny)
    ops = run.ops
    sample = _sample(ops, random.Random(f"session-check:{args.seed}"))
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _alarm)
    times, errors, digests, kept = [], {}, {}, {}
    loop_start = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - loop_start > args.budget:
            break
        if tracer:
            tracer.op = i
        signal.setitimer(signal.ITIMER_REAL, run.op_timeout_s)
        start = time.perf_counter()
        try:
            result = _call(fabius, op.params)
        except _Timeout:
            result, errors[i] = None, f"timed out after {run.op_timeout_s:g}s"
        except Exception:
            result, errors[i] = None, traceback.format_exc(limit=3)
        finally:
            times.append(time.perf_counter() - start)
            signal.setitimer(signal.ITIMER_REAL, 0)
        if i not in errors:
            digests[i] = _digest(result)
            if i in sample:
                kept[i] = result
    loop_s = time.perf_counter() - loop_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = tracer.record() if tracer else None
    check_start = time.perf_counter()
    for i, op in enumerate(ops[:len(times)]):
        if i in errors:
            continue
        if op.repeat_of is not None:
            if op.repeat_of not in errors and digests[i] != digests[op.repeat_of]:
                errors[i] = "repeat returned a different value"
        elif i in kept:
            try:
                problem = check(fabius, op, kept[i], sample[i])
            except Exception:
                problem = traceback.format_exc(limit=3)
            if problem:
                errors[i] = problem
    if tracer:
        with open(args.spans, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
    print(json.dumps({
        "kinds": [op.kind for op in ops],
        "times": times,
        "errors": {str(i): e for i, e in errors.items()},
        "loop_s": loop_s,
        "peak_rss_kb": peak_rss_kb,
        "check_s": time.perf_counter() - check_start,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
