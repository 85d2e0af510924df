"""Command-line front door.

Line-oriented plain text by default; ``--json`` switches every command to a
single JSON object ``{"mode": ..., "payload": ...}`` in which exact numbers
are always strings.  Floats print with 17 significant digits so they
round-trip.  Exit codes: 0 success, 1 usage error, 2 internal integrity
violation (or selftest failure).

Environment defaults (flags win): FABIUS_M_MAX for the product truncation,
FABIUS_FOURIER_K for the synthesis length, FABIUS_TABLE_MAX for the largest
level ``table`` accepts and the largest level ``eval`` will scan to find the
minimal common denominator.  ``eval``, ``deriv`` and ``taylor`` accept
levels up to the fixed ``MAX_LEVEL``, ``taylor`` orders up to
``exact.MAX_TAYLOR_ORDER``, ``approx`` up to ``MAX_APPROX_LEVEL``, ``coeffs``
counts up to ``MAX_COEFFS``, and ``eval-float --grid`` as well
as the ``--max-level`` of ``eval`` and ``table`` (and so
FABIUS_TABLE_MAX) up to ``MAX_GRID_LEVEL``.  The synthesis length is capped
at ``MAX_FOURIER_K`` and the product truncation at ``MAX_M_MAX``.

Each command imports only the layers it runs: the exact commands never load
``spectral``, ``stochastic``, ``approximants`` or ``json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from math import isfinite, lcm

from .coefficients import (
    exp_moment_coefficients,
    exp_moment_integer_numerators,
    series_coefficients,
    series_integer_numerators,
)
from .core import Dyadic, canonical_dyadic, format_rational
from .exact import level_denominator_bound, level_values, phi_derivative
from .exact import phi_exact, taylor_at

__all__ = ["main", "render_table"]

USAGE_ERROR = 1
INTEGRITY_ERROR = 2

# Deepest canonical level eval, deriv and taylor accept; full-order Taylor
# data grows about like n^5.5, so 128 already takes seconds.  The level as
# given may be at most twice that: eval's denominator bound at a raw level
# n needs c up to n/2, about 1 s at n = 256 and 8 s at n = 428.
MAX_LEVEL = 128
# approx M has degree 2^(M+1) - M - 2, and each further M costs about 4x;
# M = 16 takes about 1.5 s.
MAX_APPROX_LEVEL = 16
# eval-float --grid L prints 2^(L+1) + 1 rows; L = 14 takes about 1 s.  It
# also caps the level scan of eval and table, whose cost doubles per level.
MAX_GRID_LEVEL = 14
# coeffs G 300 takes about 6 s and coeffs c 300 about 50 s.
MAX_COEFFS = 300
# Synthesis length K: time grows linearly in K, so fourier-coeffs 10^5 took
# 2.3 s; fourier-coeffs 1024 takes 0.12 s, and eval-float --grid 14 at
# K = 1024 about 5 s.
MAX_FOURIER_K = 1024
# Product truncation m_max: 2^m_max must convert to a float, so 1023 is the
# largest; fourier-coeffs 1024 --m-max 1023 takes about 0.4 s.
MAX_M_MAX = 1023


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _float_str(x: float) -> str:
    return format(x, ".17g")


def _env_int(name: str, default: int | None = None) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"invalid {name}={raw!r}") from None


def _max_level(args) -> int:
    """The scan cap of eval and table, rejected above ``MAX_GRID_LEVEL``."""
    if args.max_level > MAX_GRID_LEVEL:
        raise ValueError(
            f"--max-level (or FABIUS_TABLE_MAX) must be at most {MAX_GRID_LEVEL}"
        )
    return args.max_level


def _point(args) -> Dyadic:
    """The canonical q/2^n of ``args``, rejected above the level caps before any work."""
    if args.n > 2 * MAX_LEVEL:
        raise ValueError(f"level as given must be at most {2 * MAX_LEVEL}")
    t = Dyadic(args.q, args.n)
    if t.exp > MAX_LEVEL:
        raise ValueError(f"level must be in 0..{MAX_LEVEL}")
    return t


def _fourier_args(args) -> tuple[int, int]:
    """(K, m_max) of ``args``: unset ones take spectral's defaults, and values
    above ``MAX_FOURIER_K`` or ``MAX_M_MAX`` are rejected before any work."""
    from .spectral import DEFAULT_FOURIER_K, DEFAULT_M_MAX

    k = DEFAULT_FOURIER_K if args.fourier_k is None else args.fourier_k
    m_max = DEFAULT_M_MAX if args.m_max is None else args.m_max
    if k > MAX_FOURIER_K:
        raise ValueError(f"Fourier K (or FABIUS_FOURIER_K) must be at most {MAX_FOURIER_K}")
    if m_max > MAX_M_MAX:
        raise ValueError(f"--m-max (or FABIUS_M_MAX) must be at most {MAX_M_MAX}")
    return k, m_max


@contextmanager
def _no_int_str_limit():
    """Lift CPython's int-to-str digit limit: exact results may exceed it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _emit(args, mode: str, payload, lines) -> None:
    """Print ``lines``, or under ``--json`` the object around ``payload()``.

    Only the printed form is built: ``payload`` is called, and ``lines``
    iterated, only in its own mode.
    """
    if args.json:
        import json

        print(json.dumps({"mode": mode, "payload": payload()}))
    else:
        for line in lines:
            print(line)


def _level(n: int) -> tuple[list[Fraction], int]:
    """The level-n grid values and their minimal common denominator."""
    values = level_values(n)
    return values, lcm(*(v.denominator for v in values))


def level_denominator(n: int) -> int:
    """Minimal common denominator of the level-n grid values."""
    return _level(n)[1]


def render_table(n: int) -> list[str]:
    """Rows ``q<TAB>D*phi(q/2^n)<TAB>phi(q/2^n)`` with D the minimal level denominator."""
    return _table_rows(*_level(n))


def _table_rows(values: list[Fraction], d: int) -> list[str]:
    return [
        f"{q}\t{_as_int(v * d)}\t{format_rational(v)}" for q, v in enumerate(values)
    ]


def _as_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {value}")
    return value.numerator


def _cmd_eval(args) -> int:
    max_level = _max_level(args)
    t = _point(args)
    value = phi_exact(t)
    if args.n <= max_level:
        d = level_denominator(args.n)
    else:
        # beyond the scan cap: valid but possibly non-minimal
        d = level_denominator_bound(args.n)
    scaled = _as_int(value * d)
    _emit(
        args,
        "exact",
        lambda: {
            "t": str(t),
            "value": format_rational(value),
            "level_numerator": str(scaled),
            "level_denominator": str(d),
        },
        [format_rational(value), f"{scaled}/{d}"],
    )
    return 0


def _cmd_eval_float(args) -> int:
    if args.grid is not None and not 0 <= args.grid <= MAX_GRID_LEVEL:
        raise ValueError(f"grid level must be in 0..{MAX_GRID_LEVEL}")
    k, m_max = _fourier_args(args)
    from . import spectral

    fc = spectral.fourier_coefficients(K=k, m_max=m_max)
    if args.grid is None:
        if not isfinite(args.t):
            raise ValueError("eval-float T must be finite")
        # the synthesis is 2-periodic; phi itself vanishes outside (-1, 1)
        value = spectral.phi_fourier(args.t, fc) if abs(args.t) < 1 else 0.0
        _emit(args, "float", lambda: {"t": args.t, "value": value}, [_float_str(value)])
        return 0
    level = args.grid
    values = level_values(level)
    # Rows q and -q share one synthesis: (2k+1)*pi*(-t) is exactly
    # -((2k+1)*pi*t) and cos is even, so both sums are bit-identical, and
    # q/2^level is the double float(Dyadic(q, level)).
    synth = [spectral.phi_fourier(q / (1 << level), fc) for q in range(len(values))]
    exact = [format_rational(v) for v in values]
    err = [abs(a - float(v)) for a, v in zip(synth, values)]
    qs = range(-(1 << level), (1 << level) + 1)
    _emit(
        args,
        "float",
        lambda: [
            {
                "t": str(Dyadic(q, level)),
                "phi_fourier": synth[abs(q)],
                "phi_exact": exact[abs(q)],
                "abs_err": err[abs(q)],
            }
            for q in qs
        ],
        chain(
            ["t,phi_fourier,phi_exact_if_dyadic,abs_err"],
            (
                f"{_float_str(q / (1 << level))},{_float_str(synth[abs(q)])},"
                f"{exact[abs(q)]},{_float_str(err[abs(q)])}"
                for q in qs
            ),
        ),
    )
    return 0


def _cmd_table(args) -> int:
    max_level = _max_level(args)
    if not 0 <= args.n <= max_level:
        raise ValueError(f"table level must be in 0..{max_level}")
    values, d = _level(args.n)
    lines = _table_rows(values, d)
    _emit(
        args,
        "table",
        lambda: {
            "level": args.n,
            "denominator": str(d),
            "rows": [line.split("\t") for line in lines],
        },
        lines,
    )
    return 0


def _cmd_coeffs(args) -> int:
    n = args.count
    if not 0 <= n <= MAX_COEFFS:
        raise ValueError(f"coeffs count must be in 0..{MAX_COEFFS}")
    if args.which == "c":
        values = [format_rational(v) for v in series_coefficients(n)]
    elif args.which == "F":
        values = [str(v) for v in series_integer_numerators(series_coefficients(n))]
    elif args.which == "d":
        values = [format_rational(v) for v in exp_moment_coefficients(n)]
    else:
        values = [
            str(v) for v in exp_moment_integer_numerators(exp_moment_coefficients(n))
        ]
    _emit(
        args,
        "coeffs",
        lambda: {"which": args.which, "values": values},
        (f"{k}\t{v}" for k, v in enumerate(values)),
    )
    return 0


def _cmd_deriv(args) -> int:
    t = _point(args)
    value = phi_derivative(args.k, t)
    _emit(
        args,
        "exact",
        lambda: {"order": args.k, "t": str(t), "value": format_rational(value)},
        [format_rational(value)],
    )
    return 0


def _cmd_taylor(args) -> int:
    poly = taylor_at(_point(args), args.order)
    values = [format_rational(c) for c in poly.coeffs]
    _emit(
        args,
        "exact",
        lambda: {"center": str(poly.center), "coeffs": values, "degree": poly.degree},
        (f"{k}\t{v}" for k, v in enumerate(values)),
    )
    return 0


def _cmd_approx(args) -> int:
    m = args.m
    if not 0 <= m <= MAX_APPROX_LEVEL:
        raise ValueError(f"approx level must be in 0..{MAX_APPROX_LEVEL}")
    from .approximants import plateau_numerators

    numerators, exp = plateau_numerators(m)
    g = len(numerators) - 1
    # plateau j spans [(2j-1-g)/2^(m+1), (2j+1-g)/2^(m+1)) = [edges[j], edges[j+1]),
    # each edge printed as str(Dyadic), each value as format_rational prints it
    edges = [
        "%d/2^%d" % canonical_dyadic(2 * j - 1 - g, m + 1) for j in range(g + 2)
    ]

    def plateaus():
        for j, a in enumerate(numerators):
            num, den_exp = canonical_dyadic(a, exp)
            yield edges[j], edges[j + 1], f"{num}/{1 << den_exp}" if den_exp else str(num)

    _emit(
        args,
        "approx",
        lambda: {
            "level": m,
            "plateaus": [
                {"left": left, "right": right, "value": value}
                for left, right, value in plateaus()
            ],
        },
        chain(["left_edge,right_edge,value"], map(",".join, plateaus())),
    )
    return 0


def _cmd_fourier_coeffs(args) -> int:
    k, m_max = _fourier_args(args)
    from .spectral import fourier_coefficients

    fc = fourier_coefficients(K=k, m_max=m_max)
    _emit(
        args,
        "fourier",
        lambda: {"K": fc.K, "m_max": m_max, "a": list(fc.a)},
        (f"{k}\t{_float_str(ak)}" for k, ak in enumerate(fc.a)),
    )
    return 0


def _cmd_mc(args) -> int:
    import json

    from .stochastic import mc_phi

    est = mc_phi(args.x, args.samples, args.depth, args.seed)
    payload = {
        "x": est.x,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "bias_bound": est.bias_bound,
        "seed": est.seed,
    }
    _emit(args, "mc", lambda: payload, [json.dumps(payload)])
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(emit=(lambda line: None) if args.json else print)
    _emit(
        args,
        "selftest",
        lambda: [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "elapsed_s": r.elapsed,
            }
            for r in results
        ],
        [],
    )
    return 0 if all(r.passed for r in results) else INTEGRITY_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="fabius", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    table_max_default = _env_int("FABIUS_TABLE_MAX", 12)
    # parsed here so that a bad value fails every command; None (unset) is
    # resolved to spectral's default by the commands that synthesize
    m_max_default = _env_int("FABIUS_M_MAX")
    fourier_k_default = _env_int("FABIUS_FOURIER_K")

    p = sub.add_parser("eval", help="exact phi(q/2^n)")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--max-level", type=int, default=table_max_default)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("eval-float", help="float phi(t) via Fourier synthesis")
    p.add_argument("t", type=float, nargs="?", default=0.0)
    p.add_argument("--grid", type=int, default=None, metavar="LEVEL",
                   help="emit CSV over the dyadic grid q/2^LEVEL instead")
    p.add_argument("--fourier-k", type=int, default=fourier_k_default)
    p.add_argument("--m-max", type=int, default=m_max_default)
    p.set_defaults(func=_cmd_eval_float)

    p = sub.add_parser("table", help="scaled value table for one level")
    p.add_argument("n", type=int)
    p.add_argument("--max-level", type=int, default=table_max_default)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("coeffs", help="coefficient sequence dump")
    p.add_argument("which", choices=("c", "F", "d", "G"))
    p.add_argument("count", type=int)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("deriv", help="exact k-th derivative at q/2^n")
    p.add_argument("k", type=int)
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_deriv)

    p = sub.add_parser("taylor", help="exact Taylor coefficients at q/2^n")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("order", type=int)
    p.set_defaults(func=_cmd_taylor)

    p = sub.add_parser("approx", help="step-approximant plateaus as CSV")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("fourier-coeffs", help="cosine synthesis coefficients")
    p.add_argument("fourier_k", type=int, nargs="?", default=fourier_k_default)
    p.add_argument("--m-max", type=int, default=m_max_default)
    p.set_defaults(func=_cmd_fourier_coeffs)

    p = sub.add_parser("mc", help="Monte Carlo estimate of phi(x), x in [-1,0]")
    p.add_argument("x", type=float)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        # parsing keeps the limit; only computed results may be long
        args = build_parser().parse_args(argv)
        with _no_int_str_limit():
            return args.func(args)
    except SystemExit as exc:  # argparse has printed its message
        return exc.code
    except ValueError as exc:  # also a bad FABIUS_* value
        print(f"fabius: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"fabius: integrity violation: {exc}", file=sys.stderr)
        return INTEGRITY_ERROR


if __name__ == "__main__":
    sys.exit(main())
