"""Command-line front door.

Line-oriented plain text by default; ``--json`` switches every command to a
single JSON object ``{"mode": ..., "payload": ...}`` in which exact numbers
are always strings.  Floats print with 17 significant digits so they
round-trip.  Exit codes: 0 success, 1 usage error (or a reader that closed
stdout early), 2 internal integrity violation (or selftest failure).

Settings come from flags only: ``--m-max`` for the product truncation,
``--fourier-k`` (the K of ``fourier-coeffs``) for the synthesis length, both
defaulting to ``spectral``'s, and ``--max-level`` (default
``DEFAULT_MAX_LEVEL``) for the largest level ``table`` accepts and the
largest level ``eval`` will scan to find the minimal common denominator.
``eval``, ``deriv`` and ``taylor`` accept levels up to the fixed
``MAX_LEVEL``, ``taylor`` orders up to ``exact.MAX_TAYLOR_ORDER``, ``approx``
up to ``MAX_APPROX_LEVEL``, ``coeffs`` counts up to ``MAX_COEFFS``, and
``eval-float --grid`` as well as ``--max-level`` up to ``MAX_GRID_LEVEL``.
The synthesis length is capped at ``MAX_FOURIER_K`` and the product
truncation at ``MAX_M_MAX``.

Each command imports only the layers it runs, inside the functions that
use them: importing this module loads no fabius layer and not ``fractions``,
the exact commands never load ``spectral``, ``stochastic``, ``approximants``
or ``json``, and ``fourier-coeffs``, ``eval-float T``, ``mc`` and every
argparse rejection never load the exact core.  ``entry``, not ``main``, is
the process entry point of ``fabius`` and ``python -m fabius.cli``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import chain
from math import isfinite
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core import Dyadic

__all__ = ["main", "render_table"]

USAGE_ERROR = 1
INTEGRITY_ERROR = 2

# Deepest canonical level eval, deriv and taylor accept; a full-order Taylor
# vector costs one level plan, about n^4, and taylor (2^127 - 1) 128 128 took
# about 1 s.  The level as given may be at most twice that: eval's denominator
# bound at a raw level n needs c up to n/2, about 0.15 s at n = 256 and 1 s
# at n = 428 in process.
MAX_LEVEL = 128
# approx M has degree 2^(M+1) - M - 2, and each further M costs about 4x;
# M = 16 takes about 1 s.
MAX_APPROX_LEVEL = 16
# eval-float --grid L prints 2^(L+1) + 1 rows; L = 14 took 0.54-0.56 s on a
# 2-vCPU VM.  It also caps the level scan of eval and table, whose cost
# doubles per level.
MAX_GRID_LEVEL = 14
# Default --max-level; table 12 takes about 0.1 s.  A table has 2^n + 1 rows,
# so each further level doubles the output, and scripts and tests rely on
# table 13 being a usage error.
DEFAULT_MAX_LEVEL = 12
# coeffs G 300 takes about 1 s and coeffs c 300 about 3.5 s, half of it in
# turning the values into decimal strings.
MAX_COEFFS = 300
# Synthesis length K: time grows linearly in K, so fourier-coeffs 10^5 took
# 2.3 s.
MAX_FOURIER_K = 1024
# Product truncation m_max: 2^m_max must convert to a float, so 1023 is the
# largest; fourier-coeffs 1024 --m-max 1023 takes about 0.15 s.
MAX_M_MAX = 1023


def _float_str(x: float) -> str:
    return format(x, ".17g")


def _max_level(args) -> int:
    """The scan cap of eval and table, rejected outside 0..``MAX_GRID_LEVEL``."""
    if not 0 <= args.max_level <= MAX_GRID_LEVEL:
        raise ValueError(f"--max-level must be at most {MAX_GRID_LEVEL} and at least 0")
    return args.max_level


def _point(args) -> Dyadic:
    """The canonical q/2^n of ``args``, rejected outside the level caps before any work."""
    if not 0 <= args.n <= 2 * MAX_LEVEL:
        raise ValueError(f"level as given must be at most {2 * MAX_LEVEL} and at least 0")
    from .core import Dyadic

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
        raise ValueError(f"Fourier K must be at most {MAX_FOURIER_K}")
    if m_max > MAX_M_MAX:
        raise ValueError(f"--m-max must be at most {MAX_M_MAX}")
    return k, m_max


def _emit(args, mode: str, payload, lines) -> None:
    """Print ``lines``, each ending in its newline, or under ``--json`` the
    object around ``payload()``.

    Only the printed form is built: ``payload`` is called, and ``lines``
    iterated, only in its own mode.
    """
    if args.json:
        import json

        print(json.dumps({"mode": mode, "payload": payload()}))
    else:
        sys.stdout.writelines(lines)


def level_denominator(n: int) -> int:
    """Minimal common denominator of the level-n grid values."""
    from .exact import level_numerators

    return level_numerators(n)[1]


def render_table(n: int) -> list[str]:
    """Rows ``q<TAB>D*phi(q/2^n)<TAB>phi(q/2^n)`` with D the minimal level denominator."""
    from fractions import Fraction

    from .exact import level_numerators

    numerators, d = level_numerators(n)
    return [f"{q}\t{v}\t{Fraction(v, d)}" for q, v in enumerate(numerators)]


def _cmd_eval(args) -> int:
    max_level = _max_level(args)
    t = _point(args)
    from .exact import level_denominator_bound, phi_exact

    value = phi_exact(t)
    if args.n <= max_level:
        d = level_denominator(args.n)
    else:
        # beyond the scan cap: valid but possibly non-minimal
        d = level_denominator_bound(args.n)
    scaled = value * d
    if scaled.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {scaled}")
    _emit(
        args,
        "exact",
        lambda: {
            "t": str(t),
            "value": str(value),
            "level_numerator": str(scaled),
            "level_denominator": str(d),
        },
        [f"{value}\n", f"{scaled}/{d}\n"],
    )
    return 0


def _cmd_eval_float(args) -> int:
    if args.grid is not None and not 0 <= args.grid <= MAX_GRID_LEVEL:
        raise ValueError(f"grid level must be in 0..{MAX_GRID_LEVEL}")
    if args.grid is None and not isfinite(args.t):
        raise ValueError("eval-float T must be finite")
    k, m_max = _fourier_args(args)
    from . import spectral

    fc = spectral.fourier_coefficients(K=k, m_max=m_max)
    if args.grid is None:
        # the synthesis is 2-periodic; phi itself vanishes outside (-1, 1)
        value = spectral.phi_fourier(args.t, fc) if abs(args.t) < 1 else 0.0
        line = f"{_float_str(value)}\n"
        _emit(args, "float", lambda: {"t": args.t, "value": value}, [line])
        return 0
    from fractions import Fraction

    from .core import Dyadic
    from .exact import level_numerators

    level = args.grid
    numerators, d = level_numerators(level)
    # Rows q and -q share one synthesis: (2k+1)*pi*(-t) is exactly
    # -((2k+1)*pi*t) and cos is even, so both sums are bit-identical.  They
    # share one exact value too, by the evenness phi(-t) = phi(t), which
    # this command applies and test_grid_matches_per_row_synthesis checks
    # at every row.  q / (1 << level) is q/2^level rounded once to the
    # nearest double, as v / d is phi(q/2^level).  Python's int division
    # rounds correctly.
    synth = [spectral.phi_fourier(q / (1 << level), fc) for q in range(len(numerators))]
    exact = [str(Fraction(v, d)) for v in numerators]
    err = [abs(a - v / d) for a, v in zip(synth, numerators)]
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
            ["t,phi_fourier,phi_exact_if_dyadic,abs_err\n"],
            (
                f"{_float_str(q / (1 << level))},{_float_str(synth[abs(q)])},"
                f"{exact[abs(q)]},{_float_str(err[abs(q)])}\n"
                for q in qs
            ),
        ),
    )
    return 0


def _cmd_table(args) -> int:
    max_level = _max_level(args)
    if not 0 <= args.n <= max_level:
        raise ValueError(f"table level must be in 0..{max_level}")
    lines = render_table(args.n)
    _emit(
        args,
        "table",
        lambda: {
            "level": args.n,
            # row q = 0 holds D*phi(0) = D
            "denominator": lines[0].split("\t")[1],
            "rows": [line.split("\t") for line in lines],
        },
        (f"{line}\n" for line in lines),
    )
    return 0


def _cmd_coeffs(args) -> int:
    n = args.count
    if not 0 <= n <= MAX_COEFFS:
        raise ValueError(f"coeffs count must be in 0..{MAX_COEFFS}")
    from .coefficients import (
        exp_moment_coefficients,
        exp_moment_integer_numerators,
        series_coefficients,
        series_integer_numerators,
    )

    if args.which == "c":
        values = [str(v) for v in series_coefficients(n)]
    elif args.which == "F":
        values = [str(v) for v in series_integer_numerators(series_coefficients(n))]
    elif args.which == "d":
        values = [str(v) for v in exp_moment_coefficients(n)]
    else:
        values = [
            str(v) for v in exp_moment_integer_numerators(exp_moment_coefficients(n))
        ]
    _emit(
        args,
        "coeffs",
        lambda: {"which": args.which, "values": values},
        (f"{k}\t{v}\n" for k, v in enumerate(values)),
    )
    return 0


def _cmd_deriv(args) -> int:
    t = _point(args)
    from .exact import phi_derivative

    value = phi_derivative(args.k, t)
    _emit(
        args,
        "exact",
        lambda: {"order": args.k, "t": str(t), "value": str(value)},
        [f"{value}\n"],
    )
    return 0


def _cmd_taylor(args) -> int:
    t = _point(args)
    from .exact import taylor_at

    poly = taylor_at(t, args.order)
    degree = poly.degree
    # every coefficient above the degree is 0: format that once
    values = [str(c) for c in poly.coeffs[: degree + 1]]
    values += ["0"] * (len(poly.coeffs) - len(values))
    _emit(
        args,
        "exact",
        lambda: {"center": str(poly.center), "coeffs": values, "degree": degree},
        (f"{k}\t{v}\n" for k, v in enumerate(values)),
    )
    return 0


def _cmd_approx(args) -> int:
    m = args.m
    if not 0 <= m <= MAX_APPROX_LEVEL:
        raise ValueError(f"approx level must be in 0..{MAX_APPROX_LEVEL}")
    from .approximants import step_function
    from .core import canonical_dyadic

    sf = step_function(m)
    numerators, exp, g = sf.numerators, sf.exp, sf.degree
    # plateau j spans [(2j-1-g)/2^(m+1), (2j+1-g)/2^(m+1)) = [edges[j], edges[j+1]),
    # each edge printed as str(Dyadic), each value as str(Fraction) prints it
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
        chain(
            ["left_edge,right_edge,value\n"],
            (f"{left},{right},{value}\n" for left, right, value in plateaus()),
        ),
    )
    return 0


def _cmd_fourier_coeffs(args) -> int:
    k, m_max = _fourier_args(args)
    from .spectral import fourier_coefficients

    fc = fourier_coefficients(K=k, m_max=m_max)
    _emit(
        args,
        "fourier",
        lambda: {"K": len(fc), "m_max": m_max, "a": list(fc)},
        (f"{k}\t{_float_str(ak)}\n" for k, ak in enumerate(fc)),
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
    _emit(args, "mc", lambda: payload, [json.dumps(payload) + "\n"])
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    results = run_all(emit=(lambda line: None) if args.json else print)
    _emit(args, "selftest", lambda: [r._asdict() for r in results], [])
    return 0 if all(r.passed for r in results) else INTEGRITY_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fabius", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact phi(q/2^n)")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--max-level", type=int, default=DEFAULT_MAX_LEVEL)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("eval-float", help="float phi(t) via Fourier synthesis")
    p.add_argument("t", type=float, nargs="?", default=0.0)
    p.add_argument("--grid", type=int, default=None, metavar="LEVEL",
                   help="emit CSV over the dyadic grid q/2^LEVEL instead")
    p.add_argument("--fourier-k", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.set_defaults(func=_cmd_eval_float)

    p = sub.add_parser("table", help="scaled value table for one level")
    p.add_argument("n", type=int)
    p.add_argument("--max-level", type=int, default=DEFAULT_MAX_LEVEL)
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
    p.add_argument("fourier_k", type=int, nargs="?", default=None)
    p.add_argument("--m-max", type=int, default=None)
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
    # CPython's int-to-str digit limit (0 when absent or already lifted):
    # parsing keeps it, but exact results may exceed it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        args = build_parser().parse_args(argv)
        if limit:
            sys.set_int_max_str_digits(0)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe then raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed stdout (fabius table 12 | head -1): point it at
        # devnull so that the interpreter's final flush stays quiet
        try:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        except OSError:  # an in-process caller's stdout may have no descriptor
            pass
        return 1  # the status the uncaught exception gave
    except SystemExit as exc:  # argparse has printed its message
        # argparse exits 2 on a usage error, 0 after --help
        return USAGE_ERROR if exc.code == 2 else exc.code
    except ValueError as exc:
        print(f"fabius: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ArithmeticError as exc:
        print(f"fabius: integrity violation: {exc}", file=sys.stderr)
        return INTEGRITY_ERROR
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entry():
    """Run ``main`` on the process's arguments and exit with its status.

    The console script and ``python -m fabius.cli`` call this, not ``main``.
    It freezes what import created before ``main`` runs, and what ``main``
    created after it returns, so that the collections in ``main`` and the
    interpreter's final one at exit skip them.  ``main`` itself never
    freezes: a long-lived caller must keep collecting.
    """
    gc.freeze()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
