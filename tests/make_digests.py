"""Write ``tests/data/digests.json``: each argv's exit code and stdout sha256.

Run from the repository root as ``PYTHONPATH=src python tests/make_digests.py``;
on an unchanged tree it writes the committed file again byte for byte.
``test_digests.py`` runs every argv the file holds and compares.

The argv list is fixed, not drawn, so that the corpus changes only when the
list does.  It covers every command but ``selftest``, plain and ``--json``,
together with the 13 malformed argv of the benchmark's ``cli`` workload,
which it reads from ``perfbench/workloads.py``.  Stderr is not recorded:
argparse words its messages differently across Python versions.  The float
commands depend on the platform's libm.
"""

import ast
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from fabius.cli import main

DIGESTS = Path(__file__).parent / "data" / "digests.json"
WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads.py"


def _malformed():
    """The literal ``_MALFORMED`` of ``perfbench/workloads.py``, read without
    importing the benchmark."""
    module = ast.parse(WORKLOADS.read_text())
    (value,) = [
        node.value
        for node in module.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_MALFORMED"
    ]
    return [" ".join(argv) for argv in ast.literal_eval(value)]


def _commands():
    for n in range(13):
        yield f"table {n}"
    # one odd q per level, alternating sides, plus one point outside the support
    for n in [*range(41), 128]:
        yield f"eval {(-1) ** n * ((1 << n) // 3 | 1)} {n}"
    yield "eval 5 2"
    # even q: the point reduces to level 12, yet the scan or the bound is
    # chosen by the level as given: 13 is past the default scan cap, 14 past 13
    yield "eval 2 13"
    yield "eval 4 14 --max-level 13"
    for k, q, n in [(1, 1, 1), (2, -5, 3), (3, -5, 7), (4, 11, 20), (1, 3, 1), (2, -9, 3)]:
        yield f"deriv {k} {q} {n}"
    for q, n, order in [(1, 1, 3), (-27, 5, 8), (3, 8, 12), (12345, 20, 4), (5, 2, 3), (0, 0, 2)]:
        yield f"taylor {q} {n} {order}"
    for which in "cFdG":
        for count in (0, 1, 60, 150):
            yield f"coeffs {which} {count}"
    for m in range(13):
        yield f"approx {m}"
    for k in (1, 64, 1024):
        yield f"fourier-coeffs {k}"
        yield f"fourier-coeffs {k} --m-max 7"
    for t in ("0", "-0.0", "0.5", "-0.375", "1", "-1", "1.5", "1e-300", "5e-324",
              "0.99999999999999989", "inf", "-inf", "nan", "-1e-3", "-0."):
        yield f"eval-float {t}"
    yield "eval-float 0.3 --grid 2"
    for level in range(11):
        yield f"eval-float --grid {level}"
    for x, samples in [("-0.5", 1 << 16), ("-0.25", 1000), ("0", 1), ("-1", 4096)]:
        for seed in (0, 7):
            yield f"mc {x} --samples {samples} --seed {seed}"
    yield "mc -5e-1 --samples 1000"


ARGV = [
    *(f"{flag}{cmd}" for cmd in _commands() for flag in ("", "--json ")),
    *_malformed(),
]


def digest(argv: str) -> dict:
    """The exit code of ``fabius argv`` run in process, and its stdout's sha256."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else DIGESTS
    path.write_text(json.dumps({argv: digest(argv) for argv in ARGV}, indent=1) + "\n")
