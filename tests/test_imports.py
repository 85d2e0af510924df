"""numpy loads only when a Monte Carlo block is drawn.

Each check runs in a fresh interpreter, because this test process may
already have imported numpy.  The child imports the same checkout as this
process, installed or not.
"""

import json
import os
import subprocess
import sys
import textwrap

import fabius

# (argv, exit code); the mc depths and sample count are rejected before any
# block is drawn
EXACT_COMMANDS = [
    (["eval", "1", "3"], 0),
    (["deriv", "2", "1", "5"], 0),
    (["taylor", "1", "4", "3"], 0),
    (["table", "5"], 0),
    (["coeffs", "F", "10"], 0),
    (["approx", "4"], 0),
    (["eval-float", "0.3"], 0),
    (["eval-float", "--grid", "3"], 0),
    (["fourier-coeffs", "16"], 0),
    (["mc", "-0.5", "--depth", "4"], 1),
    (["mc", "-0.5", "--samples", "10", "--depth", "65"], 1),
    (["mc", "-0.5", "--samples", "100000001"], 1),
]

# Runs each argv of the JSON list in argv[1] through main() and prints one
# JSON record per step: [label, exit code, numpy loaded].
CHILD = textwrap.dedent(
    """
    import contextlib, io, json, sys

    def report(label, code):
        print(json.dumps([label, code, "numpy" in sys.modules]), flush=True)

    import fabius
    import fabius.cli
    report("import", 0)
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            code = fabius.cli.main(argv)
        report(" ".join(argv), code)
    """
)


def _run(commands):
    src = os.path.dirname(os.path.dirname(fabius.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def test_exact_commands_never_load_numpy():
    records = _run([argv for argv, _ in EXACT_COMMANDS])
    assert records == [("import", 0, False)] + [
        (" ".join(argv), code, False) for argv, code in EXACT_COMMANDS
    ]


def test_monte_carlo_draw_loads_numpy():
    # control: the check above would pass vacuously if numpy never loaded
    records = _run([["mc", "-0.5", "--samples", "1000"]])
    assert records == [("import", 0, False), ("mc -0.5 --samples 1000", 0, True)]
