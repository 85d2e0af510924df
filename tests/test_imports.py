"""Each command loads only the layers it runs.

numpy loads only when a Monte Carlo block is drawn; ``import fabius`` loads
no module of the package, and ``import fabius.cli`` no layer and not
``fractions``; the package resolves each name on first use; the exact core
loads only with a command that runs it; the exact commands leave
``spectral``, ``stochastic``, ``approximants`` and ``json`` unloaded; and no
command but ``selftest`` loads ``dataclasses``.  No module of the package
imports another module's underscore name.

Each load check runs ``PROBE`` in a fresh interpreter, because this test
process has already imported everything.  Every test that starts an
interpreter does so through ``child``.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fabius
from fabius.approximants import StepFunction, step_function
from fabius.coefficients import CoefficientTable
from fabius.core import Dyadic
from fabius.exact import taylor_at
from fabius.selftest import CriterionResult
from fabius.stochastic import McEstimate

# the exact core and the one standard module that loads with it, sorted
CORE = ["fabius.coefficients", "fabius.core", "fabius.exact", "fractions"]

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

# the commands that run on the exact core alone
CORE_COMMANDS = EXACT_COMMANDS[:5]

# Runs the steps of the list literal in argv[1], in order, and prints one
# record per step: [step, result, the modules of the package and of WATCHED
# that are loaded, sorted].  A step is one of
#   ("import", module)  result None;
#   ("name", name)      looked up on the package: for a layer's own name,
#                       whether that layer's module came back, else whether
#                       the lookup succeeded;
#   ("main", argv)      fabius.cli.main(argv), output discarded: exit code;
#   ("module", argv)    run as ``python -m fabius.cli`` runs it, through runpy
#                       and ``entry``, output discarded: exit code.  It comes
#                       last, and its record is written by an exit handler
#                       registered before the run, so a load at exit shows.
# It reads and writes Python literals, not JSON, so that json is loaded only
# if fabius loads it.
PROBE = textwrap.dedent(
    """
    import atexit, contextlib, importlib, io, runpy, sys

    WATCHED = ("dataclasses", "fractions", "json", "numpy")

    def report(step, result):
        loaded = sorted(m for m in sys.modules if m in WATCHED or m.startswith("fabius."))
        print(repr([step, result, loaded]), flush=True)

    def run(kind, arg):
        if kind == "import":
            importlib.import_module(arg)
        elif kind == "name":
            value = getattr(importlib.import_module("fabius"), arg, None)
            layer = sys.modules.get("fabius." + arg)
            return value is not None if layer is None else value is layer
        elif kind == "main":
            return importlib.import_module("fabius.cli").main(arg)
        else:
            sys.argv = ["fabius", *arg]
            try:
                runpy.run_module("fabius.cli", run_name="__main__")
            except SystemExit as exc:
                return exc.code

    for step in eval(sys.argv[1]):
        if step[0] == "module":
            atexit.register(lambda: report(step, result))
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            result = run(*step)
        if step[0] != "module":
            report(step, result)
    """
)


def _child_env():
    src = os.path.dirname(os.path.dirname(fabius.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def child(*args):
    """Run a fresh interpreter on ``args`` and return the finished process.

    The child imports the same checkout as this process, installed or not;
    its stdout and stderr are bytes.
    """
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=_child_env(), timeout=120
    )


def probe(*steps):
    proc = child("-c", PROBE, repr(steps))
    assert proc.returncode == 0, proc.stderr.decode()
    return [tuple(ast.literal_eval(line)) for line in proc.stdout.decode().splitlines()]


# the first step of each main() probe, and its record
IMPORT_CLI = ("import", "fabius.cli")
CLI_ONLY = (IMPORT_CLI, None, ["fabius.cli"])


def _main(argvs):
    return probe(IMPORT_CLI, *(("main", argv) for argv in argvs))


def _with_cli(modules):
    return sorted(["fabius.cli", *modules])


def _loaded(records, name):
    return [(step, code, name in loaded) for step, code, loaded in records]


def test_exact_commands_never_load_numpy():
    records = _main(argv for argv, _ in EXACT_COMMANDS)
    assert _loaded(records, "numpy") == [(IMPORT_CLI, None, False)] + [
        (("main", argv), code, False) for argv, code in EXACT_COMMANDS
    ]


def test_monte_carlo_draw_loads_numpy():
    # control: the check above would pass vacuously if numpy never loaded
    argv = ["mc", "-0.5", "--samples", "1000"]
    assert _loaded(_main([argv]), "numpy") == [
        (IMPORT_CLI, None, False),
        (("main", argv), 0, True),
    ]


def test_core_commands_load_only_the_exact_core():
    # eval, the first, loads all of the core; the others load nothing more
    records = _main(argv for argv, _ in CORE_COMMANDS)
    assert records == [CLI_ONLY] + [
        (("main", argv), code, _with_cli(CORE)) for argv, code in CORE_COMMANDS
    ]


def test_commands_off_the_exact_core_never_load_it():
    # argparse rejections included: the core loads only with a command that
    # reads it, never with the import or a rejected argv
    commands = [
        ["eval", "x", "3"],
        ["frobnicate"],
        ["mc", "-0.5", "--samples", "1000"],
        ["fourier-coeffs", "4"],
        ["eval-float", "0.3"],
    ]
    records = _main(commands)
    assert [(step, code) for step, code, _ in records] == [(IMPORT_CLI, None)] + [
        (("main", argv), code) for argv, code in zip(commands, [1, 1, 0, 0, 0])
    ]
    assert [set(loaded) & set(CORE) for _, _, loaded in records] == [set()] * 6


@pytest.mark.parametrize(
    "argv,loads",
    [
        (["approx", "4"], ["fractions", "fabius.core", "fabius.approximants"]),
        (["eval-float", "0.3"], ["fabius.spectral"]),
        (["fourier-coeffs", "4"], ["fabius.spectral"]),
        (["mc", "-0.5", "--samples", "1000"], ["numpy", "json", "fabius.stochastic"]),
        (["--json", "eval", "1", "3"], ["json", *CORE]),
    ],
)
def test_each_layer_loads_with_its_command(argv, loads):
    # control: the check above would pass vacuously if no layer ever loaded
    assert _main([argv]) == [CLI_ONLY, (("main", argv), 0, _with_cli(loads))]


def test_no_command_but_selftest_loads_dataclasses():
    commands = [argv for argv, _ in EXACT_COMMANDS] + [
        ["mc", "-0.5", "--samples", "70000", "--depth", "53"],
        *(["--json", *argv] for argv, _ in EXACT_COMMANDS),
    ]
    records = _main(commands)
    assert len(records) == 1 + len(commands)
    assert not any(loaded for _, _, loaded in _loaded(records, "dataclasses"))


@pytest.mark.parametrize(
    "argv,code,loads",
    [
        (["fourier-coeffs", "4"], 0, ["fabius.spectral"]),
        (["eval-float", "0.3"], 0, ["fabius.spectral"]),
        (["frobnicate"], 1, []),
        (["eval", "1", "3"], 0, CORE),
    ],
)
def test_the_module_entry_loads_what_main_loads(argv, code, loads):
    # no probe of the package at start-up or exit loads a layer
    assert probe(("module", argv)) == [(("module", argv), code, sorted(loads))]


def test_no_module_imports_a_private_name():
    # tests may import private names; the package's own modules may not
    package = Path(fabius.__file__).parent
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_only_child_starts_an_interpreter():
    # a test that needs a fresh interpreter goes through child(); the
    # closed-pipe test keeps its own Popen, since it reads the pipe
    users = []
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "executable":
                owners = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(owners, key=lambda f: f.lineno).name if owners else "<module>"
                users.append(f"{path.name}:{owner}")
    assert users == ["test_cli.py:test_closed_pipe_exits_quietly", "test_imports.py:child"]


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from fabius import *", namespace)
    assert set(fabius.__all__) <= set(namespace)
    assert namespace["phi_exact"] is fabius.exact.phi_exact
    assert set(fabius.__all__) <= set(dir(fabius))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fabius.no_such_name
    with pytest.raises(ImportError):
        exec("from fabius import no_such_name", {})


# one instance of each result record and one of its fields
RECORDS = [
    (taylor_at(Dyadic(1, 2), 2), "coeffs"),
    (CoefficientTable.build(2), "c"),
    (McEstimate(x=-0.5, samples=1, depth=8, estimate=1.0, stderr=0.0, seed=0), "x"),
    (step_function(2), "numerators"),
    (CriterionResult(1, "name", True, "detail", 0.0), "passed"),
]


def _record_id(value):
    return value if isinstance(value, str) else type(value).__name__


@pytest.mark.parametrize("record,field", RECORDS, ids=_record_id)
def test_records_reject_field_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")


@pytest.mark.parametrize("record,field", RECORDS, ids=_record_id)
def test_records_are_tuples_of_their_fields(record, field):
    # intended: a record unpacks, indexes and compares as the plain tuple of
    # its field values in order
    values = tuple(getattr(record, name) for name in record._fields)
    assert tuple(record) == values and record == values
    assert record[record._fields.index(field)] is getattr(record, field)
    assert len(record) == len(record._fields)
    assert record != values + (None,)


def test_records_of_different_types_with_equal_fields_are_equal():
    taylor = taylor_at(Dyadic(1, 2), 2)
    assert StepFunction(*taylor) == taylor
