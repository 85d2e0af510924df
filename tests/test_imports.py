"""Each command loads only the layers it runs.

numpy loads only when a Monte Carlo block is drawn; ``import fabius`` and
``import fabius.cli`` load no layer and not ``fractions``, and the package
resolves each name on first use; the exact core loads only with a command
that runs it; the exact commands leave ``spectral``, ``stochastic``,
``approximants`` and ``json`` unloaded; and no command but ``selftest``
loads ``dataclasses``.  No module of the package imports another module's
underscore name.

Each check runs in a fresh interpreter, because this test process has
already imported everything.  The child imports the same checkout as this
process, installed or not.
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

# the exact core and the one standard module that loads with it
CORE = ["fractions", "fabius.core", "fabius.coefficients", "fabius.exact"]
LAYERS = ["fabius.spectral", "fabius.stochastic", "fabius.approximants"]
WATCHED = ["numpy", "json", "dataclasses", *CORE, *LAYERS]

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

# Runs each argv of the list literal in argv[2] through main() and prints one
# record per step: [label, exit code, the modules of the list literal in
# argv[1] that are loaded].  It reads and writes Python literals, not JSON,
# so that json is loaded only if fabius loads it.
CHILD = textwrap.dedent(
    """
    import contextlib, io, sys

    watched = eval(sys.argv[1])

    def report(label, code):
        loaded = [name for name in watched if name in sys.modules]
        print(repr([label, code, loaded]), flush=True)

    import fabius
    import fabius.cli
    report("import", 0)
    for argv in eval(sys.argv[2]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            code = fabius.cli.main(argv)
        report(" ".join(argv), code)
    """
)


def _child_env():
    src = os.path.dirname(os.path.dirname(fabius.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run(commands, child=CHILD):
    proc = subprocess.run(
        [sys.executable, "-c", child, repr(WATCHED), repr(commands)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(ast.literal_eval(line)) for line in proc.stdout.splitlines()]


def _loaded(records, name):
    return [(label, code, name in loaded) for label, code, loaded in records]


def test_exact_commands_never_load_numpy():
    records = _run([argv for argv, _ in EXACT_COMMANDS])
    assert _loaded(records, "numpy") == [("import", 0, False)] + [
        (" ".join(argv), code, False) for argv, code in EXACT_COMMANDS
    ]


def test_monte_carlo_draw_loads_numpy():
    # control: the check above would pass vacuously if numpy never loaded
    records = _run([["mc", "-0.5", "--samples", "1000"]])
    assert _loaded(records, "numpy") == [
        ("import", 0, False),
        ("mc -0.5 --samples 1000", 0, True),
    ]


def test_core_commands_load_only_the_exact_core():
    # eval, the first, loads all of the core; the others load nothing more
    records = _run([argv for argv, _ in CORE_COMMANDS])
    assert records == [("import", 0, [])] + [
        (" ".join(argv), code, CORE) for argv, code in CORE_COMMANDS
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
    records = _run(commands)
    assert [(label, code) for label, code, _ in records] == [("import", 0)] + [
        (" ".join(argv), code) for argv, code in zip(commands, [1, 1, 0, 0, 0])
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
    assert _run([argv]) == [("import", 0, []), (" ".join(argv), 0, loads)]


def test_no_command_but_selftest_loads_dataclasses():
    commands = [argv for argv, _ in EXACT_COMMANDS] + [
        ["mc", "-0.5", "--samples", "70000", "--depth", "53"],
        *(["--json", *argv] for argv, _ in EXACT_COMMANDS),
    ]
    records = _run(commands)
    assert len(records) == 1 + len(commands)
    assert not any(loaded for _, _, loaded in _loaded(records, "dataclasses"))


# Looks up the layer core and then every public name of a freshly imported
# package, and prints one record: [the fabius and watched modules loaded by
# the import, those loaded once fabius.core is looked up, whether that
# lookup handed out the layer, {name: [layers whose __all__ lists it and
# whose object the package hands out]}].
RESOLVE = textwrap.dedent(
    """
    import importlib, sys

    watched = eval(sys.argv[1])

    def loaded():
        return sorted(m for m in sys.modules if m.startswith("fabius.") or m in watched)

    import fabius
    on_import = loaded()
    core = fabius.core
    with_core = loaded()
    homes = {}
    for name in fabius.__all__:
        value = getattr(fabius, name)
        for layer in ("core", "coefficients", "exact", "approximants",
                      "spectral", "stochastic"):
            module = importlib.import_module("fabius." + layer)
            if name in module.__all__ and getattr(module, name) is value:
                homes.setdefault(name, []).append(layer)
    print(repr([on_import, with_core, core is sys.modules["fabius.core"], homes]))
    """
)


def test_package_loads_no_layer_and_resolves_every_name_on_first_use():
    [(on_import, with_core, is_layer, homes)] = _run([], RESOLVE)
    assert on_import == []
    # a layer's own name loads that layer alone
    assert (with_core, is_layer) == (["fabius.core", "fractions"], True)
    # exactly one layer lists each name, and the package hands out its object
    assert sorted(homes) == sorted(fabius.__all__)
    assert all(len(layers) == 1 for layers in homes.values())


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
