"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Checks ``BENCHMARK.json`` against the benchmark's contract, runs every
workload (``session`` too) with ``--tiny`` in both trace modes, and checks
that the last line names every metric of that mode with its unit, that
every op passed its check (``failed_ratio`` 0), and that the benchmark
refuses to run, without a result, in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict) -> list[str]:
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if w["name"] not in WORKLOADS:
            problems.append(f"workload {w['name']} is not defined in workloads.py")
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: needs a one-line why of <= 200 chars")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            names.append(m["name"])
            if set(m) != keys or m["better"] not in ("lower", "higher"):
                problems.append(f"{group} {m['name']}: keys or better")
            if not UNIT.match(m["unit"]):
                problems.append(f"{m['name']}: unit {m['unit']!r}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("metric counts")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        problems.append(f"names invalid or repeated: {bad}")
    for path in spec["paths"]:
        if path.startswith("/") or ".." in path.split("/") or not (ROOT / path).is_dir():
            problems.append(f"path {path!r}")
    return problems


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = last_json(proc.stdout)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"{where}: last line is not the result object"]
    problems = []
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']}/{result['attempted']} failed\n"
                        + proc.stdout[-1500:])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {got}")
        elif not trace and value <= 0:
            problems.append(f"{where}: {m['name']} must never be 0, got {value}")
    return problems


def check_bare(spec: dict) -> list[str]:
    """The benchmark must refuse to run without the program's sources."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(spec["command"] + ["--workload", "cli", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        return ["bare directory: the benchmark ran or printed a result without sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload:<8} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_bare(spec)
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
