"""fabius benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload {grid,session,cli,oracle} --seed N
                             --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout; ``src/`` is put on ``PYTHONPATH`` so
the checkout is measured, not an installed copy.  ``--seconds`` sets the op
count (see ``workloads.py``); ``--tiny`` shrinks every size for the
self-check.

``--trace 0`` measures the end-to-end metrics with no tracing:

* ``setup_s``: fresh interpreter launch until ``import fabius.cli`` returns,
  median of SETUP_SAMPLES interpreters;
* ``op_p50_s``: median op latency (grid, cli, oracle: one
  ``python -m fabius.cli`` process from spawn to exit; session: one library
  call);
* ``op_tail_s``: the highest percentile with at least ten samples above it;
* ``ops_per_s``: ops completed per second of the timed loop;
* ``peak_rss_mb``: peak RSS of the largest CLI child, or of the session
  process before its checks.

Failed ops (wrong exit code, exception, timeout, or output that fails its
check) are reported as ``failed`` out of ``attempted``; their ratio is
printed as ``failed_ratio``.

``--trace 1`` replays the same ops with the layer wrappers of ``tracer.py``
installed and reports the per-layer metrics.  Every run writes a result
file, and a traced run also its span file, under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PY = sys.executable

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
REF_LOOP_N = 1_000_000
TAIL_ABOVE = 10


def loop_budget_s(seconds: float) -> float:
    """The timed loop sends no op after this long, so that a slow machine
    cannot stretch a run far beyond its planned length; ops not sent are
    left out of ``attempted`` and counted in the result file as ``ops_cut``."""
    return max(20.0, 1.5 * seconds)


def _benchmark_metrics() -> tuple[list, list]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FABIUS_")}
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def ref_loop_s() -> float:
    """A fixed pure-Python integer loop: the noise probe."""
    start = time.perf_counter()
    x = 0
    for i in range(REF_LOOP_N):
        x ^= i * i
    return time.perf_counter() - start


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine; steal is time a virtual
    CPU was runnable but the host ran something else."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    digest = hashlib.sha256()
    for path in sorted((SRC / "fabius").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_sample(env) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [PY, "-c", "import fabius.cli, time; print(time.monotonic())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import fabius.cli failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip()) - start


def import_times(env) -> tuple[float, float]:
    """(fabius.cli, numpy) cumulative import seconds, median over children."""
    totals, numpys = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [PY, "-X", "importtime", "-c", "import fabius.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        total = numpy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[1].strip().isdigit():
                continue  # header
            cumulative, name = int(fields[1]), fields[2]
            top_level = not name.startswith("  ")
            if top_level and name.strip().startswith("fabius"):
                total += cumulative
            if name.strip() == "numpy":
                numpy_us = cumulative
        totals.append(total / 1e6)
        numpys.append(numpy_us / 1e6)
    return statistics.median(totals), statistics.median(numpys)


def run_cli_op(argv, env, timeout):
    """Spawn one op; (seconds from spawn to exit, rc, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        rc = None
    return time.perf_counter() - start, rc, out, err


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_ABOVE samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def run_cli_workload(run, env, traced: bool, budget_s: float, tmp: Path):
    """Returns (times, errors, loop_s, peak_rss_kb, records); ``times`` has
    one entry per op sent, in order."""
    times, errors, outputs, records = [], {}, {}, []
    loop_start = time.perf_counter()
    for i, op in enumerate(run.ops):
        if time.perf_counter() - loop_start > budget_s:
            break
        if traced:
            spans = tmp / f"op{i}.json"
            argv = [PY, str(HERE / "traced_cli.py"), str(spans), str(i), "--", *op.argv]
        else:
            argv = [PY, "-m", "fabius.cli", *op.argv]
        elapsed, rc, out, err = run_cli_op(argv, env, run.op_timeout_s)
        times.append(elapsed)
        if rc is None:
            errors[i] = f"timed out after {run.op_timeout_s:.0f}s"
        else:
            outputs[i] = (rc, out, err)
        if traced and spans.is_file():
            records.append(json.loads(spans.read_text()))
    loop_s = time.perf_counter() - loop_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # the checks import fabius, so only now, after the timed loop
    sys.path.insert(0, str(SRC))
    from checks import CheckError, CliChecker

    check_start = time.perf_counter()
    checker = CliChecker(ROOT, random.Random(f"check:{run.workload}:{run.seed}"))
    # tables first: later checks reuse their verified rows and denominators
    order = sorted(outputs, key=lambda i: run.ops[i].argv[0] != "table")
    for i in order:
        try:
            checker.check(run.ops[i], *outputs[i])
        except CheckError as exc:
            errors[i] = str(exc)
    print(f"checks {time.perf_counter() - check_start:.2f}s")
    return times, errors, loop_s, peak_rss_kb, records


def run_session_workload(run, env, traced: bool, seconds: float, budget_s: float,
                         tiny: bool, tmp: Path):
    spans = tmp / "session.json"
    argv = [PY, str(HERE / "session.py"), "--seed", str(run.seed), "--seconds", repr(seconds),
            "--budget", repr(budget_s)]
    if tiny:
        argv.append("--tiny")
    if traced:
        argv += ["--spans", str(spans)]
    _, rc, out, err = run_cli_op(argv, env, budget_s + run.op_timeout_s + 60)
    if rc != 0:
        raise RuntimeError(f"session worker failed (rc={rc}): {err.strip()[-500:]}")
    result = json.loads(out.strip().splitlines()[-1])
    errors = {int(i): e for i, e in result["errors"].items()}
    print(f"checks {result['check_s']:.2f}s")
    records = [json.loads(spans.read_text())] if traced else []
    return result["times"], errors, result["loop_s"], result["peak_rss_kb"], records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    args = ap.parse_args(argv)

    if not (SRC / "fabius" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no fabius source checkout at {ROOT}", file=sys.stderr)
        return 2
    end_to_end, per_layer = _benchmark_metrics()
    env = _child_env()
    traced = args.trace == 1
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    tmp = OUT / f"tmp-{stem}-{os.getpid()}"
    tmp.mkdir()

    try:
        facts = machine_facts(args.seed)
        ticks_start = cpu_ticks()
        ref_start = ref_loop_s()
        # untimed warm-up: compiles .pyc so the first op is not charged for it
        _, rc, _, err = run_cli_op([PY, "-m", "fabius.cli", "eval", "1", "3"], env, 60)
        if rc != 0:
            raise RuntimeError(f"warm-up op failed (rc={rc}): {err.strip()[-300:]}")
        # set-up samples before and after the loop, so one slow moment of a
        # shared machine cannot set the median alone
        setups = [setup_sample(env) for _ in range(SETUP_SAMPLES // 2 + 1)]
        run = plan(args.workload, args.seed, args.seconds, args.tiny)
        budget = loop_budget_s(args.seconds)
        if args.workload == "session":
            times, errors, loop_s, rss_kb, records = run_session_workload(
                run, env, traced, args.seconds, budget, args.tiny, tmp)
        else:
            times, errors, loop_s, rss_kb, records = run_cli_workload(
                run, env, traced, budget, tmp)
        setups += [setup_sample(env) for _ in range(SETUP_SAMPLES // 2)]
        layer = None
        if traced:
            op_wall = sum(times)
            layer = tracer.summarize(records, op_wall, tracer.span_cost_s())
            layer["cli.import_s"], layer["cli.import_numpy_s"] = (
                (v, "s") for v in import_times(env))
        ref_end = ref_loop_s()
        ticks_end = cpu_ticks()
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(times)
    failed = len(errors)
    p50 = statistics.median(times)  # the first op is always sent
    tail_value, tail_pct = tail(times)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": ((attempted - failed) / loop_s, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "failed_ratio": (failed / attempted, "ratio"),
    }
    ref = (ref_start + ref_end) / 2
    steal = None
    if ticks_start and ticks_end and ticks_end[1] > ticks_start[1]:
        steal = (ticks_end[0] - ticks_start[0]) / (ticks_end[1] - ticks_start[1])
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(run.ops, times):
        by_kind.setdefault(op.kind, []).append(t)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  ops {attempted} of {len(run.ops)} in {run.rounds} rounds  loop {loop_s:.2f}s")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"machine.ref_loop_s start {ref_start:.4f}  end {ref_end:.4f}"
          f"  machine.steal_share {'n/a' if steal is None else f'{steal:.4f}'}")
    if traced:
        for name, (value, unit) in layer.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<44} {shown:>14} {unit}")
    else:
        for name, (value, unit) in e2e.items():
            note = ""
            if name == "op_tail_s":
                note = f"  (p{tail_pct:.1f}, n={len(times)}, {TAIL_ABOVE} samples above)"
            elif name == "setup_s":
                note = f"  (median of {SETUP_SAMPLES} fresh interpreters)"
            elif name == "failed_ratio":
                note = f"  ({failed}/{attempted})"
            print(f"  {name:<12} {value:>12.6g} {unit}{note}")
    for i, e in sorted(errors.items())[:10]:
        print(f"  FAILED op {i} {run.ops[i].kind} {' '.join(run.ops[i].argv)}: {e.strip()[:300]}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": facts,
        "machine.ref_loop_s": {"start": ref_start, "end": ref_end},
        "machine.steal_share": steal,
        "rounds": run.rounds,
        "attempted": attempted,
        "ops_cut": len(run.ops) - attempted,
        "failed": failed,
        "errors": {str(i): e for i, e in sorted(errors.items())},
        "loop_s": loop_s,
        "setup_samples_s": setups,
        "op_tail": {"percentile": tail_pct, "samples": len(times), "above": TAIL_ABOVE},
        "op_p50_s_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    if not traced:
        result["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        result["traced_op_p50_s"] = p50
        layer["machine.ref_loop_s"] = (ref, "s")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        span_file = OUT / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}-spans.json"
        with open(span_file, "w") as fh:
            json.dump({"span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "ops": [op.argv or op.params for op in run.ops], "processes": records},
                      fh, separators=(",", ":"))
        result["span_file"] = span_file.name
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    source = layer if traced else e2e
    wanted = per_layer if traced else end_to_end
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
