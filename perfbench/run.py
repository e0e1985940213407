"""The repository benchmark: one command per workload, metrics on the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # all four, one after another

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and the
lines before it print the same metrics as a table (plus ``error_rate``).

How a run measures:

* Work is timed in *reference seconds* (``reference.py``): each pass
  process also times a probe of fixed pure-Python work every 0.1 s, and
  each unit of work is scaled by ``NOMINAL_S`` over the probe time around
  it, so that the host's own drift in speed cancels out (``batch``'s
  workers run unprobed, scaled by the probes of the rest of the pass).
  The raw wall seconds are printed next to the metrics.
* ``setup_s`` — the median, over ``SETUP_SAMPLES`` fresh interpreters, of
  the reference seconds ``import repro`` and ``NpnDatabase.load()`` take
  (one more untimed start fills the bytecode cache first); the probe runs
  inside each of those interpreters.
* The workload then runs in passes, each in a fresh process
  (``workloads.py``): at least ``MIN_PASSES``, then more for as long as
  another pass still fits in ``--seconds``.  Every pass of a run does the
  same work, because the seed fixes the inputs.  ``work_s`` sums,
  over the units of work a pass is made of, each unit's median time across
  the passes; ``peak_rss_mb`` is the median over passes.
* With ``--trace 1`` passes come in pairs, one untraced and one traced.
  The traced passes give the per-layer metrics (their medians, in wall
  seconds, probe time included) and their spans are written to
  ``perfbench/out/trace-<workload>-seed<seed>.jsonl``;
  ``trace.overhead_frac`` compares traced with untraced ``work_s``.

Every output is checked (see ``workloads.py``); any failed check, crashed
pass or timeout sets ``"correct": false`` and the exit status to 1.  Exit
status 2, with no result line, means the checkout holds no program to
measure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S
from spans import rollup, write_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5
#: one setup sample: the seconds `import repro` and NpnDatabase.load()
#: take in a fresh interpreter, less the probes taken meanwhile (every
#: SETUP_EVERY_S, ~10 per start), and the median time of those probes.  The probe's
#: module imports a few standard-library modules only (their import cost,
#: a few milliseconds, leaves the measurement) and sits last on sys.path,
#: so the program's own modules are found where they always are.
SETUP_EVERY_S = 0.02
SETUP_CODE = f"""
import json, sys, time
sys.path.append({str(HERE)!r})
from reference import Sampler
sampler = Sampler({SETUP_EVERY_S})
sampler.start()
start = time.perf_counter()
import repro
repro.NpnDatabase.load()
end = time.perf_counter()
sampler.stop()
print(json.dumps({{"seconds": end - start - sampler.spent(start, end),
                  "probe": sampler.reading(start, end)}}))
"""
#: every run measures at least this many passes, so each unit's median
#: has two samples even when one pass nearly fills --seconds
MIN_PASSES = 2
#: a pass that takes longer than this is killed and counted as failed; a
#: pass normally takes under 15 s, and setup plus MIN_PASSES timed-out
#: passes still end within three minutes
PASS_TIMEOUT = 75.0


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(samples: int) -> tuple[float, float]:
    """Median setup seconds, in reference seconds and in wall seconds.

    Each sample is one fresh interpreter running SETUP_CODE; one more,
    untimed, fills the bytecode cache first.
    """
    scaled, wall = [], []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=program_env(), capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import repro failed (exit {proc.returncode}): "
                               f"{proc.stderr.strip()[-500:]}")
        if i:
            result = json.loads(proc.stdout.splitlines()[-1])
            wall.append(result["seconds"])
            scaled.append(result["seconds"] * NOMINAL_S / result["probe"])
    return statistics.median(scaled), statistics.median(wall)


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """One pass in a fresh process; a crash or timeout becomes a failure."""
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced))]
    proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return crashed(f"pass timed out after {PASS_TIMEOUT:.0f} s")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return crashed(f"pass exited with status {proc.returncode}")
    return json.loads(lines[-1])


def crashed(reason: str) -> dict:
    return {"attempted": 1, "failed": 1, "failures": [reason]}


def unit_wall(passes: list[dict], scaled: bool = True) -> float:
    """Sum over units of each unit's median seconds across *passes*.

    *scaled* counts each unit in reference seconds (``reference.py``):
    its wall time times ``NOMINAL_S`` over the probe time around it.
    """
    per_unit: dict[str, list[float]] = {}
    for result in passes:
        for unit, seconds in result["units"].items():
            if scaled:
                seconds *= NOMINAL_S / result["reference"][unit]
            per_unit.setdefault(unit, []).append(seconds)
    return sum(statistics.median(times) for times in per_unit.values())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    setup_s, setup_wall_s = (None, None) if trace else measure_setup(SETUP_SAMPLES)
    deadline = time.perf_counter() + seconds
    passes: list[dict] = []
    while True:
        start = time.perf_counter()
        passes.append(run_pass(workload, seed, False))
        if trace:
            passes.append(run_pass(workload, seed, True))
        took = time.perf_counter() - start
        if any(r["failed"] for r in passes):
            break
        if len(passes) >= MIN_PASSES and time.perf_counter() + took > deadline:
            break
    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    failed = sum(r["failed"] for r in passes)
    if failed:
        return {"attempted": attempted, "failed": failed, "failures": failures,
                "metrics": {}}
    if trace:
        untraced = [r for r in passes if not r["traced"]]
        traced = [r for r in passes if r["traced"]]
        values = {
            name: statistics.median(r["per_layer"][name] for r in traced)
            for name in traced[0]["per_layer"]
        }
        values["trace.overhead_frac"] = unit_wall(traced) / unit_wall(untraced) - 1.0
        spans = [dict(s, run=f"{s['run']}-pass{i}")
                 for i, r in enumerate(traced) for s in r["spans"]]
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
        write_jsonl(spans, trace_path)
        metric_specs = spec["per_layer"]
        extra = {"trace": str(trace_path.relative_to(ROOT)),
                 "self_s": {name: row["self_s"] / len(traced)
                            for name, row in rollup(spans).items()}}
    else:
        first = passes[0]
        values = dict(first["quality"])
        values.update(setup_s=setup_s, wall_s=unit_wall(passes, scaled=False),
                      work_s=unit_wall(passes),
                      peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in passes))
        metric_specs = spec["end_to_end"]
        extra = {"context": {"wall_s": values["wall_s"],
                             "setup_wall_s": setup_wall_s}}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    return {"attempted": attempted, "failed": 0, "failures": [],
            "metrics": metrics, "passes": len(passes), **extra}


def print_report(workload: str, result: dict) -> None:
    error_rate = result["failed"] / result["attempted"]
    print(f"[{workload}] {result['attempted']} operations checked, "
          f"{result['failed']} failed (error_rate {error_rate:.4f})"
          + (f", {result['passes']} passes" if "passes" in result else ""))
    for failure in result["failures"][:20]:
        print(f"  FAIL {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result.get("context", {}).items():
        print(f"  ({name:26s} {value:>14.6g} s, not a metric)")
    if "self_s" in result:
        print(f"  self time per span and pass ({result['trace']}):")
        for name, seconds in sorted(result["self_s"].items(),
                                    key=lambda item: -item[1]):
            print(f"    {name:26s} {seconds:>12.4f} s")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        results[workload] = run_workload(workload, args.seed, args.seconds,
                                         bool(args.trace), spec)
        print_report(workload, results[workload])
    if args.workload == "all":
        metrics = {f"{w}.{name}": metric for w, r in results.items()
                   for name, metric in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
