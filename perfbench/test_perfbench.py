"""Self-checks of the benchmark: ``python3 -m pytest perfbench`` from the root.

* The deterministic metrics of every workload (the three ratios,
  ``proved_frac``, conflict and propagation counts) repeat exactly across
  two fresh processes with the same seed and different hash seeds, on the
  reduced ``--smoke`` instance sets.
* A traced pass yields every per-layer metric ``BENCHMARK.json`` names.
* ``design.json`` documents every workload and metric.
* Span roll-up computes self time.
* The probe sampler takes probes while work runs, and unit times scale by
  probe time.
* Without the program the command fails and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from reference import NOMINAL_S, Sampler
from run import unit_wall
from spans import Tracer, rollup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke_pass(workload: str, seed: int, hash_seed: str, trace: int = 0) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat(workload):
    first = smoke_pass(workload, seed=7, hash_seed="1")
    second = smoke_pass(workload, seed=7, hash_seed="2")
    assert first["failures"] == [] and second["failures"] == []
    assert first["quality"] == second["quality"]
    assert first["counts"] == second["counts"]
    assert set(first["quality"]) == {"size_ratio", "depth_ratio", "area_ratio",
                                     "proved_frac"}


def test_traced_pass_reports_every_per_layer_metric():
    result = smoke_pass("cec", seed=7, hash_seed="0", trace=1)
    produced = set(result["per_layer"]) | {"trace.overhead_frac"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    names = {span["name"] for span in result["spans"]}
    assert {"unit", "generators", "opt.depth_opt", "rewriting",
            "runtime.verify.cec"} <= names
    assert result["per_layer"]["sat.cec_proved"] == 6  # 3 instances x 2 steps


def test_design_covers_every_workload_and_metric():
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    assert set(design["workloads"]) == set(WORKLOADS)
    assert set(design["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(design["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in design["per_layer"].items():
        for move in entry["moves"]:
            assert move["workload"] in WORKLOADS, name


def test_rollup_subtracts_children():
    tracer = Tracer("r", enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    table = rollup(tracer.spans)
    outer, inner = table["outer"], table["inner"]
    assert inner["count"] == 2
    assert inner["self_s"] == pytest.approx(inner["seconds"])
    assert outer["self_s"] == pytest.approx(outer["seconds"] - inner["seconds"])
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]


def test_disabled_tracer_keeps_no_spans():
    tracer = Tracer("r", enabled=False)
    with tracer.span("outer") as attrs:
        attrs["x"] = 1
    assert tracer.spans == []


def test_sampler_probes_during_work():
    sampler = Sampler()
    sampler.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        end = time.perf_counter()
    finally:
        sampler.stop()
    inside = [t for t, _ in sampler.samples if start <= t < end]
    assert len(inside) >= 3
    assert 0 < sampler.spent(start, end) < end - start
    assert sampler.reading(start, end) > 0


def test_unit_wall_scales_each_unit_by_its_probe_time():
    passes = [
        {"units": {"a": 2.0, "b": 1.0}, "reference": {"a": 2 * NOMINAL_S, "b": NOMINAL_S}},
        {"units": {"a": 1.0, "b": 1.0}, "reference": {"a": NOMINAL_S, "b": NOMINAL_S}},
        {"units": {"a": 1.2, "b": 3.0}, "reference": {"a": NOMINAL_S, "b": NOMINAL_S}},
    ]
    # scaled, a reads 1.0, 1.0, 1.2 and b 1.0, 1.0, 3.0: medians 1.0 + 1.0
    assert unit_wall(passes) == pytest.approx(2.0)
    assert unit_wall(passes, scaled=False) == pytest.approx(1.2 + 1.0)


def test_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
