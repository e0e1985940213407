"""One pass of a benchmark workload, run in a fresh process.

``run.py`` starts this script once per pass with ``src`` on ``PYTHONPATH``::

    python3 perfbench/workloads.py --workload table3 --seed 1 --trace 0

It prints one JSON object as its last line of standard output:

* ``units`` — seconds per unit of work (an instance, an NPN class, the
  batch), timed around the calls into ``repro`` only;
* ``reference`` — per unit, the seconds the fixed probe of
  ``reference.py`` took while the unit ran (``units`` leaves out the
  probes' own time);
* ``quality`` — the deterministic figures of the outputs (size, depth and
  area ratios, share of checks that ended in a proof);
* ``counts`` — deterministic solver counters (conflicts, propagations);
* ``attempted`` / ``failed`` / ``failures`` — operations checked, how many
  of them failed, and what went wrong;
* ``peak_rss_mb`` — peak resident set of this process and its children;
* with ``--trace 1``: ``spans`` and the ``per_layer`` metrics built from
  them and from the counters the calls return.

Every output is checked after its unit's timer stops, so checking never
counts as work.  ``--smoke`` runs a reduced instance set for the
determinism test.  Why each workload holds what it holds is in
``design.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro import Budget, NpnDatabase, functional_hashing, map_mig, optimize_depth
from repro import synthesize_exact, verify_rewrite
from repro.core.simulate import equivalent_exhaustive, equivalent_random
from repro.generators import GENERATORS, layered_mig, resolve_generator
from repro.io.blif import read_blif
from repro.runtime.jobs import JobSpec
from repro.runtime.metrics import PassMetrics
from repro.runtime.supervisor import run_batch
from repro.runtime.verify import EXHAUSTIVE_PI_LIMIT

from reference import Sampler
from spans import Tracer, rollup

OUT_DIR = Path(__file__).resolve().parent / "out"

# -- table3: the paper's Table III/IV experiment -----------------------------
#: the 8 arithmetic instances at the registry's scaled widths
TABLE3_INSTANCES = ("adder", "divisor", "log2", "max", "multiplier", "sine",
                    "square-root", "square")
TABLE3_VARIANTS = ("TF", "T", "TFD", "TD", "BF")
#: the seeded random instance joined to the suite: 8 full layers, so every
#: seed's outputs (the last layer) are a full layer and its size stays stable
LAYERED_GATES = 4096
LAYERED_WIDTH = 512
LAYERED_POS = 512

# -- cec: large miters through the SAT core ----------------------------------
#: (generator, width) — every instance has more than 14 PIs, so
#: verify_rewrite builds a SAT miter instead of simulating exhaustively
CEC_INSTANCES = (("adder", 32), ("arbiter", 16), ("priority", 16),
                 ("voter", 15), ("router", None), ("multiplier", 8),
                 ("square-root", 10), ("max", 24), ("multiplier", 12),
                 ("divisor", 12))
#: per-check conflict cap, a constant of the workload
CEC_CONFLICTS = 500

# -- exact: many small synthesis proofs ---------------------------------------
#: the 24 proven size-4 NPN classes whose representative the solver proves
#: in the fewest conflicts (131-1125), in order of conflicts; the other 18
#: take up to 8.4k conflicts and 5.5 s each, and drawing from them made the
#: workload's time depend on the seed far more than on the code
EXACT_POOL = (0x018F, 0x01AF, 0x016F, 0x03C3, 0x018B, 0x01AB, 0x013D, 0x0119,
              0x03FC, 0x0169, 0x007E, 0x036F, 0x06F6, 0x003D, 0x01EF, 0x1697,
              0x03D7, 0x033C, 0x03C0, 0x18E7, 0x0019, 0x0069, 0x019B, 0x0016)
#: the draw is stratified: 2 classes from each run of 3 neighbours in
#: EXACT_POOL, so every seed's 16 classes cost about the same
EXACT_STRATUM = 3
EXACT_PER_STRATUM = 2
#: the size-5 class whose k=4 UNSAT proof is the workload's deep SAT call
EXACT_DEEP = 0x01FE
EXACT_CONFLICTS = 100_000

# -- batch: the supervised job runtime ----------------------------------------
#: registry generator i (sorted by name) runs scripts i % 3 and (i + 1) % 3
BATCH_SCRIPTS = (("BF",), ("depth", "TFD"), ("depth", "BF", "TFD", "BF"))
BATCH_WORKERS = 2
#: the rewrite steps of the scripts (everything else is the depth step)
REWRITE_STEPS = frozenset({"BF", "TFD"})


#: the fewest probes a pass ends with
MIN_PROBES = 5

#: the value a workload reports for a ratio it does not measure: every
#: workload prints every end-to-end metric, and 1.0 is "no change"
NOT_MEASURED = 1.0


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Pass:
    """What one pass measured: unit timings, checks, counters, spans."""

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.tracer = Tracer(f"{workload}-seed{seed}", traced)
        self.units: dict[str, float] = {}
        #: seconds the reference probe took around each unit (reference.py)
        self.reference: dict[str, float] = {}
        self.sampler = Sampler()
        self._spans: dict[str, tuple[float, float]] = {}
        self._unprobed: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: hot-path counters merged over every rewriting call
        self.metrics = PassMetrics()
        #: per-layer values that come from return values, not spans
        self.layers: dict[str, float] = {}

    @contextmanager
    def unit(self, name: str, probed: bool = True):
        """Time one unit of work; :meth:`run` takes the probes' time out.

        An unprobed unit pauses the sampler and is scaled by the median
        probe of the rest of the pass instead.
        """
        if not probed:
            self.sampler.stop()
            self._unprobed.add(name)
        start = time.perf_counter()
        with self.tracer.span("unit", unit=name):
            yield
        end = time.perf_counter()
        if not probed:
            self.sampler.start()
        self.units[name] = end - start
        self._spans[name] = (start, end)

    def run(self, workload, *args) -> None:
        """Run *workload* with the probe sampler on, then settle its units."""
        self.sampler.start()
        try:
            workload(self, *args)
        finally:
            self.sampler.stop()
        # a pass too short to probe (the --smoke batch) still gets readings
        while len(self.sampler.samples) < MIN_PROBES:
            self.sampler.probe()
        whole = (-math.inf, math.inf)
        for name, (start, end) in self._spans.items():
            self.units[name] -= self.sampler.spent(start, end)
            self.reference[name] = self.sampler.reading(
                *(whole if name in self._unprobed else (start, end)))

    def outcome(self, what: str, problems: list[str]) -> None:
        """Count one checked operation; any *problems* make it a failure."""
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{what}: {problem}" for problem in problems)


def structure_problems(mig) -> list[str]:
    try:
        mig.check()
    except ValueError as err:
        return [f"check() failed: {err}"]
    return []


def table3(p: Pass, db: NpnDatabase, seed: int, smoke: bool) -> None:
    """Baseline + five paper variants per instance, sim-verified, mapped."""
    names = ("adder", "multiplier") if smoke else TABLE3_INSTANCES
    gates = 300 if smoke else LAYERED_GATES
    size_ratios, depth_ratios, area_ratios = [], [], []
    proved = 0
    for name in (*names, "layered"):
        results = {}
        with p.unit(name):
            with p.tracer.span("generators"):
                if name == "layered":
                    mig = layered_mig(gates, width=LAYERED_WIDTH,
                                      num_pos=LAYERED_POS, seed=seed)
                else:
                    mig = resolve_generator(name)
            with p.tracer.span("opt.depth_opt"):
                base = optimize_depth(mig, rounds=2)
            for variant in TABLE3_VARIANTS:
                metrics = PassMetrics(variant=variant)
                with p.tracer.span("rewriting", variant=variant):
                    out = functional_hashing(base, db, variant, metrics=metrics)
                with p.tracer.span("runtime.verify.sim") as attrs:
                    report = verify_rewrite(base, out, mode="sim")
                    attrs["method"] = report.method
                results[variant] = (out, report, metrics)
            with p.tracer.span("mapping"):
                base_area = map_mig(base).area
                bf_area = map_mig(results["BF"][0]).area
        area_ratios.append(bf_area / base_area)
        for variant, (out, report, metrics) in results.items():
            problems = structure_problems(out)
            if report.equivalent is False:
                problems.append("refuted by simulation")
            p.outcome(f"{name}/{variant}", problems)
            proved += report.equivalent is True
            size_ratios.append(out.num_gates / base.num_gates)
            depth_ratios.append(out.depth() / base.depth())
            p.metrics.merge(metrics)
    p.quality = {
        "size_ratio": geomean(size_ratios),
        "depth_ratio": geomean(depth_ratios),
        "area_ratio": geomean(area_ratios),
        "proved_frac": proved / len(size_ratios),
    }


def cec(p: Pass, db: NpnDatabase, seed: int, smoke: bool) -> None:
    """Steps depth then BF per instance; each step proved by a SAT miter.

    Verdicts come from ``VerificationReport.equivalent`` (True proved,
    None unproven at the cap, False refuted), never from a flow's
    ``verified`` label.
    """
    instances = CEC_INSTANCES[1:4] if smoke else CEC_INSTANCES
    verdicts = {True: 0, None: 0, False: 0}
    conflicts = 0
    size_ratios, depth_ratios = [], []
    for name, width in instances:
        label = f"{name}{width or ''}"
        with p.unit(label):
            with p.tracer.span("generators"):
                mig = resolve_generator(name, width=width)
            with p.tracer.span("opt.depth_opt"):
                depth = optimize_depth(mig)
            metrics = PassMetrics(variant="BF")
            with p.tracer.span("rewriting", variant="BF"):
                final = functional_hashing(depth, db, "BF", metrics=metrics)
            checks = []
            for step, before, after in (("depth", mig, depth), ("BF", depth, final)):
                with p.tracer.span("runtime.verify.cec", step=step) as attrs:
                    report = verify_rewrite(
                        before, after, mode="cec",
                        budget=Budget.from_limits(conflict_limit=CEC_CONFLICTS),
                    )
                    attrs.update(equivalent=report.equivalent,
                                 conflicts=report.conflicts)
                checks.append((step, before, after, report))
        p.metrics.merge(metrics)
        size_ratios.append(final.num_gates / mig.num_gates)
        depth_ratios.append(final.depth() / mig.depth())
        for step, before, after, report in checks:
            problems = structure_problems(after)
            if report.method != "cec":
                problems.append(f"checked by {report.method}, not by a miter")
            if report.equivalent is False:
                problems.append("refuted by CEC")
            elif report.equivalent is True and not equivalent_random(
                before, after, num_rounds=32, seed=seed + 1
            ):
                problems.append("proved by CEC but refuted by simulation")
            p.outcome(f"{label}/{step}", problems)
            verdicts[report.equivalent] += 1
            conflicts += report.conflicts
    p.quality = {
        "size_ratio": geomean(size_ratios),
        "depth_ratio": geomean(depth_ratios),
        "area_ratio": NOT_MEASURED,
        "proved_frac": verdicts[True] / sum(verdicts.values()),
    }
    p.counts["sat.cec_conflicts"] = conflicts
    p.layers.update({
        "sat.cec_proved": verdicts[True],
        "sat.cec_unproven": verdicts[None],
        "sat.cec_refuted": verdicts[False],
    })


def exact(p: Pass, db: NpnDatabase, seed: int, smoke: bool) -> None:
    """Exact synthesis of a seeded class draw plus one deep UNSAT proof."""
    rng = random.Random(seed)
    strata = EXACT_POOL[:2 * EXACT_STRATUM] if smoke else EXACT_POOL
    specs = []
    for i in range(0, len(strata), EXACT_STRATUM):
        specs.extend(rng.sample(strata[i:i + EXACT_STRATUM], EXACT_PER_STRATUM))
    if not smoke:
        specs.append(EXACT_DEEP)
    results = []
    for spec in specs:
        with p.unit(f"0x{spec:04x}"):
            with p.tracer.span("exact", spec=f"0x{spec:04x}") as attrs:
                result = synthesize_exact(spec, 4, conflict_budget=EXACT_CONFLICTS)
                attrs.update(conflicts=result.conflicts,
                             propagations=result.propagations)
        results.append((spec, result))
    size_ratios = []
    proved = conflicts = propagations = 0
    for spec, result in results:
        entry = db.lookup(spec)[0]
        problems = []
        if result.mig is None:
            problems.append("no MIG")
        else:
            problems.extend(structure_problems(result.mig))
            if result.mig.simulate()[0] != spec:
                problems.append("MIG does not compute the spec")
            if result.size != entry.size:
                problems.append(f"size {result.size}, database proves {entry.size}")
            size_ratios.append(result.size / entry.size)
        p.outcome(f"0x{spec:04x}", problems)
        proved += result.proven
        conflicts += result.conflicts
        propagations += result.propagations
    p.quality = {
        "size_ratio": geomean(size_ratios),
        "depth_ratio": NOT_MEASURED,
        "area_ratio": NOT_MEASURED,
        "proved_frac": proved / len(results),
    }
    p.counts.update({"exact.conflicts": conflicts,
                     "exact.propagations": propagations})


def batch(p: Pass, db: NpnDatabase, seed: int, smoke: bool) -> None:
    """Two scripts per registry generator as supervised jobs, two workers."""
    names = sorted(GENERATORS)[:2] if smoke else sorted(GENERATORS)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="batch-", dir=OUT_DIR))
    try:
        specs = []
        for i, name in enumerate(names):
            for k in (i % 3, (i + 1) % 3):
                specs.append(JobSpec(
                    job_id=f"{name}.{k}", network={"generate": name},
                    script=BATCH_SCRIPTS[k], verify="sim",
                    output=str(workdir / "outputs" / f"{name}.{k}.blif"),
                ))
        random.Random(seed).shuffle(specs)
        # unprobed: the workers keep both vCPUs busy, so a probe beside them
        # reads mostly their load (it spread batch's time 0.22 of its median
        # over ten seeds); the ~10 probes of the rest of the pass, taken
        # during the output checks, scale it instead
        with p.unit("run_batch", probed=False):
            with p.tracer.span("runtime.supervisor", jobs=len(specs)):
                report = run_batch(specs, workdir / "batch",
                                   num_workers=BATCH_WORKERS)
        batch_checks(p, report, workdir, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def batch_checks(p: Pass, report, workdir: Path, seed: int) -> None:
    size_ratios, depth_ratios, job_seconds = [], [], []
    steps = exhaustive = 0
    step_seconds = {"rewriting": [], "depth": []}
    sources = {}
    for job in report.jobs:
        job_id = job["job_id"]
        problems = []
        if job["state"] != "done":
            problems.append(f"job {job['state']}: {job.get('error')}")
        elif job["attempts"] != 1:
            problems.append(f"needed {job['attempts']} attempts")
        else:
            with open(workdir / "outputs" / f"{job_id}.blif", encoding="utf-8") as fp:
                out = read_blif(fp)
            problems.extend(structure_problems(out))
            name = job_id.rpartition(".")[0]
            if name not in sources:
                sources[name] = resolve_generator(name)
            source = sources[name]
            if source.num_pis <= EXHAUSTIVE_PI_LIMIT:
                same = equivalent_exhaustive(source, out)
            else:
                same = equivalent_random(source, out, num_rounds=32, seed=seed + 1)
            if not same:
                problems.append("output BLIF differs from its input")
            size_ratios.append(job["size_after"] / job["size_before"])
            depth_ratios.append(job["depth_after"] / job["depth_before"])
            job_seconds.append(job["runtime"])
            for step in job["steps"]:
                steps += 1
                exhaustive += step["verified"] == "exhaustive"
                kind = "rewriting" if step["step"] in REWRITE_STEPS else "depth"
                step_seconds[kind].append(step["runtime"])
        p.outcome(job_id, problems)
    p.metrics.merge(report.metrics)
    p.quality = {
        "size_ratio": geomean(size_ratios),
        "depth_ratio": geomean(depth_ratios),
        "area_ratio": NOT_MEASURED,
        "proved_frac": exhaustive / steps,
    }
    work = sum(job_seconds)
    p.layers.update({
        "rewriting.s": sum(step_seconds["rewriting"]),
        "rewriting.pass_p50_s": median(step_seconds["rewriting"]),
        "opt.depth_s": sum(step_seconds["depth"]),
        "runtime.job_work_s": work,
        "runtime.job_p50_s": median(job_seconds),
        "runtime.overhead_frac": 1.0 - work / (report.wall_seconds * BATCH_WORKERS),
        "runtime.retries": report.retries,
        "runtime.quarantined": report.quarantined,
    })


WORKLOADS = {"table3": table3, "cec": cec, "exact": exact, "batch": batch}


def per_layer(p: Pass) -> dict[str, float]:
    """Per-layer metrics of a traced pass: span self times plus counters."""
    table = rollup(p.tracer.spans)

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in p.tracer.spans if s["name"] == name]

    m = p.metrics
    phases = m.phase_seconds
    cec_s = self_s("runtime.verify.cec")
    exact_s = self_s("exact")
    cec_conflicts = p.counts.get("sat.cec_conflicts", 0)
    exact_conflicts = p.counts.get("exact.conflicts", 0)
    exact_props = p.counts.get("exact.propagations", 0)
    exact_calls = durations("exact")
    layers = {
        "core.cuts.enumerate_s": phases.get("enumerate", 0.0),
        "core.cuts.enumerated": m.cuts_enumerated,
        "core.npn.batch_s": phases.get("batch", 0.0),
        "core.npn.batch_lookups": m.batch_npn_lookups,
        "core.npn.cache_hit_rate": m.npn_cache_hit_rate,
        "database.hit_rate": m.db_hit_rate,
        "rewriting.s": self_s("rewriting"),
        "rewriting.pass_p50_s": median(durations("rewriting")),
        "rewriting.rewrite_s": phases.get("rewrite", 0.0),
        "rewriting.cleanup_s": phases.get("cleanup", 0.0),
        "rewriting.admit_rate": (m.cuts_admitted / m.cuts_considered
                                 if m.cuts_considered else 0.0),
        "rewriting.nodes_rebuilt": m.nodes_rebuilt,
        "opt.depth_s": self_s("opt.depth_opt"),
        "verify.sim_s": self_s("runtime.verify.sim"),
        "verify.cec_s": cec_s,
        "verify.cec_check_p50_s": median(durations("runtime.verify.cec")),
        "sat.cec_conflicts": cec_conflicts,
        "sat.cec_conflicts_per_s": cec_conflicts / cec_s if cec_s else 0.0,
        "sat.cec_proved": 0,
        "sat.cec_unproven": 0,
        "sat.cec_refuted": 0,
        "exact.s": exact_s,
        "exact.class_p50_s": median(exact_calls),
        "exact.class_max_s": max(exact_calls, default=0.0),
        "exact.conflicts": exact_conflicts,
        "exact.propagations": exact_props,
        "exact.conflicts_per_s": exact_conflicts / exact_s if exact_s else 0.0,
        "exact.propagations_per_s": exact_props / exact_s if exact_s else 0.0,
        "mapping.s": self_s("mapping"),
        "runtime.job_work_s": 0.0,
        "runtime.job_p50_s": 0.0,
        "runtime.overhead_frac": 0.0,
        "runtime.retries": 0,
        "runtime.quarantined": 0,
    }
    # batch work runs inside workers, where no benchmark span reaches:
    # its rewriting and depth times come from the job results instead
    layers.update(p.layers)
    return layers


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for (Linux: KiB)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def run_pass(workload: str, seed: int, traced: bool, smoke: bool = False) -> dict:
    p = Pass(workload, seed, traced)
    db = NpnDatabase.load()
    p.run(WORKLOADS[workload], db, seed, smoke)
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "units": p.units,
        "reference": p.reference,
        "quality": p.quality,
        "counts": p.counts,
        "attempted": p.attempted,
        "failed": p.failed,
        "failures": p.failures,
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced:
        result["per_layer"] = per_layer(p)
        result["spans"] = p.tracer.spans
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced instance set (determinism test)")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.smoke)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
