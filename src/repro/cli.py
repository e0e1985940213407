"""Command-line interface: generate / read, optimize, map, and report.

Modeled on the CirKit-style flows the paper's implementation shipped in::

    migopt stats --generate adder --width 16
    migopt optimize --generate multiplier --width 8 --variant BF --verify
    migopt optimize --blif circuit.blif --variant TFD -o out.blif
    migopt map --generate sine --width 10 --variant BF
    migopt exact --tt 0x1668
    migopt flow --generate log2 --width 10 --script depth,BF,TFD,BF
"""

from __future__ import annotations

import argparse
import sys
import time

from .core.mig import Mig
from .database import NpnDatabase
from .exact.synthesis import synthesize_exact
from .generators import CONTROL_SPECS, GENERATORS, resolve_generator
from .generators.epfl import SUITE_SPECS
from .io.bench import read_bench, write_bench
from .io.blif import read_blif, write_blif
from .io.verilog import write_verilog
from .mapping.mapper import map_mig
from .opt.depth_opt import optimize_depth
from .rewriting.engine import VARIANTS, functional_hashing
from .runtime.verify import verify_rewrite

__all__ = ["main"]


def _load_network(args: argparse.Namespace) -> Mig:
    if args.generate is not None:
        try:
            return resolve_generator(args.generate, width=args.width)
        except ValueError as exc:
            raise SystemExit(str(exc))
    if args.blif is not None:
        with open(args.blif, "r", encoding="utf-8") as fp:
            return read_blif(fp)
    if getattr(args, "bench", None) is not None:
        with open(args.bench, "r", encoding="utf-8") as fp:
            return read_bench(fp)
    raise SystemExit("specify a circuit with --generate NAME, --blif FILE, or --bench FILE")


def _write_network(mig: Mig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        if path.endswith(".v"):
            write_verilog(mig, fp)
        elif path.endswith(".bench"):
            write_bench(mig, fp)
        else:
            write_blif(mig, fp)


def _dump_metrics(path: str, payload: dict) -> None:
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
        print(f"metrics written to {path}")


def _print_equivalence(before: Mig, after: Mig, unproven: int) -> bool:
    """Print the final equivalence line; returns False on a refutation.

    ``OK`` only for a proof: exhaustive simulation of a narrow network,
    or no *unproven* step between *before* and *after*.  A wide network
    that sampling does not refute is reported with its unproven steps.
    """
    report = verify_rewrite(before, after, mode="sim")
    if report.refuted:
        print("equivalence: FAILED")
        return False
    if report.equivalent or unproven == 0:
        print("equivalence: OK")
    else:
        steps = "step" if unproven == 1 else "steps"
        print(f"equivalence: not refuted (sampled; {unproven} {steps} unproven)")
    return True


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--generate", help=f"built-in generator: {sorted(GENERATORS)}")
    parser.add_argument("--width", type=int, help="generator bit-width override")
    parser.add_argument("--blif", help="read the circuit from a BLIF file")
    parser.add_argument("--bench", help="read the circuit from an ISCAS .bench file")


def _add_cut_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cut-size", type=int, default=None, choices=[4, 5, 6],
        help="cut width for functional-hashing steps (default: 4, the "
        "precomputed NPN database); 5 or 6 synthesizes entries on demand "
        "into a DynamicDatabase",
    )
    parser.add_argument(
        "--npn-store", metavar="PATH", default=None,
        help="persistent NPN-5/6 store backing --cut-size 5/6: created on "
        "first use, crash-safe, shared across runs so later lookups skip "
        "synthesis (ignored at cut size 4)",
    )


def _resolve_db(args: argparse.Namespace):
    """NPN database (+ optional persistent store) for a CLI command.

    Returns ``(db, store)`` — the store is non-None only for the
    large-cut tiers, and the caller closes it when done.
    """
    cut_size = getattr(args, "cut_size", None)
    if cut_size is not None and cut_size != 4:
        from .rewriting.dynamic_db import DynamicDatabase

        db = DynamicDatabase(num_vars=cut_size, store=args.npn_store)
        return db, db.store
    if getattr(args, "npn_store", None):
        raise SystemExit("--npn-store needs --cut-size 5 or 6")
    return NpnDatabase.load(args.db), None


def _add_sat_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sat-backend", default="internal",
        choices=["auto", "internal", "portfolio"],
        help="SAT solver lanes: 'internal' is the deterministic in-process "
        "CDCL solver; 'portfolio' races it against external kissat/CaDiCaL "
        "binaries ($REPRO_SAT_SOLVERS overrides discovery) and degrades to "
        "internal-only when none exist; 'auto' races only when a binary is "
        "found (default: internal)",
    )


def _batch_specs(args: argparse.Namespace) -> list:
    """Build the job list for ``migopt batch`` (deterministic job ids)."""
    from pathlib import Path

    from .runtime.jobs import JobSpec

    script = tuple(step for step in args.script.split(",") if step)
    networks: list[tuple[str, dict]] = []
    if args.generate:
        if args.generate == "suite":
            names = sorted(SUITE_SPECS)
        elif args.generate == "control":
            names = sorted(CONTROL_SPECS)
        elif args.generate == "all":
            names = sorted(GENERATORS)
        else:
            names = [n for n in args.generate.split(",") if n]
        for name in names:
            if name not in GENERATORS:
                raise SystemExit(
                    f"unknown generator {name!r}; choose from {sorted(GENERATORS)}"
                )
            network = {"generate": name}
            if args.width is not None:
                network["width"] = args.width
            slug = name if args.width is None else f"{name}-w{args.width}"
            networks.append((slug, network))
    for path in args.blif:
        networks.append((Path(path).stem, {"blif": str(Path(path).resolve())}))
    for path in args.bench:
        networks.append((Path(path).stem, {"bench": str(Path(path).resolve())}))
    if getattr(args, "shard", False):
        if networks:
            raise SystemExit(
                "--shard takes its job list from the pre-submitted journal; "
                "drop --generate/--blif/--bench"
            )
        return []
    if not networks and not args.resume:
        raise SystemExit(
            "specify circuits with --generate NAMES, --blif FILE, or "
            "--bench FILE (or --resume an existing batch)"
        )

    npn_store = None
    if args.cut_size is not None and args.cut_size != 4:
        if args.npn_store is not None:
            # Workers run in their own processes; hand them one absolute
            # path so every job appends to the same store.
            npn_store = str(Path(args.npn_store).resolve())
    elif args.npn_store:
        raise SystemExit("--npn-store needs --cut-size 5 or 6")

    outputs_dir = Path(args.workdir) / "outputs"
    specs = []
    seen: dict[str, int] = {}
    for slug, network in networks:
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        job_id = slug if count == 0 else f"{slug}.{count}"
        specs.append(
            JobSpec(
                job_id=job_id,
                network=network,
                script=script,
                verify=args.verify,
                sat_backend=args.sat_backend,
                time_limit=args.time_limit,
                conflict_limit=args.conflict_limit,
                cut_size=args.cut_size,
                npn_store=npn_store,
                mem_limit_mb=args.mem_limit,
                output=None if args.no_outputs else str(outputs_dir / f"{job_id}.blif"),
            )
        )
    return specs


def _run_batch_command(args: argparse.Namespace) -> int:
    import signal

    from .runtime import faults
    from .runtime.supervisor import Supervisor

    # The supervisor may itself have been launched with REPRO_FAULTS set
    # (the chaos smoke test does exactly that): arm them so spawn-time
    # probes and the worker handshake see them.
    faults.arm_from_env()

    specs = _batch_specs(args)
    supervisor = Supervisor(
        args.workdir,
        num_workers=args.jobs,
        grace=args.grace,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff,
        verbose=True,
    )

    # Ctrl-C / SIGTERM drain instead of tearing down: the scheduling loop
    # stops launching, SIGTERMs live workers (SIGKILL after --grace), and
    # journals every unfinished job resumable — `--resume` continues it.
    def _drain_signal(signum, frame):  # noqa: ARG001 - signal API
        if supervisor.shutdown_requested:
            # Second signal: the user really wants out now.
            raise KeyboardInterrupt
        print(f"\nbatch: caught {signal.Signals(signum).name}, draining "
              "(signal again to abort hard)...", flush=True)
        supervisor.request_shutdown()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _drain_signal)
        except (ValueError, OSError):
            pass
    try:
        report = supervisor.run(
            specs, resume=args.resume or getattr(args, "shard", False)
        )
    except FileExistsError as exc:
        raise SystemExit(str(exc))
    finally:
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
    print(
        f"batch: {report.done}/{report.total} done, "
        f"{report.quarantined} quarantined, {report.retries} retries, "
        f"{report.adopted} adopted, {report.workers_used} workers used, "
        f"{report.wall_seconds:.2f}s"
        + (" [interrupted]" if report.interrupted else "")
    )
    for summary in report.jobs:
        line = f"  {summary['job_id']:24} {summary['state']}"
        if "size_before" in summary:
            line += f"  {summary['size_before']} -> {summary.get('size_after')}"
        if summary.get("degradations"):
            line += f"  [degraded: {', '.join(summary['degradations'])}]"
        if summary["state"] == "quarantined":
            line += f"  ({summary.get('error', 'unknown error')})"
        print(line)
    if args.report:
        _dump_metrics(args.report, report.to_dict())
    print(f"journal: {supervisor.journal_path}")
    if report.interrupted:
        print(f"interrupted: resume with "
              f"migopt batch --workdir {args.workdir} --resume")
        return 130
    return 0 if report.quarantined == 0 and report.done == report.total else 1


def _run_sweep_command(args: argparse.Namespace) -> int:
    import json
    import signal

    from .runtime.executors import parse_hosts
    from .runtime.sweep import SweepConflictError, SweepSpec, run_sweep

    spec = None
    if args.spec:
        if args.spec == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.spec, "r", encoding="utf-8") as fp:
                data = json.load(fp)
        try:
            spec = SweepSpec.from_dict(data)
        except ValueError as exc:
            raise SystemExit(f"bad sweep spec: {exc}")
    elif not args.resume:
        raise SystemExit("specify a sweep with --spec FILE (or --resume an "
                         "existing sweep workdir)")

    shutdown = {"requested": False}

    def _drain_signal(signum, frame):  # noqa: ARG001 - signal API
        if shutdown["requested"]:
            raise KeyboardInterrupt
        print(f"\nsweep: caught {signal.Signals(signum).name}, draining "
              "shards (signal again to abort hard)...", flush=True)
        shutdown["requested"] = True

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _drain_signal)
        except (ValueError, OSError):
            pass
    try:
        run = run_sweep(
            args.workdir,
            spec=spec,
            hosts=parse_hosts(default_shards=args.shards),
            shards=args.shards,
            jobs_per_shard=args.jobs_per_shard,
            resume=args.resume,
            grace=args.grace,
            max_attempts=args.max_attempts,
            backoff_base=args.backoff,
            shard_attempts=args.shard_attempts,
            matrix_path=args.matrix,
            shutdown_check=lambda: shutdown["requested"],
            verbose=True,
        )
    except (FileExistsError, ValueError) as exc:
        raise SystemExit(str(exc))
    except SweepConflictError as exc:
        raise SystemExit(f"sweep merge conflict: {exc}")
    finally:
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass

    report = run.report
    print(
        f"sweep: {report.done}/{report.total} done, "
        f"{report.quarantined} quarantined, {report.adopted} adopted, "
        f"{len(report.shards)} shards"
        + (" [interrupted]" if report.interrupted else "")
    )
    for name in sorted(report.shards):
        shard = report.shards[name]
        print(f"  shard {name:12} {shard['done']}/{shard['total']} done, "
              f"{shard['quarantined']} quarantined, "
              f"{shard['adopted']} adopted")
    for summary in report.jobs:
        if summary["state"] != "done":
            print(f"  {summary['job_id']:40} {summary['state']}"
                  + (f"  ({summary.get('error', 'unknown error')})"
                     if summary["state"] == "quarantined" else ""))
    if run.matrix_path is not None:
        print(f"matrix: {run.published_rows} trend rows -> {run.matrix_path}")
    if args.report:
        _dump_metrics(args.report, report.to_dict())
    if report.interrupted:
        print(f"interrupted: resume with "
              f"migopt sweep --workdir {args.workdir} --resume")
        return 130
    return 0 if report.quarantined == 0 and report.done == report.total else 1


def _run_serve_command(args: argparse.Namespace) -> int:
    from .runtime.serve import run_server

    return run_server(
        args.workdir,
        host=args.host,
        port=args.port,
        num_workers=args.jobs,
        queue_limit=args.queue_limit,
        cache_max_bytes=args.cache_max_bytes,
        max_attempts=args.max_attempts,
        grace=args.grace,
        default_time_limit=args.time_limit,
        default_verify=args.verify,
        mem_limit_mb=args.mem_limit,
        default_cut_size=args.cut_size,
        npn_store=args.npn_store,
        drain_grace=args.drain_grace,
        verbose=args.verbose,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="migopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print size/depth of a circuit")
    _add_input_args(p_stats)

    p_opt = sub.add_parser("optimize", help="functional hashing size optimization")
    _add_input_args(p_opt)
    p_opt.add_argument("--variant", default="BF", choices=VARIANTS)
    p_opt.add_argument("--depth-opt", action="store_true",
                       help="run algebraic depth optimization first (paper baseline)")
    p_opt.add_argument("--verify", action="store_true",
                       help="check functional equivalence after optimization")
    p_opt.add_argument("-o", "--output", help="write the result (BLIF, or .v Verilog)")
    p_opt.add_argument("--db", help="path to an alternative NPN database")
    _add_cut_args(p_opt)
    p_opt.add_argument(
        "--metrics", metavar="PATH",
        help="dump hot-path pass metrics (counters, cache rates, phase "
        "times) as JSON to PATH ('-' for stdout)",
    )

    p_map = sub.add_parser("map", help="optimize then technology-map")
    _add_input_args(p_map)
    p_map.add_argument("--variant", default=None, choices=VARIANTS,
                       help="functional hashing variant (default: map unoptimized)")
    p_map.add_argument("--db", help="path to an alternative NPN database")

    p_flow = sub.add_parser("flow", help="run a scripted optimization flow")
    _add_input_args(p_flow)
    p_flow.add_argument(
        "--script", default="depth,BF,TFD",
        help="comma-separated steps (variants, depth, depth-fast, strash, fraig)",
    )
    p_flow.add_argument(
        "--verify", nargs="?", const="sim", default="off",
        choices=["off", "sim", "cec"],
        help="per-step + final equivalence checking: 'sim' (simulation; the "
        "default when the flag is given bare) or 'cec' (adds budgeted SAT "
        "CEC for wide networks)",
    )
    p_flow.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget shared by all steps; expired steps are "
        "recorded as 'timeout' and the partial result is returned",
    )
    p_flow.add_argument(
        "--conflict-limit", type=int, default=None, metavar="N",
        help="total SAT conflict budget shared by all steps",
    )
    p_flow.add_argument(
        "--on-error", default="raise", choices=["raise", "rollback", "skip"],
        help="what to do when a step fails or miscompiles: propagate "
        "('raise'), or keep the pre-step network and continue "
        "('rollback'/'skip')",
    )
    _add_sat_backend_arg(p_flow)
    p_flow.add_argument("-o", "--output", help="write the result (BLIF/.v/.bench)")
    p_flow.add_argument("--db", help="path to an alternative NPN database")
    _add_cut_args(p_flow)
    p_flow.add_argument(
        "--metrics", metavar="PATH",
        help="dump per-step hot-path metrics and merged totals as JSON to "
        "PATH ('-' for stdout)",
    )

    p_batch = sub.add_parser(
        "batch",
        help="supervised parallel batch optimization (process isolation, "
        "watchdog, crash-recoverable journal)",
    )
    p_batch.add_argument(
        "--generate", metavar="NAMES",
        help="comma-separated generator names, 'suite' (8 arithmetic), "
        f"'control' (6 random/control), or 'all': {sorted(GENERATORS)}",
    )
    p_batch.add_argument("--width", type=int, help="generator bit-width override")
    p_batch.add_argument(
        "--blif", action="append", default=[], metavar="FILE",
        help="add a BLIF circuit as a job (repeatable)",
    )
    p_batch.add_argument(
        "--bench", action="append", default=[], metavar="FILE",
        help="add an ISCAS .bench circuit as a job (repeatable)",
    )
    p_batch.add_argument(
        "--script", default="BF",
        help="comma-separated flow steps applied to every job",
    )
    p_batch.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="number of parallel worker processes",
    )
    p_batch.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget; the supervisor hard-kills "
        "(SIGTERM, then SIGKILL after --grace) workers that overrun it",
    )
    p_batch.add_argument(
        "--conflict-limit", type=int, default=None, metavar="N",
        help="per-job SAT conflict budget",
    )
    p_batch.add_argument(
        "--mem-limit", type=int, default=None, metavar="MB",
        help="per-worker address-space rlimit in MiB",
    )
    p_batch.add_argument(
        "--verify", default="sim", choices=["off", "sim", "cec"],
        help="in-worker per-step verification policy (default: sim)",
    )
    _add_cut_args(p_batch)
    _add_sat_backend_arg(p_batch)
    p_batch.add_argument(
        "--workdir", required=True, metavar="DIR",
        help="batch state directory (journal, specs, results, outputs, report)",
    )
    p_batch.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted batch from its journal: finished "
        "jobs are kept, orphaned running jobs are re-queued",
    )
    p_batch.add_argument(
        "--shard", action="store_true",
        help="run as one shard of a sweep: take the job list from the "
        "journal that `migopt sweep` pre-submitted into --workdir "
        "(implies --resume)",
    )
    p_batch.add_argument(
        "--grace", type=float, default=2.0, metavar="SECONDS",
        help="SIGTERM-to-SIGKILL escalation window (default: 2.0)",
    )
    p_batch.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts per job before quarantine; retries degrade "
        "parameters (verify cec->sim, halved conflict/cut limits)",
    )
    p_batch.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="base retry backoff, doubling per attempt (default: 0.5)",
    )
    p_batch.add_argument(
        "--no-outputs", action="store_true",
        help="skip writing optimized networks to workdir/outputs/",
    )
    p_batch.add_argument(
        "--report", metavar="PATH",
        help="also dump the batch report JSON to PATH ('-' for stdout)",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="sharded multi-host sweep over a declarative scenario matrix "
        "(instances x scripts x cut sizes x SAT backends x budgets); "
        "shards via $REPRO_SWEEP_HOSTS, resumes exactly-once",
    )
    p_sweep.add_argument(
        "--workdir", required=True, metavar="DIR",
        help="sweep state directory (sweep.json, shard-<host>/ batch "
        "workdirs, merged report.json)",
    )
    p_sweep.add_argument(
        "--spec", metavar="FILE",
        help="sweep spec JSON ('-' for stdin): {name, instances, scripts, "
        "cut_sizes, sat_backends, conflict_limits, verify, time_limit}; "
        "instances may override any axis locally",
    )
    p_sweep.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="number of local pseudo-host shards when $REPRO_SWEEP_HOSTS "
        "is unset (default: 2)",
    )
    p_sweep.add_argument(
        "--jobs-per-shard", type=int, default=1, metavar="N",
        help="worker processes inside each shard's batch (default: 1)",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted sweep: the persisted assignment in "
        "sweep.json is reused and every shard resumes from its journal",
    )
    p_sweep.add_argument(
        "--grace", type=float, default=2.0, metavar="SECONDS",
        help="SIGTERM-to-SIGKILL window for shard workers (default: 2.0)",
    )
    p_sweep.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts per job inside each shard before quarantine",
    )
    p_sweep.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="base per-job retry backoff inside shards (default: 0.5)",
    )
    p_sweep.add_argument(
        "--shard-attempts", type=int, default=3, metavar="N",
        help="relaunches per shard process before the sweep gives up on "
        "its remaining jobs (default: 3)",
    )
    p_sweep.add_argument(
        "--matrix", metavar="PATH",
        help="append per-scenario trend rows to this JSONL file on a "
        "clean finish (e.g. benchmarks/results/MATRIX.jsonl)",
    )
    p_sweep.add_argument(
        "--report", metavar="PATH",
        help="also dump the merged report JSON to PATH ('-' for stdout)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="optimization-as-a-service HTTP daemon with a crash-safe, "
        "content-addressed result cache (POST /jobs, GET /jobs/<id>)",
    )
    p_serve.add_argument(
        "--workdir", required=True, metavar="DIR",
        help="daemon state directory (result cache, job journals, stats)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8731,
                         help="bind port; 0 picks a free one (default: 8731)")
    p_serve.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="concurrent optimization jobs, each in its own supervised "
        "worker subprocess (default: 2)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="queued-job bound; requests beyond it get HTTP 429 (default: 16)",
    )
    p_serve.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="result-cache size bound; least-recently-used entries are "
        "evicted past it (default: unbounded)",
    )
    p_serve.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="default per-job wall-clock budget for requests without a "
        "'deadline' of their own",
    )
    p_serve.add_argument(
        "--verify", default="sim", choices=["off", "sim", "cec"],
        help="default per-step verification policy (default: sim); "
        "'off' results are never cached",
    )
    p_serve.add_argument(
        "--mem-limit", type=int, default=None, metavar="MB",
        help="per-worker address-space rlimit in MiB",
    )
    p_serve.add_argument(
        "--cut-size", type=int, default=None, choices=[4, 5, 6],
        help="default cut width for requests that do not set their own "
        "'cut_size' (default: 4)",
    )
    p_serve.add_argument(
        "--npn-store", metavar="PATH", default=None,
        help="persistent NPN-5/6 store the workers share for cut sizes "
        "5/6; daemon configuration, never taken from requests",
    )
    p_serve.add_argument(
        "--max-attempts", type=int, default=2, metavar="N",
        help="worker attempts per request before it fails (default: 2)",
    )
    p_serve.add_argument(
        "--grace", type=float, default=2.0, metavar="SECONDS",
        help="worker SIGTERM-to-SIGKILL escalation window (default: 2.0)",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM, how long running jobs may finish before being "
        "journaled resumable (default: 30)",
    )
    p_serve.add_argument("--verbose", action="store_true",
                         help="log requests and recovery decisions")

    p_exact = sub.add_parser("exact", help="exact synthesis of a truth table")
    p_exact.add_argument("--tt", required=True, help="truth table, e.g. 0x1668")
    p_exact.add_argument("--vars", type=int, default=4)
    p_exact.add_argument("--budget", type=int, default=200000,
                         help="conflict budget per size")
    _add_sat_backend_arg(p_exact)
    p_exact.add_argument(
        "--metrics", metavar="PATH",
        help="dump per-size outcomes and solver counters as JSON to PATH "
        "('-' for stdout); same sat_* schema as flow --metrics and "
        "benchmarks/bench_exact.py",
    )

    p_db = sub.add_parser("db", help="NPN database maintenance")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_db_gen = db_sub.add_parser(
        "generate",
        help="generate/improve the NPN-4 database (tree phase + SAT phase; "
        "see python -m repro.database.generate)",
    )
    p_db_gen.add_argument("--out", default=None, help="output JSONL path")
    p_db_gen.add_argument("--budget", type=int, default=30000,
                          help="conflicts per SAT call")
    p_db_gen.add_argument(
        "--sat-seconds", type=float, default=0.0,
        help="time for the SAT improvement phase (0 = trees only)",
    )
    p_db_gen.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="run the SAT phase across N supervised worker subprocesses "
        "(0 = in-process serial; content is identical either way, and a "
        "killed parallel run resumes from its job journal)",
    )
    _add_sat_backend_arg(p_db_gen)
    p_db_gen.add_argument("--fresh", action="store_true",
                          help="regenerate from scratch")
    p_db_gen.add_argument("--largest-first", action="store_true",
                          help="process the biggest entries first")
    p_db_gen.add_argument("--quiet", action="store_true")
    p_db_imp = db_sub.add_parser(
        "improve",
        help="tighten unproven entries of a persistent NPN-5/6 store with "
        "budgeted exact synthesis (serial, or across supervised workers)",
    )
    p_db_imp.add_argument("--store", required=True, metavar="PATH",
                          help="the NpnStore log to improve in place")
    p_db_imp.add_argument("--vars", type=int, default=5, choices=[4, 5, 6],
                          help="store arity (default: 5)")
    p_db_imp.add_argument("--budget", type=int, default=30000,
                          help="conflicts per SAT call (default: 30000)")
    p_db_imp.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="improve across N supervised worker subprocesses (0 = "
        "in-process serial; store content is identical either way, and "
        "a killed parallel run resumes from its job journal)",
    )
    p_db_imp.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="improve at most N classes (largest first)",
    )
    p_db_imp.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock bound for the whole improvement pass",
    )
    p_db_imp.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="batch state directory for --jobs > 0 (default: a fresh "
        "temp dir; reuse one to resume an interrupted pass)",
    )
    _add_sat_backend_arg(p_db_imp)
    p_db_imp.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "stats":
        mig = _load_network(args)
        print(f"{mig.name}: {mig.num_pis} PIs, {mig.num_pos} POs, "
              f"size {mig.num_gates}, depth {mig.depth()}")
        return 0

    if args.command == "optimize":
        mig = _load_network(args)
        db, store = _resolve_db(args)
        baseline = optimize_depth(mig) if args.depth_opt else mig
        start = time.perf_counter()
        optimized, stats = functional_hashing(
            baseline, db, args.variant,
            cut_size=args.cut_size if args.cut_size is not None else 4,
            return_stats=True,
        )
        runtime = time.perf_counter() - start
        print(f"{mig.name}: {baseline.num_gates}/{baseline.depth()} -> "
              f"{optimized.num_gates}/{optimized.depth()} "
              f"({args.variant}, {runtime:.2f}s)")
        if store is not None:
            print(f"npn-store: {len(store)} classes in {store.path}")
            store.close()
        if args.metrics:
            _dump_metrics(args.metrics, stats.metrics.to_dict())
        if args.verify and not _print_equivalence(baseline, optimized, 1):
            return 1
        if args.output:
            _write_network(optimized, args.output)
            print(f"written to {args.output}")
        return 0

    if args.command == "map":
        mig = _load_network(args)
        db = NpnDatabase.load(args.db)
        if args.variant is not None:
            mig = functional_hashing(mig, db, args.variant)
        result = map_mig(mig)
        print(f"{mig.name}: mapped {result}")
        return 0

    if args.command == "flow":
        from .opt.flow import run_flow
        from .runtime.budget import Budget

        mig = _load_network(args)
        db, store = _resolve_db(args)
        script = [step for step in args.script.split(",") if step]
        budget = None
        if args.time_limit is not None or args.conflict_limit is not None:
            budget = Budget.from_limits(
                time_limit=args.time_limit, conflict_limit=args.conflict_limit
            )
        print(f"{mig.name}: {mig.num_gates}/{mig.depth()}  script: {script}")
        result, history = run_flow(
            mig, db, script, verbose=True,
            budget=budget, verify=args.verify, on_error=args.on_error,
            cut_size=args.cut_size, sat_backend=args.sat_backend,
        )
        print(f"final: {result.num_gates}/{result.depth()} "
              f"({sum(step.runtime for step in history):.2f}s total)")
        if store is not None:
            print(f"npn-store: {len(store)} classes in {store.path}")
            store.close()
        if args.metrics:
            from .runtime.metrics import PassMetrics

            totals = PassMetrics()
            steps_payload = []
            for stats in history:
                entry = {"step": stats.step, "status": stats.status,
                         "runtime": round(stats.runtime, 6)}
                if stats.metrics is not None:
                    entry["metrics"] = stats.metrics.to_dict()
                    totals.merge(stats.metrics)
                steps_payload.append(entry)
            _dump_metrics(
                args.metrics,
                {"steps": steps_payload, "totals": totals.to_dict()},
            )
        bad = [s for s in history if s.status != "ok"]
        if bad:
            summary = ", ".join(f"{s.step}={s.status}" for s in bad)
            print(f"degraded steps: {summary}")
        if args.verify != "off":
            # Steps that kept their result each link the chain from the
            # input to the result; the chain is a proof when all are proved.
            unproven = sum(
                1 for step in history
                if step.status == "ok" and step.proved is not True
            )
            if not _print_equivalence(mig, result, unproven):
                return 1
        if args.output:
            _write_network(result, args.output)
            print(f"written to {args.output}")
        return 0

    if args.command == "batch":
        return _run_batch_command(args)
    if args.command == "sweep":
        return _run_sweep_command(args)

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "exact":
        spec = int(args.tt, 16)
        result = synthesize_exact(
            spec, args.vars, conflict_budget=args.budget,
            sat_backend=args.sat_backend,
        )
        if args.metrics:
            _dump_metrics(args.metrics, {
                "spec": f"0x{spec:x}",
                "num_vars": args.vars,
                "size": result.size,
                "proven": result.proven,
                "runtime": round(result.runtime, 6),
                "k_outcomes": {str(k): v for k, v in result.k_outcomes.items()},
                "sat_conflicts": result.conflicts,
                "sat_propagations": result.propagations,
                "sat_decisions": result.decisions,
                "sat_restarts": result.restarts,
                "sat_learned": result.learned,
                "sat_backend_events": dict(result.backend_events),
            })
        if result.mig is None:
            print(f"no MIG found within budget (outcomes: {result.k_outcomes})")
            return 1
        print(f"0x{spec:x}: size {result.size} "
              f"({'proven minimal' if result.proven else 'upper bound'}), "
              f"{result.runtime:.2f}s, {result.conflicts} conflicts")
        if result.backend_events:
            lanes = ", ".join(
                f"{key}={count}"
                for key, count in sorted(result.backend_events.items())
            )
            print(f"backend lanes: {lanes}")
        print(result.mig.to_expression(result.mig.outputs[0]))
        return 0

    if args.command == "db":
        if args.db_command == "generate":
            from .database.generate import main as db_generate_main

            forwarded = ["--budget", str(args.budget),
                         "--sat-seconds", str(args.sat_seconds),
                         "--jobs", str(args.jobs),
                         "--sat-backend", args.sat_backend]
            if args.out is not None:
                forwarded += ["--out", args.out]
            if args.fresh:
                forwarded.append("--fresh")
            if args.largest_first:
                forwarded.append("--largest-first")
            if args.quiet:
                forwarded.append("--quiet")
            return db_generate_main(forwarded)
        if args.db_command == "improve":
            from .database.store import NpnStore, improve_store

            with NpnStore.open(args.store, num_vars=args.vars) as store:
                before = store.stats()
                summary = improve_store(
                    store,
                    budget=args.budget,
                    jobs=args.jobs,
                    limit=args.limit,
                    time_limit=args.time_limit,
                    sat_backend=args.sat_backend,
                    workdir=args.workdir,
                    verbose=not args.quiet,
                )
            after = store.stats()
            print(
                f"store {args.store}: {after['entries']} classes "
                f"({after['proven']} proven, was {before['proven']}); "
                f"{summary['attempted']} attempted, "
                f"{summary['improved']} improved, "
                f"{summary['proven']} newly proven, "
                f"{summary['conflicts']} conflicts"
            )
            return 0
        raise AssertionError("unreachable")

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
