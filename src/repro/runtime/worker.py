"""Worker entry point: ``python -m repro.runtime.worker``.

One worker runs exactly one :class:`~repro.runtime.jobs.JobSpec` and
exits.  The process boundary is the isolation unit the in-process
runtime cannot provide: a CDCL run that ignores its poll points, a
memory blowup, or a hard crash takes down *this* process only — the
supervisor's watchdog and rlimits contain it.

Protocol (see :mod:`repro.runtime.supervisor` for the other side):

* argv: ``worker SPEC_PATH RESULT_PATH`` — the spec is a JSON file
  written atomically by the supervisor; the result is written atomically
  by the worker (so a kill at any instant leaves either no result or a
  complete one, never a torn file);
* env: ``REPRO_FAULTS`` arms :mod:`repro.runtime.faults` in the worker
  so fault-injection tests exercise the supervised path end-to-end;
* exit code 0 means "a result artifact was written" — its ``status``
  field says whether the job succeeded (``ok``) or failed in a
  controlled way (``failed``, with the traceback captured).  Any other
  exit (nonzero, signal) means "no trustworthy result": the supervisor
  treats it as a crash.

The worker applies its own safety rails before touching the job: the
address-space rlimit from the spec, and an in-process
:class:`~repro.runtime.budget.Budget` built from the spec's limits so a
healthy job exits politely well before the supervisor's hard watchdog
(SIGTERM → grace → SIGKILL) has to fire.

``python -m repro.runtime.worker --fork-server`` runs this module as a
*fork server* instead (:func:`serve_forks`): it imports the job code
once, then forks one worker per request from
:class:`~repro.runtime.executors.LocalExecutor`.  Each forked worker
takes its task's environment, working directory and log, resets its
signal handlers and runs the unchanged :func:`main` — the protocol above
is the same whether the worker was forked or exec'd.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback as traceback_module

from .artifacts import atomic_write_text
from .budget import Budget
from .executors import FORK_SERVER_FLAG
from .faults import arm_from_env, fault_active
from .jobs import JobSpec
from .metrics import PassMetrics

__all__ = ["run_job", "main", "serve_forks"]

#: exit code for the injected hard-crash fault (any nonzero would do;
#: a distinctive value makes supervisor logs readable)
CRASH_EXIT_CODE = 77


def _set_memory_limit(mem_limit_mb: int) -> None:
    """Cap the worker's address space (best effort; Linux/macOS only)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return
    limit = mem_limit_mb * 1024 * 1024
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):
        pass


def _rusage_dict() -> dict | None:
    """Self rusage snapshot for the result artifact (None off-POSIX)."""
    try:
        import resource
    except ImportError:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "utime": usage.ru_utime,
        "stime": usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def _load_network(network: dict):
    from ..core.mig import Mig  # noqa: F401 - type only

    if "generate" in network:
        from ..generators import resolve_generator

        return resolve_generator(
            str(network["generate"]),
            width=(
                None if network.get("width") is None
                else int(network["width"])
            ),
        )
    if "blif" in network:
        from ..io.blif import read_blif

        with open(network["blif"], "r", encoding="utf-8") as fp:
            return read_blif(fp)
    if "bench" in network:
        from ..io.bench import read_bench

        with open(network["bench"], "r", encoding="utf-8") as fp:
            return read_bench(fp)
    raise ValueError(f"job network spec {network!r} names no circuit source")


def _open_progress(spec: JobSpec):
    """Per-step progress appender for ``spec.progress`` (None when unset).

    Each record is one fsynced JSON line, so the serving tier's poll
    endpoint reads a prefix of complete events plus at most one torn
    tail (the journal discipline applied to a progress feed).  Any
    failure to report progress is swallowed: observability must never
    fail the job it observes.
    """
    if spec.progress is None:
        return None
    try:
        path = spec.progress
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fp = open(path, "ab")
    except OSError:
        return None

    def append(record: dict) -> None:
        try:
            record = dict(record)
            record["ts"] = time.time()
            fp.write((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
            fp.flush()
            os.fsync(fp.fileno())
        except (OSError, ValueError, TypeError):
            pass

    return append


def _run_db_improve_job(spec: JobSpec, start: float) -> dict:
    """One NPN class of SAT-phase database improvement (``db-improve``).

    The payload carries the class representative and the current entry
    (JSONL line); the result carries the improved entry the same way.
    The heavy lifting is :func:`repro.database.generate.improve_class` —
    the exact function the serial path runs, so the database content is
    identical whether or not it was produced under supervision.
    """
    from ..database.generate import improve_class
    from ..database.npn_db import entry_from_json, entry_to_json

    payload = spec.payload or {}
    try:
        rep = int(payload["rep"])
        num_vars = int(payload["num_vars"])
        entry = entry_from_json(payload["entry"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed db-improve payload: {exc}") from exc
    # The SAT budget rides in spec.conflict_limit so the supervisor's
    # retry-with-degradation ladder can actually degrade it; the payload
    # copy is only a fallback for hand-built specs.
    budget = spec.conflict_limit
    if budget is None and payload.get("budget") is not None:
        budget = int(payload["budget"])

    deadline = None
    if spec.time_limit is not None:
        # Leave the watchdog's grace window to write the result artifact.
        deadline = time.monotonic() + max(0.5, spec.time_limit - 0.5)

    new_entry, conflicts = improve_class(
        rep, entry, num_vars, budget, deadline, sat_backend=spec.sat_backend
    )
    if new_entry.to_mig().simulate()[0] != rep:
        raise AssertionError(f"db-improve produced wrong function for 0x{rep:x}")
    return {
        "job_id": spec.job_id,
        "status": "ok",
        "rep": rep,
        "entry": entry_to_json(new_entry),
        "size_before": entry.size,
        "size_after": new_entry.size,
        "proven": new_entry.proven,
        "conflicts": conflicts,
        "runtime": round(time.perf_counter() - start, 6),
        "rusage": _rusage_dict(),
        "pid": os.getpid(),
    }


def run_job(spec: JobSpec) -> dict:
    """Execute one job in-process and return the result payload.

    Factored out of :func:`main` so tests can exercise the job semantics
    without a subprocess; the supervised path adds the isolation around
    exactly this function.
    """
    from ..database.npn_db import NpnDatabase
    from ..opt.flow import optimize_until_convergence, run_flow

    start = time.perf_counter()

    if spec.mode == "db-improve":
        return _run_db_improve_job(spec, start)

    mig = _load_network(spec.network)

    progress = _open_progress(spec)
    if progress is not None:
        progress(
            {
                "event": "start",
                "size_before": mig.num_gates,
                "depth_before": mig.depth(),
                "total_steps": len(spec.script) if spec.mode == "flow" else None,
            }
        )

    needs_db = spec.mode == "converge" or any(
        step.strip().upper() in _variant_names() for step in spec.script
    )
    db = store = None
    if needs_db:
        if spec.cut_size is not None and spec.cut_size != 4:
            # Large-cut tier: a lazily populated dynamic database, backed
            # by the shared persistent store when the spec names one.
            from ..rewriting.dynamic_db import DynamicDatabase

            db = DynamicDatabase(num_vars=spec.cut_size, store=spec.npn_store)
            store = db.store
        else:
            db = NpnDatabase.load(spec.db)

    budget = None
    if spec.time_limit is not None or spec.conflict_limit is not None:
        budget = Budget.from_limits(
            time_limit=spec.time_limit, conflict_limit=spec.conflict_limit
        )

    metrics = PassMetrics()
    steps_payload: list[dict] = []
    if spec.mode == "converge":
        result, passes = optimize_until_convergence(
            mig,
            db,
            variant=spec.variant,
            max_passes=spec.max_passes,
            budget=budget,
            verify=spec.verify,
            on_error="rollback",
            metrics=metrics,
            cut_limit=spec.cut_limit,
            cut_size=spec.cut_size,
            sat_backend=spec.sat_backend,
        )
        steps_payload.append({"step": spec.variant, "status": "ok", "passes": passes})
        if progress is not None:
            progress(
                {
                    "event": "step",
                    "step": spec.variant,
                    "status": "ok",
                    "passes": passes,
                    "size_after": result.num_gates,
                    "depth_after": result.depth(),
                }
            )
    elif spec.mode == "flow":
        on_step = None
        if progress is not None:
            def on_step(stats):
                progress(
                    {
                        "event": "step",
                        "step": stats.step,
                        "status": stats.status,
                        "verified": stats.verified,
                        "proved": stats.proved,
                        "runtime": round(stats.runtime, 6),
                        "size_after": stats.size_after,
                        "depth_after": stats.depth_after,
                    }
                )

        result, history = run_flow(
            mig,
            db,
            list(spec.script),
            budget=budget,
            verify=spec.verify,
            on_error="rollback",
            cut_limit=spec.cut_limit,
            cut_size=spec.cut_size,
            on_step=on_step,
            sat_backend=spec.sat_backend,
        )
        for stats in history:
            entry = {
                "step": stats.step,
                "status": stats.status,
                "verified": stats.verified,
                "proved": stats.proved,
                "runtime": round(stats.runtime, 6),
                "size_after": stats.size_after,
                "depth_after": stats.depth_after,
            }
            if stats.error is not None:
                entry["error"] = stats.error
            if stats.metrics is not None:
                metrics.merge(stats.metrics)
            steps_payload.append(entry)
    else:
        raise ValueError(
            f"unknown job mode {spec.mode!r}; use 'flow', 'converge' or 'db-improve'"
        )

    if spec.output is not None:
        import io as io_module
        from pathlib import Path

        from ..io.blif import write_blif

        buf = io_module.StringIO()
        write_blif(result, buf)
        Path(spec.output).parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(spec.output, buf.getvalue())

    payload = {
        "job_id": spec.job_id,
        "status": "ok",
        "size_before": mig.num_gates,
        "depth_before": mig.depth(),
        "size_after": result.num_gates,
        "depth_after": result.depth(),
        "runtime": round(time.perf_counter() - start, 6),
        "verify": spec.verify,
        "steps": steps_payload,
        "metrics": metrics.to_dict(),
        "output": spec.output,
        "rusage": _rusage_dict(),
        "pid": os.getpid(),
    }
    if store is not None:
        payload["npn_store"] = store.stats()
        store.close()
    return payload


def _variant_names() -> tuple[str, ...]:
    from ..rewriting.engine import VARIANTS

    return VARIANTS


def _run_forked(request: dict, inherited_fds: tuple[int, ...]) -> None:
    """Body of a forked worker: become the requested task, run :func:`main`
    and exit with its status (never returns)."""
    rc = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        # The signal dispositions of a freshly started interpreter.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        for fd in inherited_fds:
            os.close(fd)
        os.environ.clear()
        os.environ.update(request["env"])
        os.chdir(request["cwd"])
        devnull = os.open(os.devnull, os.O_RDWR)
        log = devnull
        if request.get("log_path") is not None:
            log = os.open(request["log_path"],
                          os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.dup2(devnull, 0)
        os.dup2(devnull, 1)
        os.dup2(log, 2)
        rc = main(list(request["args"]))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except BaseException:  # noqa: BLE001 - process boundary
        # Exit instead of re-raising: a forked worker must never unwind
        # into the fork server's loop.
        traceback_module.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(rc)


def serve_forks() -> int:
    """Run as a fork server until stdin closes and every worker is reaped.

    Requests arrive as JSON lines on stdin (``args``, ``env``, ``cwd``,
    ``log_path``); each is answered on stdout with ``{"pid": N}`` once a
    worker is forked for it, and every reaped worker is reported as
    ``{"exit": pid, "status": returncode}``.  The server never arms
    faults and never kills a worker: when its supervisor dies (EOF on
    stdin, or a broken reply pipe) it stops reading, keeps reaping, and
    exits once its workers are gone — a resumed supervisor adopts their
    results.
    """
    import select

    import numpy  # noqa: F401

    from .. import generators  # noqa: F401
    from ..database import npn_db  # noqa: F401
    from ..io import blif  # noqa: F401
    from ..opt import flow  # noqa: F401

    # Keep the protocol off fds 0/1, so that nothing the job code prints
    # can corrupt it, and keep a terminal's Ctrl-C for the supervisor.
    requests, replies = os.dup(0), os.dup(1)
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(2, 1)
    os.close(devnull)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    inherited = (requests, replies, wake_r, wake_w)

    children: set[int] = set()
    reading = True
    buffer = b""

    def reply(message: dict) -> None:
        nonlocal reading
        try:
            os.write(replies, (json.dumps(message) + "\n").encode("utf-8"))
        except OSError:  # the supervisor is gone
            reading = False

    while reading or children:
        ready, _, _ = select.select([wake_r, requests] if reading else [wake_r],
                                    [], [])
        if wake_r in ready:
            try:
                while os.read(wake_r, 512):
                    pass
            except BlockingIOError:
                pass
        while children:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                break
            children.discard(pid)
            reply({"exit": pid, "status": os.waitstatus_to_exitcode(status)})
        if reading and requests in ready:
            chunk = os.read(requests, 65536)
            if not chunk:
                reading = False
                continue
            *lines, buffer = (buffer + chunk).split(b"\n")
            for line in lines:
                if not reading:
                    break
                request = json.loads(line)
                try:
                    pid = os.fork()
                except OSError as exc:
                    reply({"error": str(exc)})
                    continue
                if pid == 0:
                    _run_forked(request, inherited)
                children.add(pid)
                reply({"pid": pid})
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == [FORK_SERVER_FLAG]:
        return serve_forks()
    if len(argv) != 2:
        print("usage: python -m repro.runtime.worker SPEC_PATH RESULT_PATH",
              file=sys.stderr)
        return 2
    spec_path, result_path = argv

    arm_from_env()

    with open(spec_path, "r", encoding="utf-8") as fp:
        spec = JobSpec.from_dict(json.load(fp))

    if spec.mem_limit_mb is not None:
        _set_memory_limit(spec.mem_limit_mb)

    if fault_active("worker.hang"):
        # Model a worker stuck in native code that ignores every deadline
        # *and* SIGTERM — only the supervisor's SIGKILL escalation ends it.
        try:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        except (ValueError, OSError):
            pass
        while True:
            pass

    if fault_active("worker.crash"):
        # Model a segfault: vanish without a result artifact.
        os._exit(CRASH_EXIT_CODE)

    try:
        payload = run_job(spec)
    except BaseException as exc:  # noqa: BLE001 - process boundary
        payload = {
            "job_id": spec.job_id,
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback_module.format_exc(),
            "rusage": _rusage_dict(),
            "pid": os.getpid(),
        }
    atomic_write_text(result_path, json.dumps(payload, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
