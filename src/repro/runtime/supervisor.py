"""The supervised parallel batch runtime: scheduler + journal over an executor.

PR 1's in-process budgets make a single optimization trustworthy *when
the code cooperates*; this module contains the cases where it does not —
a CDCL run that ignores its poll points, a memory blowup, a hard crash —
by moving each job into its own subprocess and supervising it at the OS
level:

* **process isolation** — every job attempt is its own worker process
  (``python -m repro.runtime.worker``, forked from the executor's fork
  server, which has imported the job code once) with its own
  address-space rlimit; spec and result travel through atomically
  written JSON files;
* **hard wall-clock watchdog** — a job past its time limit is sent
  SIGTERM; one that ignores it (see the ``worker.hang`` fault) is
  SIGKILLed after a grace period.  The batch always finishes;
* **retry with degradation** — a failed attempt is re-queued with
  exponential backoff and *weaker parameters*
  (:func:`repro.runtime.jobs.degraded`) until it succeeds or exhausts
  ``max_attempts`` and is quarantined with the captured traceback and
  rusage;
* **crash-recoverable journal** — every state transition is fsynced to
  the JSONL journal *before* the supervisor acts on it.  ``kill -9`` of
  the supervisor or any worker mid-batch loses nothing: a resumed run
  re-queues orphaned ``running`` jobs (adopting an already-written valid
  result instead of re-running), skips terminal ones, and completes
  every job exactly once.

Since the executor-layer refactor the Supervisor is a pure *scheduler*:
process launching, polling and the watchdog escalation live behind the
:class:`~repro.runtime.executors.Executor` protocol.  The default
:class:`~repro.runtime.executors.LocalExecutor` reproduces the historic
worker pool's scheduling exactly
(``tests/runtime/test_executor_differential.py`` pins it against the
frozen pre-refactor monolith); a sweep coordinator runs
whole journal *shards* through a
:class:`~repro.runtime.executors.ShardExecutor` instead — same
scheduling discipline, one level up (:mod:`repro.runtime.sweep`).

The public entry point is :func:`run_batch`; the ``migopt batch`` CLI
subcommand and ``benchmarks/flows.py`` are thin wrappers around it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from . import faults
from .artifacts import atomic_write_text
from .executors import (
    POLL_INTERVAL,
    Executor,
    ExecutorTask,
    LocalExecutor,
    TaskExit,
    kill_worker,
    worker_argv,
)
from .jobs import (
    BatchReport,
    JobJournal,
    JobRecord,
    JobSpec,
    degraded,
    load_result_artifact,
)
from .metrics import PassMetrics

__all__ = ["Supervisor", "run_batch", "spec_for_attempt"]


def spec_for_attempt(base: JobSpec, attempt: int) -> tuple[JobSpec, list[str]]:
    """The (possibly degraded) spec used by attempt *attempt* (1-based).

    Attempt 1 runs the base spec; each further attempt descends one rung
    of the degradation ladder.  Computed, not stored, so a resumed
    supervisor reconstructs the identical spec from the attempt number
    alone.  Returns the spec and the notes for the *last* rung applied.
    """
    spec = base
    notes: list[str] = []
    for _ in range(max(0, attempt - 1)):
        spec, notes = degraded(spec)
    return spec, notes


@dataclass
class _Pending:
    """Supervisor-side bookkeeping for one submitted attempt."""

    job_id: str
    attempt: int
    result_path: Path
    time_limit: float | None


class Supervisor:
    """Schedules jobs from the journal across an executor's task slots.

    *workdir* holds everything the batch persists::

        workdir/
          journal.jsonl     the crash-safe event log
          specs/<job>.json  the spec each worker reads (per attempt)
          results/<job>.json  the artifact each worker writes
          report.json       the final merged BatchReport

    *grace* is the SIGTERM→SIGKILL escalation window;
    *startup_margin* pads the watchdog for worker start-up (the fork,
    reading the spec, loading the network and database) so a healthy
    worker that honors its in-process budget is never killed;
    *backoff_base* seconds doubles per failed attempt (kept small in
    tests); *default_time_limit* applies to specs without their own.
    *executor* overrides where attempts run (default: a fresh
    :class:`LocalExecutor` per :meth:`run`, reproducing the historic
    worker pool).
    """

    def __init__(
        self,
        workdir: str | Path,
        num_workers: int = 1,
        grace: float = 2.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        default_time_limit: float | None = None,
        startup_margin: float = 1.0,
        verbose: bool = False,
        executor: Executor | None = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.workdir = Path(workdir)
        self.num_workers = num_workers
        self.grace = grace
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.default_time_limit = default_time_limit
        self.startup_margin = startup_margin
        self.verbose = verbose
        self.executor = executor
        self.specs_dir = self.workdir / "specs"
        self.results_dir = self.workdir / "results"
        self._shutdown = threading.Event()

    def request_shutdown(self) -> None:
        """Ask a running batch to drain and return early (signal-safe).

        The scheduling loop stops launching new attempts, SIGTERMs every
        live worker (SIGKILL after the grace window), journals each
        unfinished job as interrupted — re-runnable at the same attempt
        number — and returns a report flagged ``interrupted``.  The
        journal is left in exactly the state ``resume=True`` expects, so
        a Ctrl-C'd batch loses no completed work and orphans no worker.
        """
        self._shutdown.set()

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    # -- paths ------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.workdir / "journal.jsonl"

    @property
    def report_path(self) -> Path:
        return self.workdir / "report.json"

    def _spec_path(self, job_id: str) -> Path:
        return self.specs_dir / f"{job_id}.json"

    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def _make_executor(self) -> Executor:
        return LocalExecutor(
            num_workers=self.num_workers,
            grace=self.grace,
            startup_margin=self.startup_margin,
        )

    # -- batch entry ------------------------------------------------------

    def run(self, specs: list[JobSpec], resume: bool = False) -> BatchReport:
        """Run (or resume) a batch; returns the merged report.

        Without *resume* an existing journal is an error — accidentally
        pointing two different batches at one workdir must not silently
        merge them.  With *resume*, *specs* may be empty (the journal
        already knows the jobs) or repeat the original submission
        (idempotent: known job ids are not re-submitted).
        """
        if self.journal_path.exists() and not resume:
            raise FileExistsError(
                f"{self.journal_path} already exists; pass resume=True "
                "(or --resume) to continue it, or use a fresh workdir"
            )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.specs_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)

        replay = JobJournal.replay(self.journal_path)
        started = time.monotonic()
        executor = self.executor if self.executor is not None else self._make_executor()
        owns_executor = self.executor is None
        try:
            with JobJournal(self.journal_path) as journal:
                records = replay.records
                order = replay.order
                for spec in specs:
                    if spec.job_id in records:
                        continue
                    journal.submit(spec)
                    records[spec.job_id] = JobRecord(spec=spec)
                    order.append(spec.job_id)

                ready, delayed = self._recover(journal, records, order)
                report = self._loop(journal, records, order, ready, delayed, executor)
        finally:
            if owns_executor:
                executor.close()

        report.wall_seconds = time.monotonic() - started
        report.total = len(order)
        for job_id in order:
            record = records[job_id]
            summary = {
                "job_id": job_id,
                "state": record.state,
                "attempts": record.attempts,
            }
            if record.adopted:
                summary["adopted"] = True
            if record.degradations:
                summary["degradations"] = list(record.degradations)
            if record.result is not None:
                for key in ("size_before", "size_after", "depth_before",
                            "depth_after", "runtime", "verify", "output",
                            "metrics", "steps"):
                    if key in record.result:
                        summary[key] = record.result[key]
            if record.last_error is not None:
                summary["error"] = record.last_error
            report.jobs.append(summary)
        atomic_write_text(
            self.report_path, json.dumps(report.to_dict(), sort_keys=True) + "\n"
        )
        return report

    # -- recovery ---------------------------------------------------------

    def _recover(
        self,
        journal: JobJournal,
        records: dict[str, JobRecord],
        order: list[str],
    ) -> tuple[list[str], dict[str, float]]:
        """Re-queue interrupted jobs; returns (ready ids, delayed id->eligible_at).

        ``running`` records belong to a supervisor that died: their
        orphaned workers are killed (``kill_worker`` spares a recycled
        pid), and each job either adopts an
        already-complete valid result artifact (exactly-once: no re-run)
        or is re-queued at the same attempt number.  ``failed`` records
        (a crash between the failure and its requeue/quarantine decision)
        go back through the retry policy.
        """
        ready: list[str] = []
        delayed: dict[str, float] = {}
        for job_id in order:
            record = records[job_id]
            if record.state == "running":
                if record.pid is not None:
                    kill_worker(record.pid)
                payload = load_result_artifact(self._result_path(job_id), job_id)
                if payload is not None and payload.get("status") == "ok":
                    journal.done(job_id, self._result_summary(payload), adopted=True)
                    record.state = "done"
                    record.result = self._result_summary(payload)
                    record.adopted = True
                    continue
                # Re-run the same attempt; the journal records the requeue
                # so a replay after *another* crash stays consistent.
                journal.requeued(job_id, ["resume:interrupted"])
                record.state = "pending"
                record.attempts = max(0, record.attempts - 1)
                ready.append(job_id)
            elif record.state == "failed":
                self._retry_or_quarantine(
                    journal, record, job_id,
                    error=record.last_error or "unknown failure",
                    traceback=record.traceback,
                    rusage=record.rusage,
                    delayed=delayed,
                    ready=ready,
                    report=None,
                )
            elif record.state == "pending":
                ready.append(job_id)
        return ready, delayed

    # -- scheduling loop --------------------------------------------------

    def _loop(
        self,
        journal: JobJournal,
        records: dict[str, JobRecord],
        order: list[str],
        ready: list[str],
        delayed: dict[str, float],
        executor: Executor,
    ) -> BatchReport:
        report = BatchReport()
        for record in records.values():
            if record.state == "done":
                report.done += 1
                if record.adopted:
                    report.adopted += 1
                self._merge_metrics(report, record.result)
            elif record.state == "quarantined":
                report.quarantined += 1
        pending: dict[str, _Pending] = {}

        while ready or delayed or pending:
            if self._shutdown.is_set():
                self._drain(journal, records, pending, report, executor)
                break
            now = time.monotonic()
            progressed = False

            # Promote delayed retries whose backoff elapsed.
            for job_id in [j for j, at in delayed.items() if at <= now]:
                del delayed[job_id]
                ready.append(job_id)
                progressed = True

            # Fill free executor slots.
            while ready and executor.has_capacity(
                self._task_probe(records[ready[0]])
            ):
                job_id = ready.pop(0)
                pending[job_id] = self._spawn(
                    journal, records[job_id], job_id, executor
                )
                report.max_concurrent = max(
                    report.max_concurrent, executor.running_count
                )
                progressed = True

            # Collect exits; the executor escalates overdue watchdogs.
            for task_exit in executor.poll():
                attempt = pending.pop(task_exit.task_id)
                self._finish(
                    journal, records[attempt.job_id], attempt, task_exit,
                    report, ready, delayed,
                )
                progressed = True

            if not progressed:
                # Nothing to do but wait: sleep until the next deadline of
                # interest (retry eligibility or watchdog escalation).
                time.sleep(POLL_INTERVAL)
        return report

    @staticmethod
    def _task_probe(record: JobRecord) -> ExecutorTask:
        """A capacity-probe task (host pinning is all an executor reads)."""
        host = None
        if record.spec.payload is not None:
            host = record.spec.payload.get("host")
        return ExecutorTask(task_id=record.spec.job_id, argv=(), host=host)

    def _drain(
        self,
        journal: JobJournal,
        records: dict[str, JobRecord],
        pending: dict[str, _Pending],
        report: BatchReport,
        executor: Executor,
    ) -> None:
        """Stop the batch cleanly: no orphans, journal fully resumable.

        Every live worker is SIGTERMed at once; one that ignores it (the
        ``worker.hang`` fault models exactly this) is SIGKILLed after the
        grace window.  A worker that managed to complete its result
        artifact before dying is journaled ``done`` — its work is kept —
        while every other interrupted job is journaled ``requeued`` with
        the ``resume:interrupted`` note, which replay treats as "the
        attempt never concluded": a later ``--resume`` re-runs it under
        the same attempt number, preserving exactly-once semantics.
        """
        report.interrupted = True
        for task_exit in executor.drain():
            attempt = pending.pop(task_exit.task_id)
            record = records[attempt.job_id]
            payload = load_result_artifact(attempt.result_path, attempt.job_id)
            if payload is not None and payload.get("status") == "ok":
                summary = self._result_summary(payload)
                journal.done(attempt.job_id, summary)
                record.state = "done"
                record.result = summary
                report.done += 1
                report.count_slot(task_exit.slot)
                self._merge_metrics(report, payload)
            else:
                journal.requeued(attempt.job_id, ["resume:interrupted"])
                record.state = "pending"
                record.attempts = max(0, record.attempts - 1)
            if self.verbose:
                print(f"[supervisor] drained {attempt.job_id} ({record.state})")

    def _spawn(
        self,
        journal: JobJournal,
        record: JobRecord,
        job_id: str,
        executor: Executor,
    ) -> _Pending:
        attempt = record.attempts + 1
        spec, notes = spec_for_attempt(record.spec, attempt)
        if spec.time_limit is None and self.default_time_limit is not None:
            spec = replace(spec, time_limit=self.default_time_limit)
        record.attempt_spec = spec
        if notes:
            for note in notes:
                if note not in record.degradations:
                    record.degradations.append(note)

        spec_path = self._spec_path(job_id)
        result_path = self._result_path(job_id)
        # A stale artifact from a previous attempt must not be mistaken
        # for this attempt's result.
        try:
            os.unlink(result_path)
        except OSError:
            pass
        atomic_write_text(spec_path, json.dumps(spec.to_dict(), sort_keys=True) + "\n")

        host = None
        if spec.payload is not None:
            host = spec.payload.get("host")
        task = ExecutorTask(
            task_id=job_id,
            argv=worker_argv(str(spec_path), str(result_path)),
            env=self._child_env(),
            cwd=str(self.workdir),
            log_path=str(self.workdir / "logs" / f"{job_id}.log"),
            time_limit=spec.time_limit,
            host=host,
        )
        handle = executor.submit(task)
        journal.start(job_id, attempt, handle.pid, spec)
        record.state = "running"
        record.attempts = attempt
        record.pid = handle.pid
        if self.verbose:
            print(f"[supervisor] start {job_id} attempt {attempt} pid {handle.pid}"
                  + (f" degraded {notes}" if notes else ""))
        return _Pending(
            job_id=job_id, attempt=attempt, result_path=result_path,
            time_limit=spec.time_limit,
        )

    def _child_env(self) -> dict[str, str]:
        """Environment for a worker: import path + fault handshake.

        Armed non-``worker.*`` faults are copied into ``REPRO_FAULTS`` so
        in-worker fault points fire end-to-end.  The ``worker.*`` family
        is instead *consumed here*, one probe per spawn: a firing probe
        dooms exactly the worker being spawned, which keeps ``times=N``
        accounting in one process even across retries.
        """
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        entries = []
        passthrough = faults.env_spec(exclude_prefix="worker.")
        if passthrough:
            entries.append(passthrough)
        for name in faults.armed_names(prefix="worker."):
            if faults.fault_active(name):
                entries.append(f"{name}:times=1")
        if entries:
            env[faults.FAULTS_ENV_VAR] = ",".join(entries)
        else:
            env.pop(faults.FAULTS_ENV_VAR, None)
        return env

    # -- completion -------------------------------------------------------

    def _finish(
        self,
        journal: JobJournal,
        record: JobRecord,
        attempt: _Pending,
        task_exit: TaskExit,
        report: BatchReport,
        ready: list[str],
        delayed: dict[str, float],
    ) -> None:
        job_id = attempt.job_id
        payload = load_result_artifact(attempt.result_path, job_id)
        if payload is not None and payload.get("status") == "ok":
            summary = self._result_summary(payload)
            journal.done(job_id, summary)
            record.state = "done"
            record.result = summary
            report.done += 1
            report.count_slot(task_exit.slot)
            self._merge_metrics(report, payload)
            if self.verbose:
                print(f"[supervisor] done {job_id} "
                      f"({summary.get('size_before')}->{summary.get('size_after')})")
            return

        traceback = rusage = None
        if payload is not None:  # controlled in-worker failure
            error = str(payload.get("error", "worker reported failure"))
            traceback = payload.get("traceback")
            rusage = payload.get("rusage")
        elif task_exit.killed:
            error = (
                f"SIGKILLed by watchdog after {task_exit.runtime:.1f}s "
                f"(limit {record.effective_spec.time_limit}s + grace {self.grace}s)"
            )
        elif task_exit.termed:
            error = (
                f"SIGTERMed by watchdog after {task_exit.runtime:.1f}s "
                f"(limit {record.effective_spec.time_limit}s)"
            )
        elif task_exit.returncode < 0:
            error = f"worker died on signal {-task_exit.returncode}"
        else:
            error = (
                f"worker exited with code {task_exit.returncode} "
                "and no result artifact"
            )
        report.failed_attempts += 1
        journal.failed(job_id, attempt.attempt, error, traceback, rusage)
        record.state = "failed"
        record.last_error = error
        record.traceback = traceback
        record.rusage = rusage
        if self.verbose:
            print(f"[supervisor] failed {job_id} attempt {attempt.attempt}: {error}")
        self._retry_or_quarantine(
            journal, record, job_id, error, traceback, rusage,
            delayed, ready, report,
        )

    def _retry_or_quarantine(
        self,
        journal: JobJournal,
        record: JobRecord,
        job_id: str,
        error: str,
        traceback: str | None,
        rusage: dict | None,
        delayed: dict[str, float],
        ready: list[str],
        report: BatchReport | None,
    ) -> None:
        if record.attempts >= self.max_attempts:
            journal.quarantined(job_id, error, traceback, rusage)
            record.state = "quarantined"
            if report is not None:
                report.quarantined += 1
            if self.verbose:
                print(f"[supervisor] quarantined {job_id}: {error}")
            return
        _, notes = spec_for_attempt(record.spec, record.attempts + 1)
        journal.requeued(job_id, notes)
        record.state = "pending"
        if report is not None:
            report.retries += 1
        backoff = self.backoff_base * (2 ** max(0, record.attempts - 1))
        if backoff > 0:
            delayed[job_id] = time.monotonic() + backoff
        else:
            ready.append(job_id)

    @staticmethod
    def _result_summary(payload: dict) -> dict:
        """The journal-worthy slice of a worker result (drop bulky fields)."""
        summary = {
            key: payload[key]
            for key in (
                "size_before", "size_after", "depth_before", "depth_after",
                "runtime", "verify", "output", "pid", "metrics",
            )
            if key in payload
        }
        summary["steps"] = [
            {k: s.get(k) for k in ("step", "status", "verified", "runtime") if k in s}
            for s in payload.get("steps", [])
        ]
        return summary

    @staticmethod
    def _merge_metrics(report: BatchReport, payload: dict | None) -> None:
        if not payload:
            return
        metrics = payload.get("metrics")
        if isinstance(metrics, dict):
            report.metrics.merge(PassMetrics.from_dict(metrics))


def run_batch(
    specs: list[JobSpec],
    workdir: str | Path,
    num_workers: int = 1,
    resume: bool = False,
    **kwargs,
) -> BatchReport:
    """Run *specs* under a :class:`Supervisor` in *workdir*; see class docs."""
    supervisor = Supervisor(workdir, num_workers=num_workers, **kwargs)
    return supervisor.run(specs, resume=resume)
