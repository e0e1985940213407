"""Fault-tolerant optimization runtime.

The robustness substrate shared by every layer of the reproduction:

* :mod:`repro.runtime.budget` — wall-clock + conflict budgets shared and
  split across passes;
* :mod:`repro.runtime.verify` — the post-pass equivalence policy
  (exhaustive / sampled simulation, budgeted SAT CEC);
* :mod:`repro.runtime.errors` — the structured exception taxonomy;
* :mod:`repro.runtime.artifacts` — atomic writes, validated loads and
  quarantine for on-disk artifacts;
* :mod:`repro.runtime.faults` — fault injection hooks for testing all of
  the above against real failures;
* :mod:`repro.runtime.jobs` — batch job specs, the retry/degradation
  ladder, and the crash-recoverable JSONL job journal;
* :mod:`repro.runtime.executors` — the pluggable execution layer: the
  ``Executor`` protocol (submit/poll/cancel/drain), the
  ``LocalExecutor`` worker pool (workers forked from a pre-imported fork
  server, other commands via ``subprocess.Popen``), and the
  ``ShardExecutor`` that runs one task per (pseudo-)host for
  distributed sweeps;
* :mod:`repro.runtime.supervisor` — the supervised parallel batch
  runtime: journal-backed scheduling and the retry ladder, executing
  through any ``Executor`` with the hard wall-clock watchdog
  (SIGTERM → grace → SIGKILL);
* :mod:`repro.runtime.sweep` — sharded multi-host sweeps: declarative
  scenario matrices expanded to per-host journal shards, merged
  exactly-once, published as trend rows to ``MATRIX.jsonl``;
* :mod:`repro.runtime.worker` — the worker entry point (``python -m
  repro.runtime.worker``) and the fork server that forks workers
  (``--fork-server``).

See ``docs/ROBUSTNESS.md`` for the full model.
"""

from .budget import Budget
from .errors import (
    BudgetExhausted,
    CorruptArtifact,
    ReproRuntimeError,
    VerificationFailed,
)
from .executors import (
    Executor,
    ExecutorTask,
    HostSpec,
    LocalExecutor,
    ShardExecutor,
    TaskExit,
    TaskHandle,
    parse_hosts,
)
from .jobs import BatchReport, JobJournal, JobSpec
from .supervisor import Supervisor, run_batch
from .sweep import SweepConflictError, SweepSpec, run_sweep
from .verify import VerificationReport, verify_rewrite

__all__ = [
    "BatchReport",
    "Budget",
    "BudgetExhausted",
    "CorruptArtifact",
    "Executor",
    "ExecutorTask",
    "HostSpec",
    "JobJournal",
    "JobSpec",
    "LocalExecutor",
    "ReproRuntimeError",
    "ShardExecutor",
    "Supervisor",
    "SweepConflictError",
    "SweepSpec",
    "TaskExit",
    "TaskHandle",
    "VerificationFailed",
    "VerificationReport",
    "parse_hosts",
    "run_batch",
    "run_sweep",
    "verify_rewrite",
]
