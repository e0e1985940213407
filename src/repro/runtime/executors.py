"""The pluggable executor layer: *where* job processes run.

PR 3's :class:`~repro.runtime.supervisor.Supervisor` was both the batch
*scheduler* (journal, retry ladder, adoption) and the *process pool*
(launch, poll, SIGTERM→SIGKILL watchdog).  This module extracts the
second role behind a small protocol so the scheduler no longer cares
whether an attempt runs as a local process, or — one level up — a whole
journal shard runs as an independent ``migopt batch --shard`` invocation
on another host:

* :class:`Executor` — the protocol: ``submit`` / ``poll`` / ``cancel`` /
  ``drain`` over :class:`ExecutorTask` descriptions (an argv, an
  environment, an optional wall-clock watchdog);
* :class:`LocalExecutor` — the local worker pool: slot allocation, the
  startup-margin-padded watchdog and the SIGTERM→grace→SIGKILL
  escalation are exactly the pre-refactor supervisor's (pinned by
  ``tests/runtime/test_executor_differential``).  A worker argv
  (:func:`worker_argv`) is not exec'd: it is forked from a *fork server*,
  one ``python -m repro.runtime.worker --fork-server`` per executor that
  has imported the job code once, so a job starts without paying for a
  fresh interpreter.  Every other argv runs through ``subprocess.Popen``;
* :class:`ShardExecutor` — one task per *journal shard*: the argv is
  wrapped in a per-host command template (``$REPRO_SWEEP_HOSTS``; plain
  names run local subprocesses, ``name=ssh hostA {cmd}``-style templates
  reach real fleets) and pinned to its host slot, so a sweep coordinator
  (:mod:`repro.runtime.sweep`) schedules shards exactly the way the
  supervisor schedules workers.

Every executor is single-use: create, submit/poll until done (or
``drain``), ``close``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

from .faults import FAULTS_ENV_VAR

__all__ = [
    "ExecutorTask",
    "TaskHandle",
    "TaskExit",
    "Executor",
    "LocalExecutor",
    "HostSpec",
    "ShardExecutor",
    "parse_hosts",
    "kill_worker",
    "worker_argv",
    "HOSTS_ENV_VAR",
    "WORKER_MODULE",
]

#: scheduler tick shared with the supervisor loop
POLL_INTERVAL = 0.02

#: the worker entry module.  The Supervisor's worker argv, the fork
#: server's own argv and the orphan check all name it through this
#: constant, so a forked worker (whose cmdline is the fork server's)
#: is recognized as a worker on purpose.
WORKER_MODULE = "repro.runtime.worker"

#: the worker module's flag that starts it as a fork server
FORK_SERVER_FLAG = "--fork-server"

#: how long a fork request may wait for the server's reply (the first
#: one includes the server's imports)
_FORK_REPLY_TIMEOUT = 60.0

#: environment variable naming the sweep fleet (see :func:`parse_hosts`)
HOSTS_ENV_VAR = "REPRO_SWEEP_HOSTS"


@dataclass(frozen=True)
class ExecutorTask:
    """One process-shaped unit of work an executor can run.

    ``time_limit`` arms the wall-clock watchdog: the process is SIGTERMed
    at ``launch + time_limit + startup_margin`` and SIGKILLed ``grace``
    seconds later (both executor parameters).  ``None`` disables it —
    shard tasks supervise their own workers and get no outer deadline.
    ``host`` pins the task to a named host slot; only executors with
    named slots (:class:`ShardExecutor`) honor it.
    """

    task_id: str
    argv: tuple[str, ...]
    env: dict | None = None
    cwd: str | None = None
    log_path: str | None = None
    time_limit: float | None = None
    host: str | None = None


@dataclass(frozen=True)
class TaskHandle:
    """What ``submit`` returns: enough to journal the launch durably."""

    task_id: str
    pid: int
    slot: int | str


@dataclass
class TaskExit:
    """One finished task, as reported by ``poll`` or ``drain``."""

    task_id: str
    returncode: int
    slot: int | str
    runtime: float
    #: the watchdog fired (SIGTERM)
    termed: bool = False
    #: the watchdog escalated (SIGKILL)
    killed: bool = False


@runtime_checkable
class Executor(Protocol):
    """Runs tasks as supervised processes; the scheduler stays ignorant
    of *where*."""

    @property
    def capacity(self) -> int:
        """Maximum simultaneously running tasks."""
        ...

    @property
    def running_count(self) -> int:
        ...

    def has_capacity(self, task: ExecutorTask) -> bool:
        """Whether *task* could start right now (slot- or host-aware)."""
        ...

    def submit(self, task: ExecutorTask) -> TaskHandle:
        ...

    def poll(self) -> list[TaskExit]:
        """Collect finished tasks and escalate overdue watchdogs."""
        ...

    def cancel(self, task_id: str, hard: bool = False) -> bool:
        """SIGTERM (or SIGKILL with *hard*) one running task."""
        ...

    def drain(self) -> list[TaskExit]:
        """SIGTERM everything, SIGKILL stragglers after the grace window,
        and return every exit.  Blocks until no task is left running."""
        ...

    def close(self) -> None:
        ...


def worker_argv(spec_path: str, result_path: str) -> tuple[str, ...]:
    """The argv that runs one job spec: ``python -m repro.runtime.worker``.

    :class:`LocalExecutor` forks exactly this argv from its fork server
    instead of exec'ing it.
    """
    return (sys.executable, "-m", WORKER_MODULE, spec_path, result_path)


def kill_worker(pid: int) -> None:
    """SIGKILL *pid* if it still runs the worker module (Linux-only check).

    The pid is only signalled when ``/proc`` shows :data:`WORKER_MODULE`
    in its cmdline — a recycled pid must never be shot.  A forked
    worker's cmdline is its fork server's, ``python -m
    repro.runtime.worker --fork-server``, so it matches too.
    """
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return
    if WORKER_MODULE.encode() not in cmdline:
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def _forkable(argv: list[str]) -> bool:
    return (
        hasattr(os, "fork")
        and len(argv) == 5
        and tuple(argv) == worker_argv(argv[3], argv[4])
    )


class _ForkServer:
    """Client end of one ``python -m repro.runtime.worker --fork-server``.

    Requests and replies are JSON lines over the server's stdin and
    stdout.  A request ``{"args", "env", "cwd", "log_path"}`` is answered
    by ``{"pid": N}`` once the server has forked the worker (or
    ``{"error": ...}``); every reaped worker is reported as ``{"exit":
    pid, "status": returncode}``, with Popen's sign convention.  Closing
    the server's stdin stops it once its workers are gone.
    """

    def __init__(self, env: dict | None) -> None:
        env = dict(os.environ if env is None else env)
        # The server never arms faults; each worker arms its own task's.
        env.pop(FAULTS_ENV_VAR, None)
        # numpy's OpenBLAS would start a thread pool at import, and the
        # server must be single-threaded when it forks.
        env["OPENBLAS_NUM_THREADS"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", WORKER_MODULE, FORK_SERVER_FLAG],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._fd = self.proc.stdout.fileno()
        self._buffer = b""
        self._replies: list[dict] = []
        #: forked workers not yet reported as exited
        self.children: set[int] = set()
        #: exit statuses reported but not yet collected, by pid
        self.exits: dict[int, int] = {}
        #: the server died: its reply pipe reached EOF
        self.lost = False

    def fork(self, task: ExecutorTask) -> int:
        """Fork one worker for *task*; returns its pid."""
        # Sent in full, so the worker sees what a Popen child would.
        request = {
            "args": list(task.argv[3:]),
            "env": dict(os.environ) if task.env is None else task.env,
            "cwd": os.getcwd() if task.cwd is None else task.cwd,
            "log_path": task.log_path,
        }
        try:
            self.proc.stdin.write(json.dumps(request).encode("utf-8") + b"\n")
            self.proc.stdin.flush()
        except OSError:
            self._lose()
        deadline = time.monotonic() + _FORK_REPLY_TIMEOUT
        while not self._replies:
            remaining = deadline - time.monotonic()
            if self.lost or remaining <= 0:
                raise RuntimeError(
                    f"fork server {self.proc.pid} gave no pid for "
                    f"{task.task_id!r}"
                    + (" (it exited)" if self.lost else " (timed out)")
                )
            self._read(remaining)
        reply = self._replies.pop(0)
        if "pid" not in reply:
            raise OSError(f"fork server could not fork: {reply.get('error')}")
        self.children.add(reply["pid"])
        return reply["pid"]

    def collect(self) -> None:
        """Read every message the server has sent so far, without blocking."""
        while not self.lost and self._read(0.0):
            pass

    def _read(self, timeout: float) -> bool:
        ready, _, _ = select.select([self._fd], [], [], timeout)
        if not ready:
            return False
        chunk = os.read(self._fd, 65536)
        if not chunk:
            self._lose()
            return False
        *lines, self._buffer = (self._buffer + chunk).split(b"\n")
        for line in lines:
            message = json.loads(line)
            if "exit" in message:
                self.children.discard(message["exit"])
                self.exits[message["exit"]] = message["status"]
            else:
                self._replies.append(message)
        return True

    def _lose(self) -> None:
        """The server died: nobody can reap or report its workers any more,
        so they are SIGKILLed and reported as killed."""
        self.lost = True
        for pid in self.children:
            kill_worker(pid)
            self.exits[pid] = -signal.SIGKILL
        self.children.clear()
        self.stop(timeout=5.0)

    def stop(self, timeout: float) -> None:
        """Close the request pipe and wait for the server to exit."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class _ForkedWorker:
    """The ``poll``/``terminate``/``kill`` face of a forked worker, so the
    executor supervises it exactly like a ``subprocess.Popen``."""

    def __init__(self, server: _ForkServer, pid: int) -> None:
        self.server = server
        self.pid = pid
        self.returncode: int | None = None

    def poll(self) -> int | None:
        if self.returncode is None:
            self.server.collect()
            self.returncode = self.server.exits.pop(self.pid, None)
        return self.returncode

    def _signal(self, signum: int) -> None:
        # Never signal a pid whose exit was already reported: it may
        # have been recycled.
        if self.poll() is None:
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:
                pass

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)


@dataclass
class _Live:
    """Executor-side state of one running process."""

    task_id: str
    proc: subprocess.Popen | _ForkedWorker
    slot: int | str
    started: float
    #: SIGTERM instant (None = no wall-clock watchdog for this task)
    term_at: float | None
    #: SIGKILL instant
    kill_at: float | None
    termed: bool = False
    killed: bool = False

    def to_exit(self, returncode: int) -> TaskExit:
        return TaskExit(
            task_id=self.task_id,
            returncode=returncode,
            slot=self.slot,
            runtime=time.monotonic() - self.started,
            termed=self.termed,
            killed=self.killed,
        )


class LocalExecutor:
    """The local worker pool, extracted from the original supervisor.

    *num_workers* slots are allocated lowest-index-first and returned to
    the free list on exit (identical to the pre-refactor supervisor, so
    per-slot utilization accounting is unchanged).  *startup_margin* pads
    every task watchdog for process start-up; *grace* is the
    SIGTERM→SIGKILL escalation window.

    Worker tasks are forked from a fork server that the first of them
    starts (with that task's environment) and :meth:`close` stops; the
    server reaps each worker before reporting its exit, and ``close``
    waits for the server, so the workers stay waited-for descendants of
    this process (``RUSAGE_CHILDREN`` still covers them).
    """

    def __init__(
        self,
        num_workers: int = 1,
        grace: float = 2.0,
        startup_margin: float = 1.0,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self.grace = grace
        self.startup_margin = startup_margin
        self._live: dict[str, _Live] = {}
        self._free_slots: list[int | str] = list(range(num_workers))
        self._fork_server: _ForkServer | None = None
        self._closed = False

    # -- capacity ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.num_workers

    @property
    def running_count(self) -> int:
        return len(self._live)

    @property
    def running_ids(self) -> tuple[str, ...]:
        return tuple(self._live)

    def has_capacity(self, task: ExecutorTask) -> bool:  # noqa: ARG002
        return bool(self._free_slots)

    # -- lifecycle ---------------------------------------------------------

    def _spawn_argv(self, task: ExecutorTask, slot: int | str) -> list[str]:
        """The concrete argv for *task* (hook for host wrapping)."""
        del slot
        return list(task.argv)

    def _take_slot(self, task: ExecutorTask) -> int | str:
        return self._free_slots.pop(0)

    def submit(self, task: ExecutorTask) -> TaskHandle:
        if self._closed:
            raise RuntimeError("executor is closed")
        if task.task_id in self._live:
            raise ValueError(f"task {task.task_id!r} is already running")
        if not self.has_capacity(task):
            raise RuntimeError("no free executor slot")
        slot = self._take_slot(task)
        argv = self._spawn_argv(task, slot)
        if task.log_path is not None:
            Path(task.log_path).parent.mkdir(parents=True, exist_ok=True)
        try:
            if _forkable(argv):
                proc = self._fork(task)
            else:
                proc = self._popen(task, argv)
        except Exception:
            self._free_slots.append(slot)
            self._sort_free()
            raise
        started = time.monotonic()
        term_at = kill_at = None
        if task.time_limit is not None:
            term_at = started + task.time_limit + self.startup_margin
            kill_at = term_at + self.grace
        self._live[task.task_id] = _Live(
            task_id=task.task_id, proc=proc, slot=slot, started=started,
            term_at=term_at, kill_at=kill_at,
        )
        return TaskHandle(task_id=task.task_id, pid=proc.pid, slot=slot)

    def _fork(self, task: ExecutorTask) -> _ForkedWorker:
        server = self._fork_server
        if server is None or server.lost:
            server = self._fork_server = _ForkServer(task.env)
        return _ForkedWorker(server, server.fork(task))

    @staticmethod
    def _popen(task: ExecutorTask, argv: list[str]) -> subprocess.Popen:
        log_fp = None
        if task.log_path is not None:
            log_fp = open(task.log_path, "ab")
        try:
            return subprocess.Popen(
                argv,
                env=task.env,
                stdout=subprocess.DEVNULL,
                stderr=log_fp if log_fp is not None else subprocess.DEVNULL,
                cwd=task.cwd,
            )
        finally:
            if log_fp is not None:
                log_fp.close()

    def _sort_free(self) -> None:
        try:
            self._free_slots.sort()
        except TypeError:  # mixed named/indexed slots — keep FIFO order
            pass

    def poll(self) -> list[TaskExit]:
        exits: list[TaskExit] = []
        for task_id in list(self._live):
            live = self._live[task_id]
            rc = live.proc.poll()
            if rc is not None:
                del self._live[task_id]
                self._free_slots.append(live.slot)
                self._sort_free()
                exits.append(live.to_exit(rc))
                continue
            now = time.monotonic()
            if live.kill_at is not None and now >= live.kill_at and not live.killed:
                live.proc.kill()
                live.killed = True
            elif live.term_at is not None and now >= live.term_at and not live.termed:
                live.proc.terminate()
                live.termed = True
        return exits

    def cancel(self, task_id: str, hard: bool = False) -> bool:
        live = self._live.get(task_id)
        if live is None:
            return False
        if hard:
            live.proc.kill()
            live.killed = True
        else:
            live.proc.terminate()
            live.termed = True
        return True

    def drain(self) -> list[TaskExit]:
        """Stop everything: SIGTERM at once, SIGKILL after the grace window.

        Identical escalation to the pre-refactor supervisor's drain; the
        caller decides per exit whether the task's work survives (result
        adoption) or is requeued.
        """
        for live in self._live.values():
            if not live.termed:
                live.proc.terminate()
                live.termed = True
        kill_deadline = time.monotonic() + self.grace
        exits: list[TaskExit] = []
        while self._live:
            now = time.monotonic()
            for task_id in list(self._live):
                live = self._live[task_id]
                rc = live.proc.poll()
                if rc is None:
                    if now >= kill_deadline and not live.killed:
                        live.proc.kill()
                        live.killed = True
                    continue
                del self._live[task_id]
                self._free_slots.append(live.slot)
                self._sort_free()
                exits.append(live.to_exit(rc))
            if self._live:
                time.sleep(POLL_INTERVAL)
        return exits

    def close(self) -> None:
        if self._live:
            self.drain()
        if self._fork_server is not None:
            self._fork_server.stop(timeout=self.grace + 5.0)
            self._fork_server = None
        self._closed = True


# ----------------------------------------------------------------------
# sharded execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """One host of a sweep fleet.

    Without a *template* the task argv runs as a plain local subprocess
    (the "subprocess per host" mode every test and the CI drill use).
    With one, the template tokens are executed instead, with the
    ``{cmd}`` token replaced by the task argv — e.g. ``ssh hostA {cmd}``
    prepends an ssh hop.  A template without ``{cmd}`` has the argv
    appended.
    """

    name: str
    template: tuple[str, ...] | None = None

    def wrap(self, argv: list[str]) -> list[str]:
        if not self.template:
            return list(argv)
        wrapped: list[str] = []
        spliced = False
        for token in self.template:
            if token == "{cmd}":
                wrapped.extend(argv)
                spliced = True
            else:
                wrapped.append(token)
        if not spliced:
            wrapped.extend(argv)
        return wrapped


def parse_hosts(
    value: str | None = None, default_shards: int = 2
) -> list[HostSpec]:
    """The sweep fleet from ``$REPRO_SWEEP_HOSTS`` (or *value*).

    Entries are ``;``-separated (templates contain spaces and commas):
    a bare ``name`` runs shards as local subprocesses, ``name=ssh node7
    {cmd}`` runs them through the given command template.  Unset or
    empty, the fleet defaults to *default_shards* local pseudo-hosts
    named ``h0..hN`` — multi-host semantics, one machine.
    """
    if value is None:
        value = os.environ.get(HOSTS_ENV_VAR, "")
    entries = [entry.strip() for entry in value.split(";") if entry.strip()]
    if not entries:
        return [HostSpec(f"h{i}") for i in range(max(1, default_shards))]
    hosts: list[HostSpec] = []
    seen: set[str] = set()
    for entry in entries:
        name, _, template = entry.partition("=")
        name = name.strip()
        if not name or "/" in name or name != Path(name).name:
            raise ValueError(f"invalid sweep host name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate sweep host {name!r}")
        seen.add(name)
        tokens = tuple(template.split()) if template.strip() else None
        hosts.append(HostSpec(name=name, template=tokens))
    return hosts


class ShardExecutor(LocalExecutor):
    """Runs one task per host slot, through each host's command template.

    The slots are the host *names*; a task with ``host`` set is pinned
    to that slot (a sweep shard must land on the host that owns its
    journal shard), an unpinned task takes any free host.  Everything
    else — watchdog, drain, exits — is inherited.
    """

    def __init__(self, hosts: list[HostSpec], grace: float = 5.0,
                 startup_margin: float = 1.0) -> None:
        if not hosts:
            raise ValueError("ShardExecutor needs at least one host")
        super().__init__(num_workers=len(hosts), grace=grace,
                         startup_margin=startup_margin)
        self.hosts = {host.name: host for host in hosts}
        if len(self.hosts) != len(hosts):
            raise ValueError("duplicate host names in sweep fleet")
        self._free_slots = [host.name for host in hosts]

    def has_capacity(self, task: ExecutorTask) -> bool:
        if task.host is not None:
            return task.host in self._free_slots
        return bool(self._free_slots)

    def _take_slot(self, task: ExecutorTask) -> int | str:
        if task.host is not None:
            if task.host not in self.hosts:
                raise ValueError(f"unknown sweep host {task.host!r}")
            self._free_slots.remove(task.host)
            return task.host
        return self._free_slots.pop(0)

    def _spawn_argv(self, task: ExecutorTask, slot: int | str) -> list[str]:
        return self.hosts[str(slot)].wrap(list(task.argv))
