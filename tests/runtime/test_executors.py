"""Unit tests for the pluggable executor layer.

These drive :class:`LocalExecutor` and :class:`ShardExecutor` with plain
shell-level subprocesses (``sleep``, ``true``), independent of the
optimization worker — the executor contract (slot accounting, watchdog
escalation, drain, host pinning) must hold for any process-shaped task.
:class:`TestForkServer` then drives real worker argvs, which the local
executor forks from its fork server, for the fork-safety guarantees.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.executors import (
    FORK_SERVER_FLAG,
    Executor,
    ExecutorTask,
    HostSpec,
    LocalExecutor,
    ShardExecutor,
    TaskExit,
    parse_hosts,
    _ForkServer,
    worker_argv,
)
from repro.runtime.jobs import JobJournal, JobSpec
from repro.runtime.supervisor import run_batch
from repro.runtime.worker import CRASH_EXIT_CODE

SRC = str(Path(__file__).resolve().parents[2] / "src")

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="executor process-group and watchdog semantics assume POSIX",
)


def wait_exits(executor, count: int, timeout: float = 30.0) -> list[TaskExit]:
    exits: list[TaskExit] = []
    deadline = time.monotonic() + timeout
    while len(exits) < count and time.monotonic() < deadline:
        exits.extend(executor.poll())
        time.sleep(0.01)
    assert len(exits) == count, f"expected {count} exits, saw {exits}"
    return exits


def sleeper(task_id: str, seconds: float, **kwargs) -> ExecutorTask:
    return ExecutorTask(
        task_id=task_id,
        argv=(sys.executable, "-c", f"import time; time.sleep({seconds})"),
        **kwargs,
    )


class TestLocalExecutor:
    def test_protocol_conformance(self):
        assert isinstance(LocalExecutor(1), Executor)
        assert isinstance(ShardExecutor(parse_hosts(default_shards=1)), Executor)

    def test_capacity_and_slot_reuse(self, tmp_path):
        executor = LocalExecutor(num_workers=2)
        try:
            a = executor.submit(sleeper("a", 0))
            b = executor.submit(sleeper("b", 0))
            # Historic fork-pool discipline: lowest free slot first.
            assert (a.slot, b.slot) == (0, 1)
            assert not executor.has_capacity(sleeper("c", 0))
            exits = wait_exits(executor, 2)
            assert {e.task_id for e in exits} == {"a", "b"}
            assert all(e.returncode == 0 for e in exits)
            # Freed slots are handed out lowest-first again.
            c = executor.submit(sleeper("c", 0))
            assert c.slot == 0
            wait_exits(executor, 1)
        finally:
            executor.close()

    def test_watchdog_escalates_overrunning_tasks(self):
        executor = LocalExecutor(num_workers=1, grace=0.5, startup_margin=0.0)
        try:
            executor.submit(sleeper("hog", 60, time_limit=0.2))
            (task_exit,) = wait_exits(executor, 1, timeout=20.0)
            assert task_exit.task_id == "hog"
            assert task_exit.termed
            assert task_exit.returncode != 0
        finally:
            executor.close()

    def test_drain_reaps_everything(self):
        executor = LocalExecutor(num_workers=2, grace=0.5)
        try:
            executor.submit(sleeper("x", 60))
            executor.submit(sleeper("y", 60))
            exits = executor.drain()
            assert {e.task_id for e in exits} == {"x", "y"}
            assert all(e.termed for e in exits)
            assert executor.running_count == 0
            # The pool is reusable after a drain.
            executor.submit(sleeper("z", 0))
            wait_exits(executor, 1)
        finally:
            executor.close()

    def test_task_log_is_captured(self, tmp_path):
        log = tmp_path / "task.log"
        executor = LocalExecutor(num_workers=1)
        try:
            executor.submit(ExecutorTask(
                task_id="echo",
                argv=(sys.executable, "-c",
                      "import sys; print('hello from task', file=sys.stderr)"),
                log_path=str(log),
            ))
            wait_exits(executor, 1)
        finally:
            executor.close()
        assert "hello from task" in log.read_text(encoding="utf-8")

    def test_cancel(self):
        executor = LocalExecutor(num_workers=1, grace=0.5)
        try:
            executor.submit(sleeper("victim", 60))
            executor.cancel("victim")
            (task_exit,) = wait_exits(executor, 1, timeout=20.0)
            assert task_exit.task_id == "victim"
            assert task_exit.returncode != 0
        finally:
            executor.close()


class TestHostParsing:
    def test_default_pseudo_hosts(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_HOSTS", raising=False)
        hosts = parse_hosts(default_shards=3)
        assert [h.name for h in hosts] == ["h0", "h1", "h2"]
        assert all(h.template is None for h in hosts)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SWEEP_HOSTS",
            "local; remote=ssh buildbox {cmd}",
        )
        hosts = parse_hosts(default_shards=1)
        assert [h.name for h in hosts] == ["local", "remote"]
        assert hosts[0].template is None
        assert hosts[1].wrap(["migopt", "batch"]) == [
            "ssh", "buildbox", "migopt", "batch",
        ]

    def test_rejects_duplicate_and_unsafe_names(self):
        with pytest.raises(ValueError):
            parse_hosts("a;a")
        with pytest.raises(ValueError):
            parse_hosts("../evil")

    def test_template_without_cmd_token_appends(self):
        host = HostSpec("h", template=("nice", "-n", "10"))
        assert host.wrap(["echo", "hi"]) == ["nice", "-n", "10", "echo", "hi"]


class TestShardExecutor:
    def test_host_pinning(self):
        hosts = parse_hosts("h0;h1")
        executor = ShardExecutor(hosts)
        try:
            pinned = sleeper("s1", 0, host="h1")
            assert executor.has_capacity(pinned)
            handle = executor.submit(pinned)
            assert handle.slot == "h1"
            # h1 is busy: another h1-pinned task must wait, h0 is free.
            assert not executor.has_capacity(sleeper("s2", 0, host="h1"))
            assert executor.has_capacity(sleeper("s3", 0, host="h0"))
            (task_exit,) = wait_exits(executor, 1)
            assert task_exit.slot == "h1"
        finally:
            executor.close()

    def test_unknown_host_is_rejected(self):
        executor = ShardExecutor(parse_hosts("h0"))
        try:
            # An unknown host never has capacity, so submit refuses it.
            assert not executor.has_capacity(sleeper("bad", 0, host="h9"))
            with pytest.raises((ValueError, RuntimeError)):
                executor.submit(sleeper("bad", 0, host="h9"))
        finally:
            executor.close()

    def test_template_wraps_the_command(self, tmp_path):
        marker = tmp_path / "wrapped"
        # A template that records its invocation proves the argv splice.
        hosts = [HostSpec("h0", template=(
            sys.executable, "-c",
            "import subprocess, sys, pathlib; "
            f"pathlib.Path({str(marker)!r}).write_text('ran'); "
            "sys.exit(subprocess.call(sys.argv[1:]))",
            "{cmd}",
        ))]
        executor = ShardExecutor(hosts)
        try:
            executor.submit(ExecutorTask(
                task_id="t",
                argv=(sys.executable, "-c", "pass"),
                host="h0",
            ))
            (task_exit,) = wait_exits(executor, 1)
            assert task_exit.returncode == 0
        finally:
            executor.close()
        assert marker.read_text(encoding="utf-8") == "ran"


class TestSupervisorIntegration:
    def test_supervisor_accepts_an_injected_executor(self, tmp_path):
        """An explicitly owned executor is reused and left open."""
        from repro.runtime.jobs import JobSpec
        from repro.runtime.supervisor import Supervisor

        executor = LocalExecutor(num_workers=1)
        try:
            supervisor = Supervisor(
                tmp_path / "batch", num_workers=1, backoff_base=0.05,
                executor=executor,
            )
            spec = JobSpec(
                job_id="fa",
                network={"generate": "adder", "width": 6},
                script=("BF",),
                verify="sim",
                time_limit=60.0,
            )
            report = supervisor.run([spec])
            assert report.done == 1
            # Still usable: the supervisor must not have closed it.
            executor.submit(sleeper("post", 0))
            wait_exits(executor, 1)
        finally:
            executor.close()


def worker_task(tmp_path: Path, task_id: str, faults: str | None = None,
                spec_path: Path | None = None) -> ExecutorTask:
    """A real worker task: one tiny BF job, optionally with faults armed."""
    if spec_path is None:
        spec_path = tmp_path / "specs" / f"{task_id}.json"
        spec_path.parent.mkdir(exist_ok=True)
        spec = JobSpec(job_id=task_id, network={"generate": "adder", "width": 4},
                       script=("BF",), verify="sim")
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    return ExecutorTask(
        task_id=task_id,
        argv=worker_argv(str(spec_path), str(tmp_path / f"{task_id}.result.json")),
        env=env,
        cwd=str(tmp_path),
        log_path=str(tmp_path / "logs" / f"{task_id}.log"),
    )


def run_one(executor, task: ExecutorTask) -> tuple[int, int]:
    """Run *task* to its exit; returns (pid, returncode)."""
    handle = executor.submit(task)
    (task_exit,) = wait_exits(executor, 1)
    assert task_exit.task_id == task.task_id
    return handle.pid, task_exit.returncode


def result_of(tmp_path: Path, task_id: str) -> dict:
    return json.loads((tmp_path / f"{task_id}.result.json").read_text(encoding="utf-8"))


def proc_status(pid: int) -> dict[str, str]:
    text = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    return dict(line.split(":\t", 1) for line in text.splitlines() if ":\t" in line)


def running(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie."""
    try:
        return not proc_status(pid)["State"].startswith(("Z", "X"))
    except OSError:
        return False


def wait_gone(pid: int, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while running(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return not running(pid)


class TestForkServer:
    def test_workers_fork_from_one_single_threaded_server(self, tmp_path):
        executor = LocalExecutor(num_workers=1)
        try:
            run_one(executor, sleeper("plain", 0))
            assert executor._fork_server is None  # other argvs keep Popen
            first = ("a", *run_one(executor, worker_task(tmp_path, "a")))
            server = executor._fork_server
            assert server is not None
            cmdline = Path(f"/proc/{server.proc.pid}/cmdline").read_bytes()
            assert FORK_SERVER_FLAG.encode() in cmdline
            assert proc_status(server.proc.pid)["Threads"].strip() == "1"
            second = ("b", *run_one(executor, worker_task(tmp_path, "b")))
            assert executor._fork_server is server
            for task_id, pid, returncode in (first, second):
                assert returncode == 0
                result = result_of(tmp_path, task_id)
                assert result["status"] == "ok"
                assert result["pid"] == pid
        finally:
            executor.close()
        # close() stops the server, which exits once its workers are reaped.
        assert server.proc.returncode == 0

    def test_server_is_single_threaded_before_its_first_fork(self, tmp_path):
        # OpenBLAS stops its pool at fork on its own, so only the idle
        # server, once numpy is loaded and before any request, shows
        # whether a second thread exists.
        server = _ForkServer(worker_task(tmp_path, "probe").env)
        try:
            maps = Path(f"/proc/{server.proc.pid}/maps")
            deadline = time.monotonic() + 30
            while b"_multiarray_umath" not in maps.read_bytes():
                assert time.monotonic() < deadline, "numpy never loaded"
                time.sleep(0.02)
            time.sleep(0.2)
            assert proc_status(server.proc.pid)["Threads"].strip() == "1"
        finally:
            server.stop(timeout=10)
        assert server.proc.returncode == 0

    def test_fault_of_one_job_does_not_leak_into_the_next(self, tmp_path):
        executor = LocalExecutor(num_workers=1)
        try:
            # The doomed task also starts the server: the server must not
            # arm the fault itself.
            _, returncode = run_one(
                executor, worker_task(tmp_path, "doomed", "worker.crash"))
            assert returncode == CRASH_EXIT_CODE
            assert not (tmp_path / "doomed.result.json").exists()
            _, returncode = run_one(executor, worker_task(tmp_path, "healthy"))
            assert returncode == 0
            assert result_of(tmp_path, "healthy")["status"] == "ok"
        finally:
            executor.close()

    def test_warm_worker_traceback_lands_in_its_log(self, tmp_path):
        executor = LocalExecutor(num_workers=1)
        try:
            assert run_one(executor, worker_task(tmp_path, "warmup"))[1] == 0
            broken = worker_task(tmp_path, "broken",
                                 spec_path=tmp_path / "missing.json")
            assert run_one(executor, broken)[1] == 1
        finally:
            executor.close()
        log = (tmp_path / "logs" / "broken.log").read_text(encoding="utf-8")
        assert "Traceback" in log
        assert "FileNotFoundError" in log

    def test_tiny_memory_limit_is_a_captured_failure(self, tmp_path):
        specs = [
            # The network alone needs far more than 1 MB beyond what the
            # fork server has already mapped.
            JobSpec(job_id="tiny", network={"generate": "multiplier", "width": 128},
                    script=("BF",), verify="sim", mem_limit_mb=1),
            JobSpec(job_id="ok", network={"generate": "adder", "width": 4},
                    script=("BF",), verify="sim"),
        ]
        report = run_batch(specs, tmp_path / "batch", num_workers=1,
                           max_attempts=2, backoff_base=0.01)
        by_id = {job["job_id"]: job for job in report.jobs}
        assert by_id["ok"]["state"] == "done"
        assert by_id["tiny"]["state"] == "quarantined"
        assert by_id["tiny"]["attempts"] == 2
        assert by_id["tiny"]["error"].startswith("MemoryError")
        assert report.retries == 1 and report.quarantined == 1
        record = JobJournal.replay(tmp_path / "batch" / "journal.jsonl").records["tiny"]
        assert "MemoryError" in record.traceback

    def test_a_lost_server_reports_its_workers_killed(self, tmp_path):
        executor = LocalExecutor(num_workers=1)
        try:
            hung = worker_task(tmp_path, "hung", "worker.hang")
            handle = executor.submit(hung)
            server = executor._fork_server
            os.kill(server.proc.pid, signal.SIGKILL)
            (task_exit,) = wait_exits(executor, 1)
            assert task_exit.returncode == -signal.SIGKILL
            assert wait_gone(handle.pid)
            # The next worker task starts a fresh server.
            assert run_one(executor, worker_task(tmp_path, "next"))[1] == 0
            assert executor._fork_server is not server
        finally:
            executor.close()
