"""Pluggable SAT solver backends (ROADMAP item 3, docs/ROBUSTNESS.md).

The in-tree CDCL solver (:mod:`repro.sat.solver`) is the trustworthy
default, but deep UNSAT proofs — size-4+ exact synthesis, hard CEC queries —
are exactly where industrial solvers (kissat, CaDiCaL) are orders of
magnitude stronger.  This module defines the seam between the two
worlds:

* :class:`InternalBackend` wraps the pure-python :class:`Solver`
  (assumptions, conflict budgets, deadlines, cooperative cancellation);
* :class:`DimacsSubprocessBackend` runs any DIMACS-speaking binary as a
  supervised subprocess: the CNF is written with
  :func:`repro.sat.dimacs.write_dimacs`, the child runs under a
  wall-clock deadline with the batch supervisor's kill discipline
  (SIGTERM → grace → SIGKILL, process-group wide) so no solver process
  ever outlives its job, ``s SATISFIABLE`` / ``v`` lines are parsed and
  exit codes 10/20 mapped, and anything else — crash, garbage output,
  a model that does not satisfy the clauses — degrades to UNKNOWN for
  that lane instead of failing the run.

Discovery is environment-driven: ``$REPRO_SAT_SOLVERS`` names the
binaries (comma/colon separated commands, arguments allowed); when it
is unset, ``kissat`` and ``cadical`` are probed on ``$PATH``.  With no
binary present :func:`discover_backends` returns an empty list and the
portfolio (:mod:`repro.sat.portfolio`) degrades to internal-only.

Every external SAT answer is validated against the clause list with
:func:`validate_model` before anyone trusts it — a lying solver can
never change a verdict, only waste its own lane.
"""

from __future__ import annotations

import os
import shlex
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from ..runtime.faults import fault_active
from .solver import Solver

__all__ = [
    "BackendResult",
    "SolverBackend",
    "InternalBackend",
    "DimacsSubprocessBackend",
    "discover_backends",
    "validate_model",
    "terminate_process",
    "SOLVERS_ENV_VAR",
    "DEFAULT_SOLVER_NAMES",
]

#: environment variable naming external solver commands
SOLVERS_ENV_VAR = "REPRO_SAT_SOLVERS"

#: binaries probed on $PATH when the env var is unset
DEFAULT_SOLVER_NAMES = ("kissat", "cadical")

#: how often a lane polls its child / cancel event (seconds)
_LANE_POLL_INTERVAL = 0.01

#: conventional SAT-competition exit codes
_EXIT_SAT = 10
_EXIT_UNSAT = 20


@dataclass
class BackendResult:
    """Outcome of one backend lane.

    ``answer`` mirrors the internal solver's convention: ``True`` (SAT),
    ``False`` (UNSAT), ``None`` (no usable answer from this lane).
    ``outcome`` is the lane's fate for observability: ``"sat"``,
    ``"unsat"``, ``"unknown"`` (budget/cancel), ``"timeout"`` (deadline,
    child killed), ``"crash"`` (died / unparsable), or ``"garbled"``
    (claimed SAT with a model that fails validation).  ``model`` uses the
    internal solver's shape — ``model[var]`` is 1/0, index 0 unused —
    and is only set for a *validated* SAT answer.
    """

    backend: str
    answer: bool | None
    outcome: str
    model: list[int] | None = None
    detail: str | None = None
    #: internal-lane search statistics (zero for subprocess lanes)
    conflicts: int = 0
    propagations: int = 0
    decisions: int = 0
    restarts: int = 0
    learned: int = 0
    seconds: float = 0.0


class SolverBackend(Protocol):
    """What the portfolio requires of a lane."""

    name: str

    def solve(
        self,
        num_vars: int,
        clauses: Sequence[Sequence[int]],
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
        deadline: float | None = None,
        cancel: threading.Event | None = None,
    ) -> BackendResult:
        """Solve the CNF; must honor *deadline* and *cancel* and must
        never leak a child process past its return."""
        ...


def validate_model(
    num_vars: int,
    clauses: Sequence[Sequence[int]],
    model: Sequence[int],
    assumptions: Sequence[int] = (),
) -> bool:
    """True when *model* (``model[var]`` truthy = var true) satisfies
    every clause and every assumption.

    This is the trust boundary for external SAT answers: O(total
    literals), so validating even a whole-network CEC model is microseconds
    next to the solve it confirms.
    """
    if len(model) < num_vars + 1:
        return False

    def lit_true(lit: int) -> bool:
        value = bool(model[abs(lit)])
        return value if lit > 0 else not value

    for lit in assumptions:
        if abs(lit) > num_vars or not lit_true(lit):
            return False
    for clause in clauses:
        for lit in clause:
            if abs(lit) <= num_vars and lit_true(lit):
                break
        else:
            return False
    return True


def terminate_process(proc: subprocess.Popen, grace: float) -> None:
    """The supervisor's kill discipline for one child: TERM, grace, KILL.

    Signals the whole process group when the child leads one (lanes
    spawn with ``start_new_session=True``), so a solver that forks
    helpers cannot leak them; falls back to signalling the child alone.
    Always reaps the child before returning — the caller can assert via
    ``/proc`` that nothing survived the race.
    """
    if proc.poll() is not None:
        return
    _signal_group(proc, signal.SIGTERM)
    deadline = time.monotonic() + max(0.0, grace)
    while proc.poll() is None and time.monotonic() < deadline:
        time.sleep(_LANE_POLL_INTERVAL)
    if proc.poll() is None:
        _signal_group(proc, signal.SIGKILL)
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:  # pragma: no cover - kernel refusal
        pass


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), sig)
    except (ProcessLookupError, PermissionError, OSError):
        try:
            proc.send_signal(sig)
        except (ProcessLookupError, OSError):
            pass


class InternalBackend:
    """The pure-python CDCL solver as a portfolio lane.

    Wraps either a live incremental :class:`Solver` (the portfolio hands
    in the builder's solver so learned clauses persist across CEGAR
    iterations) or, when *solver* is ``None``, a fresh solver loaded
    from the clause list per call.
    """

    def __init__(self, solver: Solver | None = None, name: str = "internal") -> None:
        self.name = name
        self._solver = solver

    def solve(
        self,
        num_vars: int,
        clauses: Sequence[Sequence[int]],
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
        deadline: float | None = None,
        cancel: threading.Event | None = None,
    ) -> BackendResult:
        start = time.perf_counter()
        solver = self._solver
        if solver is None:
            solver = Solver()
            solver.new_vars(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
        before = {
            key: getattr(solver, key)
            for key in ("conflicts", "propagations", "decisions", "restarts", "learned")
        }
        answer = solver.solve(
            assumptions=assumptions,
            conflict_budget=conflict_budget,
            deadline=deadline,
            cancel=cancel,
        )
        stats = {
            key: getattr(solver, key) - before[key] for key in before
        }
        if answer is True:
            outcome = "sat"
            model = list(solver.model)
        else:
            model = None
            if answer is False:
                outcome = "unsat"
            elif cancel is not None and cancel.is_set():
                outcome = "unknown"
            elif deadline is not None and time.monotonic() >= deadline:
                outcome = "timeout"
            else:
                outcome = "unknown"
        return BackendResult(
            backend=self.name,
            answer=answer,
            outcome=outcome,
            model=model,
            seconds=time.perf_counter() - start,
            **stats,
        )


class DimacsSubprocessBackend:
    """An external DIMACS solver raced as a supervised subprocess.

    *command* is the argv prefix (the CNF path is appended).  The lane:

    1. writes the CNF (assumptions become unit clauses — sound for a
       one-shot verdict) to a private temp file;
    2. spawns the child in its own session/process group;
    3. polls it against the wall-clock *deadline* and the race's
       *cancel* event; an overdue or cancelled child gets the
       supervisor's SIGTERM → *grace* → SIGKILL ladder, group-wide;
    4. maps exit codes (10 SAT / 20 UNSAT) and parses the
       ``s``/``v`` output lines;
    5. reports ``crash`` for any other exit, ``garbled`` when a claimed
       model fails :func:`validate_model` — both are just UNKNOWN lanes
       to the portfolio, never run failures.

    The ``sat.backend.crash`` and ``sat.backend.garble`` fault points
    let chaos tests kill or corrupt this lane mid-race.
    """

    def __init__(
        self,
        command: Sequence[str] | str,
        name: str | None = None,
        grace: float = 1.0,
    ) -> None:
        if isinstance(command, str):
            command = shlex.split(command)
        if not command:
            raise ValueError("external solver command must not be empty")
        self.command = list(command)
        self.name = name or os.path.basename(self.command[0])
        self.grace = grace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DimacsSubprocessBackend({self.name!r}, {self.command!r})"

    def available(self) -> bool:
        """True when the command's executable resolves."""
        exe = self.command[0]
        if os.path.sep in exe:
            return os.path.isfile(exe) and os.access(exe, os.X_OK)
        return shutil.which(exe) is not None

    def solve(
        self,
        num_vars: int,
        clauses: Sequence[Sequence[int]],
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,  # noqa: ARG002 - protocol parity
        deadline: float | None = None,
        cancel: threading.Event | None = None,
    ) -> BackendResult:
        start = time.perf_counter()

        def done(answer, outcome, model=None, detail=None):
            return BackendResult(
                backend=self.name,
                answer=answer,
                outcome=outcome,
                model=model,
                detail=detail,
                seconds=time.perf_counter() - start,
            )

        if fault_active("sat.backend.crash"):
            # Chaos hook: the lane dies before producing anything, as if
            # the binary segfaulted on startup.
            return done(None, "crash", detail="injected sat.backend.crash")

        from .dimacs import write_dimacs

        cnf_fd, cnf_path = tempfile.mkstemp(suffix=".cnf", prefix="repro-sat-")
        proc: subprocess.Popen | None = None
        try:
            with os.fdopen(cnf_fd, "w", encoding="ascii") as fp:
                all_clauses = list(clauses) + [[lit] for lit in assumptions]
                write_dimacs(num_vars, all_clauses, fp)
            try:
                proc = subprocess.Popen(
                    [*self.command, cnf_path],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    stdin=subprocess.DEVNULL,
                    text=True,
                    start_new_session=True,
                )
            except OSError as exc:
                return done(None, "crash", detail=f"spawn failed: {exc}")

            timed_out = cancelled = False
            while True:
                if proc.poll() is not None:
                    break
                if cancel is not None and cancel.is_set():
                    cancelled = True
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    timed_out = True
                    break
                time.sleep(_LANE_POLL_INTERVAL)

            if timed_out or cancelled:
                terminate_process(proc, self.grace)
                # Drain the pipe after the kill so the child can never
                # block on a full pipe between TERM and KILL.
                self._drain(proc)
                return done(None, "timeout" if timed_out else "unknown")

            output = self._drain(proc)
            returncode = proc.wait()
            return self._interpret(
                done, returncode, output, num_vars, clauses, assumptions
            )
        finally:
            if proc is not None and proc.poll() is None:  # pragma: no cover
                terminate_process(proc, self.grace)
            try:
                os.unlink(cnf_path)
            except OSError:
                pass

    @staticmethod
    def _drain(proc: subprocess.Popen) -> str:
        if proc.stdout is None:
            return ""
        try:
            return proc.stdout.read() or ""
        except (OSError, ValueError):
            return ""
        finally:
            try:
                proc.stdout.close()
            except (OSError, ValueError):
                pass

    def _interpret(
        self,
        done,
        returncode: int,
        output: str,
        num_vars: int,
        clauses: Sequence[Sequence[int]],
        assumptions: Sequence[int],
    ) -> BackendResult:
        status_line = None
        model_lits: list[int] = []
        for line in output.splitlines():
            line = line.strip()
            if line.startswith("s "):
                status_line = line[2:].strip().upper()
            elif line.startswith("v ") or line == "v":
                for token in line[1:].split():
                    try:
                        lit = int(token)
                    except ValueError:
                        return done(
                            None, "garbled", detail=f"bad v-line token {token!r}"
                        )
                    if lit != 0:
                        model_lits.append(lit)

        claims_sat = status_line == "SATISFIABLE" or returncode == _EXIT_SAT
        claims_unsat = status_line == "UNSATISFIABLE" or returncode == _EXIT_UNSAT
        if status_line is not None and returncode in (_EXIT_SAT, _EXIT_UNSAT):
            # When both channels speak they must agree.
            if claims_sat and claims_unsat:
                return done(
                    None, "garbled",
                    detail=f"status {status_line!r} vs exit code {returncode}",
                )

        if claims_unsat:
            return done(False, "unsat")
        if claims_sat:
            model = [0] * (num_vars + 1)
            for lit in model_lits:
                var = abs(lit)
                if var > num_vars:
                    continue  # some solvers report helper variables
                model[var] = 1 if lit > 0 else 0
            if fault_active("sat.backend.garble"):
                # Chaos hook: a lying lane — flip every value so the
                # claimed model cannot satisfy a non-trivial formula.
                model = [0] + [1 - value for value in model[1:]]
            if not validate_model(num_vars, clauses, model, assumptions):
                return done(
                    None, "garbled", detail="claimed model fails validation"
                )
            return done(True, "sat", model=model)
        if returncode == 0 and status_line == "UNKNOWN":
            return done(None, "unknown", detail="solver reported unknown")
        return done(
            None, "crash",
            detail=f"exit code {returncode} with no recognizable verdict",
        )


def discover_backends(environ=None, grace: float = 1.0) -> list[DimacsSubprocessBackend]:
    """External lanes available on this machine, in deterministic order.

    ``$REPRO_SAT_SOLVERS`` overrides discovery: comma- or colon-with-
    path-shape-awareness is deliberately avoided — entries are split on
    commas (a path may contain colons on exotic setups but never commas
    here), each entry is a shell-style command.  An entry whose
    executable does not resolve is skipped, never an error: missing
    solvers are the *expected* state on CI and user machines, and the
    portfolio must degrade, not fail.
    """
    environ = os.environ if environ is None else environ
    spec = environ.get(SOLVERS_ENV_VAR)
    backends: list[DimacsSubprocessBackend] = []
    seen: set[str] = set()
    if spec is not None:
        entries = [entry.strip() for entry in spec.split(",") if entry.strip()]
    else:
        entries = list(DEFAULT_SOLVER_NAMES)
    for entry in entries:
        try:
            backend = DimacsSubprocessBackend(entry, grace=grace)
        except ValueError:
            continue
        if not backend.available():
            continue
        if backend.name in seen:
            backend.name = f"{backend.name}-{len(backends)}"
        seen.add(backend.name)
        backends.append(backend)
    return backends
