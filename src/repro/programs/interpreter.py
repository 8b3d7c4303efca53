"""A randomized fair interpreter for population programs (Section 4).

The paper's semantics are nondeterministic; correctness quantifies over
*fair* runs.  This interpreter samples runs by resolving each
nondeterministic choice randomly:

* ``detect x > 0`` answers *false* when ``x = 0``; when ``x > 0`` it
  answers *true* with probability ``detect_true_probability`` (so it may
  answer *false* spuriously — the defining weakness of the primitive — but
  not forever, giving fairness with probability 1);
* ``restart`` draws the new register configuration from a pluggable
  :class:`~repro.programs.restart.RestartPolicy`.

Stabilisation of an infinite run is approximated by a *quiet period*: once
no restart and no output-flag change has occurred for a long stretch of
primitive steps, the run is (for the constructions in this repository,
provably — see Lemma 4) locked into its final output.  The drivers report
the quiet-period evidence so callers can judge the verdict.

Hanging (a ``move`` from an empty register) is detected and reported: per
the semantics the configuration then never changes again, so a hung run
*stabilises* to its current output flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import monotonic
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.errors import (
    InvalidProgramError,
    NonConvergenceError,
)
from repro.programs.ast import (
    And,
    CallExpr,
    CallStmt,
    Condition,
    Const,
    Detect,
    If,
    Move,
    Not,
    Or,
    PopulationProgram,
    Restart,
    Return,
    SetOutput,
    Statement,
    Swap,
    While,
)
from repro.observability import spans as _spans
from repro.observability.events import LAYER_PROGRAM
from repro.observability.observer import Observer, live
from repro.programs.restart import RestartPolicy, UniformRestart


class _RestartSignal(Exception):
    """Internal: unwinds the call stack on ``restart``."""


class _HangSignal(Exception):
    """Internal: a move from an empty register — the run hangs forever."""


class _StopSignal(Exception):
    """Internal: budget exhausted or the caller's stop condition fired."""


@dataclass
class _ReturnBox:
    value: Optional[bool]


@dataclass
class RunResult:
    """Observable outcome of a sampled (finite prefix of a) run."""

    registers: Dict[str, int]
    output: bool
    steps: int
    restarts: int
    hung: bool
    main_returned: bool
    quiet_steps: int
    of_trace: List[Tuple[int, bool]] = field(default_factory=list)
    restart_steps: List[int] = field(default_factory=list)
    #: True when the run stopped because a wall-clock ``deadline`` passed.
    deadline_exceeded: bool = False

    @property
    def total(self) -> int:
        return sum(self.registers.values())


class ProgramInterpreter:
    """Sample runs of a population program.

    One interpreter instance may be reused across runs; all mutable run
    state lives in locals of :meth:`run`.
    """

    def __init__(
        self,
        program: PopulationProgram,
        *,
        detect_true_probability: float = 0.75,
        restart_policy: Optional[RestartPolicy] = None,
    ):
        if not 0.0 < detect_true_probability <= 1.0:
            raise ValueError("detect_true_probability must be in (0, 1]")
        self.program = program
        self.detect_true_probability = detect_true_probability
        self.restart_policy = restart_policy or UniformRestart()

    # ------------------------------------------------------------------
    # Run driver
    # ------------------------------------------------------------------
    def run(
        self,
        initial_registers: Mapping[str, int],
        *,
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        max_steps: int = 1_000_000,
        stop_condition: Optional[Callable[["_RunState"], bool]] = None,
        observer: Optional[Observer] = None,
        faults=None,
        deadline: Optional[float] = None,
    ) -> RunResult:
        """Execute from the given register configuration (missing registers
        default to 0; per the model they may hold *any* value).

        ``observer`` receives statement dispatch, detect outcomes,
        restarts, output flips, hangs and sampled register snapshots (see
        :mod:`repro.observability`); it never touches the random stream.

        ``faults`` takes a :class:`~repro.resilience.FaultPlan` (or bound
        injector) whose corrupt/reset records perturb the register
        configuration at their trigger steps — transient faults in the
        self-stabilisation sense.  Interaction-level records (drop,
        duplicate, unfair) have no program-layer meaning and are inert.
        ``deadline`` bounds the run in wall-clock seconds
        (``REPRO_DEADLINE`` supplies a default); an expired run stops with
        ``deadline_exceeded`` set.
        """
        if rng is None:
            rng = random.Random(seed)
        from repro.core.simulation import resolve_deadline
        from repro.resilience.faults import resolve_injector

        injector = resolve_injector(faults, seed)
        deadline = resolve_deadline(deadline)
        registers = {name: 0 for name in self.program.registers}
        for name, value in initial_registers.items():
            if name not in registers:
                raise InvalidProgramError(f"unknown register {name!r}")
            if value < 0:
                raise InvalidProgramError("register values must be nonnegative")
            registers[name] = value

        obs = live(observer)
        state = _RunState(
            registers=registers,
            rng=rng,
            max_steps=max_steps,
            stop_condition=stop_condition,
            detect_true_probability=self.detect_true_probability,
            obs=obs,
            obs_snapshot=obs.snapshot_interval if obs is not None else None,
            faults=injector,
            deadline_at=(
                monotonic() + deadline if deadline is not None else None
            ),
        )
        total = sum(registers.values())
        hung = False
        main_returned = False
        if obs is not None:
            obs.on_run_start(
                LAYER_PROGRAM,
                total=total,
                registers=dict(registers),
                restart_policy=type(self.restart_policy).__name__,
            )
        while True:
            try:
                self._call(self.program.main, state)
                main_returned = True
                break
            except _RestartSignal:
                state.restarts += 1
                state.restart_steps.append(state.steps)
                state.last_event_step = state.steps
                # Resample at the *live* total: register faults preserve
                # it, but churn faults (joins/leaves) resize the run, and
                # a restart must redistribute the population that exists
                # now, not the one the run started with.  Bit-identical
                # to the old captured total when no churn occurred.
                state.registers = self.restart_policy.sample(
                    sum(state.registers.values()),
                    self.program.registers,
                    state.rng,
                )
                if obs is not None:
                    obs.on_restart(
                        state.steps,
                        state.restarts,
                        LAYER_PROGRAM,
                        registers=dict(state.registers),
                    )
                continue
            except _HangSignal:
                hung = True
                break
            except _StopSignal:
                break
        if obs is not None:
            obs.on_run_end(
                state.steps,
                LAYER_PROGRAM,
                output=state.output,
                restarts=state.restarts,
                hung=hung,
                main_returned=main_returned,
                quiet_steps=state.steps - state.last_event_step,
                registers=dict(state.registers),
            )
        return RunResult(
            registers=dict(state.registers),
            output=state.output,
            steps=state.steps,
            restarts=state.restarts,
            hung=hung,
            main_returned=main_returned,
            quiet_steps=state.steps - state.last_event_step,
            of_trace=state.of_trace,
            restart_steps=state.restart_steps,
            deadline_exceeded=state.deadline_exceeded,
        )

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def _call(self, name: str, state: "_RunState") -> Optional[bool]:
        proc = self.program.procedure(name)
        box = _ReturnBox(None)
        finished = self._exec_block(proc.body, state, box)
        if not finished:
            return box.value
        return box.value

    def _exec_block(
        self,
        body: Tuple[Statement, ...],
        state: "_RunState",
        box: _ReturnBox,
    ) -> bool:
        """Execute a body; returns False when a Return was executed."""
        for stmt in body:
            if not self._exec_stmt(stmt, state, box):
                return False
        return True

    def _exec_stmt(
        self, stmt: Statement, state: "_RunState", box: _ReturnBox
    ) -> bool:
        obs = state.obs
        if isinstance(stmt, Move):
            state.tick()
            if state.registers[stmt.src] == 0:
                if obs is not None:
                    obs.on_hang(state.steps, LAYER_PROGRAM, stmt.src)
                raise _HangSignal()
            state.registers[stmt.src] -= 1
            state.registers[stmt.dst] += 1
            if obs is not None:
                obs.on_statement(state.steps, "move", f"{stmt.src}->{stmt.dst}")
            return True
        if isinstance(stmt, Swap):
            state.tick()
            state.registers[stmt.a], state.registers[stmt.b] = (
                state.registers[stmt.b],
                state.registers[stmt.a],
            )
            if obs is not None:
                obs.on_statement(state.steps, "swap", f"{stmt.a}<->{stmt.b}")
            return True
        if isinstance(stmt, SetOutput):
            state.tick()
            if obs is not None:
                obs.on_statement(state.steps, "set_output", str(stmt.value))
            if state.output != stmt.value:
                state.output = stmt.value
                state.of_trace.append((state.steps, stmt.value))
                state.last_event_step = state.steps
                if obs is not None:
                    obs.on_output_flip(state.steps, stmt.value, LAYER_PROGRAM)
            return True
        if isinstance(stmt, Restart):
            state.tick()
            if obs is not None:
                obs.on_statement(state.steps, "restart")
            raise _RestartSignal()
        if isinstance(stmt, Return):
            state.tick()
            if obs is not None:
                obs.on_statement(state.steps, "return", str(stmt.value))
            box.value = stmt.value
            return False
        if isinstance(stmt, CallStmt):
            state.tick()
            if obs is not None:
                obs.on_statement(state.steps, "call", stmt.procedure)
            self._call(stmt.procedure, state)
            return True
        if isinstance(stmt, If):
            if self._eval(stmt.condition, state):
                return self._exec_block(stmt.then_body, state, box)
            return self._exec_block(stmt.else_body, state, box)
        if isinstance(stmt, While):
            while self._eval(stmt.condition, state):
                if not self._exec_block(stmt.body, state, box):
                    return False
            return True
        raise InvalidProgramError(f"unknown statement {stmt!r}")

    # ------------------------------------------------------------------
    # Condition evaluation (short-circuit)
    # ------------------------------------------------------------------
    def _eval(self, condition: Condition, state: "_RunState") -> bool:
        if isinstance(condition, Const):
            # Constants tick so that `while true` loops with empty bodies
            # still make observable progress (and respect step budgets).
            state.tick()
            return condition.value
        if isinstance(condition, Detect):
            state.tick()
            if state.registers[condition.register] == 0:
                if state.obs is not None:
                    state.obs.on_detect(
                        state.steps, condition.register, False, False, LAYER_PROGRAM
                    )
                return False
            answer = state.rng.random() < state.detect_true_probability
            if state.obs is not None:
                state.obs.on_detect(
                    state.steps, condition.register, True, answer, LAYER_PROGRAM
                )
            return answer
        if isinstance(condition, CallExpr):
            state.tick()
            value = self._call(condition.procedure, state)
            if value is None:
                raise InvalidProgramError(
                    f"procedure {condition.procedure!r} returned no value"
                )
            return value
        if isinstance(condition, Not):
            return not self._eval(condition.inner, state)
        if isinstance(condition, And):
            return self._eval(condition.left, state) and self._eval(
                condition.right, state
            )
        if isinstance(condition, Or):
            return self._eval(condition.left, state) or self._eval(
                condition.right, state
            )
        raise InvalidProgramError(f"unknown condition {condition!r}")


@dataclass
class _RunState:
    registers: Dict[str, int]
    rng: random.Random
    max_steps: int
    stop_condition: Optional[Callable[["_RunState"], bool]]
    detect_true_probability: float
    obs: Optional[Observer] = None
    obs_snapshot: Optional[int] = None
    faults: Optional[object] = None
    deadline_at: Optional[float] = None
    deadline_exceeded: bool = False
    steps: int = 0
    restarts: int = 0
    output: bool = False
    last_event_step: int = 0
    of_trace: List[Tuple[int, bool]] = field(default_factory=list)
    restart_steps: List[int] = field(default_factory=list)

    def tick(self) -> None:
        self.steps += 1
        if self.faults is not None and self.steps >= self.faults.next_at:
            # A fresh view each firing: `registers` is replaced wholesale
            # on restart, so a cached one could alias a dead dict.
            from repro.resilience.faults import RegisterView

            self.faults.fire(
                self.steps, RegisterView(self.registers), self.obs, LAYER_PROGRAM
            )
            # A perturbation is an event: the quiet window measures
            # recovery *after* the fault, not stability before it.
            self.last_event_step = self.steps
        if (
            self.obs_snapshot is not None
            and self.steps % self.obs_snapshot == 0
        ):
            self.obs.on_snapshot(self.steps, dict(self.registers), LAYER_PROGRAM)
        if self.steps >= self.max_steps:
            raise _StopSignal()
        if (
            self.deadline_at is not None
            and not self.steps & 255
            and monotonic() >= self.deadline_at
        ):
            self.deadline_exceeded = True
            raise _StopSignal()
        if self.stop_condition is not None and self.stop_condition(self):
            raise _StopSignal()

    @property
    def quiet_steps(self) -> int:
        return self.steps - self.last_event_step


@dataclass
class ProcedureOutcome:
    """Result of executing a single procedure (see
    :meth:`ProgramInterpreter.call_procedure`).

    Exactly one of the terminal conditions holds: the procedure returned
    (``value`` is its return value, or None for plain returns /
    fall-through), ``restarted``, ``hung``, or the step budget ran out
    (``exhausted``).
    """

    registers: Dict[str, int]
    value: Optional[bool]
    restarted: bool
    hung: bool
    exhausted: bool
    steps: int

    @property
    def returned(self) -> bool:
        return not (self.restarted or self.hung or self.exhausted)


def call_procedure(
    program: PopulationProgram,
    name: str,
    initial_registers: Mapping[str, int],
    *,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    detect_true_probability: float = 0.75,
    max_steps: int = 1_000_000,
) -> ProcedureOutcome:
    """Execute one procedure on a register configuration and observe the
    outcome — the executable counterpart of the paper's
    ``C, f → C', b`` notation (Section 4, *Notation*).

    Used by the test suite to check the per-procedure lemmas (8–12)
    directly against their specifications.
    """
    if rng is None:
        rng = random.Random(seed)
    interp = ProgramInterpreter(
        program, detect_true_probability=detect_true_probability
    )
    registers = {reg: 0 for reg in program.registers}
    for reg, value in initial_registers.items():
        if reg not in registers:
            raise InvalidProgramError(f"unknown register {reg!r}")
        registers[reg] = value
    state = _RunState(
        registers=registers,
        rng=rng,
        max_steps=max_steps,
        stop_condition=None,
        detect_true_probability=detect_true_probability,
    )
    restarted = hung = exhausted = False
    value: Optional[bool] = None
    try:
        value = interp._call(name, state)
    except _RestartSignal:
        restarted = True
    except _HangSignal:
        hung = True
    except _StopSignal:
        exhausted = True
    return ProcedureOutcome(
        registers=dict(state.registers),
        value=value,
        restarted=restarted,
        hung=hung,
        exhausted=exhausted,
        steps=state.steps,
    )


def run_program(
    program: PopulationProgram,
    initial_registers: Mapping[str, int],
    *,
    seed: Optional[int] = None,
    restart_policy: Optional[RestartPolicy] = None,
    detect_true_probability: float = 0.75,
    max_steps: int = 1_000_000,
    stop_condition: Optional[Callable] = None,
    observer: Optional[Observer] = None,
    faults=None,
    deadline: Optional[float] = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`ProgramInterpreter`.

    When a span tracer is active the run is wrapped in a ``program`` span
    (a single contextvar read otherwise).
    """
    interp = ProgramInterpreter(
        program,
        detect_true_probability=detect_true_probability,
        restart_policy=restart_policy,
    )
    with _spans.span("program", seed=seed):
        return interp.run(
            initial_registers,
            seed=seed,
            max_steps=max_steps,
            stop_condition=stop_condition,
            observer=observer,
            faults=faults,
            deadline=deadline,
        )


def decide_program(
    program: PopulationProgram,
    initial_registers: Mapping[str, int],
    *,
    seed: Optional[int] = None,
    restart_policy: Optional[RestartPolicy] = None,
    detect_true_probability: float = 0.75,
    quiet_window: int = 50_000,
    max_steps: int = 5_000_000,
    strict: bool = True,
    observer: Optional[Observer] = None,
    faults=None,
    deadline: Optional[float] = None,
) -> bool:
    """Sample a run until it is *quiet* (no restart / output change for
    ``quiet_window`` steps) and return the stabilised output flag.

    A hung run also yields a verdict (its output never changes again).
    With ``strict`` (default) a run that exhausts ``max_steps`` without a
    quiet period raises :class:`NonConvergenceError`; otherwise the current
    output flag is returned as a best guess.

    ``faults`` injects transient register perturbations mid-run (each one
    re-opens the quiet window, so the verdict certifies recovery *after*
    the last fault); ``deadline`` bounds the call in wall-clock seconds
    and, with ``strict``, raises a "deadline exceeded"
    :class:`NonConvergenceError` when it passes first.
    """

    def stop(state: _RunState) -> bool:
        return state.quiet_steps >= quiet_window

    result = run_program(
        program,
        initial_registers,
        seed=seed,
        restart_policy=restart_policy,
        detect_true_probability=detect_true_probability,
        max_steps=max_steps,
        stop_condition=stop,
        observer=observer,
        faults=faults,
        deadline=deadline,
    )
    if result.hung or result.quiet_steps >= quiet_window or result.main_returned:
        return result.output
    if strict:
        if result.deadline_exceeded:
            raise NonConvergenceError(
                f"program did not reach a quiet period before the "
                f"wall-clock deadline (steps: {result.steps}, "
                f"restarts: {result.restarts}): deadline exceeded"
            )
        raise NonConvergenceError(
            f"program did not reach a quiet period within {max_steps} steps "
            f"(restarts: {result.restarts})"
        )
    return result.output
