"""Example population programs, including Figure 1 of the paper.

* :func:`figure1_program` — the paper's worked example deciding
  ``φ(x) ⇔ 4 ≤ x < 7`` with registers ``x, y, z`` and procedures
  ``Main``, ``Test(4)``, ``Test(7)``, ``Clean``.
* :func:`interval_program` — the same construction for arbitrary bounds.
* :func:`simple_threshold_program` — the one-sided variant deciding
  ``x ≥ k`` (the smallest interesting program; handy for end-to-end tests
  of the program → machine → protocol pipeline).

Population programs decide predicates of the *total* number of units
``m = |C|`` across all registers (Section 4), so "``x``" in the predicates
refers to that total.
"""

from __future__ import annotations

from repro.core.predicates import Interval, Threshold
from repro.programs.ast import (
    CallExpr,
    Detect,
    If,
    Move,
    Not,
    PopulationProgram,
    Restart,
    Return,
    SetOutput,
    Swap,
    While,
)
from repro.programs.builder import for_loop, procedure, program, seq, while_true


def _test_procedure(name: str, count: int, src: str, dst: str):
    """``Test(i)``: try to move ``count`` units from ``src`` to ``dst``;
    report whether all moves succeeded (Figure 1, middle column)."""
    return procedure(
        name,
        for_loop(
            count,
            lambda _j: If(
                Detect(src),
                then_body=seq(Move(src, dst)),
                else_body=seq(Return(False)),
            ),
        ),
        Return(True),
        returns_value=True,
    )


def interval_program(
    lo: int, hi: int, *, include_noise_register: bool = True, include_swap: bool = True
) -> PopulationProgram:
    """A population program deciding ``lo ≤ m < hi`` in Figure 1's style."""
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    registers = ["x", "y"] + (["z"] if include_noise_register else [])
    noise = "z" if include_noise_register else None
    test_lo = f"Test({lo})"
    test_hi = f"Test({hi})"

    clean_body = []
    if noise is not None:
        clean_body.append(If(Detect(noise), then_body=seq(Restart())))
    if include_swap:
        clean_body.append(Swap("x", "y"))
    clean_body.append(While(Detect("y"), seq(Move("y", "x"))))

    main = procedure(
        "Main",
        SetOutput(False),
        While(Not(CallExpr(test_lo)), seq(procedure_call("Clean"))),
        SetOutput(True),
        While(Not(CallExpr(test_hi)), seq(procedure_call("Clean"))),
        SetOutput(False),
        while_true(procedure_call("Clean")),
    )
    procedures = [
        main,
        _test_procedure(test_lo, lo, "x", "y"),
        _test_procedure(test_hi, hi, "x", "y"),
        procedure("Clean", *clean_body),
    ]
    return program(registers, procedures)


def figure1_program() -> PopulationProgram:
    """The exact program of Figure 1: ``φ(x) ⇔ 4 ≤ x < 7``, registers
    ``x, y, z``, procedures Main, Test(4), Test(7), Clean."""
    return interval_program(4, 7)


def figure1_predicate() -> Interval:
    return Interval(4, 7)


def simple_threshold_program(k: int, *, include_noise_register: bool = False) -> PopulationProgram:
    """A one-sided Figure 1 variant deciding ``m ≥ k``."""
    if k < 1:
        raise ValueError("threshold must be at least 1")
    registers = ["x", "y"] + (["z"] if include_noise_register else [])
    test = f"Test({k})"
    clean_body = []
    if include_noise_register:
        clean_body.append(If(Detect("z"), then_body=seq(Restart())))
    clean_body.append(While(Detect("y"), seq(Move("y", "x"))))
    main = procedure(
        "Main",
        SetOutput(False),
        While(Not(CallExpr(test)), seq(procedure_call("Clean"))),
        SetOutput(True),
        while_true(procedure_call("Clean")),
    )
    procedures = [
        main,
        _test_procedure(test, k, "x", "y"),
        procedure("Clean", *clean_body),
    ]
    return program(registers, procedures)


def simple_threshold_predicate(k: int) -> Threshold:
    return Threshold(k)


def procedure_call(name: str):
    """Alias for a call statement — reads better inside program listings."""
    from repro.programs.ast import CallStmt

    return CallStmt(name)
