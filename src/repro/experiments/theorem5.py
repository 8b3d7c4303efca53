"""Experiment TH5 — Theorem 5 / Propositions 14 & 16: conversion overhead.

Size side: program size → machine size → protocol states, verifying the
O(·) relationships and Proposition 16's explicit bound.  Behaviour side:
*lockstep co-simulation* — drive the converted protocol with a random
scheduler and check that the sequence of π-image configurations it passes
through is a legal run of the machine."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.core.errors import ReproError
from repro.core.scheduler import EnabledTransitionScheduler
from repro.core.semantics import apply_transition_inplace
from repro.experiments.report import render_table
from repro.lipton.construction import build_threshold_program
from repro.machines.interpreter import machine_successors
from repro.machines.lowering import lower_program
from repro.programs.examples import figure1_program, simple_threshold_program
from repro.programs.size import program_size
from repro.conversion.mapping import inverse_pi, pi
from repro.conversion.pipeline import PipelineResult, compile_program
from repro.conversion.protocol_from_machine import (
    convert_machine,
    proposition16_state_bound,
)


@dataclass
class ConversionRow:
    name: str
    program_size: int
    machine_size: int
    inner_states: int
    bound: int
    final_states: int
    shift: int

    @property
    def bound_holds(self) -> bool:
        return self.inner_states <= self.bound


def conversion_rows(
    builders: Optional[List] = None,
) -> List[ConversionRow]:
    """One size row per ``(name, make_program)`` builder.

    Each program is lowered and converted, but not broadcast: the output
    broadcast lifts every inner state to exactly two opinion states, so
    |Q'| = 2·|Q*| is read off the conversion, at a fraction of the
    memory a full :func:`compile_program` takes on ``lipton-n2``.
    """
    if builders is None:
        builders = [
            ("thr2", lambda: simple_threshold_program(2)),
            ("thr5", lambda: simple_threshold_program(5)),
            ("figure1", figure1_program),
            ("lipton-n1", lambda: build_threshold_program(1)),
            ("lipton-n2", lambda: build_threshold_program(2)),
        ]
    rows = []
    for name, make in builders:
        program = make()
        machine = lower_program(program, name=f"{name}-machine")
        conversion = convert_machine(machine, name=f"{name}-inner")
        inner_states = conversion.protocol.state_count
        rows.append(
            ConversionRow(
                name=name,
                program_size=program_size(program).total,
                machine_size=machine.size(),
                inner_states=inner_states,
                bound=proposition16_state_bound(machine),
                final_states=2 * inner_states,
                shift=conversion.shift,
            )
        )
    return rows


def render_conversion(rows: List[ConversionRow]) -> str:
    header = [
        "program",
        "prog size",
        "machine size",
        "|Q*|",
        "P16 bound",
        "|Q'|",
        "shift |F|",
        "bound ok",
    ]
    return render_table(
        header,
        [
            (
                r.name,
                r.program_size,
                r.machine_size,
                r.inner_states,
                r.bound,
                r.final_states,
                r.shift,
                r.bound_holds,
            )
            for r in rows
        ],
    )


class LockstepViolation(ReproError):
    """The protocol visited a π-image that is not machine-reachable."""


def lockstep_check(
    pipeline: PipelineResult,
    register_values,
    *,
    seed: int = 0,
    interactions: int = 200_000,
) -> int:
    """Drive the *inner* protocol from π(initial machine config) and verify
    every consecutive pair of distinct π-images is a machine step.

    Returns the number of verified machine steps.  Raises
    :class:`LockstepViolation` on a mismatch.
    """
    conversion = pipeline.conversion
    machine = pipeline.machine
    current_machine = machine.initial_configuration(register_values)
    config = pi(conversion, current_machine)
    protocol = conversion.protocol
    rng = random.Random(seed)
    scheduler = EnabledTransitionScheduler()
    verified = 0
    for _ in range(interactions):
        step = scheduler.select(protocol, config, rng)
        if step.transition is None:
            break
        apply_transition_inplace(config, step.transition)
        observed = inverse_pi(conversion, config)
        if observed is None:
            continue
        if observed.freeze() == current_machine.freeze():
            continue
        legal = [s.freeze() for s in machine_successors(machine, current_machine)]
        if observed.freeze() not in legal:
            raise LockstepViolation(
                f"protocol reached pi-image {observed.pointers} not a machine "
                f"successor of {current_machine.pointers}"
            )
        current_machine = observed
        verified += 1
    return verified


if __name__ == "__main__":
    rows = conversion_rows()
    print(render_conversion(rows))
    pipeline = compile_program(simple_threshold_program(2), "thr2")
    print("verified lockstep machine steps:", lockstep_check(pipeline, {"x": 3}))
