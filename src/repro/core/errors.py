"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so downstream users can catch one base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidProtocolError(ReproError):
    """A population protocol definition violates the model's well-formedness
    rules (e.g. a transition mentions an unknown state, or the set of input
    states is empty)."""


class InvalidConfigurationError(ReproError):
    """A configuration is malformed for the object it is used with (e.g. it
    contains states outside the protocol's state set, or it is empty where
    the model requires at least one agent)."""


class InvalidProgramError(ReproError):
    """A population program violates the rules of Section 4 of the paper
    (e.g. cyclic procedure calls, a call to an undefined procedure, or an
    instruction referring to an unknown register)."""


class InvalidMachineError(ReproError):
    """A population machine violates Definition 6 (e.g. a pointer domain is
    empty, an instruction index is out of range, or a register map pointer
    is missing)."""


class ExecutionLimitExceeded(ReproError):
    """A bounded execution (interpreter or simulation) exhausted its step
    budget before reaching the requested condition."""


class ExpansionLimitExceeded(ReproError):
    """A protocol's transition relation, its class rules expanded, is
    larger than :data:`repro.core.protocol.EXPANSION_LIMIT` transitions
    and is not listed explicitly."""


class NonConvergenceError(ReproError):
    """A simulation was asked for a definite verdict but did not stabilise
    within its budget."""
