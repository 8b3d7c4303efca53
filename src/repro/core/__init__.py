"""Core population-protocol model (Section 3 of the paper).

Exports the multiset/configuration type, the protocol model, schedulers,
the simulation driver, the exact stable-computation checker and the
predicate encodings.
"""

from repro.core.errors import (
    ExecutionLimitExceeded,
    ExpansionLimitExceeded,
    InvalidConfigurationError,
    InvalidMachineError,
    InvalidProgramError,
    InvalidProtocolError,
    NonConvergenceError,
    ReproError,
)
from repro.core.composition import (
    conjunction,
    disjunction,
    interval_protocol,
    negate,
    product,
)
from repro.core.batched import BatchedScheduler, DenseConfig, numpy_available
from repro.core.fastpath import (
    EnabledIndex,
    FastEnabledScheduler,
    FastUniformScheduler,
)
from repro.core.multiset import Multiset
from repro.core.predicates import (
    Equality,
    Interval,
    Majority,
    Predicate,
    Remainder,
    ShiftedThreshold,
    Threshold,
    binary_length,
)
from repro.core.protocol import ClassRule, PopulationProtocol, Transition
from repro.core.scheduler import (
    EnabledTransitionScheduler,
    SchedulerStep,
    UniformPairScheduler,
)
from repro.core.semantics import (
    apply_transition,
    configuration_graph,
    enabled_transitions,
    is_silent,
    reachable_configurations,
    successors,
    transition_enabled,
)
from repro.core.simulation import (
    SimulationResult,
    decide,
    derive_seed,
    engine_label,
    resolve_engine,
    scheduler_for_engine,
    simulate,
)
from repro.core.stability import (
    initial_configurations,
    stabilisation_verdict,
    strongly_connected_components,
    terminal_sccs,
    verify_decides,
)

__all__ = [
    "ReproError",
    "InvalidProtocolError",
    "InvalidConfigurationError",
    "InvalidProgramError",
    "InvalidMachineError",
    "ExecutionLimitExceeded",
    "ExpansionLimitExceeded",
    "NonConvergenceError",
    "Multiset",
    "negate",
    "product",
    "conjunction",
    "disjunction",
    "interval_protocol",
    "PopulationProtocol",
    "ClassRule",
    "Transition",
    "UniformPairScheduler",
    "EnabledTransitionScheduler",
    "FastEnabledScheduler",
    "FastUniformScheduler",
    "BatchedScheduler",
    "DenseConfig",
    "numpy_available",
    "EnabledIndex",
    "SchedulerStep",
    "simulate",
    "decide",
    "derive_seed",
    "engine_label",
    "resolve_engine",
    "scheduler_for_engine",
    "SimulationResult",
    "stabilisation_verdict",
    "verify_decides",
    "initial_configurations",
    "terminal_sccs",
    "strongly_connected_components",
    "transition_enabled",
    "enabled_transitions",
    "apply_transition",
    "successors",
    "reachable_configurations",
    "configuration_graph",
    "is_silent",
    "Predicate",
    "Threshold",
    "Equality",
    "Interval",
    "Remainder",
    "Majority",
    "ShiftedThreshold",
    "binary_length",
]
