"""Static verification layer over the three IRs (protocols, programs,
machines).

One checker per IR, all reporting uniform
:class:`~repro.core.diagnostics.Diagnostic` records:

* :func:`check_protocol` — coverability-based dead-transition and
  unreachable-state analysis, shadowing, output-partition completeness,
  silence certificates, compiled-table conservation (``PROT001–007``);
* :func:`check_program` — well-formedness (via
  :func:`repro.programs.validate.validate_diagnostics`) plus unreachable
  statements, register liveness, dead procedures and the swap-size
  cross-check (``PRG001–012``);
* :func:`check_machine` — IP-graph reachability, dead pointer-domain
  values, return-pointer discipline, end-hang detection (``MCH001–004``).

The ``*_cached`` variants and the named-target registry used by
``python -m repro check`` live in :mod:`repro.analysis.statics.targets`;
the source lint (``LNT*``) is the separate :mod:`repro.lint` package.
The full code table is in DESIGN.md §11.
"""

from repro.core.diagnostics import (
    Diagnostic,
    DiagnosticError,
    at_or_above,
    count_by_severity,
    diagnostics_to_json,
    max_severity,
    render_diagnostics,
    severity_rank,
)
from repro.analysis.statics.machine_checks import (
    check_machine,
    instruction_successors,
    reachable_instructions,
)
from repro.analysis.statics.program_checks import check_program
from repro.analysis.statics.protocol_checks import (
    check_protocol,
    check_table_conservation,
    coverable_states,
    self_silent_states,
)
from repro.analysis.statics.targets import (
    TARGETS,
    check_machine_cached,
    check_pipeline,
    check_program_cached,
    check_protocol_cached,
    run_target,
    run_targets,
    target_names,
)

__all__ = [
    "Diagnostic",
    "DiagnosticError",
    "at_or_above",
    "count_by_severity",
    "diagnostics_to_json",
    "max_severity",
    "render_diagnostics",
    "severity_rank",
    "check_protocol",
    "check_table_conservation",
    "coverable_states",
    "self_silent_states",
    "check_program",
    "check_machine",
    "instruction_successors",
    "reachable_instructions",
    "TARGETS",
    "run_target",
    "run_targets",
    "target_names",
    "check_protocol_cached",
    "check_program_cached",
    "check_machine_cached",
    "check_pipeline",
]
