"""Named check targets and the fingerprint-cached check runner.

``python -m repro check <target>`` resolves names here.  A target is a
named bundle of artifacts (protocols, programs, machines); running it
produces the concatenated diagnostics of every artifact's checker.

Check results are cached through :func:`repro.runtime.cache.artifact_cache`
keyed by a content fingerprint of the artifact *plus* a checker version —
re-checking an unchanged protocol is a dict lookup (or a disk read with
``REPRO_CACHE_DIR`` set), and bumping :data:`CHECKER_VERSION` after a
checker change invalidates exactly the stale results.  Cached values are
the ``to_dict`` forms, so disk entries stay readable across refactors of
the ``Diagnostic`` class itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.diagnostics import Diagnostic

#: Bump when any checker's behaviour changes; keys cached check results.
CHECKER_VERSION = 1


# ----------------------------------------------------------------------
# Cached single-artifact checks
# ----------------------------------------------------------------------
def _cached(kind: str, fingerprint: str, run: Callable[[], List[Diagnostic]]):
    from repro.runtime.cache import artifact_cache

    key = f"check-{kind}-v{CHECKER_VERSION}-{fingerprint}"
    raw = artifact_cache().get_or_build(
        key, lambda: [d.to_dict() for d in run()]
    )
    return [Diagnostic.from_dict(entry) for entry in raw]


def check_protocol_cached(protocol) -> List[Diagnostic]:
    from repro.analysis.statics.protocol_checks import check_protocol
    from repro.runtime.cache import protocol_fingerprint

    return _cached(
        "protocol", protocol_fingerprint(protocol), lambda: check_protocol(protocol)
    )


def check_program_cached(program, *, name: str = "program") -> List[Diagnostic]:
    from repro.analysis.statics.program_checks import check_program
    from repro.runtime.cache import program_fingerprint

    return _cached(
        "program",
        program_fingerprint(program),
        lambda: check_program(program, name=name),
    )


def check_machine_cached(machine) -> List[Diagnostic]:
    from repro.analysis.statics.machine_checks import check_machine
    from repro.runtime.cache import machine_fingerprint

    return _cached(
        "machine", machine_fingerprint(machine), lambda: check_machine(machine)
    )


def check_pipeline(program, *, name: str) -> List[Diagnostic]:
    """Check all three IRs of a compiled program: the program itself, the
    lowered machine, and the final protocol (via the compilation cache,
    so the expensive build happens at most once per content address)."""
    from repro.runtime.cache import cached_compile_program

    result = cached_compile_program(program, name)
    out = check_program_cached(program, name=name)
    out.extend(check_machine_cached(result.machine))
    out.extend(check_protocol_cached(result.protocol))
    return out


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
def _check_examples() -> List[Diagnostic]:
    from repro.programs.examples import figure1_program, simple_threshold_program

    out = check_program_cached(figure1_program(), name="figure1")
    out.extend(
        check_program_cached(simple_threshold_program(3), name="simple-threshold-3")
    )
    return out


def _check_baselines() -> List[Diagnostic]:
    from repro.baselines.binary import binary_threshold_protocol
    from repro.baselines.majority import majority_protocol
    from repro.baselines.remainder import remainder_protocol
    from repro.baselines.unary import unary_threshold_protocol

    out: List[Diagnostic] = []
    for protocol in (
        unary_threshold_protocol(5),
        binary_threshold_protocol(13),
        majority_protocol(),
        remainder_protocol(3, 1),
    ):
        out.extend(check_protocol_cached(protocol))
    return out


def _check_pipelines() -> List[Diagnostic]:
    from repro.programs.examples import simple_threshold_program

    return check_pipeline(simple_threshold_program(2), name="simple-threshold-2")


def _check_lipton() -> List[Diagnostic]:
    # n = 1 keeps the target tractable: the protocol checks list δ in full,
    # 430,420 transitions there, and n = 2's 5.7M transitions are above
    # the expansion limit (the double-exponential is doing its job).
    from repro.lipton.construction import build_threshold_program

    return check_pipeline(build_threshold_program(1), name="lipton-n1")


#: name → (description, runner).  ``all`` is synthesised below.
TARGETS: Dict[str, Tuple[str, Callable[[], List[Diagnostic]]]] = {
    "examples": (
        "the example programs (figure1, simple-threshold)",
        _check_examples,
    ),
    "baselines": (
        "the baseline protocols (unary, binary, majority, remainder)",
        _check_baselines,
    ),
    "pipeline": (
        "a full program → machine → protocol compilation (simple-threshold)",
        _check_pipelines,
    ),
    "lipton": (
        "the Theorem 1 construction at n = 1, through all three IRs",
        _check_lipton,
    ),
}


def target_names() -> List[str]:
    return [*TARGETS, "all"]


def run_target(name: str) -> List[Diagnostic]:
    """Diagnostics for one named target (``all`` = every registered one).

    Raises ``KeyError`` for unknown names; the CLI turns that into a
    usage error (exit 2).
    """
    if name == "all":
        out: List[Diagnostic] = []
        for _description, runner in TARGETS.values():
            out.extend(runner())
        return out
    return TARGETS[name][1]()


def run_targets(names: Sequence[str]) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for name in names:
        out.extend(run_target(name))
    return out
