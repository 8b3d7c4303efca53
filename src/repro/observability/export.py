"""Export format: provenance manifests.

:class:`RunManifest` / :func:`build_manifest` produce the per-run
**provenance manifest**: everything needed to attribute, reproduce and
audit a run — content fingerprints of the protocol/program (from
:mod:`repro.runtime.cache`), the root seed, the fault-plan digest, the
scheduler and job count, cache hit/miss counts, and the package
version.  ``repro trace`` writes one next to every trace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional


# ----------------------------------------------------------------------
# Provenance manifest
# ----------------------------------------------------------------------
MANIFEST_VERSION = 1


def fault_plan_digest(plan: Any) -> Optional[str]:
    """A stable blake2b digest of a fault plan's defining structure
    (``None`` for no plan).  Fault records are frozen dataclasses whose
    ``repr`` is a complete deterministic rendering, same trick as
    :func:`repro.runtime.cache.program_fingerprint`."""
    if plan is None:
        return None
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(plan).encode("utf-8"))
    return h.hexdigest()


@dataclass
class RunManifest:
    """Provenance of one observed run: the audit trail a registry keys on.

    Everything here is either an input (fingerprints, seed, scheduler,
    jobs) or a summary cheap enough to always record (cache stats,
    verdict).  ``extra`` carries target-specific fields (n, population,
    attempts...).
    """

    target: str
    seed: Optional[int] = None
    version: Optional[str] = None
    manifest_version: int = MANIFEST_VERSION
    protocol_fingerprint: Optional[str] = None
    program_fingerprint: Optional[str] = None
    fault_plan: Optional[str] = None
    scheduler: Optional[str] = None
    #: Engine family the run executed under ("legacy"/"fast"/"batched");
    #: ``None`` when the target has no protocol-level simulation.
    engine: Optional[str] = None
    jobs: Optional[int] = None
    cache: Dict[str, int] = field(default_factory=dict)
    outcome: Optional[str] = None
    #: Severity → count summary of the static checks run against the
    #: target's artifacts (``repro.analysis.statics``); ``None`` when no
    #: checks were run for this manifest.
    diagnostics: Optional[Dict[str, int]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, default=repr)

    def write_json(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in raw.items() if k in known})

    @classmethod
    def read_json(cls, path) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


#: Scheduler class → engine family, for manifest derivation.
_SCHEDULER_ENGINES = {
    "BatchedScheduler": "batched",
    "FastEnabledScheduler": "fast",
    "FastUniformScheduler": "fast",
    "EnabledTransitionScheduler": "legacy",
    "UniformPairScheduler": "legacy",
}


def build_manifest(
    target: str,
    *,
    seed: Optional[int] = None,
    protocol: Any = None,
    program: Any = None,
    fault_plan: Any = None,
    scheduler: Any = None,
    engine: Optional[str] = None,
    jobs: Optional[int] = None,
    cache: Any = None,
    outcome: Optional[str] = None,
    diagnostics: Any = None,
    **extra: Any,
) -> RunManifest:
    """Assemble a :class:`RunManifest`, fingerprinting whatever inputs are
    provided (``protocol``/``program`` objects are hashed via
    :mod:`repro.runtime.cache`; ``cache`` is a stats mapping or any
    object with a ``stats()`` method, defaulting to the process-wide
    artifact cache).

    ``engine`` defaults from the scheduler's family when one is given,
    else — for protocol targets that ran the default scheduler — from the
    resolved ``REPRO_ENGINE`` preference; targets with no protocol-level
    simulation leave it ``None``.

    ``diagnostics`` accepts either a ready severity→count mapping or a
    list of :class:`repro.core.diagnostics.Diagnostic` (summarised via
    :func:`~repro.core.diagnostics.count_by_severity`); ``None`` records
    that no static checks ran.
    """
    import repro
    from repro.runtime.cache import (
        artifact_cache,
        program_fingerprint,
        protocol_fingerprint,
    )

    if cache is None:
        cache = artifact_cache()
    scheduler_name = None
    if scheduler is not None:
        scheduler_name = (
            scheduler if isinstance(scheduler, str) else type(scheduler).__name__
        )
    if engine is None:
        if scheduler_name is not None:
            engine = _SCHEDULER_ENGINES.get(scheduler_name)
        elif protocol is not None:
            from repro.core.simulation import resolve_engine

            engine = resolve_engine(None) or "fast"
    diagnostic_counts: Optional[Dict[str, int]] = None
    if diagnostics is not None:
        if isinstance(diagnostics, dict):
            diagnostic_counts = {k: int(v) for k, v in diagnostics.items()}
        else:
            from repro.core.diagnostics import count_by_severity

            diagnostic_counts = dict(count_by_severity(diagnostics))
    return RunManifest(
        target=target,
        seed=seed,
        version=getattr(repro, "__version__", None),
        protocol_fingerprint=(
            protocol_fingerprint(protocol) if protocol is not None else None
        ),
        program_fingerprint=(
            program_fingerprint(program) if program is not None else None
        ),
        fault_plan=fault_plan_digest(fault_plan),
        scheduler=scheduler_name,
        engine=engine,
        jobs=jobs,
        cache=dict(cache.stats() if hasattr(cache, "stats") else cache),
        outcome=outcome,
        diagnostics=diagnostic_counts,
        extra={k: v for k, v in extra.items() if v is not None},
    )
