"""Export formats: Prometheus text exposition and provenance manifests.

Two machine-facing serialisations of a run's telemetry:

* :func:`metrics_to_prometheus` renders a
  :class:`~repro.observability.metrics.Metrics` registry in the
  Prometheus text exposition format (version 0.0.4), the format any
  Prometheus-compatible scraper reads.  The output is deterministic
  (families and labels sorted, no timestamps) so it can be pinned by a
  golden-file test;
* :class:`RunManifest` / :func:`build_manifest` produce the per-run
  **provenance manifest**: everything needed to attribute, reproduce and
  audit a run — content fingerprints of the protocol/program (from
  :mod:`repro.runtime.cache`), the root seed, the fault-plan digest, the
  scheduler and job count, cache hit/miss counts, and the package
  version.  ``repro trace`` writes one next to every trace.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.observability.metrics import Metrics, bucket_bound

# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: ``name[key]`` instrument names become a ``name`` family with a
#: ``key="..."`` label — e.g. ``transition[a,b->c,d]`` →
#: ``repro_transition_total{key="a,b->c,d"}``.
_BRACKETED = re.compile(r"^(?P<family>[^\[\]]+)\[(?P<label>.*)\]$")
_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _family_and_label(name: str) -> Tuple[str, Optional[str]]:
    match = _BRACKETED.match(name)
    if match:
        return match.group("family"), match.group("label")
    return name, None


def _metric_name(namespace: str, family: str, suffix: str = "") -> str:
    raw = f"{namespace}_{family}{suffix}" if namespace else f"{family}{suffix}"
    sanitized = _INVALID_METRIC_CHARS.sub("_", raw)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def metrics_to_prometheus(metrics: Metrics, *, namespace: str = "repro") -> str:
    """Render ``metrics`` in the Prometheus text exposition format.

    Counters get a ``_total`` suffix; histograms expose cumulative
    ``_bucket{le="..."}`` series derived from the power-of-two buckets
    plus ``_count``/``_sum`` (and ``_min``/``_max`` gauges, which the
    native format lacks but the summaries track exactly).  Instrument
    names of the form ``family[key]`` fold into one family with a
    ``key`` label.  Output is fully sorted and timestamp-free, so equal
    registries render byte-identically.
    """
    lines: List[str] = []

    # Counters — grouped into families so bracketed variants share a HELP.
    families: Dict[str, List[Tuple[Optional[str], int]]] = {}
    for name, counter in metrics.counters.items():
        family, label = _family_and_label(name)
        families.setdefault(family, []).append((label, counter.value))
    for family in sorted(families):
        metric = _metric_name(namespace, family, "_total")
        lines.append(f"# TYPE {metric} counter")
        for label, value in sorted(
            families[family], key=lambda pair: (pair[0] is not None, pair[0] or "")
        ):
            labels = {"key": label} if label is not None else {}
            lines.append(f"{metric}{_fmt_labels(labels)} {_fmt_value(value)}")

    # Gauges.
    gauge_families: Dict[str, List[Tuple[Optional[str], Any]]] = {}
    for name, gauge in metrics.gauges.items():
        family, label = _family_and_label(name)
        gauge_families.setdefault(family, []).append((label, gauge.value))
    for family in sorted(gauge_families):
        metric = _metric_name(namespace, family)
        lines.append(f"# TYPE {metric} gauge")
        for label, value in sorted(
            gauge_families[family],
            key=lambda pair: (pair[0] is not None, pair[0] or ""),
        ):
            labels = {"key": label} if label is not None else {}
            lines.append(f"{metric}{_fmt_labels(labels)} {_fmt_value(value)}")

    # Histograms.
    for name in sorted(metrics.histograms):
        histogram = metrics.histograms[name]
        family, label = _family_and_label(name)
        metric = _metric_name(namespace, family)
        base_labels = {"key": label} if label is not None else {}
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for key in sorted(histogram.buckets):
            cumulative += histogram.buckets[key]
            le = bucket_bound(key)
            labels = dict(base_labels, le=_fmt_value(le))
            lines.append(f"{metric}_bucket{_fmt_labels(labels)} {cumulative}")
        labels = dict(base_labels, le="+Inf")
        lines.append(f"{metric}_bucket{_fmt_labels(labels)} {histogram.count}")
        lines.append(
            f"{metric}_sum{_fmt_labels(base_labels)} {_fmt_value(histogram.total)}"
        )
        lines.append(f"{metric}_count{_fmt_labels(base_labels)} {histogram.count}")
        for stat in ("min", "max"):
            value = getattr(histogram, stat)
            if value is not None:
                lines.append(
                    f"{metric}_{stat}{_fmt_labels(base_labels)} {_fmt_value(value)}"
                )

    return "\n".join(lines) + ("\n" if lines else "")


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
