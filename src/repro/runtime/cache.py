"""Content-addressed cache for compiled artifacts.

The expensive compilations in this repository are pure functions of their
input structure: ``compile_program`` (program → machine → protocol) and
the per-protocol :class:`~repro.core.fastpath.TransitionTable`.  Both are
recomputed wholesale by every process that needs them — which, once runs
fan out across a process pool, means every worker redoing work the parent
already did.  This module gives those artifacts *content addresses*
(stable blake2b fingerprints of the defining structure) and a two-layer
cache:

* **in-memory** — a plain dict.  With the default ``fork`` start method
  the pool's workers inherit the parent's populated cache for free, so
  warming the cache before fan-out means no worker ever compiles;
* **on-disk** (optional) — pickle files under ``REPRO_CACHE_DIR``, written
  atomically (temp file + ``os.replace``) so concurrent workers can share
  one directory without locks.  Disk caching is *off* unless
  ``REPRO_CACHE_DIR`` is set: silently writing outside the repository
  would be a surprising default, and the in-memory layer already covers
  the dominant fork-based path.

Invalidation is by construction: the fingerprint covers every input the
compilation depends on (plus a schema version bumped when the compiled
representation changes), so a changed program or protocol simply has a
different address and never sees a stale artifact.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional

from repro.core._gc import gc_paused
from repro.core.protocol import PopulationProtocol

#: Bumped whenever the pickled artifact layout changes incompatibly
#: (e.g. a TransitionTable slot is added): old disk entries then simply
#: miss instead of deserialising garbage.  v2: checksummed disk format.
#: v3: ``ModeTable.hot1``.  v4: ``ModeTable.touch`` dropped.  v5:
#: ``ModeTable.pair``/``wmult`` replace the pickled ``srecs`` lists.  v6:
#: protocols carry class rules; tables build rule keys on first use.
SCHEMA_VERSION = 6

#: Disk entry layout: magic, 16-byte blake2b of the payload, payload.
#: The checksum catches torn writes and bit rot *before* ``pickle.load``
#: ever sees the bytes — unpickling attacker-grade garbage is a crash (or
#: worse), a checksum mismatch is just a quarantined miss.
_MAGIC = b"RPRC2\x00"
_DIGEST_SIZE = 16

_MISS = object()


def _blake(parts: Iterable[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def protocol_fingerprint(protocol: PopulationProtocol) -> str:
    """A stable content hash of a protocol's defining structure.

    Covers the state set (order-insensitively — the compiled table sorts
    states itself), the explicit transition *sequence* and the rule
    families in order (order matters: candidate order within a key is
    tie-break-relevant for sampling), each class as its sorted member
    reprs, and the input and accepting sets.  No rule is expanded.  The
    display name is deliberately excluded, so identically-structured
    protocols share one compiled table.
    """
    return _blake(
        [
            f"protocol-v{SCHEMA_VERSION}",
            *sorted(map(repr, protocol.states)),
            "|delta|",
            *(repr(t) for t in protocol.explicit),
            "|rules|",
            *(
                part
                for family in protocol.rules
                for part in (
                    "family",
                    *(
                        f"{sorted(map(repr, rule.A))} x {sorted(map(repr, rule.B))}"
                        f" -> {rule.q2!r}, {rule.r2!r}"
                        for rule in family
                    ),
                )
            ),
            "|I|",
            *sorted(map(repr, protocol.input_states)),
            "|O|",
            *sorted(map(repr, protocol.accepting_states)),
        ]
    )


def program_fingerprint(program: Any) -> str:
    """A stable content hash of a population program's AST.

    The AST is a tree of frozen dataclasses whose ``repr`` is a complete,
    deterministic rendering of the structure, so hashing it captures
    exactly the pipeline's input.
    """
    return _blake([f"program-v{SCHEMA_VERSION}", repr(program)])


def machine_fingerprint(machine: Any) -> str:
    """A stable content hash of a population machine's defining structure:
    registers (ordered — addressing is positional through the register
    map), pointer domains (sorted by pointer name; domain order matters
    because initial configurations take the first value) and the
    instruction sequence.  Used to key static-check results for machines,
    mirroring :func:`protocol_fingerprint` / :func:`program_fingerprint`.
    """
    return _blake(
        [
            f"machine-v{SCHEMA_VERSION}",
            *machine.registers,
            "|F|",
            *(
                f"{pointer}={tuple(domain)!r}"
                for pointer, domain in sorted(machine.pointer_domains.items())
            ),
            "|I|",
            # str(AssignInstr) abbreviates its mapping, so render the full
            # table explicitly — distinct mappings must get distinct hashes.
            *(
                f"{instr.target}:={instr.source}:"
                f"{sorted(instr.mapping.items(), key=repr)!r}"
                if hasattr(instr, "mapping")
                else str(instr)
                for instr in machine.instructions
            ),
        ]
    )


class ArtifactCache:
    """Two-layer (memory + optional disk) content-addressed store."""

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.memory: Dict[str, Any] = {}
        self.directory: Optional[Path] = Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.corrupt_entries = 0
        #: Lookups addressed by arguments, memoised to their content
        #: fingerprints (:func:`cached_compile_threshold_protocol`).  In
        #: memory only: after a code change the same arguments may name
        #: different content.
        self.fingerprints: Dict[Any, str] = {}

    # -- core protocol --------------------------------------------------
    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        """Move a failed-integrity entry aside (``<name>.corrupt``) so it
        never poisons another read, while staying on disk for forensics."""
        self.corrupt_entries += 1
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass  # someone else quarantined or removed it first

    def get(self, key: str) -> Any:
        """The cached value, or ``None`` on a miss (cached values are
        compiled artifacts, never ``None``).  A disk entry whose checksum
        or framing fails verification is quarantined and counts as a miss,
        never an error."""
        value = self.memory.get(key, _MISS)
        if value is not _MISS:
            self.hits += 1
            return value
        if self.directory is not None:
            path = self._path(key)
            blob = None
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except OSError:
                blob = None  # absent or unreadable: a plain miss
            if blob is not None:
                header = len(_MAGIC) + _DIGEST_SIZE
                digest = hashlib.blake2b(
                    blob[header:], digest_size=_DIGEST_SIZE
                ).digest()
                if (
                    len(blob) <= header
                    or not blob.startswith(_MAGIC)
                    or blob[len(_MAGIC) : header] != digest
                ):
                    self._quarantine(path)
                else:
                    try:
                        # A compiled artefact is a large acyclic tree of
                        # tuples: no cycle collection while it loads.
                        with gc_paused():
                            value = pickle.loads(blob[header:])
                    except Exception:
                        # Checksum held but the payload predates a code
                        # change (e.g. a renamed class): same treatment.
                        self._quarantine(path)
                        value = _MISS
            if value is not _MISS:
                self.memory[key] = value
                self.disk_hits += 1
                return value
        self.misses += 1
        return None

    def put(self, key: str, value: Any) -> None:
        self.memory[key] = value
        if self.directory is not None:
            # Atomic publish: concurrent workers may race on the same key;
            # both write the same content, and os.replace makes whichever
            # lands last the (identical) winner with no torn reads.
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(_MAGIC)
                    fh.write(digest)
                    fh.write(payload)
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        value = self.get(key)
        if value is None:
            value = builder()
            self.put(key, value)
        return value

    def clear(self) -> None:
        self.memory.clear()
        if self.directory is not None:
            for path in list(self.directory.glob("*.pkl")) + list(
                self.directory.glob("*.pkl.corrupt")
            ):
                try:
                    path.unlink()
                except OSError:
                    pass

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "entries": len(self.memory),
            "corrupt_entries": self.corrupt_entries,
        }


_GLOBAL_CACHE: Optional[ArtifactCache] = None


def artifact_cache() -> ArtifactCache:
    """The process-wide cache (created lazily; disk layer enabled iff
    ``REPRO_CACHE_DIR`` is set when first used)."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = ArtifactCache(os.environ.get("REPRO_CACHE_DIR") or None)
    return _GLOBAL_CACHE


def reset_artifact_cache() -> None:
    """Drop the process-wide cache (tests; REPRO_CACHE_DIR changes)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = None


# ----------------------------------------------------------------------
# Cached compilations
# ----------------------------------------------------------------------
_LAYER_COUNTERS = {
    "memory": "cache.memory_hit",
    "disk": "cache.disk_hit",
    "miss": "cache.miss",
}


def _note_layer(sp, cache: ArtifactCache, hits_before: int, disk_before: int) -> str:
    """Record *which* cache layer answered a lookup.

    Sets the span's ``layer`` attribute and bumps a matching
    ``cache.memory_hit`` / ``cache.disk_hit`` / ``cache.miss`` counter on
    the ambient tracer's metrics registry — the disk counter is what lets
    a cross-process warm start (second process, shared ``REPRO_CACHE_DIR``)
    be asserted distinctly from an in-memory hit, instead of a silent
    cold recompile hiding behind the same "hit" flag.
    """
    from repro.observability import spans as _spans

    if cache.hits > hits_before:
        layer = "memory"
    elif cache.disk_hits > disk_before:
        layer = "disk"
    else:
        layer = "miss"
    if sp is not None:
        sp.attrs["layer"] = layer
    tracer = _spans.current()
    if tracer is not None and tracer.metrics is not None:
        tracer.metrics.counter(_LAYER_COUNTERS[layer]).inc()
    return layer


def cached_transition_table(
    protocol: PopulationProtocol, cache: Optional[ArtifactCache] = None
):
    """The protocol's compiled :class:`TransitionTable`, via the cache.

    Resolution order: the table already attached to this instance → the
    cache (memory, then disk) keyed by the protocol's fingerprint → a
    fresh compilation (which is published to the cache).  The result is
    attached to the instance either way, so the per-simulation fast path
    (:func:`repro.core.fastpath.get_table`) stays a plain attribute read.
    """
    from repro.core.fastpath import TransitionTable
    from repro.observability import spans as _spans

    table = getattr(protocol, "_fastpath_table", None)
    if table is None:
        cache = cache if cache is not None else artifact_cache()
        key = f"table-{protocol_fingerprint(protocol)}"
        sp = _spans.begin("cache:table", protocol=protocol.name)
        misses_before = cache.misses
        hits_before, disk_before = cache.hits, cache.disk_hits
        try:
            table = cache.get_or_build(key, lambda: TransitionTable(protocol))
        except BaseException:
            _spans.finish(sp, "error")
            raise
        if sp is not None:
            sp.attrs["hit"] = cache.misses == misses_before
        _note_layer(sp, cache, hits_before, disk_before)
        _spans.finish(sp)
        protocol._fastpath_table = table
    return table


def cached_compile_program(
    program: Any,
    name: str = "pipeline",
    *,
    observer=None,
    cache: Optional[ArtifactCache] = None,
):
    """A :class:`~repro.conversion.pipeline.PipelineResult` for
    ``program``, compiled at most once per content address.

    ``name`` is part of the key (it is baked into the produced artefact
    names).  ``observer`` only sees stage events on a miss — a cache hit
    does no observable work.
    """
    return _cached_pipeline(
        program_fingerprint(program), name, lambda: program, observer, cache
    )


def _cached_pipeline(
    fingerprint: str,
    name: str,
    make_program: Callable[[], Any],
    observer,
    cache: Optional[ArtifactCache],
):
    """The pipeline under ``pipeline-{name}-{fingerprint}``; the program
    is asked for only on a miss."""
    from repro.conversion.pipeline import compile_program
    from repro.observability import spans as _spans

    cache = cache if cache is not None else artifact_cache()
    key = f"pipeline-{name}-{fingerprint}"
    sp = _spans.begin("cache:pipeline", name=name)
    misses_before = cache.misses
    hits_before, disk_before = cache.hits, cache.disk_hits
    try:
        result = cache.get_or_build(
            key, lambda: compile_program(make_program(), name, observer=observer)
        )
    except BaseException:
        _spans.finish(sp, "error")
        raise
    if sp is not None:
        sp.attrs["hit"] = cache.misses == misses_before
    _note_layer(sp, cache, hits_before, disk_before)
    _spans.finish(sp)
    return result


def cached_compile_threshold_protocol(
    n: int,
    *,
    error_checking: bool = True,
    observer=None,
    cache: Optional[ArtifactCache] = None,
):
    """Theorem 1's compiled pipeline for ``n`` levels, via the cache.  The
    cache memoises the program's fingerprint per ``(n, error_checking)``,
    so a warm hit neither builds nor hashes the program."""
    from repro.lipton.construction import build_threshold_program

    cache = cache if cache is not None else artifact_cache()
    args = ("lipton", n, error_checking)
    program = None
    fingerprint = cache.fingerprints.get(args)
    if fingerprint is None:
        program = build_threshold_program(n, error_checking=error_checking)
        fingerprint = cache.fingerprints[args] = program_fingerprint(program)
    return _cached_pipeline(
        fingerprint,
        f"lipton-n{n}",
        lambda: program or build_threshold_program(n, error_checking=error_checking),
        observer,
        cache,
    )
