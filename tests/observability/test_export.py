"""Run provenance manifests."""

import json

from repro.baselines import binary_threshold_protocol
from repro.observability.export import (
    RunManifest,
    build_manifest,
    fault_plan_digest,
)
from repro.resilience.faults import CorruptAgents, FaultPlan


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(
            "decide",
            seed=9,
            protocol=binary_threshold_protocol(4),
            jobs=2,
            outcome="verdict=True",
            n=4,
            total=10,
        )
        path = manifest.write_json(tmp_path / "run.manifest.json")
        loaded = RunManifest.read_json(path)
        assert loaded == manifest

    def test_fingerprints_are_stable(self):
        a = build_manifest("t", protocol=binary_threshold_protocol(4))
        b = build_manifest("t", protocol=binary_threshold_protocol(4))
        c = build_manifest("t", protocol=binary_threshold_protocol(5))
        assert a.protocol_fingerprint == b.protocol_fingerprint
        assert a.protocol_fingerprint != c.protocol_fingerprint

    def test_fault_plan_digest(self):
        plan = FaultPlan([CorruptAgents(at=10, agents=2)])
        digest = fault_plan_digest(plan)
        assert digest == fault_plan_digest(plan)
        assert fault_plan_digest(None) is None
        other = FaultPlan([CorruptAgents(at=11, agents=2)])
        assert digest != fault_plan_digest(other)

    def test_manifest_records_cache_and_version(self):
        manifest = build_manifest("t", cache={"hits": 3, "misses": 1})
        assert manifest.cache == {"hits": 3, "misses": 1}
        assert manifest.version  # the package version is always stamped
        assert manifest.manifest_version == 1

    def test_json_is_sorted_and_stable(self):
        manifest = build_manifest("t", seed=1, b=2, a=1)
        payload = json.loads(manifest.to_json())
        assert list(payload) == sorted(payload)
        assert payload["extra"] == {"a": 1, "b": 2}
