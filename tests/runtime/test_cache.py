"""Content-addressed artifact cache: fingerprints, layers, robustness."""

import pickle

import pytest

from repro.baselines import binary_threshold_protocol, majority_protocol
from repro.core.fastpath import TransitionTable
from repro.core.protocol import PopulationProtocol
from repro.lipton.construction import build_threshold_program
from repro.runtime.cache import (
    ArtifactCache,
    cached_compile_program,
    cached_compile_threshold_protocol,
    cached_transition_table,
    program_fingerprint,
    protocol_fingerprint,
)


class TestFingerprints:
    def test_protocol_fingerprint_stable(self):
        assert protocol_fingerprint(majority_protocol()) == protocol_fingerprint(
            majority_protocol()
        )

    def test_protocol_fingerprint_ignores_name(self):
        pp = majority_protocol()
        renamed = PopulationProtocol(
            pp.states, pp.transitions, pp.input_states, pp.accepting_states, "other"
        )
        assert protocol_fingerprint(pp) == protocol_fingerprint(renamed)

    def test_protocol_fingerprint_sees_structure(self):
        assert protocol_fingerprint(binary_threshold_protocol(5)) != (
            protocol_fingerprint(binary_threshold_protocol(6))
        )

    def test_protocol_fingerprint_sees_accepting_set(self):
        pp = majority_protocol()
        flipped = PopulationProtocol(
            pp.states,
            pp.transitions,
            pp.input_states,
            pp.states - pp.accepting_states,
            pp.name,
        )
        assert protocol_fingerprint(pp) != protocol_fingerprint(flipped)

    def test_program_fingerprint_invalidates_on_change(self):
        assert program_fingerprint(build_threshold_program(1)) != (
            program_fingerprint(build_threshold_program(2))
        )
        assert program_fingerprint(build_threshold_program(2)) == (
            program_fingerprint(build_threshold_program(2))
        )


class TestArtifactCache:
    def test_memory_roundtrip(self):
        cache = ArtifactCache()
        assert cache.get("k") is None
        cache.put("k", [1, 2])
        assert cache.get("k") == [1, 2]
        assert cache.stats() == {
            "hits": 1,
            "disk_hits": 0,
            "misses": 1,
            "entries": 1,
            "corrupt_entries": 0,
        }

    def test_get_or_build_builds_once(self):
        cache = ArtifactCache()
        calls = []
        build = lambda: calls.append(1) or "artifact"
        assert cache.get_or_build("k", build) == "artifact"
        assert cache.get_or_build("k", build) == "artifact"
        assert len(calls) == 1

    def test_disk_layer_survives_process_memory(self, tmp_path):
        writer = ArtifactCache(tmp_path)
        writer.put("k", {"compiled": True})
        reader = ArtifactCache(tmp_path)  # fresh memory, same directory
        assert reader.get("k") == {"compiled": True}
        assert reader.disk_hits == 1
        assert reader.get("k") == {"compiled": True}  # now a memory hit
        assert reader.hits == 1

    def test_corrupt_disk_entry_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
        assert cache.get("bad") is None
        assert cache.stats()["corrupt_entries"] == 1
        # Quarantined aside, not deleted: forensics keep the bytes.
        assert (tmp_path / "bad.pkl.corrupt").exists()
        assert not (tmp_path / "bad.pkl").exists()
        cache.put("bad", "rebuilt")  # republishes a good entry
        assert ArtifactCache(tmp_path).get("bad") == "rebuilt"

    def test_flipped_bit_fails_checksum(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", {"compiled": True})
        path = tmp_path / "k.pkl"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # single corrupted byte in the payload
        path.write_bytes(bytes(blob))
        reader = ArtifactCache(tmp_path)
        assert reader.get("k") is None
        assert reader.stats()["corrupt_entries"] == 1
        assert (tmp_path / "k.pkl.corrupt").exists()

    def test_truncated_entry_fails_framing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", list(range(100)))
        path = tmp_path / "k.pkl"
        path.write_bytes(path.read_bytes()[:10])  # torn write
        reader = ArtifactCache(tmp_path)
        assert reader.get("k") is None
        assert reader.stats()["corrupt_entries"] == 1

    def test_clear_empties_both_layers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", 1)
        cache.clear()
        assert cache.get("k") is None
        assert not list(tmp_path.glob("*.pkl"))


class TestCachedCompilations:
    def test_transition_table_shared_across_instances(self):
        cache = ArtifactCache()
        pp1 = majority_protocol()
        pp2 = majority_protocol()
        t1 = cached_transition_table(pp1, cache)
        t2 = cached_transition_table(pp2, cache)
        assert isinstance(t1, TransitionTable)
        assert t1 is t2  # same fingerprint, one compilation
        assert pp2._fastpath_table is t2  # re-attached for the fast path

    def test_transition_table_prefers_attached(self):
        cache = ArtifactCache()
        pp = majority_protocol()
        attached = TransitionTable(pp)
        pp._fastpath_table = attached
        assert cached_transition_table(pp, cache) is attached
        assert cache.stats()["entries"] == 0

    def test_cached_pipeline_identical_and_memoised(self):
        cache = ArtifactCache()
        program = build_threshold_program(1)
        first = cached_compile_program(program, "lipton-n1", cache=cache)
        second = cached_compile_program(
            build_threshold_program(1), "lipton-n1", cache=cache
        )
        assert second is first
        assert first.protocol.states

    def test_cross_process_disk_warming(self, tmp_path):
        """A second *process* sharing ``REPRO_CACHE_DIR`` compiles nothing:
        it warms from the disk layer, and the ambient tracer's
        ``cache.disk_hit`` counter (not ``cache.memory_hit``) records it."""
        import json
        import os
        import subprocess
        import sys

        script = (
            "import json\n"
            "from repro.observability.metrics import Metrics\n"
            "from repro.observability.spans import SpanTracer, activate\n"
            "from repro.runtime.cache import (\n"
            "    artifact_cache, cached_compile_threshold_protocol)\n"
            "metrics = Metrics()\n"
            "with activate(SpanTracer(metrics=metrics)):\n"
            "    result = cached_compile_threshold_protocol(1)\n"
            "stats = artifact_cache().stats()\n"
            "counters = {\n"
            "    name: metrics.counter(name).value\n"
            "    for name in ('cache.memory_hit', 'cache.disk_hit', 'cache.miss')\n"
            "}\n"
            "print(json.dumps({'states': len(result.protocol.states),\n"
            "                  'stats': stats, 'counters': counters}))\n"
        )
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)

        def run():
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        cold = run()
        assert cold["stats"]["misses"] >= 1
        assert cold["counters"]["cache.miss"] >= 1
        assert cold["counters"]["cache.disk_hit"] == 0

        warm = run()
        assert warm["states"] == cold["states"]
        assert warm["stats"]["disk_hits"] >= 1
        assert warm["stats"]["misses"] == 0
        assert warm["counters"]["cache.disk_hit"] == 1
        assert warm["counters"]["cache.memory_hit"] == 0
        assert warm["counters"]["cache.miss"] == 0

    def test_cached_threshold_pipeline_disk_roundtrip(self, tmp_path):
        cold = cached_compile_threshold_protocol(1, cache=ArtifactCache(tmp_path))
        warm_cache = ArtifactCache(tmp_path)
        warm = cached_compile_threshold_protocol(1, cache=warm_cache)
        assert warm_cache.disk_hits == 1
        assert warm.protocol.states == cold.protocol.states
        assert protocol_fingerprint(warm.protocol) == protocol_fingerprint(
            cold.protocol
        )


class TestHashSeedIndependence:
    """A compiled protocol's content address must not depend on the
    process's string-hash salt (``PYTHONHASHSEED``): otherwise run
    manifests disagree across processes and a table one process publishes
    is never found by the next."""

    COMPILE = (
        "from repro.conversion import compile_program\n"
        "from repro.programs import simple_threshold_program\n"
        "protocol = compile_program(simple_threshold_program(2), 'thr2').protocol\n"
    )

    @staticmethod
    def run_with_hash_seed(script, hash_seed, **env_extra):
        import json
        import os
        import subprocess
        import sys

        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), **env_extra)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_fingerprint_is_hash_seed_independent(self):
        script = self.COMPILE + (
            "import json\n"
            "from repro.runtime.cache import protocol_fingerprint\n"
            "print(json.dumps(protocol_fingerprint(protocol)))\n"
        )
        first = self.run_with_hash_seed(script, 0)
        second = self.run_with_hash_seed(script, 1)
        assert first == second

    def test_cold_compile_hits_a_table_another_process_published(self, tmp_path):
        script = self.COMPILE + (
            "import json\n"
            "from repro.runtime.cache import artifact_cache, cached_transition_table\n"
            "cached_transition_table(protocol)\n"
            "print(json.dumps(artifact_cache().stats()))\n"
        )
        writer = self.run_with_hash_seed(script, 0, REPRO_CACHE_DIR=str(tmp_path))
        assert (writer["misses"], writer["disk_hits"]) == (1, 0)
        reader = self.run_with_hash_seed(script, 1, REPRO_CACHE_DIR=str(tmp_path))
        assert (reader["misses"], reader["disk_hits"]) == (0, 1)
        assert len(list(tmp_path.glob("*.pkl"))) == 1
