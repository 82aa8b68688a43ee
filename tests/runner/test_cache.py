"""Tests for the on-disk result cache."""

import json
from dataclasses import asdict

from repro.runner import ResultCache, ScenarioSpec
from repro.runner.cache import CACHE_FORMAT_VERSION
from repro.runner.trace import ScenarioOutcome


def _outcome(fingerprint):
    spec = ScenarioSpec.build("5bus-study1", target=3)
    return ScenarioOutcome(spec=spec, fingerprint=fingerprint,
                           satisfiable=True, base_cost="17479/10",
                           solver_calls=7,
                           trace={"smt": {"decisions": 4}})


class TestResultCache:
    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("ab" * 32) is None

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = "ab" * 32
        stored = _outcome(fingerprint)
        cache.put(fingerprint, stored.to_dict())
        loaded = ScenarioOutcome.from_dict(cache.get(fingerprint))
        assert loaded == stored

    def test_outcome_payload_carries_the_spec_dict(self):
        # asdict() already turns the nested spec into its to_dict().
        outcome = _outcome("ab" * 32)
        payload = outcome.to_dict()
        assert payload["spec"] == outcome.spec.to_dict()
        assert payload == {**asdict(outcome),
                           "spec": outcome.spec.to_dict()}
        assert ScenarioOutcome.from_dict(payload) == outcome

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = "ab" * 32
        cache.put(fingerprint, _outcome(fingerprint).to_dict())
        path = tmp_path / "cache" / "results" / "ab" \
            / f"{fingerprint}.json"
        assert path.is_file()
        # the envelope on disk is plain JSON with the expected metadata
        envelope = json.loads(path.read_text())
        assert envelope["version"] == CACHE_FORMAT_VERSION
        assert envelope["fingerprint"] == fingerprint

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = "cd" * 32
        cache.put(fingerprint, _outcome(fingerprint).to_dict())
        path = cache._path(fingerprint)
        path.write_text("{ not json")
        assert cache.get(fingerprint) is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = "ef" * 32
        cache.put(fingerprint, _outcome(fingerprint).to_dict())
        path = cache._path(fingerprint)
        envelope = json.loads(path.read_text())
        envelope["version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope))
        assert cache.get(fingerprint) is None

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        # e.g. a file copied/renamed by hand: never served
        cache = ResultCache(tmp_path / "cache")
        a, b = "aa" * 32, "bb" * 32
        cache.put(a, _outcome(a).to_dict())
        cache._path(b).parent.mkdir(parents=True, exist_ok=True)
        cache._path(b).write_text(cache._path(a).read_text())
        assert cache.get(b) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for fingerprint in ("11" * 32, "22" * 32):
            cache.put(fingerprint, _outcome(fingerprint).to_dict())
        assert cache.clear() == 2
        assert cache.get("11" * 32) is None
        assert cache.clear() == 0


class TestPrune:
    def test_empty_cache(self, tmp_path):
        report = ResultCache(tmp_path / "cache").prune()
        assert report == {"scanned": 0, "removed": 0, "kept": 0,
                          "reclaimed_bytes": 0}

    def test_keeps_live_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for fingerprint in ("11" * 32, "22" * 32):
            cache.put(fingerprint, _outcome(fingerprint).to_dict())
        report = cache.prune()
        assert report["scanned"] == 2
        assert report["kept"] == 2
        assert report["removed"] == 0
        assert report["reclaimed_bytes"] == 0
        assert cache.get("11" * 32) is not None

    def test_removes_stale_format_version(self, tmp_path):
        # A planted previous-format entry (version N-1 envelopes had no
        # code/encoding fingerprints at all) is reclaimed; the live
        # entry survives and keeps serving.
        cache = ResultCache(tmp_path / "cache")
        live, stale = "11" * 32, "44" * 32
        cache.put(live, _outcome(live).to_dict())
        path = cache._path(stale)
        path.parent.mkdir(parents=True, exist_ok=True)
        planted = {"version": CACHE_FORMAT_VERSION - 1,
                   "fingerprint": stale,
                   "outcome": _outcome(stale).to_dict()}
        path.write_text(json.dumps(planted))
        size = path.stat().st_size

        report = cache.prune()
        assert report["scanned"] == 2
        assert report["kept"] == 1
        assert report["removed"] == 1
        assert report["reclaimed_bytes"] == size
        assert not path.exists()
        assert cache.get(live) is not None

    def test_removes_corrupt_and_foreign_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        results = tmp_path / "cache" / "results" / "zz"
        results.mkdir(parents=True)
        (results / "corrupt.json").write_text("{ not json")
        (results / "foreign.json").write_text(json.dumps(["not", "an",
                                                          "envelope"]))
        report = cache.prune()
        assert report["removed"] == 2
        assert report["reclaimed_bytes"] > 0
        assert list(results.glob("*.json")) == []

    def test_removes_wrong_code_fingerprint(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = "55" * 32
        cache.put(fingerprint, _outcome(fingerprint).to_dict())
        path = cache._path(fingerprint)
        envelope = json.loads(path.read_text())
        envelope["code"] = "0" * 64      # a different install wrote it
        path.write_text(json.dumps(envelope))
        report = cache.prune()
        assert report["removed"] == 1
        assert not path.exists()
