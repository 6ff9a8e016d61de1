import json

import pytest

from fermat_hodge import check_condition, enumerate_level, hilbert_basis, standard_elements
from fermat_hodge.cache import (
    ResultCache,
    basis_from_dict,
    basis_to_dict,
    default_cache_dir,
    report_to_dict,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestRoundTrips:
    def test_level(self, cache):
        vectors = enumerate_level(9, 2)
        cache.put_level(9, 2, vectors)
        assert cache.get_level(9, 2) == vectors

    def test_basis(self, cache):
        basis = hilbert_basis(9)
        cache.put_basis(basis)
        assert cache.get_basis(9) == basis_to_dict(basis)
        assert basis_from_dict(cache.get_basis(9)) == basis

    def test_partial_basis_not_cached(self, cache):
        partial = hilbert_basis(12, algorithm="levelwise", max_level=2)
        cache.put_basis(partial)
        assert cache.get_basis(12) is None

    def test_standard(self, cache):
        std = standard_elements(9)
        cache.put_standard(std)
        loaded = cache.get_standard(9)
        assert loaded.vectors == std.vectors
        assert loaded.provenance == std.provenance

    def test_report(self, cache):
        report = check_condition(12)
        cache.put_report(report)
        assert cache.get_report(12, None, False) == report_to_dict(report)

    def test_missing_entry(self, cache):
        assert cache.get_level(5, 1) is None


class TestIntegrity:
    def test_digest_mismatch_invalidates(self, cache):
        vectors = enumerate_level(9, 2)
        cache.put_level(9, 2, vectors)
        path = cache._path("LEVEL", "m9_y2")
        entry = json.loads(path.read_text())
        entry["payload"]["vectors"][0] = "9,9;9"
        path.write_text(json.dumps(entry))
        assert cache.get_level(9, 2) is None

    def test_schema_version_checked(self, cache):
        vectors = enumerate_level(9, 2)
        cache.put_level(9, 2, vectors)
        path = cache._path("LEVEL", "m9_y2")
        entry = json.loads(path.read_text())
        entry["schema_version"] = 999
        path.write_text(json.dumps(entry))
        assert cache.get_level(9, 2) is None

    def test_entry_that_is_not_an_object_is_a_miss(self, cache):
        cache.put_level(9, 2, enumerate_level(9, 2))
        cache._path("LEVEL", "m9_y2").write_text("[1, 2]")
        assert cache.get_level(9, 2) is None

    def test_rewrite_after_poisoning_restores(self, cache):
        vectors = enumerate_level(9, 2)
        cache.put_level(9, 2, vectors)
        path = cache._path("LEVEL", "m9_y2")
        path.write_text("not json at all")
        assert cache.get_level(9, 2) is None
        cache.put_level(9, 2, vectors)
        assert cache.get_level(9, 2) == vectors


class TestKeysAndLayouts:
    def test_report_under_another_key_is_a_miss(self, cache):
        report = check_condition(12, n=4, exclude_standard=True)
        cache.put_report(report)
        moved = cache._path("REPORT", "m12_nall_excl0")
        cache._path("REPORT", "m12_n4_excl1").rename(moved)
        assert cache.get_report(12, None, False) is None

    def test_basis_under_another_key_is_a_miss(self, cache):
        cache.put_basis(hilbert_basis(9))
        cache._path("BASIS", "m9").rename(cache._path("BASIS", "m10"))
        assert cache.get_basis(10) is None

    def test_report_missing_outcomes_is_a_miss(self, cache):
        cache.put_report(check_condition(12))
        _rewrite_payload(cache, "REPORT", "m12_nall_excl0", lambda p: p.pop("outcomes"))
        assert cache.get_report(12, None, False) is None

    def test_basis_missing_elements_is_a_miss(self, cache):
        cache.put_basis(hilbert_basis(12))
        _rewrite_payload(cache, "BASIS", "m12", lambda p: p.pop("elements"))
        assert cache.get_basis(12) is None

    def test_payload_is_the_cli_json(self, cache):
        basis, report = hilbert_basis(12), check_condition(12)
        cache.put_basis(basis)
        cache.put_report(report)
        stored = json.loads(cache._path("BASIS", "m12").read_text())["payload"]
        assert stored == basis_to_dict(basis)
        stored = json.loads(cache._path("REPORT", "m12_nall_excl0").read_text())
        assert stored["payload"] == report_to_dict(report)


def _rewrite_payload(cache, kind, name, edit):
    """Apply edit to an entry's payload and store it with a valid digest."""
    payload = json.loads(cache._path(kind, name).read_text())["payload"]
    edit(payload)
    cache._write(kind, name, payload["m"], payload)


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FERMAT_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"

    def test_fallback_under_data_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("FERMAT_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_DATA_HOME", str(tmp_path / "data"))
        assert default_cache_dir() == tmp_path / "data" / "fermat-hodge"
