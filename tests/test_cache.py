import json

import pytest

from fermat_hodge import (
    check_condition,
    enumerate_level,
    format_vector,
    hilbert_basis,
    standard_elements,
)
from fermat_hodge.cache import (
    ResultCache,
    basis_from_dict,
    basis_to_dict,
    default_cache_dir,
    report_to_dict,
)

from .cache_entries import forge_entry, forge_old_entry, read_entry


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
        entry = cache.get_basis(9)
        assert entry.meta == {"kind": "BASIS", "m": 9, "complete": True, "phi": 2}
        assert entry.payload is None and json.loads(entry.body) == basis_to_dict(basis)
        parsed = cache.get_basis(9, parse=True)
        assert parsed.body == entry.body and parsed.payload == basis_to_dict(basis)
        assert basis_from_dict(parsed.payload) == basis

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
        entry = cache.get_report(12, None, False, parse=True)
        assert entry.meta == {
            "kind": "REPORT", "m": 12, "n": None, "exclude_standard": False,
            "complete": True,
        }
        assert entry.payload == report_to_dict(report)

    def test_missing_entry(self, cache):
        assert cache.get_level(5, 1) is None


class TestIntegrity:
    def test_digest_mismatch_invalidates(self, cache):
        vectors = enumerate_level(9, 2)
        cache.put_level(9, 2, vectors)
        path = cache._path("LEVEL", "m9_y2")
        first = format_vector(vectors[0]).encode()
        path.write_bytes(path.read_bytes().replace(first, b"9,9,9,9,9,9,9,9;9", 1))
        assert cache.get_level(9, 2) is None

    @pytest.mark.parametrize(
        "old,new",
        [(b'"phi":5', b'"phi":9'), (b'"max_level_seen": 5', b'"max_level_seen": 9')],
        ids=["meta", "body"],
    )
    def test_flipped_byte_is_a_miss(self, cache, old, new):
        cache.put_basis(hilbert_basis(12))
        path = cache._path("BASIS", "m12")
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        assert cache.get_basis(12) is None
        assert cache.get_basis(12, parse=True) is None

    def test_old_layout_entry_is_a_miss(self, cache):
        basis, report = hilbert_basis(9), check_condition(9)
        old_basis = forge_old_entry(cache, "BASIS", "m9", 9, basis_to_dict(basis))
        assert cache.get_basis(9) is None
        old_report = forge_old_entry(
            cache, "REPORT", "m9_nall_excl0", 9, report_to_dict(report)
        )
        assert cache.get_report(9, None, False) is None
        vectors = enumerate_level(9, 2)
        payload = {"m": 9, "y": 2, "vectors": [format_vector(v) for v in vectors]}
        forge_old_entry(cache, "LEVEL", "m9_y2", 9, payload)
        assert cache.get_level(9, 2) is None
        cache.put_basis(basis)
        cache.put_report(report)
        assert cache.get_basis(9, parse=True).payload == basis_to_dict(basis)
        assert cache.get_report(9, None, False, parse=True).payload == report_to_dict(
            report
        )
        # the rewrite removes the earlier layout's file: one file per key
        assert [p.name for p in old_basis.parent.iterdir()] == ["m9.entry"]
        assert [p.name for p in old_report.parent.iterdir()] == ["m9_nall_excl0.entry"]

    def test_entry_that_is_not_an_object_is_a_miss(self, cache):
        vectors = enumerate_level(9, 2)
        cache.put_level(9, 2, vectors)
        cache._path("LEVEL", "m9_y2").write_text("[1, 2]")
        assert cache.get_level(9, 2) is None
        payload = {"m": 9, "y": 2, "vectors": [format_vector(v) for v in vectors]}
        forge_entry(cache, "LEVEL", "m9_y2", [1, 2], payload)
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

    @pytest.mark.parametrize(
        "field,value", [("m", 13), ("n", 6), ("exclude_standard", True)]
    )
    def test_meta_naming_another_report_key_is_a_miss(self, cache, field, value):
        cache.put_report(check_condition(12, n=4))
        meta, body = read_entry(cache, "REPORT", "m12_n4_excl0")
        edited = {**meta, field: value}
        forge_entry(cache, "REPORT", "m12_n4_excl0", edited, json.loads(body))
        assert cache.get_report(12, 4, False) is None

    def test_meta_naming_another_degree_is_a_miss(self, cache):
        cache.put_basis(hilbert_basis(12))
        meta, body = read_entry(cache, "BASIS", "m12")
        forge_entry(cache, "BASIS", "m12", {**meta, "m": 13}, json.loads(body))
        assert cache.get_basis(12) is None

    def test_report_missing_outcomes_is_a_miss(self, cache):
        cache.put_report(check_condition(12))
        _rewrite_payload(cache, "REPORT", "m12_nall_excl0", lambda p: p.pop("outcomes"))
        assert cache.get_report(12, None, False, parse=True) is None

    def test_basis_missing_elements_is_a_miss(self, cache):
        cache.put_basis(hilbert_basis(12))
        _rewrite_payload(cache, "BASIS", "m12", lambda p: p.pop("elements"))
        assert cache.get_basis(12, parse=True) is None

    def test_payload_is_the_cli_json(self, cache):
        basis, report = hilbert_basis(12), check_condition(12)
        cache.put_basis(basis)
        cache.put_report(report)
        _, body = read_entry(cache, "BASIS", "m12")
        assert body == json.dumps(basis_to_dict(basis), sort_keys=True, indent=1) + "\n"
        _, body = read_entry(cache, "REPORT", "m12_nall_excl0")
        assert body == json.dumps(
            report_to_dict(report), sort_keys=True, indent=1
        ) + "\n"


def _rewrite_payload(cache, kind, name, edit):
    """Apply edit to an entry's payload and store it with a valid digest."""
    meta, body = read_entry(cache, kind, name)
    payload = json.loads(body)
    edit(payload)
    forge_entry(cache, kind, name, meta, payload)


class TestEntryPaths:
    """Entry file names stay ``<root>/v1/<kind>/<name>.entry``, so caches
    written by earlier versions keep answering."""

    @pytest.mark.parametrize("as_path", [False, True])
    @pytest.mark.parametrize(
        "kind,name",
        [("BASIS", "m12"), ("REPORT", "m9_nall_excl0"), ("LEVEL", "m9_y2"),
         ("STANDARD", "m9")],
    )
    def test_path_layout(self, kind, name, as_path, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root if as_path else str(root))
        expected = root / "v1" / kind.lower() / f"{name}.entry"
        assert cache._path(kind, name) == expected
        assert str(cache._path(kind, name)) == str(expected)

    def test_entry_at_the_joined_path_is_a_hit(self, tmp_path):
        basis, report = hilbert_basis(9), check_condition(9)
        written = ResultCache(tmp_path / "written")
        stored = [written.put_basis(basis), written.put_report(report)]
        root = tmp_path / "cache"
        for entry, name in zip(stored, ["m9", "m9_nall_excl0"]):
            path = root / "v1" / entry.meta["kind"].lower() / f"{name}.entry"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(entry.to_bytes())
        cache = ResultCache(root)
        assert cache.get_basis(9).body == stored[0].body
        assert cache.get_report(9, None, False).body == stored[1].body


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FERMAT_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"

    def test_fallback_under_data_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("FERMAT_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_DATA_HOME", str(tmp_path / "data"))
        assert default_cache_dir() == tmp_path / "data" / "fermat-hodge"
