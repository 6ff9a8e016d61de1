import hashlib
import tracemalloc
from itertools import combinations_with_replacement, product
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fermat_hodge import MonoidVector, SearchBudget, enumerate_level, is_member, units
from fermat_hodge.errors import BudgetExceededError, InvalidModulusError, ShapeError
from fermat_hodge import monoid
from fermat_hodge.monoid import (
    canonical_keys,
    format_vector,
    half_units,
    indices_to_rows,
    indices_to_vectors,
    level_rows,
    parse_vector,
    rows_to_vectors,
    vectors_to_indices,
    weight_table,
)

V33 = MonoidVector(
    x=tuple(1 if i in (7, 10, 13, 19, 22, 28) else 0 for i in range(1, 33)), y=3
)


def _literal_is_member(v: MonoidVector, m: int) -> bool:
    """The definition, one unit constraint at a time."""
    if v.y < 1 or any(c < 0 for c in v.x):
        return False
    for t in range(1, m):
        if gcd(t, m) == 1:
            total = 0
            for i, c in enumerate(v.x, start=1):
                total += ((t * i) % m) * c
            if total != m * v.y:
                return False
    return True


@st.composite
def _candidates(draw):
    """(m, v): scaled slice elements or u + v - w, moved or bumped, and free vectors.

    Scales of 2**64 and more check exactness.  u + v - w meets every
    constraint but may have a negative entry; moving one unit between
    entries keeps the count sum, so it is the constraints that decide.
    """
    m = draw(st.integers(min_value=2, max_value=12))
    scale = draw(st.sampled_from([1, 1, 2, 2**64, 3 * 2**64 + 1]))
    source = draw(st.sampled_from(["slice", "combination", "free"]))
    if source == "free":
        free = st.lists(st.integers(-2, 4), min_size=m - 1, max_size=m - 1)
        v = MonoidVector(tuple(draw(free)), draw(st.integers(-1, 6)))
    else:
        picks = [
            draw(st.sampled_from(enumerate_level(m, draw(st.integers(1, 3)))))
            for _ in range(1 if source == "slice" else 3)
        ]
        v = picks[0] if source == "slice" else picks[0] + picks[1] - picks[2]
    x, y = [c * scale for c in v.x], v.y * scale
    i, j = draw(st.integers(0, m - 2)), draw(st.integers(0, m - 2))
    kind = draw(st.sampled_from(["none", "move", "entry", "level"]))
    if kind == "move":
        x[i] -= 1
        x[j] += 1
    elif kind == "entry":
        x[i] += draw(st.integers(-2, 2))
    elif kind == "level":
        y += draw(st.integers(-2, 2))
    return m, MonoidVector(tuple(x), y)


class TestUnits:
    def test_examples(self):
        assert units(4) == (1, 3)
        assert units(7) == (1, 2, 3, 4, 5, 6)
        assert units(12) == (1, 5, 7, 11)

    @pytest.mark.parametrize("m", [0, 1, -3])
    def test_rejects_bad_modulus(self, m):
        with pytest.raises(InvalidModulusError):
            units(m)

    @given(st.integers(min_value=2, max_value=80))
    def test_closed_under_complement_and_contains_one(self, m):
        us = set(units(m))
        assert 1 in us
        assert all((m - t) % m in us for t in us)
        assert all(gcd(t, m) == 1 for t in us)


class TestIsMember:
    def test_degree_33_vector(self):
        assert is_member(V33, 33)

    def test_small_examples(self):
        assert is_member(MonoidVector((1, 0, 1), 1), 4)
        assert not is_member(MonoidVector((1, 1, 0), 1), 4)

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_zero_level_rejected(self, m):
        assert not is_member(MonoidVector((0,) * (m - 1), 0), m)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            is_member(MonoidVector((1, 0, 1), 1), 5)

    @pytest.mark.parametrize("m", [1, 2.0, "2"])
    def test_bad_degree_raises_after_a_good_one(self, m):
        assert is_member(MonoidVector((2,), 1), 2)
        with pytest.raises(InvalidModulusError):
            is_member(MonoidVector((2,), 1), m)

    @given(_candidates())
    @example((4, MonoidVector((1, -1, 2), 1)))  # a negative entry, count 2y
    @example((4, MonoidVector((-1, 4, -1), 1)))  # negative, every constraint holds
    @example((5, MonoidVector((0, 1, 0, 2), 2)))  # t = 1, 2 hold, t = 3, 4 do not
    @example((4, MonoidVector((0, 0, 0), 0)))  # y = 0
    @example((4, MonoidVector((2, 0, 2), -2)))  # y < 0
    @example((5, MonoidVector((1, 0, 0, 2), 1)))  # odd entry sum
    @example((4, MonoidVector((2**64, 0, 2**64), 2**64)))  # exact beyond 64 bits
    @example((4, MonoidVector((2**64 + 1, 0, 2**64 - 1), 2**64)))
    def test_agrees_with_every_unit_constraint(self, case):
        m, v = case
        assert is_member(v, m) == _literal_is_member(v, m)



class TestEnumerateLevel:
    def test_examples(self):
        assert [v.x for v in enumerate_level(3, 1)] == [(1, 1)]
        assert [v.x for v in enumerate_level(4, 1)] == [(0, 2, 0), (1, 0, 1)]
        assert [v.x for v in enumerate_level(2, 1)] == [(2,)]

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            enumerate_level(4, 0)

    @pytest.mark.parametrize("m", range(2, 41))
    def test_level_one_count(self, m):
        assert len(enumerate_level(m, 1)) == m // 2

    @pytest.mark.parametrize("m,y", [(m, y) for m in range(2, 11) for y in (1, 2, 3)])
    def test_all_outputs_are_members_with_even_count(self, m, y):
        slice_rows = enumerate_level(m, y)
        assert slice_rows == sorted(slice_rows, key=lambda v: v.x)
        assert len({v.x for v in slice_rows}) == len(slice_rows)
        for v in slice_rows:
            assert is_member(v, m)
            assert sum(v.x) == 2 * y

    @pytest.mark.parametrize("m,y", [(m, y) for m in range(2, 8) for y in (1, 2, 3)])
    def test_box_oracle(self, m, y):
        expected = set()
        for xs in product(range(2 * y + 1), repeat=m - 1):
            if sum(xs) != 2 * y:
                continue
            if is_member(MonoidVector(xs, y), m):
                expected.add(xs)
        assert {v.x for v in enumerate_level(m, y)} == expected

    def test_deterministic(self):
        assert enumerate_level(9, 2) == enumerate_level(9, 2)

    # (count, sha256 of the newline-joined canonical text), recorded from
    # the depth-first enumerator that the meet-in-the-middle join replaced
    @pytest.mark.parametrize(
        "m,y,count,digest",
        [
            (33, 3, 990, "ca913398fad67110a0dc0f328d9a816bf7db6fd280fc6d4ec46e11cb5fbb6146"),
            (47, 3, 2300, "c5a555d9da81996e8f2e820fb249342326900d6ba95ddce94841a61859398482"),
            (53, 3, 3276, "1452d4edc9b453c775e28644c788a2dd79b76331c852ba6131c88420eee7618c"),
            (15, 4, 624, "a339a5e93a17971d2cb5c9af9f3a274684669afff990420b132784c867dfef60"),
        ],
    )
    def test_pinned_slices(self, m, y, count, digest):
        vectors = enumerate_level(m, y)
        text = "\n".join(format_vector(v) for v in vectors)
        assert len(vectors) == count
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestLevelRows:
    # sha256 of the int64 count rows (x..., y) that level_rows returned
    # before it returned index rows
    @pytest.mark.parametrize(
        "m,y,digest",
        [
            (2, 3, "10a266e9cf5c28e627ddc40222c1d38e7f02dc71049b6a31854d6e51ce737eb1"),
            (9, 2, "aa0a023e82d02c21591b9e565c3a95e92b7fa19262d4423ca033dc573d3c53bf"),
            (12, 3, "3b04c93125aafa947b14f96d697e8e923991a071eaab47eb9eb7f93c1fb9a43a"),
            (33, 3, "7b058aea5ac37b68e6626231a401cbaca223b25d5669e38dccd19674ceedda55"),
        ],
        ids=["2-3", "9-2", "12-3", "33-3"],
    )
    def test_rows_are_the_slice(self, m, y, digest):
        idx = level_rows(m, y)
        assert idx.dtype == np.int16 and idx.shape[1] == 2 * y
        assert (np.diff(idx, axis=1) >= 0).all()
        rows = indices_to_rows(idx, m)
        assert (rows[:, -1] == y).all()
        assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == digest
        vectors = rows_to_vectors(rows)
        assert vectors == enumerate_level(m, y)
        assert {type(c) for v in vectors for c in v.row()} == {int}
        (back,) = vectors_to_indices(vectors)
        assert np.array_equal(back, idx)

    def test_traced_peak_stays_small(self):
        # a slice of index rows holds 2y int16 cells a row; returning
        # count rows, m int64 cells a row, traces 156 MB for this slice
        tracemalloc.start()
        try:
            level_rows(24, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**20

    def test_budget_checked_with_half_table_before_building_it(self):
        with pytest.raises(BudgetExceededError, match=str(comb(47 + 3 - 2, 3))):
            level_rows(47, 3, SearchBudget(max_seconds=None, max_candidates=10_000))

    def test_budget_counts_rows_found(self):
        size = comb(33 + 3 - 2, 3)
        level_rows(33, 3, SearchBudget(max_seconds=None, max_candidates=size + 990))
        with pytest.raises(BudgetExceededError):
            level_rows(33, 3, SearchBudget(max_seconds=None, max_candidates=size + 989))


class TestRowCodec:
    @pytest.mark.parametrize("m", range(2, 48))
    def test_indices_round_trip_the_slices(self, m):
        for y in (1, 2, 3):
            indices = level_rows(m, y)
            assert indices.dtype == np.int16 and indices.shape[1] == 2 * y
            assert (np.diff(indices, axis=1) >= 0).all()
            rows = indices_to_rows(indices, m)
            counted = [[r.count(i) for i in range(1, m)] + [y] for r in indices.tolist()]
            assert rows.tolist() == counted
            # canonical order: strictly ascending lexicographic on x
            assert counted == sorted(counted) and len(set(map(tuple, counted))) == len(rows)
            vectors = indices_to_vectors(indices, m)
            assert vectors == rows_to_vectors(rows)
            assert all(np.array_equal(a, indices) for a in vectors_to_indices(vectors))

    @pytest.mark.parametrize("m", [2, 7, 12, 33])
    def test_weight_table_is_the_definition(self, m):
        table = weight_table(m)
        assert table.tolist() == [[t * i % m for t in half_units(m)] for i in range(m)]

    def test_canonical_keys_order_by_level_then_x(self):
        rows = np.concatenate([indices_to_rows(level_rows(9, y), 9) for y in (3, 1, 2)])
        rows = rows[np.random.default_rng(0).permutation(len(rows))]
        ordered = rows[np.argsort(canonical_keys(rows))].tolist()
        assert ordered == sorted(rows.tolist(), key=lambda r: (r[-1], r[:-1]))

    @pytest.mark.parametrize("cells", [1, 4, 1 << 16])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 12, 15, 33])
    def test_subset_completions_match_is_member(self, m, cells, monkeypatch):
        monkeypatch.setattr(monoid, "_SUBSET_CELLS", cells)

        def member(indices):
            x = [0] * (m - 1)
            for i in indices:
                x[i - 1] += 1
            return is_member(MonoidVector(x=tuple(x), y=len(indices) // 2), m)

        for y in range(1, 5):
            rows = level_rows(m, y)
            idx = rows[np.unique(np.linspace(0, len(rows) - 1, 3, dtype=int))]
            n = idx.shape[1]
            seen = []
            for bits, size, a in monoid.subset_completions(idx, m):
                assert a.shape == (len(idx), len(bits))
                assert np.array_equal(size, bits.sum(axis=1))
                for k, subset in enumerate(bits):
                    seen.append(tuple(np.flatnonzero(subset)))
                    for r in range(len(idx)):
                        s = idx[r, subset].tolist()
                        if len(s) % 2:
                            fits = [b for b in range(1, m) if member(s + [b])]
                            assert len(fits) <= 1
                            assert a[r, k] == (fits[0] if fits else -1)
                        else:
                            assert a[r, k] == (0 if not s or member(s) else -1)
            # every position subset exactly once
            assert sorted(seen) == sorted(
                tuple(np.flatnonzero([(s >> p) & 1 for p in range(n)])) for s in range(1 << n)
            )
            assert len(seen) == 1 << n


class _UnitMultipliers:
    """Stands in for the ``random`` module: every key multiplier is 1."""

    class Random:
        def __init__(self, seed):
            pass

        def getrandbits(self, bits):
            return 0


class TestJoin:
    """The half-table join against enumerations that share nothing with it."""

    @pytest.mark.parametrize("m,y", [(m, y) for m in range(2, 13) for y in range(1, 5)])
    def test_equals_brute_force(self, m, y):
        # even m puts a half of weight sum m*y/2 on both sides of the join
        expected = []
        for indices in combinations_with_replacement(range(1, m), 2 * y):
            x = [0] * (m - 1)
            for i in indices:
                x[i - 1] += 1
            if is_member(MonoidVector(tuple(x), y), m):
                expected.append(tuple(x))
        assert [v.x for v in indices_to_vectors(level_rows(m, y), m)] == sorted(expected)

    @pytest.mark.parametrize("m,y", [(12, 3), (33, 3), (15, 4)])
    def test_forced_key_collisions_keep_the_slice(self, m, y, monkeypatch):
        # with unit multipliers the key is the sum of the weight vector,
        # and halves of different weight vectors share it
        sums = {}
        for half in combinations_with_replacement(range(1, m), y):
            w = tuple(sum(t * i % m for i in half) for t in half_units(m))
            sums.setdefault(sum(w), set()).add(w)
        assert max(len(ws) for ws in sums.values()) > 1
        expected = level_rows(m, y)
        monkeypatch.setattr(monoid, "random", _UnitMultipliers)
        assert np.array_equal(level_rows(m, y), expected)


class TestSerialization:
    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=3),
    )
    def test_roundtrip_over_slices(self, m, y):
        for v in enumerate_level(m, y):
            assert parse_vector(format_vector(v)) == v

    def test_format(self):
        assert format_vector(MonoidVector((1, 0, 1), 1)) == "1,0,1;1"
