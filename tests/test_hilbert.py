import hashlib
import time
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermat_hodge import (
    MonoidVector,
    SearchBudget,
    enumerate_level,
    format_vector,
    hilbert_basis,
    is_decomposable,
    is_member,
    phi,
    required_dimension_bound,
    units,
)
from fermat_hodge import hilbert
from fermat_hodge.errors import BudgetExceededError, IncompleteBasisError, MembershipError
from fermat_hodge.hilbert import (
    _class_transforms,
    _Closure,
    _indecomposable_in_slice,
    _levelwise,
    _pair_sums,
    _unique_rows,
)
from fermat_hodge.monoid import indices_to_rows, indices_to_vectors, level_rows

V33 = MonoidVector(
    x=tuple(1 if i in (7, 10, 13, 19, 22, 28) else 0 for i in range(1, 33)), y=3
)

# (count, sha256 of the canonical text sorted by (level, x)) of the
# completion basis for each degree above 20 that the suite computes
BASIS_PINS = {
    21: (40, "2ce2b3463218b49c1483d678f132ec6d7da37f3f12f306b53892c1405df8e8cb"),
    22: (211, "92eb79663208f8cee9cfe55bdfe9dfa2ac8ad9d00f1fb274985d3be622f254d5"),
    23: (11, "c5ff621a430ff9e389f5a0ef8689ae226f8ec52088ab68cbb58df99d5c03cfa5"),
    24: (1328, "c95d821a904247b9846c1a85b30f15aed81c8080a9d47aaa8f26622ac0a28417"),
    25: (16, "9afff0537d52082d133ecca90e14e416f4a35b40887e6c7f3bde821d417d55ee"),
    26: (301, "2bd9ea7066dcb329769b465df414613fb313f41aebbb699d9730701534a87e8d"),
    27: (35, "ac1cc172e2cc8f1b0ec22f6d5036a57542456ce332eb8f31f2191a6806b77ec9"),
    28: (684, "9dd3964de4b279cccfe97ec77c99e3982039123cd75613f288fdde6f46e30ab3"),
    29: (14, "d1444f43920b52c8b3d5c4ce9a8dfcf3a62281a103556eee2413cf479d8ba687"),
    30: (8559, "bd99995700a024747d51c63299e675e212d413c1874193af8841c2b1d71eba5d"),
    31: (15, "1ed18a376417831ff67791bd886d0a99dfbe9f7dbc3f40ae0dd2797957c142ff"),
    32: (420, "b80ffda412378b43facfee3da7ca14378f079b69e631326209f9e9b423cd30fe"),
    33: (122, "a5a51341e4bd5886e5ee34e6a9b083357e16252b4477f3d5b81ddbafb702463d"),
    34: (433, "a65b3e73559d626696301d3c1980aaa6cc97f21ce08a1e751139d8b58af2aa0c"),
    35: (147, "c3ee67f01ec5af938ed6a754155543687f3305e7b96c757dfe402289d1eee512"),
    38: (1351, "ff01e6fcc0ed17cf5c47814fb79232993e5ab65a917d7d425f80b3b1a2217e7c"),
    39: (175, "90a49bd446cd8752cc0f0ab466676adf0450c2c09e3c355dd5458d0ac27d2192"),
    45: (3598, "6e2074efb102e38faebee9e080d8efa2f6c8d33ec2101b1acee92d3a2786fde1"),
    46: (2337, "bdc3e5623a2732179d940821e4b9b0ed03322781fea67d4a39ea7b24316af72a"),
}


def _slow_at_30(degrees):
    """The degrees as parameters, 30 marked slow: its basis takes minutes."""
    return [pytest.param(m, marks=pytest.mark.slow) if m == 30 else m for m in degrees]


def _small_blocks(monkeypatch):
    """Set the block sizes of the sieve and the closure to a few rows.

    A slice's pair test then runs on blocks of 2 to 20 rows, and the
    closure's key test on chunks of 32 rows, its floor.
    """
    monkeypatch.setattr(hilbert, "_SLICE_CELLS", 40)
    monkeypatch.setattr(hilbert, "_KEY_CELLS", 1)


def _basis_pin(basis):
    """(count, sha256 of the canonical text sorted by (level, x)) of a basis."""
    elements = sorted(basis.elements, key=lambda v: (v.y, v.x))
    text = "\n".join(format_vector(v) for v in elements)
    return len(elements), hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestHilbertBasis:
    def test_m5_both_level_one(self, get_basis):
        basis = get_basis(5)
        assert {v.x for v in basis.elements} == {(1, 0, 0, 1), (0, 1, 1, 0)}
        assert basis.complete

    def test_m4(self, get_basis):
        assert {v.x for v in get_basis(4).elements} == {(0, 2, 0), (1, 0, 1)}

    def test_m9_max_level_two(self, get_basis):
        assert get_basis(9).max_element_level == 2

    @pytest.mark.parametrize("m", _slow_at_30(range(2, 35)))
    def test_elements_are_members_and_minimal(self, m, get_basis):
        basis = get_basis(m)
        assert basis.complete
        rows = [v.row() for v in basis.elements]
        assert rows == sorted(rows, key=lambda r: (r[-1], r[:-1]))
        for v in basis.elements:
            assert is_member(v, m)
        # no row dominates another; the completion has no pass that drops
        # such rows.  Blocks of 256 rows keep the broadcast small.
        arr = np.asarray(rows, dtype=np.int64)
        for lo in range(0, len(arr), 256):
            block = arr[lo : lo + 256]
            dominates = (arr[None, :, :] <= block[:, None, :]).all(axis=2)
            dominates[np.arange(len(block)), np.arange(lo, lo + len(block))] = False
            pairs = np.argwhere(dominates)
            assert not len(pairs), [(rows[lo + i], rows[j]) for i, j in pairs[:3]]

    @pytest.mark.parametrize("m", _slow_at_30(range(2, 35)))
    def test_basis_is_closed_under_units(self, m, get_basis):
        # the defining system is invariant under x_i -> x_{<t*i>} for
        # every unit t, so the basis is too
        arr = np.asarray([v.row() for v in get_basis(m).elements], dtype=np.int64)
        rows = set(map(tuple, arr.tolist()))
        for t in units(m):
            image = arr.copy()
            image[:, [t * i % m - 1 for i in range(1, m)]] = arr[:, :-1]
            missing = [r for r in map(tuple, image.tolist()) if r not in rows]
            assert not missing, (t, missing[:3])

    @pytest.mark.parametrize("m", _slow_at_30(range(21, 35)))
    def test_completion_agrees_with_sieve_up_to_level_three(self, m, get_basis):
        sieve = hilbert_basis(m, algorithm="levelwise", max_level=3)
        low = tuple(v for v in get_basis(m).elements if v.y <= 3)
        assert sieve.elements == low

    @pytest.mark.parametrize("m", _slow_at_30(sorted(BASIS_PINS)))
    def test_pinned_basis(self, m, get_basis, monkeypatch):
        assert _basis_pin(get_basis(m)) == BASIS_PINS[m]
        if m != 30:  # a second degree-30 closure would take minutes more
            _small_blocks(monkeypatch)
            assert _basis_pin(hilbert_basis(m)) == BASIS_PINS[m]

    def test_completion_temporaries_are_bounded_by_blocks(self):
        # the closure's key test allocates about _KEY_CELLS cells a chunk:
        # 4.6 MiB traced, 11.6 MiB with chunks of 2^20 cells
        tracemalloc.start()
        try:
            basis = hilbert_basis(28)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.complete and peak < 6 << 20

    @pytest.mark.parametrize("m", [2, 12, 22, 25, 26, 33])
    def test_completion_elements_are_distinct_and_canonical(self, m, get_basis):
        # for even m, level one and the lattice vector 2e_{m/2} give one row twice
        elements = get_basis(m).elements
        assert list(elements) == sorted(set(elements), key=lambda v: (v.y, v.x))

    @pytest.mark.parametrize(
        "shape, low, high",
        [
            pytest.param((0, 4), -2, 3, id="shape0"),
            pytest.param((1, 4), -2, 3, id="shape1"),
            pytest.param((300, 3), -2, 3, id="shape2"),
            pytest.param((2000, 15), -2, 3, id="shape3"),
            pytest.param((500, 6), -(2**40), 2**40, id="span-2^41"),  # one column a word
            pytest.param((300, 1), -5, 6, id="one-column"),
            pytest.param((50, 9), 7, 8, id="all-equal"),
            pytest.param((300, 12), 1000, 1004, id="span-3-far-from-zero"),
            pytest.param((400, 70), -2, 3, id="70-columns"),  # several words
        ],
    )
    def test_unique_rows_matches_numpy(self, shape, low, high):
        rng = np.random.default_rng(0)
        V = rng.integers(low, high, size=shape)
        V = np.vstack([V, V[rng.permutation(len(V))]])  # duplicates at any span
        rows, inverse = _unique_rows(V)
        expected, expected_inverse = np.unique(V, axis=0, return_inverse=True)
        assert rows.dtype == V.dtype and np.array_equal(rows, expected)
        assert np.array_equal(inverse, expected_inverse.ravel())

    @pytest.mark.parametrize("m", [6, 9, 12, 21])
    def test_no_element_is_sum_of_two_elements(self, m, get_basis):
        elements = get_basis(m).elements
        keys = {v.row() for v in elements}
        for c in elements:
            for d in elements:
                s = c + d
                assert s.row() not in keys

    @pytest.mark.parametrize("m", range(2, 13))
    def test_generation_up_to_level_four(self, m, get_basis):
        basis = get_basis(m).elements
        reachable = {b.row() for b in basis if b.y <= 4}
        for y in range(2, 5):
            for v in enumerate_level(m, y):
                row = v.row()
                if row in reachable:
                    continue
                assert any(
                    all(x <= w for x, w in zip(b.row(), row))
                    and (v - b).row() in reachable
                    for b in basis
                    if b.y < y
                ), row
                reachable.add(row)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_levelwise_equals_completion(self, m, get_basis, monkeypatch):
        completion = get_basis(m)
        top = completion.max_element_level
        levelwise = hilbert_basis(m, algorithm="levelwise", max_level=top)
        assert not levelwise.complete
        assert levelwise.elements == completion.elements
        _small_blocks(monkeypatch)
        assert hilbert_basis(m).elements == completion.elements
        levelwise = hilbert_basis(m, algorithm="levelwise", max_level=top)
        assert levelwise.elements == completion.elements

    def test_levelwise_without_bound_is_uncertified(self):
        with pytest.raises(ValueError):
            hilbert_basis(9, algorithm="levelwise")

    def test_completion_rejects_max_level(self):
        with pytest.raises(ValueError):
            hilbert_basis(12, max_level=3)

    def test_levelwise_max_level_truncation(self):
        basis = hilbert_basis(12, algorithm="levelwise", max_level=2)
        assert not basis.complete
        assert basis.max_level_seen == 2

    def test_budget_truncation_flags(self):
        basis = hilbert_basis(
            30, budget=SearchBudget(max_seconds=0.5, max_candidates=None)
        )
        assert not basis.complete

    def test_spent_time_budget_still_reports_level_one(self):
        # level one needs no search
        basis = hilbert_basis(30, budget=SearchBudget(max_seconds=0))
        assert not basis.complete and basis.max_level_seen >= 1
        assert set(enumerate_level(30, 1)) <= set(basis.elements)
        assert len(enumerate_level(30, 1)) == 15

    @pytest.mark.parametrize(
        "budget",
        [
            SearchBudget(max_seconds=1.0, max_candidates=None),
            SearchBudget(max_seconds=None, max_candidates=1000),
        ],
        ids=["seconds", "candidates"],
    )
    def test_truncated_completion_stays_within_budget(self, budget):
        started = time.monotonic()
        basis = hilbert_basis(30, budget=budget)
        assert not basis.complete
        assert time.monotonic() - started < 1.0 + 1.0

    def test_truncated_completion_holds_level_one_only(self):
        # one meter: once the cap stops the completion, no sieve reads on
        budget = SearchBudget(max_seconds=None, max_candidates=10**5)
        basis = hilbert_basis(30, budget=budget)
        assert not basis.complete and basis.max_level_seen == 1
        assert list(basis.elements) == enumerate_level(30, 1)
        assert budget.spent > 10**5

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            hilbert_basis(6, algorithm="guesswork")


def _transforms(m, v):
    """Every signed unit transform of the class row v, then their negations."""
    perm, sign = _class_transforms(m)
    images = np.zeros((len(perm), len(v)), dtype=np.int64)
    images[np.arange(len(perm))[:, None], perm] = sign * v
    return np.vstack([images, -images])


def _orbit_id(m, v):
    return min(map(tuple, _transforms(m, v).tolist()))


class TestClosure:
    @pytest.mark.parametrize("m", [12, 18, 28, 45])
    def test_orbit_rows_are_signed_unit_transforms(self, m):
        V = np.random.default_rng(m).integers(-3, 4, size=(200, m // 2))
        mapped = _Closure(m // 2, SearchBudget(), _class_transforms(m)).orbit_rows(V)
        for v, w in zip(V, mapped):
            assert (_transforms(m, v) == w).all(axis=1).any(), (v, w)

    @pytest.mark.parametrize("m", [12, 18, 28, 45])
    def test_orbit_rows_map_a_whole_orbit_to_one_row(self, m):
        closure = _Closure(m // 2, SearchBudget(), _class_transforms(m))
        for v in np.random.default_rng(m).integers(-3, 4, size=(20, m // 2)):
            mapped = closure.orbit_rows(_transforms(m, v))
            assert (mapped == mapped[0]).all(), v

    @pytest.mark.parametrize("m", [18, 28])
    def test_reduce_hands_one_row_per_orbit_to_the_reducer(self, m, monkeypatch):
        inside, seen = [], []
        chunks, reduce = _Closure._chunks, _Closure.reduce

        def recording_chunks(self, V):
            if inside:
                seen.append(V.copy())
            return chunks(self, V)

        def flagged_reduce(self, parts):
            inside.append(True)
            try:
                return reduce(self, parts)
            finally:
                inside.pop()

        monkeypatch.setattr(_Closure, "_chunks", recording_chunks)
        monkeypatch.setattr(_Closure, "reduce", flagged_reduce)
        assert hilbert_basis(m).complete
        assert sum(map(len, seen)) > 0
        for V in seen:
            orbits = {_orbit_id(m, v) for v in V}
            assert len(orbits) == len(V)

    @pytest.mark.parametrize("m", [12, 44, 80])
    def test_fits_is_the_part_wise_fit(self, m):
        C = m // 2
        rng = np.random.default_rng(C)

        def draw(k):
            # mostly zero columns; about one row in three with an entry near +-2^30
            V = _sparse_rows(rng, k, C)
            big = np.flatnonzero(rng.random(k) < 0.35)
            V[big, rng.integers(0, C, len(big))] = rng.choice([-1, 1], len(big)) * (
                (1 << 30) - rng.integers(0, 4, len(big))
            )
            return V

        closure = _Closure(C, SearchBudget(), _class_transforms(m))
        R = draw(6)
        closure.set_reps(R[R.any(axis=1)])  # set_reps takes nonzero rows
        G = closure.G
        picked = G[rng.integers(0, len(G), 150)]
        # store rows as they are, moved a little, and fresh rows
        W = np.vstack([picked, picked + _sparse_rows(rng, len(picked), C), draw(100)])
        rows, gs = np.divmod(np.arange(len(W) * len(G)), len(G))
        g, w = G[gs], W[rows]
        literal = (np.maximum(g, 0) <= np.maximum(w, 0)).all(axis=1) & (
            np.maximum(-g, 0) <= np.maximum(-w, 0)
        ).all(axis=1)
        fit = closure._fits(W, rows, gs)
        assert np.array_equal(fit, literal)
        assert literal.any() and not literal.all()
        assert (np.abs(g[literal]) > 1 << 29).any()


def _literal_pair_sums(reps, new, block, block_rep_idx):
    """The closure's pair batches by one mask per representative, literally."""
    batches, sums, buffered = [], [], 0
    neg_block, pos_block = block < 0, block > 0
    for i, g in enumerate(reps):
        cancel = (neg_block & (g > 0)).any(axis=1) | (pos_block & (g < 0)).any(axis=1)
        if new[i]:
            cancel[block_rep_idx < i] = False
        if cancel.any():
            sums.append(block[cancel] + g)
            buffered += int(cancel.sum())
            if buffered >= hilbert._PAIR_FLUSH:
                batches.append(sums)
                sums, buffered = [], 0
    batches.append(sums)
    return batches


def _batch_bytes(batches, C):
    """Each batch as the bytes of the rows the reducer stacks from it."""
    return [np.vstack([np.zeros((0, C), dtype=np.int64), *b]).tobytes() for b in batches]


def _sparse_rows(rng, rows, C):
    return rng.integers(-2, 3, size=(rows, C)) * (rng.random((rows, C)) < 0.08)


# (cells of a rep block, rows that close a batch): the defaults, and small
# ones that cut rep blocks and batches many times
PAIR_SIZES = pytest.mark.parametrize(
    "cells, flush", [(1 << 16, 1 << 17), (1000, 61)], ids=["default", "small"]
)


class TestPairSums:
    @PAIR_SIZES
    @pytest.mark.parametrize("m", [18, 28])
    def test_reducer_gets_the_literal_loops_batches(self, m, cells, flush, monkeypatch):
        monkeypatch.setattr(hilbert, "_PAIR_CELLS", cells)
        monkeypatch.setattr(hilbert, "_PAIR_FLUSH", flush)
        states, handed, inside = [], [], []
        interreduce, reduce = _Closure.interreduce, _Closure.reduce

        def recording_interreduce(self, R):
            inside.append(True)
            try:
                interreduce(self, R)
            finally:
                inside.pop()
            states.append((self.reps.copy(), self.G.copy(), self.rep_of_row.copy()))

        def recording_reduce(self, parts):
            if not inside:
                handed.append(_batch_bytes([parts], self.C)[0])
            return reduce(self, parts)

        monkeypatch.setattr(_Closure, "interreduce", recording_interreduce)
        monkeypatch.setattr(_Closure, "reduce", recording_reduce)
        assert hilbert_basis(m).complete
        expected, paired = [], set()
        for reps, G, rep_of_row in states:
            keys = [r.tobytes() for r in reps]
            new = np.array([k not in paired for k in keys], dtype=bool)
            if not new.any():
                break
            rows = np.flatnonzero(new[rep_of_row])
            batches = _literal_pair_sums(reps, new, G[rows], rep_of_row[rows])
            expected += _batch_bytes(batches, m // 2)
            paired.update(keys)
        assert len(handed) > 1 and handed == expected

    @PAIR_SIZES
    @pytest.mark.parametrize("C", [40, 70])
    def test_pair_sums_match_the_literal_loop(self, C, cells, flush, monkeypatch):
        monkeypatch.setattr(hilbert, "_PAIR_CELLS", cells)
        monkeypatch.setattr(hilbert, "_PAIR_FLUSH", flush)
        rng = np.random.default_rng(C)
        reps = _sparse_rows(rng, 60, C)
        block = _sparse_rows(rng, 400, C)
        block_rep_idx = np.sort(rng.integers(0, len(reps), size=len(block)))
        new = rng.random(len(reps)) < 0.5
        expected = _literal_pair_sums(reps, new, block, block_rep_idx)
        got = list(_pair_sums(reps, new, block, block_rep_idx))
        assert _batch_bytes(got, C) == _batch_bytes(expected, C)
        # the data tells an exact mask from one read off the support keys'
        # 32-bit halves, which alias past 32 columns
        keys = _Closure(C, SearchBudget(), _class_transforms(2 * C))._keys
        low, high = (1 << 32) - 1, lambda k: (k >> 32) & ((1 << 32) - 1)
        rk, bk = keys(reps), keys(block)
        halves = ((rk[:, None] & low) & high(bk)) | (high(rk)[:, None] & (bk & low)) != 0
        exact = ((reps[:, None] > 0) & (block < 0)).any(axis=2) | (
            (reps[:, None] < 0) & (block > 0)
        ).any(axis=2)
        assert (halves != exact).any()

    def test_support_keys_admit_every_fit_past_32_columns(self):
        m = 80
        rng = np.random.default_rng(m)
        closure = _Closure(m // 2, SearchBudget(), _class_transforms(m))
        R = _sparse_rows(rng, 12, m // 2)
        closure.set_reps(R[R.any(axis=1)])  # set_reps takes nonzero rows
        W = rng.integers(-3, 4, size=(300, m // 2))
        pairs = set()
        for lo, _, rows, gs in closure._chunks(W):
            pairs.update(zip((lo + rows).tolist(), gs.tolist()))
        rows, gs = np.divmod(np.arange(len(W) * len(closure.G)), len(closure.G))
        fit = closure._fits(W, rows, gs)
        fits = set(zip(rows[fit].tolist(), gs[fit].tolist()))
        # fits that only the aliased high bits of the keys could tell apart
        assert any(closure.G[g, 32:].any() for _, g in fits)
        assert fits <= pairs


def _all_column_sieve(idx, m, basis):
    """The sieve's definition: drop the index rows whose count rows
    dominate any basis row of level <= y/2."""
    rows = indices_to_rows(idx, m)
    decomposable = np.zeros(len(rows), dtype=bool)
    for level in basis[: idx.shape[1] // 4]:
        for b in indices_to_rows(level, m):
            decomposable |= (rows >= b).all(axis=1)
    return idx[~decomposable]


@cache
def _reference_levels(m, top):
    """Indecomposable index rows of levels 1..top, one array per level, by the definition."""
    basis = []
    for y in range(1, top + 1):
        basis.append(_all_column_sieve(level_rows(m, y), m, basis))
    return tuple(basis)


def _same_levels(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSliceSieve:
    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=4))
    @example(30, 4)
    @example(24, 4)
    @example(4, 4)
    @example(2, 4)
    def test_support_columns_equal_all_columns(self, m, y):
        basis = list(_reference_levels(m, y - 1)) if y > 1 else []
        idx = level_rows(m, y)
        assert np.array_equal(
            _indecomposable_in_slice(idx, m, basis), _all_column_sieve(idx, m, basis)
        )

    # (levels sieved, rows, sha256 of the canonical text) of the sieve,
    # recorded from the all-column comparison
    @pytest.mark.parametrize(
        "m,top,count,digest",
        [
            (30, 4, 4149, "347069ba52156549e8f46e481ee7a186973858801368b0817e5eccb540b92bfa"),
            (24, 5, 1112, "40098f9266bb6b57a53615eddd6d4250dfdf08ca673845971a69f20cbe7a4f0b"),
        ],
    )
    def test_pinned_levelwise_rows(self, m, top, count, digest, monkeypatch):
        def sieve():
            levels, sieved = _levelwise(m, top, SearchBudget())
            vectors = [v for idx in levels for v in indices_to_vectors(idx, m)]
            text = "\n".join(format_vector(v) for v in vectors)
            return sieved, len(vectors), hashlib.sha256(text.encode("utf-8")).hexdigest()

        assert sieve() == (top, count, digest)
        _small_blocks(monkeypatch)
        assert sieve() == (top, count, digest)

    def test_levelwise_basis_reads_every_level_once(self, slice_reads):
        basis = hilbert_basis(12, max_level=4, algorithm="levelwise")
        assert basis.max_level_seen == 4
        assert sorted(slice_reads) == [(12, y) for y in range(1, 5)]

    @pytest.mark.parametrize("bottom", range(1, 7))
    def test_kept_levels_are_those_of_the_full_sieve(self, bottom):
        full, _ = _levelwise(24, 5, SearchBudget())
        levels, sieved = _levelwise(24, 5, SearchBudget(), bottom)
        assert sieved == 5
        assert _same_levels(levels, full[bottom - 1 :])

    @pytest.mark.parametrize(
        "cap,sieved",
        [(100, 1), (300, 2), (2364, 2), (2365, 3), (14162, 3), (14163, 4)],
    )
    def test_an_overrun_in_a_read_level_stops_the_sieve(self, cap, sieved):
        # (20, top=4, bottom=3) reads levels 2, 3 and 4, spending 287,
        # 2,078 and 11,798; the skipped level one counts as sieved
        budget = SearchBudget(max_seconds=None, max_candidates=cap)
        levels, seen = _levelwise(20, 4, budget, bottom=3)
        assert seen == sieved
        full, _ = _levelwise(20, 4, SearchBudget(), bottom=3)
        assert _same_levels(levels, full[: max(sieved - 2, 0)])


_slice = cache(enumerate_level)


def _least_fit_below(v, m):
    """The least c of levels 1..y/2 with c.x <= v.x componentwise, by brute force."""
    for k in range(1, v.y // 2 + 1):
        for c in _slice(m, k):
            if all(a <= b for a, b in zip(c.x, v.x)):
                return c
    return None


class TestIsDecomposable:
    def test_witness_for_m4_level_two(self):
        v = MonoidVector((1, 2, 1), 2)
        witness = is_decomposable(v, 4)
        assert witness is not None
        assert witness.c + witness.d == v
        assert {witness.c.x, witness.d.x} == {(1, 0, 1), (0, 2, 0)}
        # ascending (level, lex) order fixes which summand is found first
        assert witness.c.x == (0, 2, 0)

    def test_level_one_never_splits(self):
        assert is_decomposable(MonoidVector((1, 1), 1), 3) is None

    def test_degree_33_vector_is_indecomposable(self):
        assert is_decomposable(V33, 33) is None

    def test_membership_required(self):
        with pytest.raises(MembershipError):
            is_decomposable(MonoidVector((1, 1, 0), 1), 4)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_witness_is_the_least_fit_of_the_level_slices(self, m):
        for y in range(2, (4 if m < 13 else 3) + 1):
            for v in enumerate_level(m, y):
                witness = is_decomposable(v, m)
                c = None if witness is None else witness.c
                assert c == _least_fit_below(v, m), v

    def test_reads_no_level_slice(self, monkeypatch):
        import fermat_hodge.hilbert as hilbert

        def refuse(*args, **kwargs):
            raise AssertionError("is_decomposable read a level slice")

        monkeypatch.setattr(hilbert, "level_rows", refuse)
        monkeypatch.setattr(hilbert, "_levelwise", refuse)
        assert is_decomposable(V33, 33) is None
        self.test_witness_for_m4_level_two()

    def test_truncated_search_raises(self):
        ones = enumerate_level(12, 1)
        v = ones[0] + ones[1]  # level 2: its C(4, 2) = 6 pairs are the candidates
        assert is_decomposable(v, 12) is not None
        assert is_decomposable(
            v, 12, budget=SearchBudget(max_seconds=None, max_candidates=6)
        ) is not None
        with pytest.raises(BudgetExceededError):
            is_decomposable(
                v, 12, budget=SearchBudget(max_seconds=None, max_candidates=5)
            )

    @pytest.mark.parametrize("cap", [0, 10, 16, 20, 50, 100, 1000])
    def test_budgeted_answer_is_the_unbounded_one_or_raises(self, cap):
        level_two = enumerate_level(12, 2)
        vectors = [(level_two[0] + level_two[-1], 12), (V33, 33)]
        vectors += [(enumerate_level(12, 1)[0] + enumerate_level(12, 1)[1], 12)]
        for v, m in vectors:
            budget = SearchBudget(max_seconds=None, max_candidates=cap)
            try:
                answer = is_decomposable(v, m, budget=budget)
            except BudgetExceededError:
                continue
            assert answer == is_decomposable(v, m)

    @pytest.mark.parametrize("m", [6, 8, 9, 12])
    def test_witnesses_are_members(self, m, get_basis):
        basis = get_basis(m)
        for y in (2, 3):
            for v in enumerate_level(m, y):
                witness = is_decomposable(v, m)
                if witness is None:
                    assert v in set(basis.elements)
                else:
                    assert is_member(witness.c, m)
                    assert is_member(witness.d, m)
                    assert witness.c + witness.d == v


class TestPhi:
    def test_reference_values(self):
        assert phi(21) == 3
        assert phi(7) == 1
        assert phi(2) == 1

    def test_incomplete_raises_with_partial(self):
        with pytest.raises(IncompleteBasisError):
            phi(30, budget=SearchBudget(max_candidates=1000))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_no_sieve_depth_certifies_a_basis(self, k):
        # levels 1..5 hold every indecomposable of 33, yet no sieve is a proof
        assert not hilbert_basis(33, algorithm="levelwise", max_level=k).complete

    def test_dimension_bound(self):
        assert required_dimension_bound(21) == 4
        assert required_dimension_bound(5) == 0

    @pytest.mark.parametrize("m", [3, 5, 7, 11, 13, 4])
    def test_phi_one_iff_level_one_basis(self, m, get_basis):
        assert phi(m) == 1
        assert all(v.y == 1 for v in get_basis(m).elements)
