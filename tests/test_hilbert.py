import hashlib
import time
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermat_hodge import (
    HilbertBasis,
    MonoidVector,
    SearchBudget,
    check_condition,
    enumerate_level,
    format_vector,
    hilbert_basis,
    is_decomposable,
    is_member,
    phi,
    required_dimension_bound,
    units,
)
from fermat_hodge.errors import IncompleteBasisError, MembershipError
from fermat_hodge.hilbert import _indecomposable_in_slice, _levelwise, _unique_rows
from fermat_hodge.monoid import level_rows, rows_to_vectors

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


class TestHilbertBasis:
    def test_m5_both_level_one(self, get_basis):
        basis = get_basis(5)
        assert {v.x for v in basis.elements} == {(1, 0, 0, 1), (0, 1, 1, 0)}
        assert basis.complete

    def test_m4(self, get_basis):
        assert {v.x for v in get_basis(4).elements} == {(0, 2, 0), (1, 0, 1)}

    def test_m9_max_level_two(self, get_basis):
        assert get_basis(9).max_element_level == 2

    @pytest.mark.parametrize("m", range(2, 35))
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

    @pytest.mark.parametrize("m", range(2, 35))
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

    @pytest.mark.parametrize("m", range(21, 35))
    def test_completion_agrees_with_sieve_up_to_level_three(self, m, get_basis):
        sieve = hilbert_basis(m, algorithm="levelwise", max_level=3)
        low = tuple(v for v in get_basis(m).elements if v.y <= 3)
        assert sieve.elements == low

    @pytest.mark.parametrize("m", sorted(BASIS_PINS))
    def test_pinned_basis(self, m, get_basis):
        elements = sorted(get_basis(m).elements, key=lambda v: (v.y, v.x))
        text = "\n".join(format_vector(v) for v in elements)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert (len(elements), digest) == BASIS_PINS[m]

    @pytest.mark.parametrize("m", [2, 12, 22, 25, 26, 33])
    def test_completion_elements_are_distinct_and_canonical(self, m, get_basis):
        # for even m, level one and the lattice vector 2e_{m/2} give one row twice
        elements = get_basis(m).elements
        assert list(elements) == sorted(set(elements), key=lambda v: (v.y, v.x))

    @pytest.mark.parametrize("shape", [(0, 4), (1, 4), (300, 3), (2000, 15)])
    def test_unique_rows_matches_numpy(self, shape):
        V = np.random.default_rng(0).integers(-2, 3, size=shape)
        rows, inverse = _unique_rows(V)
        expected, expected_inverse = np.unique(V, axis=0, return_inverse=True)
        assert np.array_equal(rows, expected)
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
    def test_levelwise_equals_completion(self, m, get_basis):
        completion = get_basis(m)
        levelwise = hilbert_basis(
            m, algorithm="levelwise", max_level=completion.max_element_level
        )
        assert not levelwise.complete
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

    @pytest.mark.parametrize(
        "budget",
        [
            SearchBudget(max_seconds=1.0, max_candidates=None),
            SearchBudget(max_seconds=None, max_candidates=1000),
        ],
        ids=["seconds", "candidates"],
    )
    def test_truncated_completion_stays_within_budget(self, budget):
        # the levelwise salvage of an overrun completion gets only the
        # time left of the caller's budget, not a fresh one
        started = time.monotonic()
        basis = hilbert_basis(30, budget=budget)
        assert not basis.complete
        assert time.monotonic() - started < 1.0 + 1.0

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            hilbert_basis(6, algorithm="guesswork")


def _all_column_sieve(rows, basis):
    """The sieve's definition: drop rows dominating any basis row of level <= y/2."""
    y = int(rows[0, -1]) if len(rows) else 0
    decomposable = np.zeros(len(rows), dtype=bool)
    for level in basis[: y // 2]:
        for b in level:
            decomposable |= (rows >= b).all(axis=1)
    return rows[~decomposable]


@cache
def _reference_levels(m, top):
    """Indecomposable rows of levels 1..top, one array per level, by the definition."""
    basis = []
    for y in range(1, top + 1):
        basis.append(_all_column_sieve(level_rows(m, y), basis))
    return tuple(basis)


class TestSliceSieve:
    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=4))
    @example(30, 4)
    @example(24, 4)
    @example(4, 4)
    @example(2, 4)
    def test_support_columns_equal_all_columns(self, m, y):
        basis = list(_reference_levels(m, y - 1)) if y > 1 else []
        rows = level_rows(m, y)
        assert np.array_equal(
            _indecomposable_in_slice(rows, basis), _all_column_sieve(rows, basis)
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
    def test_pinned_levelwise_rows(self, m, top, count, digest):
        rows, sieved = _levelwise(m, top, SearchBudget())
        text = "\n".join(format_vector(v) for v in rows_to_vectors(rows))
        assert sieved == top and len(rows) == count
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


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

    def test_basis_of_another_degree_is_rejected(self, get_basis):
        # the 26-wide rows used to be reshaped into 13-wide ones
        ones = enumerate_level(13, 1)
        v = ones[0] + ones[1]
        with pytest.raises(ValueError, match="degree 26"):
            is_decomposable(v, 13, basis=get_basis(26))

    def test_unproved_fit_from_a_callers_basis_is_rejected(self):
        # (0,0,0,1,0,...;1) is no member of 12, yet it fits under the member
        # v; the witness used to return it, and v minus it, unproved
        fake = MonoidVector((0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0), 1)
        basis = HilbertBasis(
            m=12, elements=(fake,), complete=True, max_level_seen=1,
            algorithm="completion",
        )
        v = MonoidVector((0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0), 2)
        assert is_member(v, 12) and not is_member(fake, 12)
        with pytest.raises(MembershipError, match="degree-12"):
            is_decomposable(v, 12, basis=basis)

    def test_truncated_sieve_raises(self):
        ones = enumerate_level(12, 1)
        v = ones[0] + ones[1]
        assert is_decomposable(v, 12) is not None
        with pytest.raises(IncompleteBasisError):
            is_decomposable(
                v, 12, budget=SearchBudget(max_seconds=None, max_candidates=10)
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
            except IncompleteBasisError:
                continue
            assert answer == is_decomposable(v, m)

    @pytest.mark.parametrize("m", [6, 8, 9, 12])
    def test_witnesses_are_members(self, m, get_basis):
        basis = get_basis(m)
        for y in (2, 3):
            for v in enumerate_level(m, y):
                witness = is_decomposable(v, m, basis=basis)
                if witness is None:
                    assert v in set(basis.elements)
                else:
                    assert is_member(witness.c, m)
                    assert is_member(witness.d, m)
                    assert witness.c + witness.d == v


class TestPhi:
    def test_reference_values(self, get_basis):
        assert phi(21, basis=get_basis(21)) == 3
        assert phi(7, basis=get_basis(7)) == 1
        assert phi(2, basis=get_basis(2)) == 1

    def test_incomplete_raises_with_partial(self):
        partial = hilbert_basis(12, algorithm="levelwise", max_level=3)
        with pytest.raises(IncompleteBasisError) as err:
            phi(12, basis=partial)
        assert err.value.partial_max_level >= 1

    @pytest.mark.parametrize("k", range(1, 6))
    def test_no_sieve_depth_certifies_a_basis(self, k):
        # levels 1..5 hold every indecomposable of 33, yet no sieve is a proof
        partial = hilbert_basis(33, algorithm="levelwise", max_level=k)
        with pytest.raises(IncompleteBasisError):
            phi(33, basis=partial)
        with pytest.raises(IncompleteBasisError):
            check_condition(33, basis=partial)

    def test_basis_of_another_degree_is_rejected(self, get_basis):
        # phi(12) = 5 used to be returned for degree 13, whose phi is 1
        with pytest.raises(ValueError, match="degree 12"):
            phi(13, basis=get_basis(12))
        with pytest.raises(ValueError, match="degree 12"):
            required_dimension_bound(13, basis=get_basis(12))

    def test_dimension_bound(self, get_basis):
        assert required_dimension_bound(21, basis=get_basis(21)) == 4
        assert required_dimension_bound(5, basis=get_basis(5)) == 0

    @pytest.mark.parametrize("m", [3, 5, 7, 11, 13, 4])
    def test_phi_one_iff_level_one_basis(self, m, get_basis):
        basis = get_basis(m)
        assert phi(m, basis=basis) == 1
        assert all(v.y == 1 for v in basis.elements)
