import time

import numpy as np
import pytest

from fermat_hodge import (
    MonoidVector,
    SearchBudget,
    enumerate_level,
    hilbert_basis,
    is_decomposable,
    is_member,
    phi,
    required_dimension_bound,
)
from fermat_hodge.errors import IncompleteBasisError, MembershipError

V33 = MonoidVector(
    x=tuple(1 if i in (7, 10, 13, 19, 22, 28) else 0 for i in range(1, 33)), y=3
)


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
            m, algorithm="levelwise", trusted_bound=completion.max_element_level
        )
        assert levelwise.complete
        assert levelwise.elements == completion.elements

    def test_levelwise_without_bound_is_uncertified(self):
        basis = hilbert_basis(9, algorithm="levelwise")
        assert not basis.complete
        assert basis.max_element_level == 2

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

    def test_dimension_bound(self, get_basis):
        assert required_dimension_bound(21, basis=get_basis(21)) == 4
        assert required_dimension_bound(5, basis=get_basis(5)) == 0

    @pytest.mark.parametrize("m", [3, 5, 7, 11, 13, 4])
    def test_phi_one_iff_level_one_basis(self, m, get_basis):
        basis = get_basis(m)
        assert phi(m, basis=basis) == 1
        assert all(v.y == 1 for v in basis.elements)
