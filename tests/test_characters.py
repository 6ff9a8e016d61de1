from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermat_hodge import characters
from fermat_hodge import (
    Character,
    HodgeLabel,
    MonoidVector,
    enumerate_hodge_labels,
    enumerate_level,
    from_monoid,
    hash_join,
    is_hodge_label,
    satisfies_p1,
    satisfies_p2,
    star_join,
    to_monoid,
    units,
    weight,
)
from fermat_hodge.errors import HodgeLabelError, JoinError, MembershipError, ShapeError

V33 = MonoidVector(
    x=tuple(1 if i in (7, 10, 13, 19, 22, 28) else 0 for i in range(1, 33)), y=3
)


@st.composite
def _characters(draw):
    """Zero-sum characters: Hodge labels with one pair of entries moved, or free ones.

    Moving +d on one entry and -d on another keeps the sum zero, so the
    unit weights decide; a move onto residue 0 draws again.
    """
    m = draw(st.integers(min_value=2, max_value=12))
    if draw(st.booleans()):
        n = draw(st.sampled_from([0, 2, 4]))
        entries = list(draw(st.sampled_from(enumerate_hodge_labels(m, n))).entries)
        if draw(st.booleans()):
            i, j = draw(st.permutations(range(len(entries))))[:2]
            d = draw(st.integers(1, m - 1))
            entries[i], entries[j] = (entries[i] + d) % m, (entries[j] - d) % m
    else:
        entries = draw(st.lists(st.integers(1, m - 1), min_size=1, max_size=7))
        entries.append(-sum(entries) % m)
    if 0 in entries:
        draw(st.nothing())
    return Character(m, tuple(draw(st.permutations(entries))))


class TestCharacter:
    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            Character(4, (0, 4))

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError):
            Character(4, (1, 2))

    def test_dimension(self):
        assert Character(3, (1, 1, 2, 2)).n == 2
        assert Character(4, (1, 3)).n == 0


class TestWeight:
    def test_examples(self):
        alpha = Character(3, (1, 1, 2, 2))
        assert weight(alpha, 1) == 2
        assert weight(alpha, 2) == 2
        assert weight(Character(4, (1, 3)), 1) == 1

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            weight(Character(4, (1, 3)), 2)

    def test_exact_rational(self):
        alpha = Character(5, (1, 1, 3))
        assert weight(alpha, 1) == Fraction(5, 5)
        assert weight(alpha, 2) == Fraction(2 + 2 + 1, 5)
        assert isinstance(weight(alpha, 2), Fraction)


class TestIsHodgeLabel:
    def test_examples(self):
        assert is_hodge_label(Character(3, (1, 1, 2, 2)))
        assert is_hodge_label(Character(4, (1, 3)))
        assert not is_hodge_label(Character(3, (1, 1, 1)))  # odd dimension

    @given(_characters())
    def test_is_the_weight_definition(self, alpha):
        target = Fraction(alpha.n, 2) + 1
        expected = all(weight(alpha, t) == target for t in units(alpha.m))
        assert is_hodge_label(alpha) == expected

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=3))
    def test_unit_action_preserves_labels(self, m, y):
        for v in enumerate_level(m, y)[:5]:
            alpha = from_monoid(v, m)
            for t in units(m):
                twisted = Character(
                    m, tuple(sorted((t * a) % m for a in alpha.entries))
                )
                assert is_hodge_label(twisted)


class TestEnumerate:
    def test_examples(self):
        assert [l.entries for l in enumerate_hodge_labels(3, 2)] == [(1, 1, 2, 2)]
        assert [l.entries for l in enumerate_hodge_labels(4, 0)] == [(1, 3), (2, 2)]
        assert [l.entries for l in enumerate_hodge_labels(5, 0)] == [(1, 4), (2, 3)]

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            enumerate_hodge_labels(5, 3)

    def test_each_label_is_proved_once(self, monkeypatch):
        # the slice join proves each row: no per-label is_member or weight
        calls = Counter()
        slices = []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("is_member", "weight"):
            original = getattr(characters, name)
            monkeypatch.setattr(characters, name, counted(name, original))
        level_rows = characters.level_rows

        def recorded(m, y):
            slices.append(level_rows(m, y))
            return slices[-1]

        monkeypatch.setattr(characters, "level_rows", recorded)
        labels = enumerate_hodge_labels(33, 4)
        assert len(labels) == 990 and not calls
        (rows,) = slices
        assert [label.entries for label in labels] == [tuple(r) for r in rows[::-1].tolist()]
        assert all(is_hodge_label(label) for label in labels)

    def test_a_caller_label_keeps_its_own_proof(self, count_member_calls):
        calls = count_member_calls(characters)
        assert HodgeLabel(7, (1, 2, 4, 6, 5, 3))
        with pytest.raises(HodgeLabelError):
            HodgeLabel(7, (1, 2, 3, 1))  # even n, weight 1 under t = 1
        assert len(calls) == 2

    def test_expansion_lists_permutations(self):
        expanded = enumerate_hodge_labels(3, 2, expand_permutations=True)
        assert {l.entries for l in expanded} == {
            (1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1),
            (2, 1, 1, 2), (2, 1, 2, 1), (2, 2, 1, 1),
        }

    @pytest.mark.parametrize("m,n", [(5, 2), (7, 4), (9, 2), (12, 2)])
    def test_expansion_is_every_order_of_every_label(self, m, n):
        reps = enumerate_hodge_labels(m, n)
        expanded = enumerate_hodge_labels(m, n, expand_permutations=True)
        entries = [l.entries for l in expanded]
        assert entries == sorted(set(entries))
        assert {l.sorted_entries() for l in expanded} == {l.entries for l in reps}
        assert len(entries) == sum(
            factorial(n + 2) // prod(factorial(c) for c in Counter(l.entries).values())
            for l in reps
        )
        assert all(is_hodge_label(l) for l in expanded[:: max(1, len(expanded) // 50)])


class TestCorrespondence:
    def test_examples(self):
        assert to_monoid(HodgeLabel(3, (1, 1, 2, 2))) == MonoidVector((2, 2), 2)
        assert to_monoid(HodgeLabel(4, (1, 3))) == MonoidVector((1, 0, 1), 1)
        assert to_monoid(HodgeLabel(4, (2, 2))) == MonoidVector((0, 2, 0), 1)
        assert from_monoid(MonoidVector((2, 2), 2), 3).entries == (1, 1, 2, 2)
        assert from_monoid(V33, 33).entries == (7, 10, 13, 19, 22, 28)

    def test_to_monoid_requires_label(self):
        with pytest.raises(HodgeLabelError):
            to_monoid(Character(5, (1, 1, 3)))

    def test_from_monoid_requires_member(self):
        with pytest.raises(MembershipError):
            from_monoid(MonoidVector((1, 1, 0), 1), 4)

    @pytest.mark.parametrize("x,y", [
        ((1, 0, 1), 2),  # a label of another level
        ((2, -1, 1), 1),  # a negative entry
        ((0, 0, 0), 0),
        ((2, 0, 0), 1),  # entries not summing to zero
        ((1, 0, 1), 10**30),
    ])
    def test_from_monoid_rejects_non_members(self, x, y):
        with pytest.raises(MembershipError):
            from_monoid(MonoidVector(x, y), 4)

    @pytest.mark.parametrize("x", [(0, 2), (1, 0, 1, 0)])
    def test_from_monoid_shape_error(self, x):
        with pytest.raises(ShapeError):
            from_monoid(MonoidVector(x, 1), 4)

    @pytest.mark.parametrize("m", range(2, 13))
    @pytest.mark.parametrize("y", [1, 2, 3])
    def test_roundtrip(self, m, y):
        for v in enumerate_level(m, y):
            assert to_monoid(from_monoid(v, m)) == v

    # every small slice, and the slices of the benchmark's hodge requests:
    # (33, 4), (28, 4), (21, 4), (15, 6), (12, 4) and (9, 6) as (m, n)
    @pytest.mark.parametrize("y,m", [(y, m) for y in (1, 2, 3) for m in range(2, 11)] + [
        (3, 33), (3, 28), (3, 21), (4, 15), (3, 12), (4, 9),
    ])
    def test_bijection_with_level_slice(self, m, y):
        # to_monoid proves each label with is_member, in Python integers
        labels = enumerate_hodge_labels(m, 2 * (y - 1))
        assert {to_monoid(l) for l in labels} == set(enumerate_level(m, y))


class TestJoins:
    def test_star_examples(self):
        assert star_join(Character(3, (1, 2)), Character(3, (1, 2))).entries == (1, 2, 1, 2)
        assert star_join(Character(4, (1, 3)), Character(4, (2, 2))).entries == (1, 3, 2, 2)
        assert star_join(
            Character(3, (1, 1, 1)), Character(3, (2, 2, 2))
        ).entries == (1, 1, 1, 2, 2, 2)

    def test_star_requires_same_degree(self):
        with pytest.raises(ValueError):
            star_join(Character(3, (1, 2)), Character(4, (1, 3)))

    def test_hash_examples(self):
        joined = hash_join(Character(3, (1, 1, 2, 2)), Character(3, (2, 2, 1, 1)))
        assert joined.entries == (1, 1, 2, 2, 2, 1)
        assert hash_join(Character(4, (2, 2)), Character(4, (2, 2))).entries == (2, 2)

    def test_hash_compatibility_error(self):
        with pytest.raises(JoinError):
            hash_join(Character(4, (1, 3)), Character(4, (1, 3)))

    @given(st.integers(min_value=2, max_value=10))
    def test_join_outputs_are_characters(self, m):
        labels = enumerate_hodge_labels(m, 2)
        for beta in labels[:3]:
            for gamma in labels[:3]:
                out = star_join(beta, gamma)
                assert sum(out.entries) % m == 0
                assert all(a for a in out.entries)
                if (beta.entries[-1] + gamma.entries[-1]) % m == 0:
                    out = hash_join(beta, gamma)
                    assert sum(out.entries) % m == 0
                    assert all(a for a in out.entries)


def _brute_force_p1(alpha: Character) -> bool:
    """Independent split check over all sub-multisets of odd-r size."""
    entries = alpha.sorted_entries()
    n = alpha.n
    for r in range(1, n, 2):
        seen = set()
        for positions in combinations(range(n + 2), r + 1):
            left = tuple(entries[i] for i in positions)
            if left in seen:
                continue
            seen.add(left)
            right = tuple(
                e for i, e in enumerate(entries) if i not in set(positions)
            )
            try:
                if is_hodge_label(Character(alpha.m, left)) and is_hodge_label(
                    Character(alpha.m, right)
                ):
                    return True
            except ValueError:
                continue
    return False


def _reference_p2(alpha: HodgeLabel) -> tuple[HodgeLabel, HodgeLabel] | None:
    """The hash-join split by a loop over position combinations.

    The left factor takes r+1 entries plus the appended j, the right
    factor the rest plus m-j, with r and n-r even and positive; the first
    hit in (r, combination) order wins.  Each factor is a checked
    ``HodgeLabel``.
    """
    n, m = alpha.n, alpha.m
    entries = alpha.sorted_entries()
    for r in range(2, n - 1, 2):
        seen: set[tuple[int, ...]] = set()
        for positions in combinations(range(n + 2), r + 1):
            left = tuple(entries[i] for i in positions)
            if left in seen:
                continue
            seen.add(left)
            j = (-sum(left)) % m
            if j == 0:
                continue
            right = tuple(e for i, e in enumerate(entries) if i not in positions)
            try:
                return (HodgeLabel(m, left + (j,)), HodgeLabel(m, right + (m - j,)))
            except (ValueError, HodgeLabelError):
                continue
    return None


class TestSplits:
    def test_p1_example(self):
        result = satisfies_p1(Character(3, (1, 2, 1, 2)))
        assert result is not None
        beta, gamma = result
        assert sorted(beta.entries) == sorted(gamma.entries) == [1, 2]
        assert star_join(beta, gamma).sorted_entries() == (1, 1, 2, 2)

    def test_p1_level_one_none(self):
        assert satisfies_p1(Character(4, (1, 3))) is None

    def test_p1_proves_alpha_once(self, count_member_calls):
        import fermat_hodge.hilbert as hilbert

        labels = enumerate_hodge_labels(12, 4)
        calls = count_member_calls(characters, hilbert)
        splits = sum(satisfies_p1(alpha) is not None for alpha in labels)
        assert splits
        assert len(calls) == len(labels)

    def test_p1_decomposable_label_costs_one_member_test(self, count_member_calls):
        import fermat_hodge.hilbert as hilbert

        calls = count_member_calls(characters, hilbert)
        beta, gamma = satisfies_p1(Character(3, (1, 2, 1, 2)))
        assert len(calls) == 1
        assert beta.entries == gamma.entries == (1, 2)

    def test_p1_rejects_a_non_label(self):
        alpha = Character(7, (1, 1, 5))
        assert not is_hodge_label(alpha)
        with pytest.raises(HodgeLabelError):
            satisfies_p1(alpha)
        with pytest.raises(HodgeLabelError):
            satisfies_p1(Character(7, (1, 2, 3, 1)))

    def test_p1_splits_two_residue_pairs(self):
        assert satisfies_p1(Character(13, (1, 12, 2, 11))) is not None

    @pytest.mark.parametrize("m", range(3, 9))
    @pytest.mark.parametrize("n", [2, 4])
    def test_p1_iff_brute_force_split(self, m, n):
        for alpha in enumerate_hodge_labels(m, n):
            assert (satisfies_p1(alpha) is not None) == _brute_force_p1(alpha)

    def test_p2_dimension_zero_has_no_split(self):
        assert satisfies_p2(HodgeLabel(4, (2, 2))) is None

    def test_p2_example(self):
        result = satisfies_p2(HodgeLabel(3, (1, 1, 2, 2, 2, 1)))
        assert result is not None
        beta, gamma = result
        assert (beta.entries[-1] + gamma.entries[-1]) % 3 == 0
        joined = hash_join(beta, gamma)
        assert joined.sorted_entries() == (1, 1, 1, 2, 2, 2)

    def test_p2_degree_33_counterexample_has_none(self):
        assert satisfies_p2(HodgeLabel(33, (7, 10, 13, 19, 22, 28))) is None

    def test_p2_rejects_a_non_label(self):
        with pytest.raises(HodgeLabelError):
            satisfies_p2(Character(7, (1, 2, 3, 1)))

    @pytest.mark.parametrize("m", range(3, 17))
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_p2_equals_the_reference_loop(self, m, n):
        for alpha in enumerate_hodge_labels(m, n):
            assert satisfies_p2(alpha) == _reference_p2(alpha)
