import itertools

import pytest
from hypothesis import given, strategies as st

from gridhom import partitions as pt
from conftest import refines


class EmptyPartition(Exception):
    pass


def epsilon(lam):
    """Bit string of length N-1: 0 between objects sharing a class, 1 between
    classes.  (2,3,1) -> 01001.  Reverses the refinement order."""
    if sum(lam) == 0:
        raise EmptyPartition("epsilon is defined for N >= 1")
    bits = []
    for k, part in enumerate(lam):
        bits.extend([0] * (part - 1))
        if k < len(lam) - 1:
            bits.append(1)
    return tuple(bits)


# compositions of 1..8 built from their epsilon bit strings, plus ()
compositions = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1).map(pt.from_epsilon)
) | st.just(())


def test_counts():
    for n in range(13):
        count = sum(1 for _ in pt.all_compositions(n))
        assert count == (1 if n == 0 else 2 ** (n - 1))


class TestEpsilon:
    def test_example(self):
        assert epsilon((2, 3, 1)) == (0, 1, 0, 0, 1)

    def test_whole_is_zeros(self):
        for n in range(1, 8):
            assert epsilon((n,)) == (0,) * (n - 1)

    def test_all_ones(self):
        for n in range(1, 8):
            assert epsilon((1,) * n) == (1,) * (n - 1)

    def test_empty_raises(self):
        with pytest.raises(EmptyPartition):
            epsilon(())

    def test_bijection(self):
        for n in range(1, 9):
            seen = set()
            for lam in pt.all_compositions(n):
                bits = epsilon(lam)
                assert pt.from_epsilon(bits) == lam
                seen.add(bits)
            assert len(seen) == 2 ** (n - 1)

    def test_order_reversal(self):
        # refinement order is anti-isomorphic to the product order on bits
        for n in range(1, 8):
            for lam in pt.all_compositions(n):
                for mu in pt.all_compositions(n):
                    bitwise = all(a >= b for a, b in zip(epsilon(lam), epsilon(mu)))
                    assert refines(lam, mu) == bitwise


class TestElementaryCoarsenings:
    def test_example(self):
        assert pt.elementary_coarsenings((2, 3, 1)) == [((5, 1), -1), ((2, 4), 1)]

    def test_whole(self):
        assert pt.elementary_coarsenings((6,)) == []

    def test_count(self):
        for lam in pt.all_compositions(6):
            assert len(pt.elementary_coarsenings(lam)) == max(len(lam) - 1, 0)

    def test_square_cancellation(self):
        # two-step coarsenings cancel in pairs with opposite sign products
        for n in range(2, 7):
            for lam in pt.all_compositions(n):
                acc = {}
                for mid, s1 in pt.elementary_coarsenings(lam):
                    for out, s2 in pt.elementary_coarsenings(mid):
                        acc[out] = acc.get(out, 0) + s1 * s2
                assert not any(acc.values()), (lam, acc)


class TestUnitEnlargements:
    def test_empty(self):
        assert pt.unit_enlargements(()) == [((1,), 1)]

    def test_example(self):
        assert pt.unit_enlargements((2,)) == [((1, 2), 1), ((2, 1), -1)]

    def test_count_includes_last_slot(self):
        for lam in pt.all_compositions(5):
            assert len(pt.unit_enlargements(lam)) == len(lam) + 1

    def test_first_insertion_then_initial_reduction_is_identity(self):
        for lam in pt.all_compositions(5):
            enlarged, sign = pt.unit_enlargements(lam)[0]
            assert sign == 1
            assert enlarged == (1,) + lam


class TestSplitConcatenation:
    def test_impossible(self):
        assert pt.split_concatenation((2, 2), (1, 3)) is None  # a part straddles a cut
        assert pt.split_concatenation((1, 1), (1,)) is None  # parts left over
        assert pt.split_concatenation((1,), (1, 1)) is None  # runs out

    @pytest.mark.parametrize("n", range(6))
    def test_concatenations_split_back(self, n):
        # every concatenation of compositions of the parts of a weak
        # composition of n, and nothing else, splits into those blocks
        for totals in pt.weak_compositions(n, 3):
            expected = {
                sum(blocks, ()): list(blocks)
                for blocks in itertools.product(*(pt.all_compositions(t) for t in totals))
            }
            for lam in pt.all_compositions(n):
                assert pt.split_concatenation(lam, totals) == expected.get(lam)


class TestRefines:
    @given(compositions)
    def test_reflexive(self, lam):
        assert refines(lam, lam)

    def test_merge_chain(self):
        assert refines((1, 1, 1), (2, 1))
        assert refines((2, 1), (3,))
        assert refines((1, 1, 1), (3,))
        assert not refines((3,), (1, 1, 1))

    def test_generalized_totals(self):
        # smaller total vs larger: parts bounded by the coarser ones
        assert refines((1,), (2,))
        assert refines((1, 1), (2, 3))
        assert not refines((4,), (2, 3))
        assert not refines((2, 3), (1,))

    def test_coarsenings_of(self):
        out = pt.coarsenings_of((1, 1, 1))
        assert out == {(1, 1, 1), (2, 1), (1, 2), (3,)}
