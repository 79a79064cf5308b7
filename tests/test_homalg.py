import math
import random

import pytest

from gridhom.homalg import (
    HomologyTable,
    IntegerChainComplex,
    NotAComplex,
    UPoly,
    chain_add,
    homology_with_bases,
    reduce_complex,
    smith_normal_form,
)
from gridhom.gridcomplex import FlavorSpec
from conftest import NotAFiltration, associated_graded, raw_slice, reference_reduce


def invariant_factors(factors):
    primes = {}
    for f in factors:
        d = 2
        while f > 1:
            while f % d == 0:
                primes.setdefault(d, []).append(d)
                f //= d
            d += 1
    cols = {}
    for p, ps in primes.items():
        for i, q in enumerate(sorted(ps, reverse=True)):
            cols[i] = cols.get(i, 1) * q
    return sorted(cols.values())


def random_complex(rng):
    grading = {}
    diff = {}
    exp_rank = {g: 0 for g in range(5)}
    exp_tors = {g: [] for g in range(5)}
    kid = 0

    def add(g):
        nonlocal kid
        k = f"e{kid}"
        kid += 1
        grading[k] = g
        return k

    for _ in range(rng.randint(1, 7)):
        g = rng.randint(0, 3)
        kind = rng.choice(["free", "iso", "tors"])
        if kind == "free":
            add(g)
            exp_rank[g] += 1
        elif kind == "iso":
            a, b = add(g), add(g + 1)
            diff[b] = {a: rng.choice((1, -1))}
        else:
            d = rng.choice([2, 3, 4, 6])
            a, b = add(g), add(g + 1)
            diff[b] = {a: d}
            exp_tors[g].append(d)
    cx = IntegerChainComplex(grading, diff)
    # random integer change of basis by elementary operations
    keys = list(grading)
    for _ in range(25):
        if len(keys) < 2:
            break
        a, b = rng.sample(keys, 2)
        if grading[a] != grading[b]:
            continue
        lam = rng.randint(-2, 2)
        da, db = cx.diff.get(a, {}), cx.diff.get(b, {})
        new = dict(da)
        for k, v in db.items():
            new[k] = new.get(k, 0) + lam * v
            if not new[k]:
                del new[k]
        if new:
            cx.diff[a] = new
        else:
            cx.diff.pop(a, None)
        for c, col in cx.diff.items():
            if a in col:
                col[b] = col.get(b, 0) - lam * col[a]
                if not col[b]:
                    del col[b]
    return cx, exp_rank, exp_tors


class TestSNF:
    def test_classic_example(self):
        diag, L, Linv, R, Rinv = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert diag == [2, 2, 156]
        m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        S = [
            [sum(L[i][k] * m[k][l] * R[l][j] for k in range(3) for l in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert S == [[2, 0, 0], [0, 2, 0], [0, 0, 156]]

    def test_divisibility(self):
        rng = random.Random(0)
        for _ in range(100):
            m = [[rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 4))]
            m = [row + [0] * (max(len(r) for r in m) - len(row)) for row in m]
            diag, *_ = smith_normal_form(m)
            for i in range(len(diag) - 1):
                assert diag[i + 1] % diag[i] == 0

    def test_transform_inverses(self):
        rng = random.Random(1)
        for _ in range(30):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            diag, L, Linv, R, Rinv = smith_normal_form(m)
            eye_r = [[sum(L[i][k] * Linv[k][j] for k in range(rows)) for j in range(rows)] for i in range(rows)]
            eye_c = [[sum(R[i][k] * Rinv[k][j] for k in range(cols)) for j in range(cols)] for i in range(cols)]
            assert eye_r == [[int(i == j) for j in range(rows)] for i in range(rows)]
            assert eye_c == [[int(i == j) for j in range(cols)] for i in range(cols)]


class TestCheckDSquared:
    def test_zero_differential(self):
        cx = IntegerChainComplex({"a": 0, "b": 1}, {})
        assert cx.check_d_squared()

    def test_two_step_failure(self):
        cx = IntegerChainComplex(
            {"a": 0, "b": 1, "c": 2}, {"b": {"a": 2}, "c": {"b": 3}}
        )
        assert not cx.check_d_squared()

    def test_grading_validation(self):
        cx = IntegerChainComplex({"a": 0, "b": 2}, {"b": {"a": 1}})
        with pytest.raises(NotAComplex):
            cx.validate_grading()


class TestHomology:
    def test_zero_map(self):
        cx = IntegerChainComplex({"a": 0, "b": 1}, {})
        assert cx.homology().groups == {0: (1, ()), 1: (1, ())}

    def test_isomorphism(self):
        cx = IntegerChainComplex({"a": 0, "b": 1}, {"b": {"a": 1}})
        assert cx.homology().nonzero() == {}

    def test_torsion(self):
        cx = IntegerChainComplex({"a": 0, "b": 1}, {"b": {"a": 5}})
        assert cx.homology().groups == {0: (0, (5,))}

    def test_random_complexes(self):
        rng = random.Random(42)
        for _ in range(250):
            cx, exp_rank, exp_tors = random_complex(rng)
            assert cx.check_d_squared()
            table = cx.homology()
            for g in range(5):
                r, t = table.groups.get(g, (0, ()))
                assert r == exp_rank[g]
                assert invariant_factors(t) == invariant_factors(exp_tors[g])

    def test_euler_characteristic(self):
        rng = random.Random(7)
        for _ in range(50):
            cx, _, _ = random_complex(rng)
            chain_euler = sum((-1) ** g for g in cx.grading.values())
            table = cx.homology()
            hom_euler = sum((-1) ** g * r for g, (r, _) in table.groups.items())
            assert chain_euler == hom_euler


class TestReduction:
    def test_iota_pi_are_chain_homotopy_data(self):
        rng = random.Random(3)
        for _ in range(80):
            cx, _, _ = random_complex(rng)
            red, iota, pi = reference_reduce(cx)
            assert red == reduce_complex(cx)[0]
            assert red.check_d_squared()
            for k in red.grading:
                left = cx.apply(iota[k])
                right = {}
                for k2, v in red.diff.get(k, {}).items():
                    for k3, v3 in iota[k2].items():
                        right[k3] = right.get(k3, 0) + v * v3
                assert left == {k3: v for k3, v in right.items() if v}
            for k in red.grading:
                assert pi(iota[k]) == {k: 1}
            # pi is a chain map: pi(d x) == d'(pi(x)) on every original cell
            for k in cx.grading:
                assert pi(cx.apply({k: 1})) == red.apply(pi({k: 1}))

    def test_reduction_preserves_homology(self):
        # the unreduced complex keeps multi-cell Smith forms under test
        rng = random.Random(8)
        for _ in range(80):
            cx, exp_rank, exp_tors = random_complex(rng)
            (red,) = reduce_complex(cx)
            for c in (cx, red):
                table = HomologyTable.from_bases(homology_with_bases(c))
                for g in range(5):
                    assert table.rank(g) == exp_rank[g]
                    assert invariant_factors(table.groups.get(g, (0, ()))[1]) == invariant_factors(exp_tors[g])


class TestAssociatedGraded:
    def test_constant_filtration(self):
        cx = IntegerChainComplex({"a": 0, "b": 1}, {"b": {"a": 3}})
        pieces = associated_graded(cx, lambda k: 0)
        assert len(pieces) == 1
        assert pieces[0].diff == {"b": {"a": 3}}

    def test_raising_filtration_rejected(self):
        cx = IntegerChainComplex({"a": 0, "b": 1}, {"b": {"a": 1}})
        with pytest.raises(NotAFiltration):
            associated_graded(cx, lambda k: 1 if k == "a" else 0)

    def test_splitting(self):
        cx = IntegerChainComplex(
            {"a": 0, "b": 1, "c": 0}, {"b": {"a": 1, "c": 2}}
        )
        lv = {"a": 1, "b": 1, "c": 0}
        pieces = associated_graded(cx, lambda k: lv[k])
        diffs = [p.diff for p in pieces]
        assert {"b": {"a": 1}} in diffs


class TestBases:
    def test_reps_are_cycles_and_expressible(self):
        rng = random.Random(12)
        for _ in range(40):
            cx, _, _ = random_complex(rng)
            hb = homology_with_bases(cx)
            for g, basis in hb.items():
                for i, rep in enumerate(basis.free_reps):
                    assert not cx.apply(rep)
                    coords = basis.express(rep)
                    want = [int(j == i) for j in range(len(basis.free_reps))]
                    assert coords == want

    def test_table_json(self):
        table = HomologyTable({0: (1, ()), 1: (0, ()), 2: (0, (2, 4))})
        assert table.to_json_obj() == {
            "0": {"rank": 1, "torsion": []},
            "2": {"rank": 0, "torsion": [2, 4]},
        }


def random_filtered_complex(rng):
    """Elementary pieces on random levels, a pair's lower cell never above
    its upper one, mixed by handle slides that keep the filtration."""
    grading, diff, level = {}, {}, {}
    for i in range(rng.randint(1, 8)):
        g, low = rng.randint(0, 3), rng.randint(0, 3)
        a = f"a{i}"
        grading[a], level[a] = g, low
        if rng.random() < 0.7:
            b = f"b{i}"
            grading[b], level[b] = g + 1, rng.randint(low, 3)
            diff[b] = {a: rng.choice((1, -1, 1, 2, 3))}
    keys = list(grading)
    for _ in range(25):
        if len(keys) < 2:
            break
        # a becomes a + lam*b: d(a) gains lam*d(b), and every column with a
        # loses lam*(its a entry) at b; b's level must not exceed a's
        a, b = rng.sample(keys, 2)
        if grading[a] != grading[b] or level[b] > level[a]:
            continue
        lam = rng.choice((-2, -1, 1, 2))
        new = chain_add(diff.get(a, {}), diff.get(b, {}), lam)
        if new:
            diff[a] = new
        else:
            diff.pop(a, None)
        for c, col in list(diff.items()):
            if a in col:
                diff[c] = chain_add(col, {b: col[a]}, -lam)
    return IntegerChainComplex(grading, diff, level.__getitem__)


def restricted(cx, keep, shift=0):
    """The cells of the filtered ``cx`` whose level passes ``keep``, with the
    differential among them and gradings lowered by ``shift``, unfiltered."""
    cells = {k for k in cx.grading if keep(cx.level(k))}
    return IntegerChainComplex(
        {k: g - shift for k, g in cx.grading.items() if k in cells},
        {k: {r: v for r, v in col.items() if r in cells} for k, col in cx.diff.items() if k in cells},
    )


@pytest.fixture(scope="module")
def trefoil_tower(trefoil5, signs5):
    """trefoil5 plus 2A=10, unreduced before, reduced with the level j_0."""
    cx = raw_slice(trefoil5, signs5, FlavorSpec.make(trefoil5, "plus"), (10,))
    return reduce_complex(IntegerChainComplex(cx.grading, cx.diff, lambda key: key[1][0]))[0]


class TestFilteredReduction:
    def test_cross_level_pivot_stays(self):
        # d(b) = a is the only unit entry, and it lowers the level
        level = {"a": 0, "b": 1, "c": 0}.__getitem__
        cx = IntegerChainComplex({"a": 0, "b": 1, "c": 1}, {"b": {"a": 1}, "c": {"a": 2}}, level)
        (red,) = reduce_complex(cx)
        assert red == cx
        assert reduce_complex(IntegerChainComplex(cx.grading, cx.diff))[0].grading == {"c": 1}

    def test_raising_entry_rejected(self):
        cx = IntegerChainComplex({"a": 0, "b": 1}, {"b": {"a": 1}}, {"a": 1, "b": 0}.__getitem__)
        with pytest.raises(NotAComplex):
            reduce_complex(cx)

    def test_quotients_and_levels_keep_their_homology(self):
        rng = random.Random(23)
        for _ in range(150):
            cx = random_filtered_complex(rng)
            assert cx.check_d_squared()
            (red,) = reduce_complex(cx)
            assert red.level is cx.level
            for low in range(5):
                assert restricted(red, lambda lv: lv >= low).homology() == restricted(cx, lambda lv: lv >= low).homology()
                assert restricted(red, lambda lv: lv == low).homology() == restricted(cx, lambda lv: lv == low).homology()

    @pytest.mark.parametrize("steps", range(8))
    def test_quotient_is_the_plus_slice_below(self, steps, trefoil_tower, trefoil5, signs5):
        want = raw_slice(trefoil5, signs5, FlavorSpec.make(trefoil5, "plus"), (10 - 2 * steps,)).homology()
        assert restricted(trefoil_tower, lambda lv: lv >= steps, 2 * steps).homology() == want

    @pytest.mark.parametrize("level", range(8))
    def test_level_is_the_hat_slice(self, level, trefoil_tower, trefoil5, signs5):
        want = raw_slice(trefoil5, signs5, FlavorSpec.make(trefoil5, "hat"), (10 - 2 * level,)).homology()
        assert restricted(trefoil_tower, lambda lv: lv == level, 2 * level).homology() == want


# two U variables packed four bits apart, as gridcomplex packs one per O column
U0, U1 = UPoly({1: 1}), UPoly({1 << 4: 1})


class TestUPoly:
    """A constant entry is an int and a ``UPoly`` has positive degree, so
    the units are the ints +-1 and a ``UPoly`` is never equal to an int."""

    def test_only_a_constant_is_a_unit(self):
        values = [1, -1, 2, 0, UPoly({0: 1}), UPoly({0: -1}), UPoly({0: 2}), 1 + U0, -1 + -U0, U0, -U0]
        assert [v for v in values if v == 1 or v == -1] == [1, -1]
        assert UPoly({0: 1}) != 1 and not UPoly({0: 1}) == 1 and UPoly({0: -1}) != -1
        one_plus_u = 1 + U0
        assert one_plus_u.get(0) == 1  # its constant term is 1 all the same
        assert U0 != 1 and U0 != 0

    def test_a_sum_that_cancels_is_zero(self):
        zero = (U0 + U1 + 3) + -(U1 + U0 + 3)
        assert not zero and zero == UPoly() and zero != 0
        assert U0 and not U0 + (-U0)

    def test_products_shift_exponents(self):
        assert (U0 + U1) * (U0 + -U1) == UPoly({2: 1, 2 << 4: -1})
        assert (1 + U0) * (1 + U0) == UPoly({0: 1, 1: 2, 2: 1})
        assert U0 * U1 == UPoly({1 + (1 << 4): 1})
        assert 3 * U0 == U0 * 3 == UPoly({1: 3}) and not 0 * U0
        assert -U0 * U0 == UPoly({2: -1})

    def test_reduction_cancels_constant_units_only(self):
        # d(b) = (1 + U0) a is no unit, nor is a constant stored as a UPoly,
        # so nothing cancels; d(c) = a, with the int 1, does
        cx = IntegerChainComplex({"a": 0, "b": 1, "c": 1}, {"b": {"a": 1 + U0}, "c": {"a": UPoly({0: 1})}})
        (red,) = reduce_complex(cx)
        assert red.grading == cx.grading and red.diff == cx.diff
        cx.diff["c"] = {"a": 1}
        (red,) = reduce_complex(cx)
        assert red.grading == {"b": 1}

    def test_reduction_over_zu_keeps_u_powers(self):
        # d(b) = a + U0 e, d(c) = U1 a: cancelling (a, b) leaves d(c) = -U0 U1 e
        cx = IntegerChainComplex(
            {"a": 0, "b": 1, "c": 1, "e": 0},
            {"b": {"a": 1, "e": U0}, "c": {"a": U1}},
        )
        (red,) = reduce_complex(cx)
        assert red.grading == {"c": 1, "e": 0}
        assert red.diff == {"c": {"e": UPoly({1 + (1 << 4): -1})}}
