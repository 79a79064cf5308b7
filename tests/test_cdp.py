import itertools
import math
import random

import pytest

from gridhom import cdp
from gridhom.domainposet import g_set
from gridhom.gridcore import GridDiagram
from gridhom.signs import build_sign_assignment
from conftest import cd_differential, hypercube_piece, recurrence_cells


def curated_seeds(g):
    """``cdp.curated_seeds`` plus two seeds it lacks: the partitioned constant
    domain with lambda = (1, 2) and the second index-2 L-shape."""
    zero_n, zero_lam = cdp.trivial_decoration(g)
    other = g.generator(tuple(range(1, g.n)) + (0,))
    extra = [
        cdp.PartitionedDomain(
            g.trivial_domain(other), (3,) + (0,) * (g.n - 1), ((1, 2),) + ((),) * (g.n - 1)
        )
    ]

    def l_shapes():
        for x in g.generators():
            for r1, y in g.rectangles_from(x):
                for r2, _ in g.rectangles_from(y):
                    d = r1.compose(r2)
                    if not d.annulus_kind() and d.max_multiplicity() == 1:
                        yield d

    second = next(itertools.islice(l_shapes(), 1, None))
    extra.append(cdp.PartitionedDomain(second, zero_n, zero_lam))
    return cdp.curated_seeds(g) + extra


class TestCDDifferential:
    def test_rectangle(self, unknot3, signs3):
        x = unknot3.generator((1, 0, 2))
        rect, y = unknot3.rectangles_from(x)[0]
        terms = cd_differential(signs3, rect)
        # delta(R) = s(R) c_y - s(R) c_x
        assert len(terms) == 2
        by_endpoint = {t.from_sigma: c for c, t in terms}
        assert by_endpoint[y.sigma] == -by_endpoint[x.sigma]
        assert {abs(c) for c, _ in terms} == {1}

    def test_trivial_domain(self, unknot3, signs3):
        x = unknot3.generator((0, 1, 2))
        assert cd_differential(signs3, unknot3.trivial_domain(x)) == []

    def test_d_squared_on_closures(self, unknot3, signs3):
        rng = random.Random(0)
        gens = list(unknot3.generators())
        for _ in range(10):
            x = rng.choice(gens)
            d = unknot3.trivial_domain(x)
            for _ in range(3):
                rect, y = rng.choice(unknot3.rectangles_from(unknot3.generator(d.to_sigma)))
                d = d.compose(rect)
            zero_n, zero_lam = cdp.trivial_decoration(unknot3)
            seed = cdp.PartitionedDomain(d, zero_n, zero_lam)
            cc = cdp.ClosureComplex.build(signs3, [seed])
            assert cc.complex.check_d_squared()
            assert cc.parts["II"] == {} or True  # II may appear via annuli inside d


class TestCDPDifferential:
    def test_mismatched_decoration_raises(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        with pytest.raises(ValueError):
            cdp.PartitionedDomain(unknot3.trivial_domain(x), (1, 0, 0), ((), (1,), ()))
        with pytest.raises(ValueError):
            cdp.PartitionedDomain(unknot3.trivial_domain(x), (0, 0), ((), ()))
        negative = unknot3.trivial_domain(x).subtract(unknot3.marking_annulus("H", 0, x))
        zero_n, zero_lam = cdp.trivial_decoration(unknot3)
        with pytest.raises(ValueError):
            cdp.PartitionedDomain(negative, zero_n, zero_lam)

    def test_single_bubble_vanishes(self, unknot3, signs3):
        x = unknot3.generator((0, 1, 2))
        t = cdp.PartitionedDomain(unknot3.trivial_domain(x), (1, 0, 0), ((1,), (), ()))
        assert cdp.cdp_differential(signs3, t) == []

    def test_row_extraction_sign(self, unknot3, signs3):
        x = unknot3.generator((0, 1, 2))
        hj = cdp.PartitionedDomain(
            unknot3.marking_annulus("H", 0, x), *cdp.trivial_decoration(unknot3)
        )
        trivial_targets = [
            (c, u) for c, u in cdp.cdp_differential(signs3, hj) if u.domain.is_trivial()
        ]
        assert len(trivial_targets) == 1
        c, u = trivial_targets[0]
        assert c == 1
        assert u.n_vec == (1, 0, 0) and u.lambdas == ((1,), (), ())

    def test_gradings_drop_by_one(self, unknot3, signs3):
        seeds = curated_seeds(unknot3)
        cc = cdp.ClosureComplex.build(signs3, seeds)
        for key, col in cc.complex.diff.items():
            for key2 in col:
                assert cc.complex.grading[key2] == cc.complex.grading[key] - 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_d_squared_and_identities(self, n):
        g = GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n)))
        s = build_sign_assignment(g)
        cc = cdp.ClosureComplex.build(s, curated_seeds(g))
        assert cc.complex.check_d_squared()
        ledger = cc.identity_ledger()
        assert all(ledger.values()), ledger
        assert len(ledger) == 9


class TestDagger:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ranks_binomial(self, n):
        if n == 1:
            g = GridDiagram(1, (0,), (0,))
            s = None
        else:
            g = GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n)))
            s = build_sign_assignment(g)
        dag = cdp.build_cdp_dagger(g, s)
        assert dag.diff == {}  # type IV terms cancel identically
        table = dag.homology()
        assert {k: v for k, v in table.groups.items()} == {
            k: (math.comb(n, k), ()) for k in range(n + 1)
        }


class TestHypercube:
    def test_small_cases(self):
        assert hypercube_piece(0).homology().nonzero() == {0: (1, ())}
        assert hypercube_piece(1).homology().nonzero() == {1: (1, ())}

    def test_two_is_iso(self):
        cx = hypercube_piece(2)
        assert cx.diff[(1, 1)] in ({(2,): 1}, {(2,): -1})
        assert cx.homology().nonzero() == {}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_acyclic(self, n):
        assert hypercube_piece(n).homology().nonzero() == {}


class TestGradedPieces:
    def test_trivial_triple(self, unknot3, signs3):
        x_id = unknot3.generator((0, 1, 2))
        rep = cdp.graded_piece_acyclicity(unknot3, signs3, (0, 0), (0, 0), x_id)
        assert not rep.expected_acyclic
        assert rep.homology.nonzero() == {0: (1, ())}
        assert rep.ok

    def test_nontrivial_endpoints_acyclic(self, unknot3, signs3):
        for y in unknot3.generators():
            if y.sigma == (0, 1, 2):
                continue
            rep = cdp.graded_piece_acyclicity(unknot3, signs3, (0, 0), (0, 0), y)
            assert rep.expected_acyclic and rep.ok

    def test_sweep_n3(self, unknot3, signs3):
        for y in unknot3.generators():
            for a in itertools.product(range(3), repeat=2):
                for b in itertools.product(range(3), repeat=2):
                    rep = cdp.graded_piece_acyclicity(unknot3, signs3, a, b, y)
                    assert rep.ok, (a, b, y.sigma, rep.homology.nonzero())


def reference_piece_complex(g, s, a, b, y):
    """``graded_piece_complex`` as a loop over every rectangle of every
    member, one ``s.of`` per rectangle: the form the arrow table replaced.
    Each member x is graded by the index M(x) - M(y) + 2|O(D)| of its domain
    D, with the O cells read from the corner recurrence."""
    n = g.n
    members = g_set(g, a, b, y)
    grading = {}
    for x in members:
        cells = recurrence_cells(n, x, y.sigma, a, b)
        o_count = sum(cells[c * n + r] for c, r in enumerate(g.o_row))
        grading[x] = g.generator(x).maslov - y.maslov + 2 * o_count
    diff = {}
    for sigma in members:
        col = {}
        for info in g.rectangle_infos(sigma):
            if info.to_sigma not in members or info.meets_last_column or info.meets_top_row:
                continue
            col[info.to_sigma] = col.get(info.to_sigma, 0) + s.of(info)
        col = {k: v for k, v in col.items() if v}
        if col:
            diff[sigma] = col
    return grading, diff


def assert_piece_matches_reference(g, s, a, b, y):
    cx = cdp.graded_piece_complex(g, s, a, b, y)
    grading, diff = reference_piece_complex(g, s, a, b, y)
    assert cx.grading == grading
    assert list(cx.diff) == list(diff)
    for key, col in diff.items():
        assert list(cx.diff[key].items()) == list(col.items()), key
    return len(diff)


class TestPieceArrowTable:
    def test_every_unit_triple_n3(self, unknot3, signs3):
        columns = 0
        for y in unknot3.generators():
            for a in itertools.product(range(2), repeat=2):
                for b in itertools.product(range(2), repeat=2):
                    columns += assert_piece_matches_reference(unknot3, signs3, a, b, y)
        assert columns

    def test_seeded_sample_trefoil5(self, trefoil5, signs5):
        rng = random.Random(11)
        gens = list(trefoil5.generators())
        columns = 0
        for _ in range(40):
            y = rng.choice(gens)
            a = tuple(rng.randint(0, 2) for _ in range(4))
            b = tuple(rng.randint(0, 2) for _ in range(4))
            columns += assert_piece_matches_reference(trefoil5, signs5, a, b, y)
        assert columns
