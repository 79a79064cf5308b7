import itertools
import random
from collections import Counter
from operator import sub

import pytest

from gridhom import strata
from gridhom.cdp import PartitionedDomain, differential_events, trivial_decoration
from gridhom.gridcore import GridDiagram, InvalidGrid
from gridhom.signs import build_sign_assignment
from conftest import in_leq, in_strata, recurrence_cells


class TestDimension:
    def test_rectangle(self, unknot3):
        x = unknot3.generator((1, 0, 2))
        rect, _ = unknot3.rectangles_from(x)[0]
        nv, lam = trivial_decoration(unknot3)
        assert strata.dimension(rect, nv, lam) == (0, 0)

    def test_bubble_cluster(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        c = unknot3.trivial_domain(x)
        for n in (1, 2, 3):
            k, l = strata.dimension(c, (n, 0, 0), ((n,), (), ()))
            assert (k, l) == (0, 2 * n - 1)

    def test_annulus(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        nv, lam = trivial_decoration(unknot3)
        assert strata.dimension(unknot3.marking_annulus("H", 0, x), nv, lam) == (1, 1)

    def test_degenerate(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        with pytest.raises(strata.DegenerateInput):
            strata.dimension(unknot3.trivial_domain(x), *trivial_decoration(unknot3))


class TestZn:
    def test_z2_example(self):
        sts = strata.zn_strata(2)
        assert len(sts) == 7
        labels = {(s.p_minus, s.p_zero, s.p_plus, s.lam) for s in sts}
        assert labels == {
            (2, 0, 0, ()),
            (1, 0, 1, ()),
            (0, 0, 2, ()),
            (1, 1, 0, (1,)),
            (0, 1, 1, (1,)),
            (0, 2, 0, (1, 1)),
            (0, 2, 0, (2,)),
        }

    @pytest.mark.parametrize("n", range(1, 9))
    def test_codim_zero_count(self, n):
        assert sum(1 for s in strata.zn_strata(n) if s.codim_in(n) == 0) == n + 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unique_zero_dimensional(self, n):
        zero = [s for s in strata.zn_strata(n) if s.dim == 0]
        assert zero == [strata.ZnStratum(0, n, 0, (n,))]

    def test_codimension_at_least_p0(self):
        for n in range(1, 6):
            for s in strata.zn_strata(n):
                assert s.codim_in(n) == 2 * s.p_zero - len(s.lam)
                assert s.codim_in(n) >= s.p_zero

    def test_closure_order_is_partial_order(self):
        sts = strata.zn_strata(3)
        for a in sts:
            assert strata.zn_leq(a, a)
        for a in sts:
            for b in sts:
                if a != b and strata.zn_leq(a, b) and strata.zn_leq(b, a):
                    pytest.fail(f"antisymmetry fails: {a} {b}")
        for a in sts:
            for b in sts:
                for c in sts:
                    if strata.zn_leq(a, b) and strata.zn_leq(b, c):
                        assert strata.zn_leq(a, c)

    def test_closure_respects_dimension(self):
        for n in (2, 3):
            sts = strata.zn_strata(n)
            for a in sts:
                for b in sts:
                    if a != b and strata.zn_leq(a, b):
                        assert a.dim < b.dim

    def test_in_strata_counts(self):
        for n in range(1, 9):
            assert len(in_strata(n)) == 2 ** (n - 1)

    def test_in_matches_zn_real_slice(self):
        # I_N sits inside Z_N as the strata with p- = p+ = 0
        for n in (2, 3, 4):
            real = {s.lam for s in strata.zn_strata(n) if s.p_minus == 0 and s.p_plus == 0}
            assert real == set(in_strata(n))
            for lam in real:
                for mu in real:
                    got = strata.zn_leq(
                        strata.ZnStratum(0, n, 0, lam), strata.ZnStratum(0, n, 0, mu)
                    )
                    assert got == in_leq(lam, mu)


class TestPermutohedron:
    def test_pi3_counts(self):
        faces = strata.permutohedron_faces(3)
        assert sum(1 for f in faces if f.dim == 0) == 6
        assert sum(1 for f in faces if f.codim == 1) == 6
        d1 = [f for f in faces if f.codim == 1 and len(f.chain[0]) == 1]
        d2 = [f for f in faces if f.codim == 1 and len(f.chain[0]) == 2]
        assert len(d1) == 3 and len(d2) == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_facet_count(self, n):
        assert len(strata.facets(n)) == 2**n - 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_half_spaces(self, n):
        assert strata.check_half_space_description(n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_coherence(self, n):
        assert strata.check_facet_coherence(n)

    def test_facet_vertices(self):
        # vertices of F_S are the sigma with sigma({1..k}) = S
        n = 4
        for size in (1, 2, 3):
            for S in itertools.combinations(range(1, n + 1), size):
                face = strata.PermutohedronFace(n, (frozenset(S),))
                verts = face.vertices()
                assert verts
                for sigma in verts:
                    assert set(sigma[:size]) == set(S)

    def test_vertex_coordinates(self):
        assert strata.vertex_coordinates((1, 2, 3)) == (1, 2, 3)
        assert strata.vertex_coordinates((2, 1, 3)) == (2, 1, 3)
        assert strata.vertex_coordinates((2, 3, 1)) == (3, 1, 2)


def brute_positive_subdomains(g, rem):
    """The keys of the splits ``strata._positive_subdomains`` finds, by a scan
    of every permutation w and every last-column/top-row data inside rem's,
    with both parts' cells from the test-local recurrence."""
    n, x, y = g.n, rem.from_sigma, rem.to_sigma
    amax, bmax = rem.a_vec, rem.b_vec
    cells = recurrence_cells(n, x, y, amax, bmax)
    out = set()
    for w in itertools.permutations(range(n)):
        for a in itertools.product(*(range(v + 1) for v in amax)):
            for b in itertools.product(*(range(v + 1) for v in bmax)):
                cand = recurrence_cells(n, x, w, a, b)
                if min(cand) >= 0 and min(map(sub, cells, cand)) >= 0:
                    rest = (w, y, tuple(map(sub, amax, a)), tuple(map(sub, bmax, b)))
                    out.add(((x, w, a, b), rest))
    return out


def split_keys(pairs):
    return {(cand.key, rest.key) for cand, rest in pairs}


def assert_splits_match(g, domains):
    for d in domains:
        got = split_keys(strata._positive_subdomains(g, d))
        assert got == brute_positive_subdomains(g, d), d.key
        assert got, d.key  # the trivial split always exists
        # no boundary datum is handed out only to be rejected
        assert len(g.subdomain_data(d)) == len(got), d.key


def allowable_annuli(g, x):
    out = []
    for kind in "HV":
        for j in range(g.n):
            try:
                out.append(g.marking_annulus(kind, j, x))
            except InvalidGrid:
                pass
    return out


class TestPositiveSubdomains:
    """The quadrant-count search yields exactly what a scan of every
    permutation and every boundary datum yields."""

    @pytest.mark.parametrize("name", ["unknot3", "grid4"])
    def test_two_rectangle_compositions(self, name, request):
        g = request.getfixturevalue(name)
        domains = {}
        for x in g.generators():
            for r1, y in g.rectangles_from(x):
                for r2, _ in g.rectangles_from(y):
                    d = r1.compose(r2)
                    domains[d.key] = d
        assert_splits_match(g, domains.values())

    @pytest.mark.parametrize("name", ["trefoil5", "hopf4"])
    def test_annuli(self, name, request):
        g = request.getfixturevalue(name)
        annuli = allowable_annuli(g, g.generator(tuple(range(g.n))))
        assert len(annuli) == 2 * (g.n - 1)
        assert_splits_match(g, annuli)

    def test_multiplicity_two(self, trefoil5):
        x = trefoil5.generator(tuple(range(5)))
        h = allowable_annuli(trefoil5, x)[0]
        rect, _ = trefoil5.rectangles_from(x)[0]
        d = h.compose(h).compose(rect)
        assert d.max_multiplicity() >= 2
        assert_splits_match(trefoil5, [d])


def census_match(g, s, t):
    descs = [d for d in strata.enumerate_strata(s, t.domain, t.n_vec, t.lambdas, 1) if d.codim == 1]
    events = []
    for d in descs:
        events.extend(strata.codim1_boundary_events(d))
    raw = Counter(differential_events(s, t))
    return Counter(events) == raw, descs


@pytest.fixture(scope="module")
def setup():
    g = GridDiagram(3, (1, 2, 0), (0, 1, 2))
    return g, build_sign_assignment(g)


class TestModuliStrata:

    def test_annulus_family(self, setup):
        g, s = setup
        x = g.generator((0, 1, 2))
        nv, lam = trivial_decoration(g)
        t = PartitionedDomain(g.marking_annulus("H", 0, x), nv, lam)
        ok, descs = census_match(g, s, t)
        assert ok
        labels = sorted(strata.classify_codim1(d) for d in descs)
        assert labels == ["TypeI", "TypeII"]

    def test_lshape_family(self, setup):
        g, s = setup
        for x in g.generators():
            for r1, y in g.rectangles_from(x):
                for r2, z in g.rectangles_from(y):
                    d = r1.compose(r2)
                    if d.annulus_kind():
                        continue
                    nv, lam = trivial_decoration(g)
                    t = PartitionedDomain(d, nv, lam)
                    ok, descs = census_match(g, s, t)
                    assert ok
                    assert sorted(strata.classify_codim1(p) for p in descs) == ["TypeI", "TypeI"]
                    return

    def test_decorated_rectangle_family(self, setup):
        g, s = setup
        x = g.generator((1, 0, 2))
        rect, _ = g.rectangles_from(x)[0]
        t = PartitionedDomain(rect, (2, 0, 0), ((2,), (), ()))
        ok, descs = census_match(g, s, t)
        assert ok
        assert sorted(strata.classify_codim1(p) for p in descs) == ["TypeI", "TypeI"]

    def test_two_cluster_family(self, setup):
        g, s = setup
        x = g.generator((0, 1, 2))
        t = PartitionedDomain(g.trivial_domain(x), (1, 1, 0), ((1,), (1,), ()))
        ok, descs = census_match(g, s, t)
        assert ok
        assert sorted(strata.classify_codim1(p) for p in descs) == ["TypeI", "TypeI"]

    def test_split_cluster_family(self, setup):
        g, s = setup
        x = g.generator((0, 1, 2))
        t = PartitionedDomain(g.trivial_domain(x), (3, 0, 0), ((1, 2), (), ()))
        ok, descs = census_match(g, s, t)
        assert ok
        assert sorted(strata.classify_codim1(p) for p in descs) == ["TypeI", "TypeIII"]

    def test_codim_bound(self, setup):
        g, s = setup
        x = g.generator((0, 1, 2))
        nv, lam = trivial_decoration(g)
        t = PartitionedDomain(g.marking_annulus("V", 0, x), nv, lam)
        for d in strata.enumerate_strata(s, t.domain, t.n_vec, t.lambdas, 2):
            assert d.codim >= d.r - 1
            if d.codim == d.r - 1:
                assert all(p.lambdas == p.eta for p in d.pieces)

    def test_type_ii_raises_bubble_count(self, setup):
        g, s = setup
        x = g.generator((0, 1, 2))
        nv, lam = trivial_decoration(g)
        t = PartitionedDomain(g.marking_annulus("H", 0, x), nv, lam)
        for d in strata.enumerate_strata(s, t.domain, nv, lam, 1):
            if d.codim == 1 and strata.classify_codim1(d) == "TypeII":
                piece = d.pieces[0]
                assert sum(piece.n_vec) + sum(piece.extras) == sum(nv) + 1

    def test_classification_total(self, setup):
        g, s = setup
        x = g.generator((0, 1, 2))
        seeds = [
            PartitionedDomain(g.marking_annulus("H", 0, x), *trivial_decoration(g)),
            PartitionedDomain(g.trivial_domain(x), (2, 0, 0), ((1, 1), (), ())),
            PartitionedDomain(g.trivial_domain(x), (2, 1, 0), ((2,), (1,), ())),
        ]
        for t in seeds:
            for d in strata.enumerate_strata(s, t.domain, t.n_vec, t.lambdas, 1):
                if d.codim == 1:
                    assert strata.classify_codim1(d) in ("TypeI", "TypeII", "TypeIII")


def one_dimensional_family(g, rng):
    """A seeded decorated triple with k = mu - 1 + sum(len(lambda_j)) = 1:
    two rectangles in a row or an allowable annulus with no bubbles, a
    rectangle with a one-part bubble partition, or a constant domain with
    two bubble parts at one marking or one part at each of two."""
    n = g.n
    x = g.generator(tuple(rng.sample(range(n), n)))
    n_vec, lambdas = [0] * n, [()] * n
    kind = rng.choice(("two rectangles", "annulus", "rectangle", "constant"))
    if kind == "two rectangles":
        r1, y = rng.choice(g.rectangles_from(x))
        r2, _ = rng.choice(g.rectangles_from(y))
        domain = r1.compose(r2)
    elif kind == "annulus":
        domain = rng.choice(allowable_annuli(g, x))
    elif kind == "rectangle":
        domain, _ = rng.choice(g.rectangles_from(x))
        j = rng.randrange(n)
        n_vec[j] = rng.randint(1, 2)
        lambdas[j] = (n_vec[j],)
    else:
        domain = g.trivial_domain(x)
        if rng.random() < 0.5:
            j = rng.randrange(n)
            n_vec[j] = rng.randint(2, 3)
            lambdas[j] = rng.choice([(1, n_vec[j] - 1), (n_vec[j] - 1, 1)])
        else:
            for j in rng.sample(range(n), 2):
                n_vec[j] = rng.randint(1, 2)
                lambdas[j] = (n_vec[j],)
    return PartitionedDomain(domain, tuple(n_vec), tuple(lambdas))


def test_codim1_census_on_seeded_one_dimensional_families(unknot3, signs3, hopf4, signs_hopf, trefoil5, signs5):
    """On 40 seeded one-dimensional families, the codimension-one strata
    account for the raw differential events exactly, as multisets, and no
    piece of a stratum has negative dimension."""
    rng = random.Random(19)
    grids = [(unknot3, signs3), (hopf4, signs_hopf), (trefoil5, signs5)]
    for _ in range(40):
        g, s = rng.choice(grids)
        t = one_dimensional_family(g, rng)
        assert strata.dimension(t.domain, t.n_vec, t.lambdas)[0] == 1
        ok, descs = census_match(g, s, t)
        assert ok, t.key
        assert all(p.dim >= 0 for d in descs for p in d.pieces), t.key

