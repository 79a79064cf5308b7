import itertools
import json
import random
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from gridhom.gridcore import (
    GridDiagram,
    GridError,
    InvalidGrid,
    EndpointMismatch,
    RectInfo,
    canonicalize,
    inversions,
    load_grid,
    parse_grid_json,
    parse_grid_text,
)
from gridhom.gridcomplex import alexander2_range
from conftest import fixture_path, meets_boundary_condition, recurrence_cells


def cell(d, c, r):
    """Multiplicity of domain d at cell (c, r), read from the flat tuple."""
    return d.mult[c * d.diagram.n + r]


def marking_cells(d, rows):
    """The multiplicity of d on the marking of each column c, in row rows[c]."""
    return [cell(d, c, r) for c, r in enumerate(rows)]


def painted_box(info, n):
    """The cells of a rectangle record, painted one by one from its box."""
    mult = [0] * (n * n)
    for dc in range(info.width):
        for dr in range(info.height):
            mult[(info.col0 + dc) % n * n + (info.row0 + dr) % n] = 1
    return tuple(mult)


def hand_annulus_kind(d):
    """Independent oracle for GridDomain.annulus_kind, written cell by cell."""
    n = d.diagram.n
    rows = {r for c in range(n) for r in range(n) if cell(d, c, r)}
    cols = {c for c in range(n) for r in range(n) if cell(d, c, r)}
    if len(cols) == n and all(all(cell(d, c, r) for c in range(n)) for r in rows):
        return "H"
    if len(rows) == n and all(all(cell(d, c, r) for r in range(n)) for c in cols):
        return "V"
    return None


def index_two_domains(g):
    """{key: (domain, [(R1, R2), ...])} over all compositions of two rectangles."""
    chains = {}
    for x in g.generators():
        for r1, y in g.rectangles_from(x):
            for r2, z in g.rectangles_from(y):
                d = r1.compose(r2)
                chains.setdefault(d.key, (d, []))[1].append((r1, r2))
    return chains


def brute_force_rectangles(g, sigma):
    """Independent oracle: scan all torus rectangles by corner intervals."""
    n = g.n
    out = []
    for c0 in range(n):
        for w in range(1, n):
            for r0 in range(n):
                for h in range(1, n):
                    cols = [(c0 + dc) % n for dc in range(w)]
                    rows = [(r0 + dr) % n for dr in range(h)]
                    bl = (c0, r0)
                    tr = ((c0 + w) % n, (r0 + h) % n)
                    pts = {(i, sigma[i]) for i in range(n)}
                    if bl not in pts or tr not in pts:
                        continue
                    if bl[0] == tr[0]:
                        continue
                    # interior must avoid the other coordinates
                    bad = False
                    for i in range(n):
                        if (i, sigma[i]) in (bl, tr):
                            continue
                        if 0 < (i - c0) % n < w and 0 < (sigma[i] - r0) % n < h:
                            bad = True
                    if bad:
                        continue
                    if (n - 1) in cols and (n - 1) in rows:
                        continue
                    out.append((c0, w, r0, h))
    return sorted(set(out))


def reference_rect_infos(g, sigma):
    """The rectangle records of x^sigma built candidate by candidate from
    column and row lists: the enumeration that the sweep in
    ``rectangle_infos`` replaced (whose records computed ``a_vec``/``b_vec``
    on each call)."""
    n = g.n
    fc, fr = n - 1, n - 1
    infos = []
    for i in range(n):
        for j in range(i + 1, n):
            for role in (0, 1):
                if role == 0:
                    c0, w = i, j - i
                    r0, h = sigma[i], (sigma[j] - sigma[i]) % n
                else:
                    c0, w = j, n - (j - i)
                    r0, h = sigma[j], (sigma[i] - sigma[j]) % n
                cols = [(c0 + dc) % n for dc in range(w)]
                rows = [(r0 + dr) % n for dr in range(h)]
                if fc in cols and fr in rows:
                    continue
                # interior must avoid the other coordinates
                if any(
                    0 < (k - c0) % n < w and 0 < (sigma[k] - r0) % n < h
                    for k in range(n)
                    if k != i and k != j
                ):
                    continue
                rowset = set(rows)
                o_mask = sum(1 << c for c in cols if g.o_row[c] in rowset)
                x_mask = sum(1 << c for c in cols if g.x_row[c] in rowset)
                tau = list(sigma)
                tau[i], tau[j] = tau[j], tau[i]
                infos.append(
                    RectInfo(
                        from_sigma=sigma,
                        to_sigma=tuple(tau),
                        pair=(i, j),
                        role=role,
                        col0=c0,
                        width=w,
                        row0=r0,
                        height=h,
                        o_mask=o_mask,
                        x_mask=x_mask,
                        meets_last_column=n - 1 in cols,
                        meets_top_row=n - 1 in rowset,
                        a_vec=tuple(int(n - 1 in cols and r in rowset) for r in range(n - 1)),
                        b_vec=tuple(int(n - 1 in rowset and c in cols) for c in range(n - 1)),
                    )
                )
    return infos


@st.composite
def grids(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    o = draw(st.permutations(range(n)))
    x = draw(st.permutations(range(n)).filter(lambda x: n == 1 or all(a != b for a, b in zip(o, x))))
    return GridDiagram(n, tuple(o), tuple(x))


def canonical_grids(max_n=6):
    return grids(max_n).map(canonicalize)


def count_below_left(a, b):
    """Number of pairs (p, q) in a x b with p strictly below-left of q."""
    return sum(1 for (px, py) in a for (qx, qy) in b if px < qx and py < qy)


def point_count(points, marks):
    """I(x,x) - I(x,P) - I(P,x) + I(P,P) + 1 in doubled coordinates."""
    return (
        count_below_left(points, points)
        - count_below_left(points, marks)
        - count_below_left(marks, points)
        + count_below_left(marks, marks)
        + 1
    )


def reference_gradings(g, sigma):
    """``(maslov, alexander2)`` by pair counts in doubled coordinates: the
    points of x^sigma at even, the markings at odd coordinates."""
    points = [(2 * i, 2 * v) for i, v in enumerate(sigma)]
    os = [(2 * c + 1, 2 * r + 1) for c, r in enumerate(g.o_row)]
    xs = [(2 * c + 1, 2 * r + 1) for c, r in enumerate(g.x_row)]
    maslov = point_count(points, os) + g.n - g.num_components
    alexander2 = []
    for comp in range(g.num_components):
        ok = [p for c, p in enumerate(os) if g.component_of_o[c] == comp]
        xk = [p for c, p in enumerate(xs) if g.component_of_x[c] == comp]
        alexander2.append(point_count(points, ok) - point_count(points, xk) + len(ok) - 1)
    return maslov, tuple(alexander2)


class TestCanonicalize:
    def test_already_canonical(self):
        g = GridDiagram(2, (1, 0), (0, 1))
        assert canonicalize(g) == g

    def test_single_shift(self):
        g = GridDiagram(2, (0, 1), (1, 0))
        c = canonicalize(g)
        assert c.is_canonical
        assert c == GridDiagram(2, (1, 0), (0, 1))

    def test_trefoil_fixture(self, trefoil5):
        assert trefoil5.is_canonical
        assert sorted(trefoil5.o_row) == list(range(5))
        recanon = canonicalize(trefoil5)
        assert recanon == trefoil5

    def test_invalid_grids(self):
        with pytest.raises(InvalidGrid):
            GridDiagram(2, (0, 0), (1, 0))
        with pytest.raises(InvalidGrid):
            GridDiagram(2, (0, 1), (0, 1))
        with pytest.raises(InvalidGrid, match="unknown line"):
            parse_grid_text("n=2\nX: 1 2\nO: 2 1\nQ: junk\n")
        for repeated in ("n=2", "X: 2 1", "O: 1 2"):
            with pytest.raises(InvalidGrid, match="repeated"):
                parse_grid_text(f"n=2\nX: 1 2\nO: 2 1\n{repeated}\n")


class TestRectangles:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_brute_force(self, n):
        g = GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n)))
        for sigma in itertools.permutations(range(n)):
            got = sorted((i.col0, i.width, i.row0, i.height) for i in g.rectangle_infos(sigma))
            assert got == brute_force_rectangles(g, sigma)

    @pytest.mark.parametrize("name", ["unknot2", "hopf4", "trefoil5", "t25"])
    def test_records_match_reference_on_fixtures(self, name, request):
        g = request.getfixturevalue(name)
        for sigma in itertools.permutations(range(g.n)):
            assert g.rectangle_infos(sigma) == reference_rect_infos(g, sigma)

    @settings(max_examples=10, deadline=None)
    @given(canonical_grids())
    def test_records_match_reference_on_random_grids(self, g):
        for sigma in itertools.permutations(range(g.n)):
            assert g.rectangle_infos(sigma) == reference_rect_infos(g, sigma)

    @pytest.mark.parametrize("name", ["t25", "n8", "t27"])
    def test_sweeps_match_reference_at_n7_to_9(self, name):
        """Both sweeps against the candidate-by-candidate reference on
        seeded generators of grids past the random ones' n <= 6: t25 (n=7),
        a seeded n=8 grid and t27 (n=9)."""
        rng = random.Random(30)
        if name == "n8":
            o = rng.sample(range(8), 8)
            x = o[1:] + o[:1]  # a cyclic shift of the O rows: no shared cell
            g = canonicalize(GridDiagram(8, tuple(o), tuple(x)))
        else:
            g = load_grid(fixture_path(f"{name}.grid"))
        for _ in range(40):
            sigma = tuple(rng.sample(range(g.n), g.n))
            assert g.rectangle_infos(sigma) == reference_rect_infos(g, sigma), sigma
            # into y: for each pair, the reference records of z = y (i j) with that pair
            expected = []
            for i, j in itertools.combinations(range(g.n), 2):
                z = list(sigma)
                z[i], z[j] = z[j], z[i]
                expected += [info for info in reference_rect_infos(g, tuple(z)) if info.pair == (i, j)]
            assert g.rectangle_infos_into(sigma) == expected, sigma

    def test_unknot_counts(self, unknot2):
        counts = {s: len(unknot2.rectangle_infos(s)) for s in [(0, 1), (1, 0)]}
        # the rectangle through the forbidden corner is excluded
        assert counts == {(0, 1): 1, (1, 0): 2}

    def test_total_count_n3(self, unknot3):
        total = sum(len(unknot3.rectangle_infos(s)) for s in itertools.permutations(range(3)))
        oracle = sum(
            len(brute_force_rectangles(unknot3, s)) for s in itertools.permutations(range(3))
        )
        assert total == oracle

    def test_rectangles_have_index_one(self, unknot3):
        for x in unknot3.generators():
            for rect, y in unknot3.rectangles_from(x):
                assert rect.maslov_index() == 1
                assert rect.is_positive()
                assert meets_boundary_condition(3, rect.from_sigma, rect.to_sigma, rect.mult)

    def test_rectangles_into_inverts_from(self, unknot3):
        seen = set()
        for x in unknot3.generators():
            for rect, y in unknot3.rectangles_from(x):
                seen.add((rect.from_sigma, rect.to_sigma, rect.mult))
        seen_into = set()
        for y in unknot3.generators():
            for rect, z in unknot3.rectangles_into(y):
                seen_into.add((rect.from_sigma, rect.to_sigma, rect.mult))
        assert seen == seen_into

    @pytest.mark.parametrize("name", ["unknot2", "hopf4", "trefoil5", "t25"])
    def test_into_matches_transposed_records_on_fixtures(self, name, request):
        assert_into_matches_transposed_records(request.getfixturevalue(name))

    @settings(max_examples=10, deadline=None)
    @given(canonical_grids())
    def test_into_matches_transposed_records_on_random_grids(self, g):
        assert_into_matches_transposed_records(g)


def assert_into_matches_transposed_records(g):
    """``rectangle_infos_into(y)`` is, for each pair i < j in turn, the
    records of ``rectangle_infos(z)`` with that pair, z being y with columns
    i and j swapped: the same records in the same order."""
    into = {}
    for z in itertools.permutations(range(g.n)):
        for info in g.rectangle_infos(z):
            # a record of z with pair (i, j) ends at y = z with i and j swapped
            into.setdefault(info.to_sigma, []).append(info)
    for y in itertools.permutations(range(g.n)):
        # each pair's records come from one z, in its order, which the stable sort keeps
        expected = sorted(into.get(y, []), key=lambda info: info.pair)
        assert g.rectangle_infos_into(y) == expected, y


class TestGradings:
    @pytest.mark.parametrize("n", range(7))
    def test_inversions_count_pairs(self, n):
        for sigma in itertools.permutations(range(n)):
            assert inversions(sigma) == sum(sigma[a] > sigma[b] for a, b in itertools.combinations(range(n), 2))

    def test_maslov_unknot_values(self, unknot2):
        # the generator with both coordinates next to the O markings
        assert unknot2.generator((1, 0)).maslov == 0
        assert unknot2.generator((0, 1)).maslov == 1

    def test_maslov_pointcount_diagonal_o(self):
        # n=3 with O on the diagonal, one component: the hand count M_O = -2
        # for the identity, plus n - l = 2
        g = GridDiagram(3, (0, 1, 2), (1, 2, 0))
        assert g.generator((0, 1, 2)).maslov == 0

    @pytest.mark.parametrize("name", ["unknot2", "hopf4", "trefoil5", "t25"])
    def test_tables_match_pair_counts_on_fixtures(self, name, request):
        g = request.getfixturevalue(name)
        # the fixtures are canonical; shifting the rows moves the X off the corner
        for h in (g, g.shifted(1, 0)):
            for x in h.generators():
                assert (x.maslov, x.alexander2) == reference_gradings(h, x.sigma)

    @settings(max_examples=20, deadline=None)
    @given(grids())
    def test_tables_match_pair_counts_on_random_grids(self, g):
        for h in (g, canonicalize(g)):
            for x in h.generators():
                assert (x.maslov, x.alexander2) == reference_gradings(h, x.sigma)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relative_maslov_law(self, n):
        g = GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n)))
        for x in g.generators():
            for rect, y in g.rectangles_from(x):
                assert x.maslov - y.maslov == 1 - 2 * sum(marking_cells(rect, g.o_row))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relative_alexander_law(self, n):
        g = GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n)))
        for x in g.generators():
            for rect, y in g.rectangles_from(x):
                diff = sum(marking_cells(rect, g.x_row)) - sum(marking_cells(rect, g.o_row))
                assert sum(x.alexander2) - sum(y.alexander2) == 2 * diff

    def test_alexander_component_law(self, hopf4):
        comp = hopf4.component_of_o
        x_col = {hopf4.x_row[c]: c for c in range(4)}
        comp_of_x = [comp[hopf4.o_row.index(hopf4.x_row[c])] for c in range(4)]
        for x in hopf4.generators():
            for rect, y in hopf4.rectangles_from(x):
                for k in range(hopf4.num_components):
                    xs = sum(v for c, v in enumerate(marking_cells(rect, hopf4.x_row)) if comp_of_x[c] == k)
                    os = sum(v for c, v in enumerate(marking_cells(rect, hopf4.o_row)) if comp[c] == k)
                    assert x.alexander2[k] - y.alexander2[k] == 2 * (xs - os)

    def test_alexander_parity_constant(self, trefoil5, hopf4):
        for g in (trefoil5, hopf4):
            pars = {tuple(v % 2 for v in x.alexander2) for x in g.generators()}
            assert len(pars) == 1

    def test_empty_rectangle_preserves_alexander(self, unknot3):
        for x in unknot3.generators():
            for info in unknot3.rectangle_infos(x.sigma):
                if info.x_mask or info.o_mask:
                    continue
                y = unknot3.generator(info.to_sigma)
                assert x.alexander2 == y.alexander2


def reference_walk(g):
    """Every permutation in lexicographic order, with its doubled Alexander
    grading by pair counts."""
    return [(sigma, reference_gradings(g, sigma)[1]) for sigma in itertools.permutations(range(g.n))]


def assert_walk_within(g, walk, lo, hi):
    """``g.generators(lo, hi)`` is ``walk`` filtered by the bounds."""
    inf = float("inf")
    want = [sigma for sigma, a2 in walk if all(lo.get(k, -inf) <= v <= hi.get(k, inf) for k, v in enumerate(a2))]
    assert [x.sigma for x in g.generators(lo, hi)] == want, (lo, hi)


class TestSliceWalk:
    """``generators(lo, hi)`` is the full walk filtered by the doubled
    Alexander bounds, in the same order."""

    @pytest.mark.parametrize("name", ["unknot2", "unknot3", "grid4", "hopf4", "trefoil5", "t25"])
    def test_fixtures(self, name, request):
        g = request.getfixturevalue(name)
        walk = reference_walk(g)
        assert_walk_within(g, walk, {}, {})
        rng = random.Random(name)
        for _ in range(8):
            lo, hi = {}, {}
            for k in range(g.num_components):
                values = sorted({a2[k] for _, a2 in walk})
                low, high = sorted(rng.choice(values) for _ in range(2))
                if rng.random() < 0.7:
                    hi[k] = high
                if rng.random() < 0.7:
                    lo[k] = low
            assert_walk_within(g, walk, lo, hi)

    @settings(max_examples=40, deadline=None)
    @given(grids(), st.data())
    def test_random_grids(self, g, data):
        bound = st.one_of(st.none(), st.integers(-2 * g.n, 2 * g.n))
        lo, hi = {}, {}
        for k in range(g.num_components):
            for bounds in (lo, hi):
                v = data.draw(bound)
                if v is not None:
                    bounds[k] = v
        assert_walk_within(g, reference_walk(g), lo, hi)


def brute_extremes(g):
    """Per component, ``{mask: (least, most)}`` of ``sum_i T[i][x_i]`` over
    the suffixes of every permutation: a suffix on the last m columns is a
    bijection onto its set of values, and every such bijection is one."""
    n, out = g.n, []
    for table, _ in g._component_tables:
        best = {}
        for sigma in itertools.permutations(range(n)):
            for m in range(n + 1):
                cols = range(n - m, n)
                mask, total = sum(1 << sigma[i] for i in cols), sum(table[i][sigma[i]] for i in cols)
                low, high = best.get(mask, (total, total))
                best[mask] = (min(low, total), max(high, total))
        out.append(best)
    return out


def assert_extremes_match(g):
    want = brute_extremes(g)
    assert len(g._component_extremes) == len(want) == g.num_components
    for (least, most), best in zip(g._component_extremes, want):
        assert len(best) == len(least) == 1 << g.n
        assert {mask: (least[mask], most[mask]) for mask in best} == best


class TestAlexanderExtremes:
    """``_component_extremes`` is the least and greatest table sum over the
    bijections from the last columns onto each set of values."""

    @pytest.mark.parametrize("name", ["unknot2", "unknot3", "grid4", "hopf4", "trefoil5", "t25"])
    def test_fixtures(self, name, request):
        assert_extremes_match(request.getfixturevalue(name))

    @settings(max_examples=25, deadline=None)
    @given(grids())
    def test_random_grids(self, g):
        assert_extremes_match(g)

    @pytest.mark.parametrize("name", ["unknot2", "unknot3", "grid4", "trefoil5", "t25"])
    def test_range_is_the_span_of_the_walk(self, name, request):
        g = request.getfixturevalue(name)
        values = [x.alexander2[0] for x in g.generators()]
        assert alexander2_range(g) == range(min(values), max(values) + 1, 2)


class TestDomains:
    def test_trivial_domain_index_zero(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        assert unknot3.trivial_domain(x).maslov_index() == 0

    def test_annulus_index_two(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        assert unknot3.marking_annulus("H", 0, x).maslov_index() == 2
        assert unknot3.marking_annulus("V", 0, x).maslov_index() == 2

    @pytest.mark.parametrize("name", ["unknot2", "grid4", "hopf4", "trefoil5"])
    def test_annuli_are_their_row_and_column(self, name, request):
        g = request.getfixturevalue(name)
        n = g.n
        for x in g.generators():
            for j in range(n):
                if g.o_row[j] != n - 1:
                    h = g.marking_annulus("H", j, x)
                    assert h.mult == tuple(int(i % n == g.o_row[j]) for i in range(n * n))
                if j != n - 1:
                    v = g.marking_annulus("V", j, x)
                    assert v.mult == tuple(int(i // n == j) for i in range(n * n))

    def test_compose_identity(self, unknot3):
        x = unknot3.generator((1, 0, 2))
        rect, y = unknot3.rectangles_from(x)[0]
        assert rect.compose(unknot3.trivial_domain(y)).mult == rect.mult

    def test_compose_mismatch(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        z = unknot3.generator((1, 0, 2))
        with pytest.raises(EndpointMismatch):
            unknot3.trivial_domain(x).compose(unknot3.trivial_domain(z))

    def test_l_shape_two_decompositions_same_chain(self, unknot3):
        # every index-2 non-annulus has exactly two rectangle decompositions
        for d, decomps in index_two_domains(unknot3).values():
            assert len(decomps) == (1 if hand_annulus_kind(d) else 2)

    def test_mu_additive_random(self, grid4):
        rng = random.Random(11)
        gens = list(grid4.generators())
        for _ in range(60):
            x = rng.choice(gens)
            d = grid4.trivial_domain(x)
            for _ in range(rng.randint(1, 4)):
                rects = grid4.rectangles_from(grid4.generator(d.to_sigma))
                rect, y = rng.choice(rects)
                d = d.compose(rect)
            rects = grid4.rectangles_from(grid4.generator(d.to_sigma))
            rect, y = rng.choice(rects)
            assert d.compose(rect).maslov_index() == d.maslov_index() + 1

    def test_positive_mu_nonnegative_and_zero_iff_trivial(self, unknot3):
        # downward closures of random positive domains
        rng = random.Random(5)
        gens = list(unknot3.generators())
        for _ in range(25):
            x = rng.choice(gens)
            d = unknot3.trivial_domain(x)
            for _ in range(3):
                rect, y = rng.choice(unknot3.rectangles_from(unknot3.generator(d.to_sigma)))
                d = d.compose(rect)
            stack = [d]
            seen = set()
            while stack:
                cur = stack.pop()
                key = (cur.from_sigma, cur.to_sigma, cur.mult)
                if key in seen:
                    continue
                seen.add(key)
                mu = cur.maslov_index()
                assert mu >= 0
                assert (mu == 0) == cur.is_trivial()
                for info in unknot3.rectangle_infos(cur.from_sigma):
                    rest = cur.subtract(info.domain(unknot3))
                    if rest.is_positive():
                        stack.append(rest)


class NotPositive(GridError):
    """Operation requires a positive domain."""


def decompose_into_rectangles(d):
    """One decomposition D = R_1 * ... * R_k with k = mu(D).

    Greedy: repeatedly split a rectangle off the front, preferring the
    rightmost/topmost bottom-left corner, ties broken lexicographically on
    the rectangle identifier.  Deterministic.
    """
    if not d.is_positive():
        raise NotPositive("decompose_into_rectangles requires a positive domain")
    g = d.diagram
    out = []
    current = d
    while not current.is_trivial():
        candidates = []
        for info in g.rectangle_infos(current.from_sigma):
            rect = info.domain(g)
            rest = current.subtract(rect)
            if rest.is_positive():
                candidates.append((info, rect, rest))
        if not candidates:
            raise GridError("positive domain with mu > 0 admits no rectangle split")
        candidates.sort(key=lambda t: (-t[0].col0, -t[0].row0, t[0].pair, t[0].role))
        _, rect, current = candidates[0]
        out.append(rect)
    return out


class TestDecompose:
    def test_rectangle_decomposes_to_itself(self, unknot3):
        x = unknot3.generator((1, 0, 2))
        rect, y = unknot3.rectangles_from(x)[0]
        assert [r.mult for r in decompose_into_rectangles(rect)] == [rect.mult]

    def test_annulus_two_pieces(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        ann = unknot3.marking_annulus("H", 0, x)
        pieces = decompose_into_rectangles(ann)
        assert len(pieces) == 2

    def test_roundtrip_and_count(self, grid4):
        rng = random.Random(3)
        gens = list(grid4.generators())
        for _ in range(40):
            x = rng.choice(gens)
            d = grid4.trivial_domain(x)
            for _ in range(3):
                rect, y = rng.choice(grid4.rectangles_from(grid4.generator(d.to_sigma)))
                d = d.compose(rect)
            pieces = decompose_into_rectangles(d)
            assert len(pieces) == d.maslov_index()
            total = pieces[0]
            for p in pieces[1:]:
                total = total.compose(p)
            assert total.mult == d.mult and total.to_sigma == d.to_sigma

    def test_requires_positive(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        # the empty domain minus a row annulus: -1 along that row
        neg = unknot3.trivial_domain(x).subtract(unknot3.marking_annulus("H", 0, x))
        assert min(neg.mult) == -1
        with pytest.raises(NotPositive):
            decompose_into_rectangles(neg)

    def test_deterministic(self, grid4):
        x = grid4.generator((1, 0, 3, 2))
        d = grid4.marking_annulus("V", 0, x)
        a = [r.mult for r in decompose_into_rectangles(d)]
        b = [r.mult for r in decompose_into_rectangles(d)]
        assert a == b


class TestUniqueDomain:
    """``unique_domain`` against the corner recurrence of ``recurrence_cells``."""

    def test_trivial(self, unknot3):
        x = unknot3.generator((0, 1, 2))
        d = unknot3.unique_domain(x, x, (0, 0), (0, 0))
        assert d.is_trivial()
        assert d.mult == recurrence_cells(3, x.sigma, x.sigma, (0, 0), (0, 0)) == (0,) * 9

    def test_d_sigma_positive(self, grid4):
        # P-2: a unique positive domain from the maximum to any generator
        x_id = grid4.generator((0, 1, 2, 3))
        for y in grid4.generators():
            d = grid4.unique_domain(x_id, y, (0, 0, 0), (0, 0, 0))
            assert d.mult == recurrence_cells(4, x_id.sigma, y.sigma, (0, 0, 0), (0, 0, 0))
            assert min(d.mult) >= 0
            assert d.maslov_index() == sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if y.sigma[i] > y.sigma[j]
            )

    def test_roundtrip_ab(self, unknot3):
        rng = random.Random(9)
        gens = list(unknot3.generators())
        for _ in range(30):
            x, y = rng.choice(gens), rng.choice(gens)
            a = tuple(rng.randint(0, 2) for _ in range(2))
            b = tuple(rng.randint(0, 2) for _ in range(2))
            d = unknot3.unique_domain(x, y, a, b)
            assert d.a_vec == a and d.b_vec == b
            cells = recurrence_cells(3, x.sigma, y.sigma, a, b)
            assert d.mult == cells
            assert meets_boundary_condition(3, x.sigma, y.sigma, cells)
            assert cell(d, 2, unknot3.x_row[2]) == 0  # X_2 sits in the top-right cell

    @pytest.mark.parametrize("name", ["trefoil5", "hopf4"])
    def test_base_maslov_index_reads_quadrants(self, name, request):
        g = request.getfixturevalue(name)
        n, zero = g.n, (0,) * (g.n - 1)
        gens = list(g.generators())
        for x in gens:
            for y in gens:
                cells = recurrence_cells(n, x.sigma, y.sigma, zero, zero)
                o_count = sum(cells[c * n + r] for c, r in enumerate(g.o_row))
                assert g.base_maslov_index(x.sigma, y.sigma) == x.maslov - y.maslov + 2 * o_count


class TestPeriodicDomains:
    def test_roundtrip(self, grid4):
        rng = random.Random(1)
        x = grid4.generator((0, 1, 2, 3))
        for _ in range(20):
            h = tuple(rng.randint(0, 3) for _ in range(3))
            v = tuple(rng.randint(0, 3) for _ in range(3))
            d = grid4.unique_domain(x, x, h, v)
            assert (d.a_vec, d.b_vec) == (h, v)
            cells = recurrence_cells(4, x.sigma, x.sigma, h, v)
            assert d.mult == cells
            assert meets_boundary_condition(4, x.sigma, x.sigma, cells)
            # h[r] on each row r plus v[c] on each column c
            assert all(cell(d, c, r) == (h + (0,))[r] + (v + (0,))[c] for c in range(4) for r in range(4))


def domain_data(n):
    """Last-column/top-row data with entries in -2..2, zero data included."""
    zero = (0,) * (n - 1)
    return st.one_of(st.just(zero), st.tuples(*[st.integers(-2, 2)] * (n - 1)))


class TestDomainOperations:
    """Every ``GridDomain`` operation against the recurrence's cells and the
    operation's cell-by-cell definition."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_operations_match_cells(self, data):
        g = data.draw(canonical_grids())
        n = g.n
        perms = st.permutations(range(n)).map(tuple)
        xs = data.draw(perms)
        ys = data.draw(st.one_of(st.just(xs), perms))
        zs = data.draw(perms)
        x, y, z = g.generator(xs), g.generator(ys), g.generator(zs)
        a1, b1, a2, b2 = (data.draw(domain_data(n)) for _ in range(4))
        d, e = g.unique_domain(x, y, a1, b1), g.unique_domain(y, z, a2, b2)
        cd, ce = recurrence_cells(n, xs, ys, a1, b1), recurrence_cells(n, ys, zs, a2, b2)
        assert d.mult == cd and e.mult == ce
        de = d.compose(e)
        assert (de.from_sigma, de.to_sigma, de.mult) == (xs, zs, tuple(map(add, cd, ce)))
        assert de.subtract(d).key == e.key and de.subtract(d).mult == ce
        assert de.strip_suffix(e).key == d.key and de.strip_suffix(e).mult == cd
        o_count = sum(cd[c * n + r] for c, r in enumerate(g.o_row))
        assert d.maslov_index() == x.maslov - y.maslov + 2 * o_count
        assert d.is_positive() == all(v >= 0 for v in cd)
        assert d.is_trivial() == (xs == ys and not any(cd))
        for j in range(n):
            assert d.annulus_room("H", j) == min(cd[c * n + g.o_row[j]] for c in range(n))
            assert d.annulus_room("V", j) == min(cd[j * n + r] for r in range(n))


class TestFlatQueries:
    """The named GridDomain/RectInfo queries against cell-by-cell references."""

    @pytest.mark.parametrize("name", ["unknot2", "unknot3", "hopf4", "trefoil5", "t25"])
    def test_rect_geometry_matches_domain(self, name, request):
        g = request.getfixturevalue(name)
        n = g.n
        for x in g.generators():
            for info in g.rectangle_infos(x.sigma):
                d = info.domain(g)
                assert d.mult == painted_box(info, n)
                assert info.meets_last_column == any(cell(d, n - 1, r) for r in range(n))
                assert info.meets_top_row == any(cell(d, c, n - 1) for c in range(n))

    @pytest.mark.parametrize("name", ["unknot3", "grid4"])
    def test_annulus_kind_matches_hand_check(self, name, request):
        g = request.getfixturevalue(name)
        kinds = [d.annulus_kind() for d, _ in index_two_domains(g).values()]
        assert kinds == [hand_annulus_kind(d) for d, _ in index_two_domains(g).values()]
        assert {"H", "V", None} <= set(kinds)

    def test_strip_suffix_inverts_compose(self, unknot3, signs3):
        from gridhom import cdp

        closure = cdp.ClosureComplex.build(signs3, cdp.curated_seeds(unknot3))
        checked = 0
        for t in closure.elements.values():
            D = t.domain
            rebuilt = []
            for info in unknot3.rectangle_infos_into(D.to_sigma):
                R = info.domain(unknot3)
                E = D.strip_suffix(R)
                if E.is_positive():
                    assert E.compose(R).key == D.key
                    rebuilt.append(E.key)
            suffixes = [E.key for label, _, E in cdp.cd_terms(signs3, D) if label == "suffix"]
            assert rebuilt == suffixes
            checked += len(suffixes)
        assert checked

    def test_annulus_room_matches_repeated_subtract(self, grid4):
        def brute_room(d, kind, j):
            try:
                ann = grid4.marking_annulus(kind, j, grid4.generator(d.from_sigma))
            except InvalidGrid:  # the top row and the last column
                return 0
            k, rest = 0, d.subtract(ann)
            while rest.is_positive():
                k, rest = k + 1, rest.subtract(ann)
            return k

        rng = random.Random(4)
        gens = list(grid4.generators())
        for _ in range(60):
            x = rng.choice(gens)
            d = grid4.trivial_domain(x)
            for _ in range(rng.randint(0, 3)):
                kind, j = rng.choice("HV"), rng.randrange(3)
                if kind == "H" and grid4.o_row[j] == 3:
                    continue
                d = d.compose(grid4.marking_annulus(kind, j, x))
            for _ in range(rng.randint(0, 3)):
                rect, _ = rng.choice(grid4.rectangles_from(grid4.generator(d.to_sigma)))
                d = d.compose(rect)
            for kind in "HV":
                for j in range(4):
                    assert d.annulus_room(kind, j) == brute_room(d, kind, j)


class TestParsing:
    def test_text_roundtrip(self, tmp_path):
        text = "n=2\nX: 1 2\nO: 2 1\n"
        g = parse_grid_text(text)
        assert g == GridDiagram(2, (1, 0), (0, 1))

    def test_json(self):
        g = parse_grid_json(json.dumps({"n": 2, "x_row": [1, 2], "o_row": [2, 1]}))
        assert g == GridDiagram(2, (1, 0), (0, 1))

    def test_bad_file(self):
        with pytest.raises(InvalidGrid):
            parse_grid_text("n=2\nX: 1 1\nO: 2 1\n")
