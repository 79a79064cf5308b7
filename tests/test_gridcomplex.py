import dataclasses
import itertools
import json
import math
import os

import pytest

from gridhom import gridcomplex
from gridhom.cli import main
from gridhom.gridcore import GridDiagram, GridError, canonicalize, load_grid
from gridhom.homalg import IntegerChainComplex, UPoly, reduce_complex
from gridhom.signs import build_sign_assignment
from gridhom.gridcomplex import (
    FlavorSpec,
    ReducedSlice,
    UnboundedSlice,
    build_complex,
    exponent_width,
    expand,
    generator_complex,
    reduced_slices,
    slice_tower,
    u_map,
)
from gridhom.spectra import spectrum_report
from conftest import associated_graded, fixture_path, plus_u_map, raw_slice, raw_table, total_rank


def nonzero_tables(g, s, flavor, a2_values):
    """The non-zero homology per slice, each complex checked for d^2 = 0:
    oracles that compare two tables built with the same signs cannot see a
    sign error that keeps the ranks, but d^2 = 0 can."""
    spec = FlavorSpec.make(g, flavor)
    out = {}
    for a2 in a2_values:
        cx = build_complex(g, s, spec, a2)
        assert cx.check_d_squared(), (flavor, a2)
        nz = cx.homology().nonzero()
        if nz:
            out[a2] = nz
    return out


def elementary_divisors(torsion):
    """The prime powers of a finite abelian group given by its invariant
    factors; a direct sum's are the union of its summands'."""
    out = []
    for d in torsion:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                out.append(q)
            p += 1
    return out


def a2_range(g):
    vals = [x.alexander2 for x in g.generators()]
    ncomp = g.num_components
    lo = [min(v[k] for v in vals) for k in range(ncomp)]
    hi = [max(v[k] for v in vals) for k in range(ncomp)]
    return [tuple(t) for t in itertools.product(*(range(l, h + 1, 2) for l, h in zip(lo, hi)))]


class TestUnknot:
    def test_plus_tower(self, unknot2, signs2):
        spec = FlavorSpec.make(unknot2, "plus")
        for j in range(0, 7):
            t = build_complex(unknot2, signs2, spec, (2 * j,)).homology()
            assert t.nonzero() == {2 * j: (1, ())}
        assert build_complex(unknot2, signs2, spec, (-2,)).homology().nonzero() == {}

    def test_hat(self, unknot2, signs2):
        spec = FlavorSpec.make(unknot2, "hat")
        assert build_complex(unknot2, signs2, spec, (0,)).homology().nonzero() == {0: (1, ())}
        assert build_complex(unknot2, signs2, spec, (2,)).homology().nonzero() == {}

    def test_basis_size_matches_count(self, unknot2, signs2):
        # slice generator count = sum over x of compositions of the gap
        import math

        spec = FlavorSpec.make(unknot2, "plus")
        for a2 in (0, 2, 4, 6):
            cx = raw_slice(unknot2, signs2, spec, (a2,))
            expected = 0
            for x in unknot2.generators():
                gap2 = a2 - x.alexander2[0]
                if gap2 >= 0 and gap2 % 2 == 0:
                    gap = gap2 // 2
                    expected += math.comb(gap + unknot2.n - 1, unknot2.n - 1)
            assert len(cx.grading) == expected

    def test_u_map_isomorphisms(self, unknot2, signs2):
        for j in (1, 2, 3):
            res = plus_u_map(unknot2, signs2, 0, (2 * j,))
            grs = [gr for gr, basis in res.matrices.items()]
            assert grs and all(res.is_isomorphism_at(gr) for gr in grs)
            assert res.is_isomorphism()

    def test_same_component_markings_agree_on_homology(self, unknot2, signs2):
        r0 = plus_u_map(unknot2, signs2, 0, (4,))
        r1 = plus_u_map(unknot2, signs2, 1, (4,))
        assert r0.matrices == r1.matrices


class TestUMap:
    def test_isomorphism_verdict_reads_both_tables(self, trefoil5, signs5):
        # H+(A=0) has rank 2 and H+(A=1) rank 1: the target class at Maslov
        # -1 is hit by nothing, although U is onto from every source grading
        low = plus_u_map(trefoil5, signs5, 0, (2,))
        assert total_rank(low.source_table) == 1 and total_rank(low.target_table) == 2
        assert all(low.is_isomorphism_at(gr) for gr in low.source_table.groups)
        assert not low.is_isomorphism()
        assert plus_u_map(trefoil5, signs5, 0, (4,)).is_isomorphism()

    @pytest.mark.parametrize("cap", [None, 6])
    def test_reduced_slice_holds_no_differential(self, cap, trefoil5, signs5):
        spec = FlavorSpec.make(trefoil5, "plus")
        ((_, sl),) = reduced_slices(trefoil5, signs5, spec, [(6,)], cap)
        assert set(vars(sl)) == {"spec", "reduced", "bases"}
        assert not any(isinstance(v, IntegerChainComplex) for k, v in vars(sl).items() if k != "reduced")
        # the one complex it keeps is its tower's survivors below the cap,
        # never the built slice
        tower = slice_tower(build_complex(trefoil5, signs5, spec, (6,), cap), 0 if cap is None else None)
        kept = {key: gr for key, gr in tower.grading.items() if cap is None or gr < cap}
        assert list(sl.reduced.grading.items()) == list(kept.items())
        assert sl.reduced.diff == {key: col for key, col in tower.diff.items() if key in kept}
        assert len(kept) < len(raw_slice(trefoil5, signs5, spec, (6,), cap).grading)
        if cap is not None:
            assert len(kept) < len(tower.grading)  # survivors at the cap were dropped

    def test_u_map_rejects_wrong_target(self, trefoil5, signs5):
        spec = FlavorSpec.make(trefoil5, "plus")
        slices = dict(reduced_slices(trefoil5, signs5, spec, [(6,), (2,)]))
        with pytest.raises(GridError, match="not a cell of the target slice"):
            u_map(slices[(6,)], slices[(2,)], 0)
        tower = slice_tower(build_complex(trefoil5, signs5, spec, (6,), 8), 0)
        capped = ReducedSlice.from_tower(tower, spec, 0, 0, 8)
        too_low = ReducedSlice.from_tower(tower, spec, 0, 1, 2)
        with pytest.raises(GridError, match="not a cell of the target slice"):
            u_map(capped, too_low, 0)
        below = ReducedSlice.from_tower(tower, spec, 0, 1, 6)
        assert u_map(capped, below, 0).matrices == plus_u_map(trefoil5, signs5, 0, (6,), 8).matrices == {6: [[1]]}

    @pytest.mark.parametrize("cap", [4, 5, 6, 8])
    def test_capped_u_map_is_the_uncapped_map_in_its_window(self, cap, trefoil5, signs5):
        full = plus_u_map(trefoil5, signs5, 0, (6,))
        capped = plus_u_map(trefoil5, signs5, 0, (6,), maslov_cap=cap)
        assert capped.matrices == {k: m for k, m in full.matrices.items() if k <= cap - 2}
        assert capped.source_table.groups == {k: v for k, v in full.source_table.groups.items() if k <= cap - 2}
        assert capped.matrices == ({6: [[1]]} if cap == 8 else {})

    # source slices per fixture; every marking maps each one to the slice
    # below it on the marking's component
    U_SOURCES = {
        "unknot2": [(2,), (4,), (6,)],
        "trefoil5": [(0,), (2,), (4,), (6,), (8,)],
        "hopf4": [(2, 2), (2, 4), (4, 2), (4, 4)],
        "t25": [(0,)],
    }

    @pytest.mark.parametrize("name", list(U_SOURCES))
    def test_u_is_a_chain_map(self, name, request):
        g = request.getfixturevalue(name)
        s = build_sign_assignment(g)
        for marking in range(g.n):
            for a2 in self.U_SOURCES[name]:
                assert_u_is_a_chain_map(g, s, marking, a2)

    def test_capped_u_is_a_chain_map(self, trefoil5, signs5):
        for marking in range(trefoil5.n):
            assert_u_is_a_chain_map(trefoil5, signs5, marking, (6,), cap=6)

    def test_capped_u_map_needs_a_cell_in_its_window(self, trefoil5, signs5, capsys):
        # the slice 2A=6 has gradings 0..6; a cap of 1 is exact below 0.  The
        # u-map command makes the check, on the slice before any reduction:
        # at a cap of 2 the reduced source keeps no cell below 1
        argv = ["u-map", fixture_path("trefoil5.grid"), "--alexander", "6", "--cap"]
        assert main([*argv, "1"]) == 2
        assert "where the source slice has no cell" in capsys.readouterr().err
        assert main(["--json", *argv, "2"]) == 0
        assert json.loads(capsys.readouterr().out)["matrices"] == {}
        assert plus_u_map(trefoil5, signs5, 0, (6,), maslov_cap=2).matrices == {}


def capped_table(g, s, spec, alexander2, maslov_cap):
    """The table of the slice ``alexander2`` read by ``reduced_slices``
    under ``maslov_cap``."""
    ((_, sl),) = reduced_slices(g, s, spec, [alexander2], maslov_cap)
    return sl.table


def assert_u_is_a_chain_map(g, s, marking, alexander2, cap=None):
    """U_marking takes every cell of the plus slice ``alexander2`` (capped at
    ``cap``) to a cell of the slice below it (capped at ``cap - 2``), and
    d(U x) = U(d x) on every cell x."""
    spec = FlavorSpec.make(g, "plus")
    comp = g.component_of_o[marking]
    lower = tuple(v - 2 if k == comp else v for k, v in enumerate(alexander2))
    src = raw_slice(g, s, spec, alexander2, cap)
    dst = raw_slice(g, s, spec, lower, None if cap is None else cap - 2)

    def u(chain):
        out = {}
        for (sigma, j), v in chain.items():
            if j[marking]:
                key = (sigma, tuple(jc - (c == marking) for c, jc in enumerate(j)))
                assert key in dst.grading, key
                out[key] = v
        return out

    assert src.grading
    for key in src.grading:
        assert dst.apply(u({key: 1})) == u(src.diff.get(key, {})), key


def assert_hat_choice_invariance(g, s):
    """Hat homology is the same whichever O marking is frozen, while the
    complexes differ: each marking freezes another column."""
    tables, cell_sets = [], set()
    for marking in range(g.n):
        spec = dataclasses.replace(FlavorSpec.make(g, "hat"), frozen=(marking,))
        table, cells = {}, set()
        for a2 in a2_range(g):
            cx = raw_slice(g, s, spec, a2)
            cells.update(cx.grading)
            nz = cx.homology().nonzero()
            if nz:
                table[a2] = nz
        tables.append(table)
        cell_sets.add(frozenset(cells))
    assert len(cell_sets) == g.n
    assert all(t == tables[0] for t in tables)


def assert_tilde_is_hat_convolved(g, s):
    """tilde = hat (x) V^(n - l), torsion included: one factor
    V = Z_(0,0) + Z_(1,+2) in (M, 2A) for each O marking beyond the first on
    a component, shifting that component's grading alone.  V is free, so
    torsion carries over unchanged."""
    hat = nonzero_tables(g, s, "hat", a2_range(g))
    tilde = nonzero_tables(g, s, "tilde", a2_range(g))
    factor_comps = []
    for k in range(g.num_components):
        factor_comps += [k] * (g.component_of_o.count(k) - 1)
    assert len(factor_comps) == g.n - g.num_components
    convolved = {}
    for a2, groups in hat.items():
        for bits in itertools.product((0, 1), repeat=len(factor_comps)):
            key = list(a2)
            for k, b in zip(factor_comps, bits):
                key[k] += 2 * b
            tgt = convolved.setdefault(tuple(key), {})
            for m, (r, torsion) in groups.items():
                rank, divisors = tgt.get(m + sum(bits), (0, []))
                tgt[m + sum(bits)] = (rank + r, divisors + elementary_divisors(torsion))
    got = {
        a2: {m: (r, sorted(elementary_divisors(t))) for m, (r, t) in groups.items()}
        for a2, groups in tilde.items()
    }
    want = {a2: {m: (r, sorted(d)) for m, (r, d) in groups.items()} for a2, groups in convolved.items()}
    assert got == want


class TestFlavors:
    @pytest.mark.parametrize("flavor", ["plus", "hat", "tilde", "plus_prime"])
    def test_d_squared_small_grids(self, flavor, unknot3, signs3):
        spec = FlavorSpec.make(unknot3, flavor)
        for a2 in a2_range(unknot3):
            cx = build_complex(unknot3, signs3, spec, a2)
            assert cx.check_d_squared()
            cx.validate_grading()

    def test_d_squared_trefoil_all_slices(self, trefoil5, signs5):
        for flavor in ("plus", "hat", "tilde"):
            spec = FlavorSpec.make(trefoil5, flavor)
            for a2 in a2_range(trefoil5):
                cx = build_complex(trefoil5, signs5, spec, a2)
                assert cx.check_d_squared()

    def test_d_squared_spot_n6(self):
        g = canonicalize(GridDiagram(6, tuple((i + 2) % 6 for i in range(6)), tuple(range(6))))
        s = build_sign_assignment(g)
        assert g.num_components == 2
        spec = FlavorSpec.make(g, "tilde")
        a2 = next(iter({x.alexander2 for x in g.generators()}))
        cx = build_complex(g, s, spec, a2)
        assert cx.check_d_squared()

    def test_plus_prime_equals_plus_for_knots(self, trefoil5, signs5):
        plus = FlavorSpec.make(trefoil5, "plus")
        prime = FlavorSpec.make(trefoil5, "plus_prime")
        for a2 in [(-2,), (0,), (2,)]:
            cx_plus = build_complex(trefoil5, signs5, plus, a2)
            cx_prime = build_complex(trefoil5, signs5, prime, a2)
            assert cx_plus.grading == cx_prime.grading
            assert cx_plus.diff == cx_prime.diff

    def test_tilde_total_rank_unknot_n3(self, unknot3, signs3):
        spec = FlavorSpec.make(unknot3, "tilde")
        total = sum(
            total_rank(build_complex(unknot3, signs3, spec, a2).homology())
            for a2 in a2_range(unknot3)
        )
        assert total == 2 ** (unknot3.n - 1)

    def test_tilde_is_hat_convolved(self, request):
        for name in ("unknot2", "unknot3", "trefoil5", "hopf4"):
            g = request.getfixturevalue(name)
            assert_tilde_is_hat_convolved(g, build_sign_assignment(g))

    def test_hat_choice_invariance(self, unknot3, signs3):
        assert_hat_choice_invariance(unknot3, signs3)

    def test_hat_choice_invariance_trefoil5(self, trefoil5, signs5):
        assert_hat_choice_invariance(trefoil5, signs5)

    def test_canonicalization_shift_invariance(self):
        base = GridDiagram(3, (1, 2, 0), (0, 1, 2))
        shifted = canonicalize(base.shifted(1, 1))
        tables = []
        for g in (base, shifted):
            s = build_sign_assignment(g)
            tables.append(nonzero_tables(g, s, "hat", a2_range(g)))
        assert tables[0] == tables[1]


class TestAlexanderRange:
    def test_t27_spans_its_tilde_golden(self):
        # read from the extremes table alone: no generator of the n = 9 grid is walked
        g = load_grid(fixture_path("t27.grid"))
        with open(fixture_path(os.path.join("expected", "t27_tilde.json"))) as fh:
            keys = sorted(int(a2) for a2 in json.load(fh)["tables"])
        assert g.alexander2_range() == range(keys[0], keys[-1] + 1, 2)


class TestSymmetry:
    @pytest.mark.parametrize("name,signs", [("unknot2", "signs2"), ("unknot3", "signs3"), ("trefoil5", "signs5")])
    def test_hat_alexander_symmetry(self, name, signs, request):
        # hat_M(A) = hat_{M-2A}(-A), torsion included; a slice outside the
        # Alexander range is zero
        g, s = request.getfixturevalue(name), request.getfixturevalue(signs)
        slices = nonzero_tables(g, s, "hat", [(a2,) for a2 in g.alexander2_range()])
        tables = {a2: groups for (a2,), groups in slices.items()}
        assert tables
        for a2, groups in tables.items():
            assert {m - a2: v for m, v in groups.items()} == tables.get(-a2, {}), a2


class TestPlusPrimeLinks:
    def test_needs_cap(self, hopf4, signs_hopf):
        spec = FlavorSpec.make(hopf4, "plus_prime")
        with pytest.raises(UnboundedSlice):
            build_complex(hopf4, signs_hopf, spec, (0,))

    def test_d_squared_and_filtration(self, hopf4, signs_hopf):
        spec = FlavorSpec.make(hopf4, "plus_prime")
        comp_special = hopf4.component_of_o[hopf4.o_row.index(hopf4.x_row[3])]
        other = 1 - comp_special
        cx = raw_slice(hopf4, signs_hopf, spec, (2,), maslov_cap=6)
        assert cx.check_d_squared()

        def other_a2(key):
            sigma, j = key
            x = hopf4.generator(sigma)
            extra = sum(v for c, v in enumerate(j) if hopf4.component_of_o[c] == other)
            return x.alexander2[other] + 2 * extra

        # the other component's Alexander grading filters the complex
        pieces = associated_graded(cx, other_a2)
        plus = FlavorSpec.make(hopf4, "plus")
        for piece in pieces:
            if not piece.grading:
                continue
            vals = {other_a2(k) for k in piece.grading}
            assert len(vals) == 1
            # each graded piece embeds in the corresponding plus slice
            a2_vec = [0, 0]
            a2_vec[comp_special] = 2
            a2_vec[other] = vals.pop()
            full = raw_slice(hopf4, signs_hopf, plus, tuple(a2_vec), maslov_cap=6)
            for key, col in piece.diff.items():
                assert full.diff.get(key, {}) == col

    def test_capped_plus_prime_link(self, hopf4, signs_hopf):
        # caps 2 and 4 both read an empty slice 2A=4, but it is Z at Maslov 3:
        # two agreeing capped tables do not certify an infinite slice
        spec = FlavorSpec.make(hopf4, "plus_prime")
        for cap in (6, 8, 10):
            assert capped_table(hopf4, signs_hopf, spec, (4,), cap).nonzero() == {3: (1, ())}
        with pytest.raises(UnboundedSlice):
            build_complex(hopf4, signs_hopf, spec, (4,))

    @pytest.mark.parametrize(
        "flavor,a2", [("plus_prime", (0, 0)), ("plus_prime", ()), ("plus", (0,)), ("tilde", (0, 0, 0))]
    )
    def test_slice_of_the_wrong_length(self, flavor, a2, hopf4, signs_hopf):
        # one entry per sliced component: the distinguished one alone for
        # plus_prime, both components of the link otherwise
        with pytest.raises(ValueError, match="entries, one per sliced component"):
            build_complex(hopf4, signs_hopf, FlavorSpec.make(hopf4, flavor), a2, maslov_cap=6)


class TestTables:
    def test_homology_table_wrapper(self, unknot2, signs2):
        spec = FlavorSpec.make(unknot2, "plus")
        for a2, want in (((0,), {0: (1, ())}), ((2,), {2: (1, ())})):
            assert capped_table(unknot2, signs2, spec, a2, maslov_cap=6).nonzero() == want
            assert build_complex(unknot2, signs2, spec, a2).homology().nonzero() == want

    def test_capped_table_truncates(self, unknot2, signs2):
        spec = FlavorSpec.make(unknot2, "plus")
        table = capped_table(unknot2, signs2, spec, (4,), maslov_cap=3)
        assert table.nonzero() == {}
        assert capped_table(unknot2, signs2, spec, (4,), maslov_cap=6).nonzero() == {4: (1, ())}

    def test_cap_stability(self, trefoil5, signs5):
        # raising the cap only changes rows above cap - 2
        spec = FlavorSpec.make(trefoil5, "plus")
        full = build_complex(trefoil5, signs5, spec, (0,)).homology().nonzero()
        for cap in (2, 4, 6):
            cx = build_complex(trefoil5, signs5, spec, (0,), maslov_cap=cap)
            cut = {k: v for k, v in cx.homology().nonzero().items() if k <= cap - 2}
            assert cut == {k: v for k, v in full.items() if k <= cap - 2}


# -- Euler characteristic against the grid determinant ----------------------------


def winding_number(g, i, j):
    """Winding number of the grid's link around the lattice point (i, j): its
    vertical segments in the columns c < i that span height j, +1 for one
    running up from X to O and -1 for one running down."""
    w = 0
    for c in range(i):
        lo, hi = sorted((g.x_row[c], g.o_row[c]))
        if lo < j <= hi:
            w += 1 if g.x_row[c] < g.o_row[c] else -1
    return w


def grid_determinant(g):
    """det(t^(-w(i, j))) as {doubled exponent: coefficient}, by the Leibniz
    sum: every entry is a monomial, so each permutation adds one term."""
    n = g.n
    exps = [[-2 * winding_number(g, i, j) for j in range(n)] for i in range(n)]
    poly = {}
    for p in itertools.permutations(range(n)):
        sign = (-1) ** sum(p[a] > p[b] for a, b in itertools.combinations(range(n), 2))
        k = sum(exps[i][p[i]] for i in range(n))
        poly[k] = poly.get(k, 0) + sign
    return {k: v for k, v in poly.items() if v}


def up_to_unit(poly):
    """The Laurent polynomial divided by +-t^k: lowest term at 0, positive."""
    low = min(poly)
    sign = 1 if poly[low] > 0 else -1
    return {k - low: sign * v for k, v in poly.items()}


class TestEulerCharacteristic:
    @pytest.mark.parametrize(
        "name,signs", [("unknot2", "signs2"), ("trefoil5", "signs5"), ("hopf4", "signs_hopf"), ("t25", "signs7")]
    )
    def test_tilde_euler_characteristic_is_grid_determinant(self, name, signs, request):
        # tilde homology categorifies Delta(t) (1 - t^-1)^(n-1) up to +-t^k, which
        # the grid determinant equals; for a link, A is the total grading
        g, s = request.getfixturevalue(name), request.getfixturevalue(signs)
        chi = {}
        for a2, groups in nonzero_tables(g, s, "tilde", a2_range(g)).items():
            for m, (rank, _) in groups.items():
                chi[sum(a2)] = chi.get(sum(a2), 0) + (-1 if m % 2 else 1) * rank
        chi = {k: v for k, v in chi.items() if v}
        assert up_to_unit(chi) == up_to_unit(grid_determinant(g))


# -- build_complex against a reference written from the definition -------------


def spreads(total, parts):
    """All ``parts``-tuples of non-negative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def reference_complex(g, s, spec, alexander2, cap=None):
    """One slice from the definition: every cell [x, j] of the slice, and for
    every cell every rectangle out of x that crosses no forbidden X and whose
    O markings j can pay for.  No per-generator tables, no shared keys, and
    no flavor data from ``spec`` but its name: hat freezes the first O
    column of each component, chosen here."""
    n = g.n
    comp_of_o = g.component_of_o
    comp_of_x = [comp_of_o[g.o_row.index(g.x_row[c])] for c in range(n)]
    first_o = [comp_of_o.index(k) for k in range(g.num_components)]
    frozen = {"hat": set(first_o), "tilde": set(range(n))}.get(spec.flavor, set())
    if spec.flavor == "plus_prime":
        special = comp_of_x[n - 1]
        (pinned_a2,) = alexander2
        pinned = {special: pinned_a2}
        forbidden = [c for c in range(n) if comp_of_x[c] == special]
    else:
        pinned = dict(enumerate(alexander2))
        forbidden = list(range(n))
    grading = {}
    for x in map(g.generator, itertools.permutations(range(n))):
        if cap is not None and x.maslov > cap:
            continue
        budget = None if cap is None else (cap - x.maslov) // 2
        choices = []
        for k in range(g.num_components):
            cols = [c for c in range(n) if comp_of_o[c] == k and c not in frozen]
            if k in pinned:
                gap2 = pinned[k] - x.alexander2[k]
                totals = [gap2 // 2] if gap2 >= 0 and gap2 % 2 == 0 else []
            else:
                totals = range(budget + 1)
            choices.append([(cols, v) for t in totals for v in spreads(t, len(cols))])
        for choice in itertools.product(*choices):
            j = [0] * n
            for cols, values in choice:
                for c, v in zip(cols, values):
                    j[c] = v
            gr = x.maslov + 2 * sum(j)
            if cap is None or gr <= cap:
                grading[(x.sigma, tuple(j))] = gr
    diff = {}
    for (sigma, j), gr in grading.items():
        col = {}
        for info in g.rectangle_infos(sigma):
            if any(info.x_mask >> c & 1 for c in forbidden):
                continue
            key2 = (info.to_sigma, tuple(v - (info.o_mask >> c & 1) for c, v in enumerate(j)))
            if key2 not in grading:
                continue
            coeff = col.get(key2, 0) + s.of(info)
            if coeff:
                col[key2] = coeff
            else:
                del col[key2]
        if col:
            diff[(sigma, j)] = col
    return IntegerChainComplex(grading, diff)


def test_diagram_keeps_no_generator_table(t25, signs7):
    """Walking every generator and building a hat slice leaves no attribute
    of the diagram with n! entries."""
    assert sum(1 for _ in t25.generators()) == math.factorial(t25.n)
    build_complex(t25, signs7, FlavorSpec.make(t25, "hat"), (-2,))
    sizes = {name: len(value) for name, value in vars(t25).items() if hasattr(value, "__len__")}
    assert max(sizes.values()) < math.factorial(t25.n), sizes


class RecordingSigns:
    """A sign table that records the rectangles it is asked about."""

    def __init__(self, signs):
        self.signs = signs
        self.asked = set()
        self.calls = 0

    def of(self, info):
        self.asked.add(info.key)
        self.calls += 1
        return self.signs.of(info)


def assert_same_build(g, s, spec, alexander2, cap=None):
    """The slice's generator complex, unreduced and written out cell by
    cell, is the reference slice item for item and in the same order;
    returns it."""
    ref_signs, lib_signs = RecordingSigns(s), RecordingSigns(s)
    ref = reference_complex(g, ref_signs, spec, alexander2, cap)
    gens = generator_complex(g, lib_signs, spec, alexander2, cap)
    lib = expand(g, spec, alexander2, cap, gens)
    assert list(lib.grading.items()) == list(ref.grading.items())
    assert lib.diff == ref.diff
    for key, col in ref.diff.items():
        assert list(lib.diff[key].items()) == list(col.items()), key
    # the generator complex signs each rectangle it keeps between two of its
    # generators once: every rectangle the reference signs, and those whose
    # arrows miss the slice's cells
    assert ref_signs.asked <= lib_signs.asked
    assert lib_signs.calls == len(lib_signs.asked)
    window = gens.grading
    for sigma, (i, j), _ in lib_signs.asked:
        tau = sigma[:i] + (sigma[j],) + sigma[i + 1 : j] + (sigma[i],) + sigma[j + 1 :]
        assert sigma in window and tau in window
    return lib


class TestBuildReference:
    @pytest.mark.parametrize("name", ["unknot2", "unknot3", "hopf4", "trefoil5"])
    @pytest.mark.parametrize("flavor", ["plus", "hat", "tilde", "plus_prime"])
    def test_small_grids(self, name, flavor, request):
        g = request.getfixturevalue(name)
        s = build_sign_assignment(g)
        spec = FlavorSpec.make(g, flavor)
        if flavor == "plus_prime":
            special = g.component_of_o[g.o_row.index(g.x_row[g.n - 1])]
            slices = sorted({(a2[special],) for a2 in a2_range(g)})
            caps = (6,) if g.num_components > 1 else (None, 4)
        else:
            slices = a2_range(g)
            caps = (None, 4)
        cells = 0
        for a2 in slices:
            for cap in caps:
                cells += len(assert_same_build(g, s, spec, a2, cap).grading)
        assert cells

    def test_plus_prime_capped_link(self, hopf4, signs_hopf):
        spec = FlavorSpec.make(hopf4, "plus_prime")
        for cap in (2, 4, 6, 8):
            for a2 in (-2, 0, 2, 4):
                assert_same_build(hopf4, signs_hopf, spec, (a2,), cap)
        # the free component's j reaches 35 here, past the 5 bits of an
        # exponent's field at n = 4
        assert_same_build(hopf4, signs_hopf, spec, (2,), 70)

    def test_t25_hat(self, t25, signs7):
        spec = FlavorSpec.make(t25, "hat")
        lo = min(x.alexander2[0] for x in t25.generators())
        for a2 in range(lo, 3, 2):
            assert_same_build(t25, signs7, spec, (a2,))


# -- the generator complex over Z[U], reduced before a slice is written out ----

# per fixture, the slices whose generator complexes are checked: a knot's
# top slice holds every generator (t25's 2A = 4 about half of them, to keep
# Tier-1 short); tilde pins every grading, so each of its slices is its own
ZU_SLICES = {"unknot2": (6,), "unknot3": (4,), "trefoil5": (8,), "hopf4": (4, 4), "t25": (4,)}


def zu_slices(g, name, flavor):
    """The slices of ``g`` whose generator complexes the tests check, with
    a cap where the slice is infinite."""
    top = ZU_SLICES[name]
    if flavor == "tilde":
        return [(a2, None) for a2 in a2_range(g) if all(a <= b for a, b in zip(a2, top))]
    if flavor == "plus_prime":
        special = g.component_of_o[g.o_row.index(g.x_row[g.n - 1])]
        return [((top[special],), 6 if g.num_components > 1 else None)]
    return [(top, None)]


class TestGeneratorComplex:
    """``build_complex`` Morse-reduces a slice's generator complex over Z[U]
    before it writes the slice out.  Unreduced and written out, that complex
    is the slice (``TestBuildReference``); these check the complex itself
    and that the reduction keeps every table."""

    @pytest.mark.parametrize("name", list(ZU_SLICES))
    @pytest.mark.parametrize("flavor", gridcomplex.FLAVORS)
    def test_d_squared_over_zu(self, name, flavor, request):
        g = request.getfixturevalue(name)
        s = build_sign_assignment(g)
        spec = FlavorSpec.make(g, flavor)
        width = exponent_width(g)
        field = (1 << width) - 1
        for a2, cap in zu_slices(g, name, flavor):
            cx = generator_complex(g, s, spec, a2, cap)
            assert cx.grading and cx.check_d_squared(), (a2, cap)
            # homogeneous: every monomial from sigma to tau has the U-degree
            # (M(tau) - M(sigma) + 1) / 2, so an entry is a constant, stored as
            # an int, or a UPoly of positive degree; on these grids every
            # constant is +-1, a unit that reduce_complex can cancel
            for sigma, col in cx.diff.items():
                for tau, entry in col.items():
                    degree = (cx.grading[tau] - cx.grading[sigma] + 1) // 2
                    assert isinstance(entry, int) == (degree == 0), (sigma, tau, entry)
                    if not degree:
                        assert entry in (1, -1), (sigma, tau, entry)
                    else:
                        assert isinstance(entry, UPoly) and entry and degree > 0
                        for e in entry:
                            assert sum(e >> (width * c) & field for c in range(g.n)) == degree

    @pytest.mark.parametrize("flavor", gridcomplex.FLAVORS)
    @pytest.mark.parametrize("name", ["unknot2", "unknot3", "trefoil5", "hopf4"])
    def test_reduced_and_raw_tables_agree(self, name, flavor, request):
        g = request.getfixturevalue(name)
        s = build_sign_assignment(g)
        spec = FlavorSpec.make(g, flavor)
        if flavor == "plus_prime":
            special = g.component_of_o[g.o_row.index(g.x_row[g.n - 1])]
            slices = sorted({(a2[special],) for a2 in a2_range(g)})
            # on a knot plus_prime is plus (test_plus_prime_equals_plus_for_knots)
            caps = (2, 4, 6) if g.num_components > 1 else (None,)
        else:
            slices, caps = a2_range(g), (None, 2, 4, 6)
        for a2 in slices:
            # a knot's slice above 2A = 6 capped at 6 or below leaves hundreds
            # of raw cells unpaired just below the cap, and its raw table runs
            # dense matrices over them (12 s for trefoil5 plus 2A = 8 at 6)
            for cap in caps if g.num_components > 1 or a2[0] <= 6 else (None,):
                raw = raw_slice(g, s, spec, a2, cap)
                reduced = build_complex(g, s, spec, a2, cap)
                assert reduced.check_d_squared(), (a2, cap)
                assert capped_table(g, s, spec, a2, cap) == raw_table(g, s, spec, a2, cap), (a2, cap)
                if cap is None:
                    assert reduced.homology() == raw.homology(), a2

    @pytest.mark.parametrize("flavor", ["plus", "hat", "tilde"])
    def test_t25_reduced_and_raw_tables_agree(self, flavor, t25, signs7, t25_hat):
        spec = FlavorSpec.make(t25, flavor)
        for a2 in range(-4, 5, 2):
            raw = t25_hat[a2] if flavor == "hat" else raw_slice(t25, signs7, spec, (a2,))
            reduced = build_complex(t25, signs7, spec, (a2,))
            assert reduced.homology() == raw.homology(), a2
        assert len(reduced.grading) < len(raw.grading)  # at 2A = 4

    def test_lowest_cell_grading(self, trefoil5, signs5, hopf4, signs_hopf):
        for g, s, flavor, slices in (
            (trefoil5, signs5, "plus", [(a2,) for a2 in range(-4, 11, 2)] + [(3,)]),
            (hopf4, signs_hopf, "hat", a2_range(hopf4)),
        ):
            spec = FlavorSpec.make(g, flavor)
            for a2 in slices:
                grades = raw_slice(g, s, spec, a2).grading.values()
                assert gridcomplex.lowest_cell_grading(g, spec, a2) == min(grades, default=math.inf), a2


def assert_towers_match_builds(g, s, flavor, slices, monkeypatch):
    """Read ``slices`` with ``reduced_slices``, compare each table with its
    direct, unreduced build's, and return the slices built, in the order
    built."""
    spec = FlavorSpec.make(g, flavor)
    want = {a2: raw_slice(g, s, spec, a2).homology() for a2 in slices}
    built = []

    def counting(g, s, spec, alexander2, maslov_cap=None):
        built.append(alexander2)
        return build_complex(g, s, spec, alexander2, maslov_cap)

    monkeypatch.setattr(gridcomplex, "build_complex", counting)
    got = {a2: sl.table for a2, sl in reduced_slices(g, s, spec, slices)}
    monkeypatch.undo()
    assert got == want
    return built


def assert_read_off(g, s, flavor, upper, lower, cap):
    """The slices ``upper`` and ``lower`` read off the tower of ``upper``
    built under ``cap`` have the tables of their direct, unreduced builds
    under the cap two lower per step."""
    spec = FlavorSpec.make(g, flavor)
    (moved,) = [i for i, (u, v) in enumerate(zip(upper, lower)) if u != v]
    marking = spec.free_cols(g)[spec.sliced[moved]][0]
    steps = (upper[moved] - lower[moved]) // 2
    tower = slice_tower(build_complex(g, s, spec, upper, cap), marking)
    for a2, k in ((upper, 0), (lower, steps)):
        c = None if cap is None else cap - 2 * k
        assert ReducedSlice.from_tower(tower, spec, marking, k, c).table == raw_table(g, s, spec, a2, c)


class TestLowerSlice:
    """A slice read off the tower of a slice above it, on a component where
    the flavor leaves an O column free, has the table of its direct build."""

    @pytest.mark.parametrize("flavor", ["plus", "hat", "plus_prime"])
    def test_trefoil5_range(self, flavor, trefoil5, signs5, monkeypatch):
        rng = trefoil5.alexander2_range()
        slices = [(a2,) for a2 in rng] + [(rng[0] - 2,), (3,)]  # one step below the range, and an odd value
        built = assert_towers_match_builds(trefoil5, signs5, flavor, slices, monkeypatch)
        assert built == [(rng[-1],), (3,)]  # one tower per parity

    def test_unknot2(self, unknot2, signs2, monkeypatch):
        plus = [(a2,) for a2 in range(-2, 7, 2)]
        assert assert_towers_match_builds(unknot2, signs2, "plus", plus, monkeypatch) == [(6,)]
        assert assert_towers_match_builds(unknot2, signs2, "hat", [(-2,), (0,), (2,)], monkeypatch) == [(2,)]

    def test_hopf4_walk(self, hopf4, signs_hopf, monkeypatch):
        # one tower per value of the second component
        slices = [(2, 0), (0, 0), (2, -2), (-2, -2), (0, -2)]
        assert assert_towers_match_builds(hopf4, signs_hopf, "hat", slices, monkeypatch) == [(2, 0), (2, -2)]
        # tilde leaves no O column free, so every slice is built
        built = assert_towers_match_builds(hopf4, signs_hopf, "tilde", slices, monkeypatch)
        assert built == sorted(slices, reverse=True)

    def test_hopf4_grid(self, hopf4, signs_hopf, monkeypatch):
        slices = list(itertools.product(range(-4, 5), repeat=2))
        built = assert_towers_match_builds(hopf4, signs_hopf, "hat", slices, monkeypatch)
        assert len(slices) == 81 and sorted(built) == [(a, b) for a in (3, 4) for b in range(-4, 5)]

    @pytest.mark.parametrize("cap", [2, 7])
    def test_capped(self, cap, unknot2, signs2, trefoil5, signs5):
        for upper, lower in [((6,), (4,)), ((4,), (0,))]:
            assert_read_off(unknot2, signs2, "plus", upper, lower, cap)
            assert_read_off(trefoil5, signs5, "plus", upper, lower, cap)
        assert_read_off(unknot2, signs2, "hat", (2,), (-2,), cap)

    def test_t25_hat(self, t25, signs7, t25_hat):
        spec = FlavorSpec.make(t25, "hat")
        marking = spec.free_cols(t25)[0][0]
        tower = slice_tower(t25_hat[4], marking)
        for a2 in (4, 2, 0, -2, -4):
            sl = ReducedSlice.from_tower(tower, spec, marking, (4 - a2) // 2)
            assert sl.table == t25_hat[a2].homology(), a2
        assert t25_hat[4].diff  # the tower reads the built slice and leaves it as it is

    @pytest.mark.parametrize(
        "flavor, pairs",
        [
            ("plus", [((2, 2), (2, 0)), ((2, 0), (2, -2)), ((0, 4), (-2, 4))]),
            ("plus_prime", [((4,), (2,)), ((2,), (0,)), ((0,), (-2,))]),
        ],
    )
    def test_hopf4_capped(self, flavor, pairs, hopf4, signs_hopf):
        for upper, lower in pairs:
            assert_read_off(hopf4, signs_hopf, flavor, upper, lower, cap=6)

    def test_lowering_rules(self, hopf4, signs_hopf, monkeypatch):
        # a slice shares the tower of a higher one when only the first
        # sliced component moves, by an even amount
        def towers(flavor, slices):
            return assert_towers_match_builds(hopf4, signs_hopf, flavor, slices, monkeypatch)

        assert towers("hat", [(2, 2), (0, 2), (-2, 2)]) == [(2, 2)]
        assert towers("hat", [(2, 2), (4, 2)]) == [(4, 2)]  # the higher one is the tower
        assert towers("hat", [(2, 2), (2, -2)]) == [(2, 2), (2, -2)]  # the second component moves
        assert towers("hat", [(2, 2), (0, 0)]) == [(2, 2), (0, 0)]  # both move
        assert towers("hat", [(2, 2), (1, 2)]) == [(2, 2), (1, 2)]  # odd gap
        assert towers("tilde", [(2, 2), (0, 2)]) == [(2, 2), (0, 2)]  # no free O column


@pytest.fixture(scope="module")
def t25_hat(t25, signs7):
    """The t25 hat slices 2A = -4..4, built unreduced once for the tests
    that read them."""
    spec = FlavorSpec.make(t25, "hat")
    return {a2: raw_slice(t25, signs7, spec, (a2,)) for a2 in range(-4, 5, 2)}


def assert_level_is_hat(g, s, slices, hat_table):
    """Compare the spectrum's hat table of each slice, the homology of its
    plus survivors with j_0 = 0, with ``hat_table(a2)``; returns the number
    of slices where hat is not zero and U_0 is not an isomorphism."""
    assert FlavorSpec.make(g, "hat").frozen == (0,)
    report = spectrum_report(g, s, slices)
    nonzero_non_iso = 0
    for a2, rep in report.items():
        table = rep.tables["hat"]
        assert table == hat_table(a2), a2
        if table.nonzero() and not rep.u_maps[0]["iso"]:
            nonzero_non_iso += 1
    return nonzero_non_iso


class TestKernelCone:
    """Hat is the kernel of U_0 on plus, a surjection whose cone has the
    kernel's homology.  On a tower slice that kernel is the plus survivors
    with j_0 = 0 under their own differential; its table equals the
    directly built hat table, also where hat is not zero and U_0 is not an
    isomorphism."""

    def test_unknot2(self, unknot2, signs2):
        hat = FlavorSpec.make(unknot2, "hat")
        oracle = lambda a2: raw_table(unknot2, signs2, hat, (a2,))  # noqa: E731
        assert assert_level_is_hat(unknot2, signs2, range(-2, 5, 2), oracle) == 1  # A = 0

    def test_trefoil5(self, trefoil5, signs5):
        hat = FlavorSpec.make(trefoil5, "hat")
        oracle = lambda a2: raw_table(trefoil5, signs5, hat, (a2,))  # noqa: E731
        assert assert_level_is_hat(trefoil5, signs5, trefoil5.alexander2_range(), oracle) == 3  # A = -1, 0 and 1

    def test_t25(self, t25, signs7, t25_hat):
        assert assert_level_is_hat(t25, signs7, range(-4, 5, 2), lambda a2: t25_hat[a2].homology()) >= 1
