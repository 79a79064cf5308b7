import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridhom.gridcore import GridDiagram
from gridhom.signs import (
    SHAPE_CLASSES,
    AxiomReport,
    GaugeTwist,
    Unsatisfiable,
    _gammas,
    _Spinors,
    build_sign_assignment,
    verify_axioms,
)
from gridhom.gridcomplex import FlavorSpec, build_complex


def sign_table(s) -> dict:
    """A fresh ``{RectInfo.key: sign}`` of every rectangle in the grid."""
    return {
        info.key: s.of(info)
        for x in s.diagram.generators()
        for info in s.diagram.rectangle_infos(x.sigma)
    }


# -- the Clifford oracle -------------------------------------------------------
# The Pin lifts expanded blade by blade in Cl(R^n), as the package evaluated
# them before it moved to the spinor representation.  The comparison
# cross-multiplies instead of dividing: lambda is +-2^k, and k < 0 occurs for
# transpositions that no rectangle realizes (at n = 3,
# L(id) * (e_0 - e_2) = -1/2 * L((2, 1, 0))).

CliffordElt = dict  # bitmask of {0..n-1} -> int coefficient


def _mul_vector(elt: CliffordElt, i: int, j: int) -> CliffordElt:
    """Right-multiply by the unnormalized vector e_i - e_j."""
    out: CliffordElt = {}
    for mask, c in elt.items():
        for k, sgn in ((i, 1), (j, -1)):
            # e_S * e_k: move e_k past the elements of S greater than k
            above = (mask >> (k + 1)).bit_count()
            coeff = c * sgn * (1 - 2 * (above & 1))
            new = mask ^ (1 << k)
            w = out.get(new, 0) + coeff
            if w:
                out[new] = w
            else:
                del out[new]
    return out


class _PinLifts:
    """Lazy table of Clifford lifts of permutations, one fixed lift each."""

    def __init__(self, n: int):
        self.n = n
        self._table: dict[tuple, CliffordElt] = {tuple(range(n)): {0: 1}}

    def lift(self, sigma: tuple) -> CliffordElt:
        found = self._table.get(sigma)
        if found is not None:
            return found
        # peel the smallest descent
        parent = list(sigma)
        p = next(p for p in range(self.n - 1) if sigma[p] > sigma[p + 1])
        parent[p], parent[p + 1] = parent[p + 1], parent[p]
        self._table[sigma] = got = _mul_vector(self.lift(tuple(parent)), p, p + 1)
        return got

    def edge_sign(self, sigma: tuple, pair: tuple[int, int]) -> int:
        """Sign of lambda in L(sigma)*(e_i - e_j) = lambda * L(sigma (i j))."""
        i, j = pair
        tau = list(sigma)
        tau[i], tau[j] = tau[j], tau[i]
        prod = _mul_vector(self.lift(sigma), i, j)
        target = self.lift(tuple(tau))
        key = min(target)
        num, den = prod.get(key, 0), target[key]
        assert num and prod.keys() == target.keys()
        assert all(prod[mask] * den == num * c for mask, c in target.items())
        return 1 if (num > 0) == (den > 0) else -1


def clifford_table(g: GridDiagram) -> dict:
    """The sign of every rectangle of g from the Clifford oracle, with the
    orientation and parity corrections of ``SignAssignment.of``."""
    lifts = _PinLifts(g.n)
    out = {}
    for x in g.generators():
        for info in g.rectangle_infos(x.sigma):
            i, j = info.pair
            if info.role == 1:
                i, j = j, i
            s = lifts.edge_sign(info.from_sigma, (i, j))
            flip = 0
            if info.meets_top_row:
                flip ^= info.width & 1
            if info.meets_last_column:
                flip ^= info.height & 1
            out[info.key] = -s if flip else s
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spinor_edge_signs_equal_clifford(n):
    lifts, spinors = _PinLifts(n), _Spinors(n)
    for sigma in itertools.permutations(range(n)):
        for i, j in itertools.permutations(range(n), 2):
            tau = list(sigma)
            tau[i], tau[j] = tau[j], tau[i]
            assert spinors.edge_sign(sigma, tuple(tau), i, j) == lifts.edge_sign(sigma, (i, j))


def unscaled_edge_signs(n, sigmas):
    """``{(sigma, i, j): sign}`` for every edge of each sigma, from u_sigma
    walked along the same reduced words (peel the smallest descent) with no
    scaling, straight from ``_gammas``."""
    gammas = _gammas(n)
    spinors = {tuple(range(n)): (1,) + (0,) * (len(gammas[0][0]) - 1)}

    def reflect(i, j, u):  # rho(e_i - e_j) u
        (si, gi), (sj, gj) = gammas[i], gammas[j]
        return tuple(a * u[p] - b * u[q] for p, a, q, b in zip(si, gi, sj, gj))

    def spinor(sigma):
        if sigma not in spinors:
            p = next(p for p in range(n - 1) if sigma[p] > sigma[p + 1])
            parent = sigma[:p] + (sigma[p + 1], sigma[p]) + sigma[p + 2 :]
            spinors[sigma] = reflect(p, p + 1, spinor(parent))
        return spinors[sigma]

    out = {}
    for sigma in sigmas:
        for i, j in itertools.combinations(range(n), 2):
            tau = list(sigma)
            tau[i], tau[j] = tau[j], tau[i]
            w, u = reflect(i, j, spinor(sigma)), spinor(tuple(tau))
            k = next(k for k, v in enumerate(u) if v)
            assert [u[k] * a for a in w] == [w[k] * b for b in u]
            out[sigma, i, j] = 1 if (w[k] > 0) == (u[k] > 0) else -1
    return out


def decoded(u, size):
    """The entries of a spinor ``(P, N)`` of ``_Spinors``: coordinate t is
    the 4-bit digit t of P less that of N."""
    p, q = u
    assert not (p | q) >> 4 * size
    return tuple((p >> 4 * t & 15) - (q >> 4 * t & 15) for t in range(size))


def assert_scaled_signs(n, count):
    """The scaled, shared table of ``_Spinors`` gives the signs of the
    unscaled walk on ``count`` seeded permutations, and every entry of the
    table is in {0, +-1}."""
    rng = random.Random(n)
    sigmas = {tuple(rng.sample(range(n), n)) for _ in range(count)}
    spinors = _Spinors(n)
    for (sigma, i, j), sign in unscaled_edge_signs(n, sigmas).items():
        tau = list(sigma)
        tau[i], tau[j] = tau[j], tau[i]
        assert spinors.edge_sign(sigma, tuple(tau), i, j) == sign, (sigma, i, j)
    size = 2 << n // 2
    assert all(set(decoded(u, size)) <= {-1, 0, 1} and not u[0] & u[1] for u in spinors._table.values())


def test_scaled_spinor_signs_at_n7():
    # the Clifford oracle stops at n = 6
    assert_scaled_signs(7, 2000)


@pytest.mark.parametrize("n,count", [(8, 100), (9, 50)])
def test_scaled_spinor_signs_at_n8_and_n9(n, count):
    assert_scaled_signs(n, count)


def test_flipped_gamma_sign_raises():
    """A sign flipped on one coordinate of one gamma breaks rho; walking
    every spinor and edge at n = 4 then raises ``Unsatisfiable`` for each of
    the 32 flips, and each of the three checks (a
    vanished spinor, a scaled entry outside {0, +-1}, a ratio other than +-1
    or +-2) fires for some flip."""
    n, seen = 4, set()
    for k, t in itertools.product(range(n), range(2 << n // 2)):
        spinors = _Spinors(n)
        swaps, negate = spinors._gammas[k]
        spinors._gammas[k] = (swaps, negate ^ 1 << 4 * t)
        with pytest.raises(Unsatisfiable) as err:
            for sigma in itertools.permutations(range(n)):
                for i, j in itertools.permutations(range(n), 2):
                    tau = list(sigma)
                    tau[i], tau[j] = tau[j], tau[i]
                    spinors.edge_sign(sigma, tuple(tau), i, j)
        seen.add(str(err.value).split(";")[0])
    assert seen == {
        "a spinor vanished",
        "a scaled spinor has an entry outside {0, +-1}",
        "Pin lift comparison failed",
    }


@pytest.mark.parametrize("name", ["unknot2", "trefoil5", "hopf4"])
def test_sign_table_equals_clifford(name, request):
    g = request.getfixturevalue(name)
    assert sign_table(build_sign_assignment(g)) == clifford_table(g)


@pytest.mark.parametrize("n", range(1, 10))
def test_gammas_satisfy_clifford_relations(n):
    """rho(e_k) rho(e_l) + rho(e_l) rho(e_k) = 2 delta_kl on every basis
    coordinate, and each rho(e_k) commutes with multiplication by i."""
    gammas = _gammas(n)
    size = len(gammas[0][0])

    def act(k, u):
        src, sgn = gammas[k]
        return tuple(s * u[p] for p, s in zip(src, sgn))

    def times_i(u):
        return tuple(v for b in range(0, size, 2) for v in (-u[b + 1], u[b]))

    for b in range(size):
        e = tuple(int(a == b) for a in range(size))
        for k, l in itertools.product(range(n), repeat=2):
            anti = [p + q for p, q in zip(act(k, act(l, e)), act(l, act(k, e)))]
            assert anti == [2 * v * (k == l) for v in e]
        for k in range(n):
            assert act(k, times_i(e)) == times_i(act(k, e))


@pytest.mark.parametrize(
    "n,o,x",
    [
        (2, (1, 0), (0, 1)),
        (3, (1, 2, 0), (0, 1, 2)),
        (3, (2, 0, 1), (0, 1, 2)),
        (4, (1, 2, 3, 0), (0, 1, 2, 3)),
        (4, (2, 3, 0, 1), (0, 1, 2, 3)),
        (4, (3, 2, 0, 1), (1, 0, 2, 3)),
    ],
)
def test_axioms_exhaustive(n, o, x):
    g = GridDiagram(n, o, x)
    rep = verify_axioms(g, build_sign_assignment(g))
    assert rep.ok, rep.violations[:3]


def test_n2_shape_census(unknot2, signs2):
    rep = verify_axioms(unknot2, signs2)
    assert rep.ok
    assert rep.shape_counts["annulus-horizontal"] == 2
    assert rep.shape_counts["annulus-vertical"] == 2
    assert sum(rep.shape_counts.values()) == 4


def test_total_on_all_rectangles(unknot3, signs3):
    table = sign_table(signs3)
    expected = sum(len(unknot3.rectangle_infos(x.sigma)) for x in unknot3.generators())
    assert len(table) == expected
    assert set(table.values()) <= {1, -1}


def test_signs_are_computed_not_stored(unknot3):
    s = build_sign_assignment(unknot3)
    table = sign_table(s)
    assert set(vars(s)) == {"diagram", "_spinors", "_inner"} and not s._inner
    key = next(iter(table))
    table[key] = -table[key]
    assert sign_table(s)[key] == -table[key]


def test_deterministic(unknot3):
    t1 = sign_table(build_sign_assignment(unknot3))
    t2 = sign_table(build_sign_assignment(unknot3))
    assert t1 == t2


class FlippedSigns:
    """The signs of a table, with the rectangle ``flipped`` negated."""

    def __init__(self, base: dict, flipped):
        self.base = base
        self.flipped = flipped

    def of(self, info) -> int:
        s = self.base[info.key]
        return -s if info.key == self.flipped else s


def test_flipped_rectangle_violates(unknot3, signs3):
    # flip one rectangle that occurs in some non-annulus index-2 domain
    base = sign_table(signs3)
    for key in sorted(base):
        rep = verify_axioms(unknot3, FlippedSigns(base, key))
        if not rep.ok:
            return
    pytest.fail("no single flip produced a violation")


def cell_shape(d, decomps) -> str:
    """The shape class of an index-2 domain read from its cells: the oracle
    for ``_classify``, which reads the rectangle records instead."""
    if d.max_multiplicity() > 1:
        return "cross"
    kind = d.annulus_kind()
    if kind:
        return "annulus-horizontal" if kind == "H" else "annulus-vertical"
    cols = {c for r1, r2, _ in decomps for c in r1.pair + r2.pair}
    return "disjoint" if len(cols) == 4 else "hexagon"


def grouped_by_whole_domain(g, s) -> AxiomReport:
    """``verify_axioms`` as it was first written: every composite r1*r2 of
    the grid built as a whole domain and grouped by ``GridDomain.key`` in one
    table, shape classes read from the domain's cells."""
    infos = {x.sigma: g.rectangle_infos(x.sigma) for x in g.generators()}
    groups: dict = {}
    for rects in infos.values():
        for r1 in rects:
            for r2 in infos[r1.to_sigma]:
                d = r1.domain(g).compose(r2.domain(g))
                groups.setdefault(d.key, (d, []))[1].append((r1, r2, s.of(r1) * s.of(r2)))
    shape_counts = {name: 0 for name in SHAPE_CLASSES}
    violations = []
    for d, decomps in groups.values():
        from_sigma, mult = d.from_sigma, d.mult
        shape = cell_shape(d, decomps)
        shape_counts[shape] += 1
        prods = [p for _, _, p in decomps]
        if shape == "annulus-horizontal":
            if len(decomps) != 1 or prods[0] != 1:
                violations.append((from_sigma, mult, "horizontal annulus", prods))
        elif shape == "annulus-vertical":
            if len(decomps) != 1 or prods[0] != -1:
                violations.append((from_sigma, mult, "vertical annulus", prods))
        elif len(decomps) != 2 or prods[0] != -prods[1]:
            violations.append((from_sigma, mult, shape, prods))
    return AxiomReport(checked=len(groups), shape_counts=shape_counts, violations=violations)


@pytest.mark.parametrize("name", ["hopf4", "trefoil5"])
def test_axioms_match_whole_domain_grouping(name, request):
    g = request.getfixturevalue(name)
    s = build_sign_assignment(g)
    assert verify_axioms(g, s) == grouped_by_whole_domain(g, s)


class ReversedRectangles(GridDiagram):
    """A diagram that lists each generator's rectangles in reverse order, so
    that ``verify_axioms`` meets the decompositions of every index-2 domain
    in reverse order too (it pairs r1 with r2 in the order of both lists)."""

    def rectangle_infos(self, sigma):
        return super().rectangle_infos(sigma)[::-1]


@pytest.mark.parametrize("name", ["hopf4", "trefoil5"])
def test_census_ignores_decomposition_order(name, request):
    g = request.getfixturevalue(name)
    rev = ReversedRectangles(g.n, g.o_row, g.x_row)
    forward = verify_axioms(g, build_sign_assignment(g))
    backward = verify_axioms(rev, build_sign_assignment(rev))
    assert forward.ok and backward.ok
    assert forward.shape_counts == backward.shape_counts
    assert forward.checked == backward.checked
    assert forward.shape_counts["hexagon"] > 0


def test_flipped_violations_match_whole_domain_grouping(unknot3, signs3):
    base = sign_table(signs3)
    broken = 0
    for key in sorted(base):
        s = FlippedSigns(base, key)
        rep = verify_axioms(unknot3, s)
        assert rep == grouped_by_whole_domain(unknot3, s)
        broken += not rep.ok
    assert broken


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_gauge_covariance(rnd):
    g = GridDiagram(3, (1, 2, 0), (0, 1, 2))
    s = build_sign_assignment(g)
    gauge = {x.sigma: rnd.choice((1, -1)) for x in g.generators()}
    rep = verify_axioms(g, GaugeTwist(s, gauge))
    assert rep.ok


def test_gauge_changes_preserve_homology_ranks(unknot3, signs3):
    spec = FlavorSpec.make(unknot3, "tilde")
    reference = build_complex(unknot3, signs3, spec, (0,)).homology().groups
    rng = random.Random(4)
    for _ in range(25):
        gauge = {x.sigma: rng.choice((1, -1)) for x in unknot3.generators()}
        got = build_complex(unknot3, GaugeTwist(signs3, gauge), spec, (0,)).homology().groups
        assert got == reference

