import functools
import itertools
import random
from operator import add

import pytest

from gridhom import domainposet as dp
from gridhom.gridcore import GridDiagram, inversions
from conftest import recurrence_cells


def descents(sigma):
    return [p for p in range(len(sigma) - 1) if sigma[p] > sigma[p + 1]]


def _swap(sigma, p):
    out = list(sigma)
    out[p], out[p + 1] = out[p + 1], out[p]
    return tuple(out)


def reduced_words(sigma):
    """All reduced words (sequences of adjacent swap positions, applied left
    to right starting from the identity)."""
    if not inversions(sigma):
        return [()]
    out = []
    for p in descents(sigma):
        for word in reduced_words(_swap(sigma, p)):
            out.append(word + (p,))
    return out


def subword_bruhat_oracle(sigma, tau):
    """sigma <= tau iff some subword of a reduced word of tau is reduced for
    sigma; exhaustive over subwords (small n only)."""
    words = reduced_words(tau)
    if not words:
        return not inversions(sigma)
    word = words[0]
    target_len = inversions(sigma)
    n = len(sigma)
    for picks in itertools.combinations(range(len(word)), target_len):
        perm = tuple(range(n))
        ok = True
        for idx in picks:
            p = word[idx]
            perm = perm[:p] + (perm[p + 1], perm[p]) + perm[p + 2 :]
        if perm == sigma:
            return True
    return False


class TestBruhat:
    def test_identity_below_everything(self):
        for n in (2, 3, 4):
            ident = tuple(range(n))
            for sigma in itertools.permutations(range(n)):
                assert dp.bruhat_leq(ident, sigma)

    def test_length_is_inversions(self):
        for sigma in itertools.permutations(range(4)):
            words = reduced_words(sigma)
            assert {len(w) for w in words} == {inversions(sigma)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_subword_oracle(self, n):
        perms = list(itertools.permutations(range(n)))
        for sigma in perms:
            for tau in perms:
                assert dp.bruhat_leq(sigma, tau) == subword_bruhat_oracle(sigma, tau)


class TestGeneratorOrder:
    def test_opposite_bruhat(self, grid4):
        gens = list(grid4.generators())
        for x in gens:
            for y in gens:
                assert dp.generator_leq(grid4, y, x) == dp.bruhat_leq(x.sigma, y.sigma)

    def test_maximum(self, grid4):
        x_id = grid4.generator((0, 1, 2, 3))
        for x in grid4.generators():
            assert dp.generator_leq(grid4, x, x_id)

    def test_antisymmetry(self, grid4):
        gens = list(grid4.generators())
        for x in gens:
            for y in gens:
                if x.sigma != y.sigma:
                    assert not (
                        dp.generator_leq(grid4, y, x) and dp.generator_leq(grid4, x, y)
                    )


class TestReducedWordDecompositions:
    def test_words_give_width_one_decompositions(self, grid4):
        # P-3: reduced words correspond to width-one rectangle decompositions
        g = grid4
        x_id = g.generator((0, 1, 2, 3))
        for sigma in itertools.permutations(range(4)):
            d_sigma = zero_data_cells(g, x_id, g.generator(sigma))
            if min(d_sigma) < 0:
                continue
            for word in reduced_words(sigma):
                current = (0, 1, 2, 3)
                total = g.trivial_domain(x_id)
                ok = True
                for p in word:
                    info = next(
                        (
                            i
                            for i in g.rectangle_infos(current)
                            if i.pair == (p, p + 1) and i.width == 1
                        ),
                        None,
                    )
                    if info is None:
                        ok = False
                        break
                    rect = info.domain(g)
                    assert not any(rect.a_vec) and not any(rect.b_vec)
                    total = total.compose(rect)
                    current = info.to_sigma
                assert ok
                assert total.mult == d_sigma and total.to_sigma == sigma

    def test_p6_geometric_criterion(self, grid4):
        for sigma in itertools.permutations(range(4)):
            words = reduced_words(sigma)
            for p in range(3):
                brute = any(w and w[-1] == p for w in words)
                # a descent at p is the letter ``_Spinors.spinor`` peels last
                assert brute == (sigma[p] > sigma[p + 1])


def witness_records(g, a, b, y_sigma):
    """``(kind, omega, tau, info)`` for each A- and B-witness rectangle into
    y, read from ``rectangle_infos_into`` as ``g_minimum`` defines them: an
    A-witness has a non-zero ``a_vec <= a``, with omega the annuli from its
    left edge to the last column and tau its width; a B-witness the same
    with ``b_vec``, rows and height."""
    n, out = g.n, []
    for info in g.rectangle_infos_into(y_sigma):
        if any(info.a_vec) and all(v <= m for v, m in zip(info.a_vec, a)):
            out.append(("A", (n - 1 - info.col0) % n, info.width, info))
        if any(info.b_vec) and all(v <= m for v, m in zip(info.b_vec, b)):
            out.append(("B", (n - 1 - info.row0) % n, info.height, info))
    return out


def minimal_witness_record(g, a, b, y_sigma):
    """The A-witness record with the least (omega, tau), else the least
    B-witness record, else None."""
    records = witness_records(g, a, b, y_sigma)
    for kind in "AB":
        pool = [w for w in records if w[0] == kind]
        if pool:
            return min(pool, key=lambda w: w[1:3])
    return None


class TestWitnesses:
    def test_zero_triple_has_no_witness(self, unknot3):
        for y in unknot3.generators():
            assert witness_records(unknot3, (0, 0), (0, 0), y.sigma) == []

    def test_minimizer_unique(self, grid4):
        rng = random.Random(2)
        gens = list(grid4.generators())
        for _ in range(60):
            y = rng.choice(gens)
            a = tuple(rng.randint(0, 2) for _ in range(3))
            b = tuple(rng.randint(0, 2) for _ in range(3))
            ws = witness_records(grid4, a, b, y.sigma)
            for kind in ("A", "B"):
                pool = sorted((omega, tau) for k, omega, tau, _ in ws if k == kind)
                if pool:
                    assert pool.count(pool[0]) == 1

    def test_witness_bounds(self, grid4):
        rng = random.Random(6)
        gens = list(grid4.generators())
        for _ in range(40):
            y = rng.choice(gens)
            a = tuple(rng.randint(0, 2) for _ in range(3))
            b = tuple(rng.randint(0, 2) for _ in range(3))
            w = minimal_witness_record(grid4, a, b, y.sigma)
            if w is None:
                continue
            kind, omega, tau, rect = w
            vec = rect.a_vec if kind == "A" else rect.b_vec
            bound = a if kind == "A" else b
            assert any(vec)
            assert all(v <= m for v, m in zip(vec, bound))
            assert omega >= 0 and tau >= 1


class TestMinimum:
    def test_base_case(self, unknot3):
        for y in unknot3.generators():
            assert dp.g_minimum(unknot3, (0, 0), (0, 0), y).sigma == y.sigma

    def test_equals_identity_iff_trivial_triple(self, unknot3):
        x_id = (0, 1, 2)
        for y in unknot3.generators():
            for a in itertools.product(range(2), repeat=2):
                for b in itertools.product(range(2), repeat=2):
                    m = dp.g_minimum(unknot3, a, b, y)
                    trivial = not any(a) and not any(b) and y.sigma == x_id
                    assert (m.sigma == x_id) == trivial

    def test_interval_law_exhaustive_n3(self, unknot3):
        x_id = unknot3.generator((0, 1, 2))
        for y in unknot3.generators():
            for a in itertools.product(range(3), repeat=2):
                for b in itertools.product(range(3), repeat=2):
                    m = dp.g_minimum(unknot3, a, b, y)
                    assert dp.g_set(unknot3, a, b, y) == dp.interval(unknot3, m, x_id)

    def test_upward_closed(self, unknot3):
        rng = random.Random(10)
        gens = list(unknot3.generators())
        for _ in range(40):
            y = rng.choice(gens)
            a = tuple(rng.randint(0, 2) for _ in range(2))
            b = tuple(rng.randint(0, 2) for _ in range(2))
            members = dp.g_set(unknot3, a, b, y)
            for sig in members:
                x = unknot3.generator(sig)
                for z in gens:
                    if dp.generator_leq(unknot3, x, z):
                        assert z.sigma in members


@functools.cache
def zero_data_cells(g, x, y):
    """The cells of the zero-data domain from x to y, by the test-local
    recurrence; memoized here only, so that the oracles below build each
    pair's cells once."""
    zero = (0,) * (g.n - 1)
    return recurrence_cells(g.n, x.sigma, y.sigma, zero, zero)


def brute_g_set(g, a, b, y):
    """G^{a,b,y} by testing every x: the zero-data domain plus the periodic
    domain with data (a, b) must be positive on every cell."""
    periodic = recurrence_cells(g.n, y.sigma, y.sigma, tuple(a), tuple(b))
    return {x.sigma for x in g.generators() if min(map(add, zero_data_cells(g, x, y), periodic)) >= 0}


def walked_interval(g, lo, hi):
    """[lo, hi] by walking all n! generators, with the order read from the
    positivity of zero-data domains built by the recurrence."""
    return {
        z.sigma
        for z in g.generators()
        if min(zero_data_cells(g, z, lo)) >= 0 and min(zero_data_cells(g, hi, z)) >= 0
    }


class TestQuadrantOrderOracle:
    @pytest.mark.parametrize("name", ["hopf4", "trefoil5"])
    def test_leq_is_zero_data_positivity(self, name, request):
        g = request.getfixturevalue(name)
        gens = list(g.generators())
        for x in gens:
            for y in gens:
                assert dp.generator_leq(g, y, x) == (min(zero_data_cells(g, x, y)) >= 0)

    def test_trefoil5_interval_against_walk(self, trefoil5):
        g = trefoil5
        gens = list(g.generators())
        x_id = g.generator(tuple(range(g.n)))
        # every (a, b) with entries at most 1, paired with the generators in
        # turn, as in TestGSetOracle; then a seeded sample of (lo, hi)
        vecs = list(itertools.product(range(2), repeat=4))
        minima = {
            dp.g_minimum(g, a, b, gens[k % len(gens)]).sigma
            for k, (a, b) in enumerate(itertools.product(vecs, vecs))
        }
        pairs = [(g.generator(m), x_id) for m in sorted(minima)]
        rng = random.Random(15)
        pairs += [(rng.choice(gens), rng.choice(gens)) for _ in range(200)]
        for lo, hi in pairs:
            assert dp.interval(g, lo, hi) == walked_interval(g, lo, hi)


class TestGSetOracle:
    def test_unknot3_all_triples(self, unknot3):
        vecs = list(itertools.product(range(2), repeat=2))
        for y in unknot3.generators():
            for a in vecs:
                for b in vecs:
                    assert dp.g_set(unknot3, a, b, y) == brute_g_set(unknot3, a, b, y)

    def test_trefoil5_every_pair_and_generator(self, trefoil5):
        # every (a, b) with entries at most 1, paired with the generators in
        # turn so that each y occurs too (the full product takes too long)
        vecs = list(itertools.product(range(2), repeat=4))
        gens = list(trefoil5.generators())
        for k, (a, b) in enumerate(itertools.product(vecs, vecs)):
            y = gens[k % len(gens)]
            assert dp.g_set(trefoil5, a, b, y) == brute_g_set(trefoil5, a, b, y)
