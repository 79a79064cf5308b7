"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
All expectations are exact integer tables; no tolerances are involved.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from gridhom import cdp, domainposet as dp, strata
from gridhom.gridcore import GridDiagram
from gridhom.signs import GaugeTwist, build_sign_assignment, verify_axioms
from gridhom.gridcomplex import FlavorSpec, build_complex
from gridhom.spectra import spectrum_report, wedge_decomposition
from conftest import plus_u_map


def report(number, ok, detail, elapsed):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) - {detail}"
    print(line)
    assert ok, line


def hat_tables(g, s, js):
    spec = FlavorSpec.make(g, "hat")
    return {j: build_complex(g, s, spec, (2 * j,)).homology().nonzero() for j in js}


def plus_tables(g, s, js):
    spec = FlavorSpec.make(g, "plus")
    return {j: build_complex(g, s, spec, (2 * j,)).homology() for j in js}


def test_criterion_1_trefoil_hat(trefoil5, signs5):
    t0 = time.perf_counter()
    tables = hat_tables(trefoil5, signs5, range(-3, 4))
    expected = {j: ({j - 1: (1, ())} if abs(j) <= 1 else {}) for j in range(-3, 4)}
    ok = tables == expected
    report(
        1,
        ok,
        "trefoil hat = {(-2,-1): 1, (-1,0): 1, (0,1): 1}, torsion-free, zero elsewhere",
        time.perf_counter() - t0,
    )


def test_criterion_2_trefoil_plus_wedges(trefoil5, signs5):
    t0 = time.perf_counter()
    tables = plus_tables(trefoil5, signs5, range(-3, 5))
    wedges = {j: wedge_decomposition(t) for j, t in tables.items()}
    ok = wedges[0].summands == [(-1, 1), (0, 1)]
    for j in (-1, 1, 2, 3, 4):
        ok = ok and wedges[j].summands == [(2 * j, 1)]
    for j in (-3, -2):
        ok = ok and wedges[j].summands == []
    report(
        2,
        ok,
        "trefoil plus: S^{2j} for j=-1 and 1<=j<=4, S^-1 v S^0 at j=0, trivial for j<=-2",
        time.perf_counter() - t0,
    )


def test_criterion_3_t25(t25, signs7):
    t0 = time.perf_counter()
    hats = hat_tables(t25, signs7, range(-3, 4))
    hat_expected = {j: ({j - 2: (1, ())} if abs(j) <= 2 else {}) for j in range(-3, 4)}
    ok = hats == hat_expected
    plus = plus_tables(t25, signs7, range(-3, 4))
    wedges = {j: wedge_decomposition(t) for j, t in plus.items()}
    ok = ok and plus[1].nonzero() == {-1: (1, ()), 2: (1, ())}
    ok = ok and not wedges[1].determined
    ok = ok and wedges[1].cone == "cone of a stable map S^1 -> S^-1"
    for j in (-2, 0, 2, 3):
        ok = ok and wedges[j].summands == [(2 * j, 1)]
    ok = ok and wedges[-1].summands == [(-3, 1), (-2, 1)]
    ok = ok and wedges[-3].summands == []
    report(
        3,
        ok,
        "T(2,5): hat = {(j-2,j): |j|<=2}; plus per the paper with the A=1 slice "
        "at Maslov -1 and 2 reported as an undetermined cone",
        time.perf_counter() - t0,
    )


def test_criterion_4_unknot(unknot2, signs2):
    t0 = time.perf_counter()
    hats = hat_tables(unknot2, signs2, range(-2, 3))
    ok = hats == {j: ({0: (1, ())} if j == 0 else {}) for j in range(-2, 3)}
    plus = plus_tables(unknot2, signs2, range(-1, 7))
    for j in range(-1, 7):
        want = {2 * j: (1, ())} if j >= 0 else {}
        ok = ok and plus[j].nonzero() == want
    for j in range(1, 7):
        res = plus_u_map(unknot2, signs2, 0, (2 * j,))
        grs = sorted(res.matrices)
        ok = ok and grs and all(res.is_isomorphism_at(gr) for gr in grs)
    report(
        4,
        ok,
        "unknot: hat = Z at (0,0); plus = Z at (2j,j) for 0<=j<=6; U isomorphisms on homology",
        time.perf_counter() - t0,
    )


def test_criterion_5_cdp_dagger():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3, 4):
        if n == 1:
            g, s = GridDiagram(1, (0,), (0,)), None
        else:
            g = GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n)))
            s = build_sign_assignment(g)
        table = cdp.build_cdp_dagger(g, s).homology()
        want = {k: (math.comb(n, k), ()) for k in range(n + 1)}
        ok = ok and table.groups == want
    report(5, ok, "CDP-dagger homology ranks = C(n,k) for n in {1,2,3,4}", time.perf_counter() - t0)


def test_criterion_6_sign_axioms(trefoil5, signs5, unknot3, signs3):
    t0 = time.perf_counter()
    ok = True
    grids = [
        GridDiagram(2, (1, 0), (0, 1)),
        GridDiagram(3, (1, 2, 0), (0, 1, 2)),
        GridDiagram(4, (1, 2, 3, 0), (0, 1, 2, 3)),
        GridDiagram(4, (2, 3, 0, 1), (0, 1, 2, 3)),
    ]
    for g in grids:
        ok = ok and verify_axioms(g, build_sign_assignment(g)).ok
    ok = ok and verify_axioms(trefoil5, signs5).ok  # n = 5, exhaustive
    # homology ranks invariant under 100 random gauge changes
    spec_t = FlavorSpec.make(unknot3, "tilde")
    spec_h = FlavorSpec.make(unknot3, "hat")
    ref_t = build_complex(unknot3, signs3, spec_t, (0,)).homology().groups
    ref_h = build_complex(unknot3, signs3, spec_h, (0,)).homology().groups
    rng = random.Random(2026)
    for _ in range(100):
        gauge = {x.sigma: rng.choice((1, -1)) for x in unknot3.generators()}
        tw = GaugeTwist(signs3, gauge)
        ok = ok and build_complex(unknot3, tw, spec_t, (0,)).homology().groups == ref_t
        ok = ok and build_complex(unknot3, tw, spec_h, (0,)).homology().groups == ref_h
    report(
        6,
        ok,
        "sign axioms exhaustive for n<=5; homology ranks invariant under 100 gauge changes",
        time.perf_counter() - t0,
    )


def test_criterion_7_cdp_identities():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        g = GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n)))
        s = build_sign_assignment(g)
        cc = cdp.ClosureComplex.build(s, cdp.curated_seeds(g))
        ok = ok and cc.complex.check_d_squared()
        ledger = cc.identity_ledger()
        ok = ok and len(ledger) == 9 and all(ledger.values())
    report(
        7,
        ok,
        "d^2 = 0 and the nine anticommutation identities on curated closures, n <= 4",
        time.perf_counter() - t0,
    )


def test_criterion_8_graded_acyclicity():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        g = GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n)))
        s = build_sign_assignment(g)
        x_id = tuple(range(n))
        for y in g.generators():
            for a in itertools.product(range(3), repeat=n - 1):
                for b in itertools.product(range(3), repeat=n - 1):
                    rep = cdp.graded_piece_acyclicity(g, s, a, b, y)
                    if not rep.ok:
                        ok = False
    report(
        8,
        ok,
        "CD^{a,b,y} acyclic for (a,b,y) != (0,0,Id), entries <= 2, n <= 4; Z for the trivial triple",
        time.perf_counter() - t0,
    )


def test_criterion_9_poset_bridge():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        g = GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n)))
        gens = list(g.generators())
        for x in gens:
            for y in gens:
                if dp.generator_leq(g, y, x) != dp.bruhat_leq(x.sigma, y.sigma):
                    ok = False
        x_id = g.generator(tuple(range(n)))
        for y in gens:
            for a in itertools.product(range(3), repeat=n - 1):
                for b in itertools.product(range(3), repeat=n - 1):
                    m = dp.g_minimum(g, a, b, y)
                    if dp.g_set(g, a, b, y) != dp.interval(g, m, x_id):
                        ok = False
    report(
        9,
        ok,
        "generator order = opposite Bruhat; G^{a,b,y} = [m^{a,b,y}, Id] exhaustively, n <= 4",
        time.perf_counter() - t0,
    )


def test_criterion_10_strata():
    t0 = time.perf_counter()
    ok = len(strata.zn_strata(2)) == 7
    for n in range(1, 9):
        ok = ok and sum(1 for s in strata.zn_strata(n) if s.codim_in(n) == 0) == n + 1
    for n in range(2, 7):
        ok = ok and len(strata.facets(n)) == 2**n - 2
        ok = ok and strata.check_facet_coherence(n)
    # the five one-dimensional families: codim-1 census == differential terms
    g = GridDiagram(3, (1, 2, 0), (0, 1, 2))
    s = build_sign_assignment(g)
    x_id = g.generator((0, 1, 2))
    zero_n, zero_lam = cdp.trivial_decoration(g)
    l_shape = None
    for x in g.generators():
        for r1, y in g.rectangles_from(x):
            for r2, z in g.rectangles_from(y):
                d = r1.compose(r2)
                if d.annulus_kind():
                    continue
                l_shape = d
                break
            if l_shape:
                break
        if l_shape:
            break
    rect, _ = g.rectangles_from(g.generator((1, 0, 2)))[0]
    families = [
        cdp.PartitionedDomain(l_shape, zero_n, zero_lam),
        cdp.PartitionedDomain(g.marking_annulus("H", 0, x_id), zero_n, zero_lam),
        cdp.PartitionedDomain(rect, (2, 0, 0), ((2,), (), ())),
        cdp.PartitionedDomain(g.trivial_domain(x_id), (1, 1, 0), ((1,), (1,), ())),
        cdp.PartitionedDomain(g.trivial_domain(x_id), (3, 0, 0), ((1, 2), (), ())),
    ]
    for t in families:
        descs = [
            d
            for d in strata.enumerate_strata(s, t.domain, t.n_vec, t.lambdas, 1)
            if d.codim == 1
        ]
        events = []
        for d in descs:
            events.extend(strata.codim1_boundary_events(d))
        if Counter(events) != Counter(cdp.differential_events(s, t)):
            ok = False
    report(
        10,
        ok,
        "Z_2 has 7 strata; codim-0 = N+1 (N<=8); Pi_n facets 2^n-2 and coherent (n<=6); "
        "five boundary censuses match the differential term-for-term",
        time.perf_counter() - t0,
    )
