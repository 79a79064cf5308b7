import random

import pytest
from hypothesis import given, settings, strategies as st

from gridhom.gridcore import GridDiagram
from gridhom.signs import GaugeTwist, SignAssignment, build_sign_assignment, verify_axioms
from gridhom.gridcomplex import FlavorSpec, build_complex


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
    table = signs3.table()
    expected = sum(len(unknot3.rectangle_infos(x.sigma)) for x in unknot3.generators())
    assert len(table) == expected
    assert set(table.values()) <= {1, -1}


def test_deterministic(unknot3):
    t1 = build_sign_assignment(unknot3).table()
    t2 = build_sign_assignment(unknot3).table()
    assert t1 == t2


def test_flipped_rectangle_violates(unknot3, signs3):
    # flip one rectangle that occurs in some non-annulus index-2 domain
    base = dict(signs3.table())
    for key in sorted(base):
        twisted = SignAssignment(unknot3)
        twisted._cache = dict(base)
        twisted._cache[key] = -twisted._cache[key]
        rep = verify_axioms(unknot3, twisted)
        if not rep.ok:
            return
    pytest.fail("no single flip produced a violation")


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

