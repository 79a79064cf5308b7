"""The Morse reduction on real grid slices.

Its cancellation order depends only on the insertion order of the complex:
relabelling the cells by an order-preserving bijection, to ints or to
objects with another hash, gives the same reduced complex once mapped
back, with or without a level.  On two levelled slices the reduction is
compared with a stored one, which pins the order itself.  On the trefoil
slice the reference reduction's ``iota`` and ``pi`` are also checked to be
chain homotopy data.
"""

import json

import pytest

from gridhom.gridcomplex import FlavorSpec, build_complex
from gridhom.homalg import IntegerChainComplex, reduce_complex
from conftest import fixture_path, raw_slice, reference_reduce


class Label:
    """A cell key wrapped so that it hashes differently from the key."""

    __slots__ = ("key", "_hash")

    def __init__(self, key):
        self.key = key
        self._hash = hash((key, "relabelled"))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Label) and self.key == other.key


def relabel(cx, new):
    """``cx`` with every key ``k`` replaced by ``new[k]``, keeping every
    insertion order (cells, columns and the entries of each column) and
    the level of each cell."""
    old = {v: k for k, v in new.items()}
    level = None if cx.level is None else lambda key: cx.level(old[key])
    return IntegerChainComplex(
        {new[k]: g for k, g in cx.grading.items()},
        {new[k]: {new[r]: v for r, v in col.items()} for k, col in cx.diff.items()},
        level,
    )


def map_chain(chain, old):
    return {old[k]: v for k, v in chain.items()}


def reduction_image(cx, new, old):
    """The reduction of ``cx`` relabelled by ``new``, mapped back by ``old``:
    reduced cells and columns in order."""
    (red,) = reduce_complex(relabel(cx, new))
    return {
        "grading": [(old[k], g) for k, g in red.grading.items()],
        "diff": [(old[k], list(map_chain(col, old).items())) for k, col in red.diff.items()],
    }


@pytest.fixture(scope="module")
def trefoil_plus_8(trefoil5, signs5):
    return build_complex(trefoil5, signs5, FlavorSpec.make(trefoil5, "plus"), (8,))


@pytest.fixture(scope="module")
def t25_hat_2(t25, signs7):
    return build_complex(t25, signs7, FlavorSpec.make(t25, "hat"), (2,))


@pytest.fixture(scope="module")
def trefoil_plus_10_levelled(trefoil5, signs5):
    """The plus slice 2A = 10 with the level j_0, as ``slice_tower`` reduces
    it; some of its unit entries join two levels, so they never cancel."""
    cx = build_complex(trefoil5, signs5, FlavorSpec.make(trefoil5, "plus"), (10,))
    assert any(v in (1, -1) and r[1][0] != k[1][0] for k, col in cx.diff.items() for r, v in col.items())
    return IntegerChainComplex(cx.grading, cx.diff, lambda key: key[1][0])


@pytest.fixture(scope="module")
def trefoil_hat_4_raw_levelled(trefoil5, signs5):
    """The hat slice 2A = 4 as built, with no reduction over Z[U] before it,
    with the level j_1: far more cancellations than on a reduced slice, so
    a changed order on a levelled complex shows in its survivors."""
    cx = raw_slice(trefoil5, signs5, FlavorSpec.make(trefoil5, "hat"), (4,))
    return IntegerChainComplex(cx.grading, cx.diff, lambda key: key[1][1])


@pytest.mark.parametrize("slice_name", ["trefoil_plus_8", "t25_hat_2", "trefoil_plus_10_levelled"])
def test_order_does_not_depend_on_hashes(slice_name, request):
    cx = request.getfixturevalue(slice_name)
    same = {k: k for k in cx.grading}
    want = reduction_image(cx, same, same)
    assert want["grading"]
    for new in ({k: i for i, k in enumerate(cx.grading)}, {k: Label(k) for k in cx.grading}):
        old = {v: k for k, v in new.items()}
        assert reduction_image(cx, new, old) == want


@pytest.mark.parametrize("slice_name", ["trefoil_plus_10_levelled", "trefoil_hat_4_raw_levelled"])
def test_levelled_order_matches_stored(slice_name, request):
    """The reduction of a levelled slice, its survivors, their gradings and
    each column's entries in order, equals the one stored when the order
    was last changed on purpose.  The spectrum and u-map goldens keep too
    few survivors to see a changed order on a levelled complex."""
    cx = request.getfixturevalue(slice_name)
    same = {k: k for k in cx.grading}
    got = json.loads(json.dumps(reduction_image(cx, same, same)))
    with open(fixture_path(f"expected/reduce_order_{slice_name}.json")) as f:
        assert got == json.load(f)


def test_iota_pi_on_a_grid_slice(trefoil_plus_8):
    cx = trefoil_plus_8
    red, iota, pi = reference_reduce(cx)
    assert set(iota) == set(red.grading)
    for k in red.grading:
        # d o iota == iota o d'
        right = {}
        for k2, v in red.diff.get(k, {}).items():
            for k3, v3 in iota[k2].items():
                right[k3] = right.get(k3, 0) + v * v3
        assert cx.apply(iota[k]) == {k3: v for k3, v in right.items() if v}
        # pi o iota == id
        assert pi(iota[k]) == {k: 1}
