"""``reduce_complex`` against the reference Morse reduction.

``conftest.reference_reduce`` cancels in the same order on dict rows and
shares no code with the library, which must give the same reduced complex,
order included.
"""

import random

import pytest

from gridhom import cdp
from gridhom.gridcomplex import FlavorSpec, build_complex
from gridhom.homalg import reduce_complex
from conftest import reference_reduce


def ordered(reduced):
    """A reduced complex as lists that keep order."""
    return (
        list(reduced.grading.items()),
        [(k, list(col.items())) for k, col in reduced.diff.items()],
    )


def assert_matches_reference(cx):
    (got,) = reduce_complex(cx)
    want, _, _ = reference_reduce(cx)
    assert ordered(got) == ordered(want)
    return len(cx.grading) - len(got.grading)


@pytest.mark.parametrize(
    "grid, signs, flavor, alexander2",
    [("trefoil5", "signs5", "plus", 8), ("t25", "signs7", "hat", 2)],
)
def test_grid_slice(grid, signs, flavor, alexander2, request):
    g, s = request.getfixturevalue(grid), request.getfixturevalue(signs)
    cx = build_complex(g, s, FlavorSpec.make(g, flavor), (alexander2,))
    assert assert_matches_reference(cx)


def test_seeded_graded_pieces_trefoil5(trefoil5, signs5):
    rng = random.Random(21)
    gens = list(trefoil5.generators())
    cancelled = 0
    for _ in range(40):
        y = rng.choice(gens)
        a = tuple(rng.randint(0, 2) for _ in range(4))
        b = tuple(rng.randint(0, 2) for _ in range(4))
        cancelled += assert_matches_reference(cdp.graded_piece_complex(trefoil5, signs5, a, b, y))
    assert cancelled
