import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridhom import partitions as pt
from gridhom.cdp import cd_terms
from gridhom.gridcomplex import FlavorSpec, ReducedSlice, build_complex, u_map
from gridhom.gridcore import GridDiagram, load_grid
from gridhom.homalg import IntegerChainComplex
from gridhom.signs import build_sign_assignment

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def reduced_slice(g, s, spec, alexander2, maslov_cap=None):
    """The ``ReducedSlice`` of a directly built slice."""
    return ReducedSlice.reduce(build_complex(g, s, spec, alexander2, maslov_cap), spec, alexander2, maslov_cap)


def plus_u_map(g, s, marking, alexander2, maslov_cap=None):
    """U_marking from the plus slice ``alexander2`` (truncated at
    ``maslov_cap``) to the slice below it (truncated two gradings lower),
    both built directly."""
    spec = FlavorSpec.make(g, "plus")
    comp = g.component_of_o[marking]
    target = tuple(v - 2 if k == comp else v for k, v in enumerate(alexander2))
    src = reduced_slice(g, s, spec, tuple(alexander2), maslov_cap)
    dst = reduced_slice(g, s, spec, target, None if maslov_cap is None else maslov_cap - 2)
    return u_map(src, dst, marking)


class NotAFiltration(Exception):
    pass


def associated_graded(cx, filtration):
    """``cx`` split into filtration-level pieces.

    ``filtration`` maps basis keys to values; the differential must not
    raise the value (compared with ``<=``).  The returned complexes keep
    only the level-preserving part of ``diff``.
    """
    levels: dict = {}
    for key in cx.grading:
        levels.setdefault(filtration(key), []).append(key)
    for key, col in cx.diff.items():
        fv = filtration(key)
        for key2 in col:
            if not filtration(key2) <= fv:
                raise NotAFiltration(f"differential raises filtration at {key!r} -> {key2!r}")
    out = []
    for value, keys in sorted(levels.items(), key=lambda kv: repr(kv[0])):
        grading = {k: cx.grading[k] for k in keys}
        diff = {}
        for k in keys:
            col = {k2: c for k2, c in cx.diff.get(k, {}).items() if filtration(k2) == value}
            if col:
                diff[k] = col
        out.append(IntegerChainComplex(grading, diff))
    return out


def total_rank(table):
    """The sum of the free ranks of a ``HomologyTable``."""
    return sum(r for r, _ in table.groups.values())


def in_strata(n: int) -> list[tuple[int, ...]]:
    """Strata of Sym^N(R)/R: one per composition of N."""
    return list(pt.all_compositions(n))


def in_leq(lam, mu) -> bool:
    """I(lam) lies in the closure of I(mu) iff mu refines lam."""
    return pt.refines(tuple(mu), tuple(lam))


def cd_differential(s, D):
    """The CD differential of the domain ``D``: ``cd_terms`` summed by
    target, as (coefficient, domain) pairs with non-zero coefficients."""
    out: dict = {}
    for _, coeff, E in cd_terms(s, D):
        cur, _ = out.get(E.key, (0, E))
        out[E.key] = (cur + coeff, E)
    return [(c, E) for c, E in out.values() if c]


def hypercube_piece(n_j: int) -> IntegerChainComplex:
    """Compositions of N_j with the signed elementary-coarsening differential."""
    grading = {lam: len(lam) for lam in pt.all_compositions(n_j)}
    diff: dict = {}
    for lam in grading:
        col: dict = {}
        for lam2, sgn in pt.elementary_coarsenings(lam):
            col[lam2] = col.get(lam2, 0) + sgn
        col = {k: v for k, v in col.items() if v}
        if col:
            diff[lam] = col
    return IntegerChainComplex(grading, diff)


def recurrence_cells(n, x_sigma, y_sigma, a, b):
    """The cells of the 2-chain from x to y with last-column/top-row data
    (a, b), at index ``c*n + r``, by the corner recurrence: the last column
    and the top row are the data (the top-right cell 0), and each other cell
    follows from the corner defect at its top-right corner, +1 at a point of
    x and -1 at a point of y.  It shares no code with the quadrant form of
    ``GridDomain.mult``, which the oracles check against it."""
    xs, ys = set(enumerate(x_sigma)), set(enumerate(y_sigma))
    m = [0] * (n * n)
    m[(n - 1) * n : n * n - 1] = a
    m[n - 1 : n * n - 1 : n] = b
    for c in range(n - 2, -1, -1):
        for r in range(n - 2, -1, -1):
            i = c * n + r
            corner = ((c + 1, r + 1) in xs) - ((c + 1, r + 1) in ys)
            m[i] = corner - m[i + n + 1] + m[i + 1] + m[i + n]
    return tuple(m)


def meets_boundary_condition(n, x_sigma, y_sigma, cells):
    """Whether every corner defect of the cells is +1 at a point of x, -1 at
    a point of y and 0 elsewhere, the wrapping corners included."""
    xs, ys = set(enumerate(x_sigma)), set(enumerate(y_sigma))
    for u in range(n):
        left = (u - 1) % n * n
        for v in range(n):
            below = (v - 1) % n
            d = cells[u * n + v] + cells[left + below] - cells[left + v] - cells[u * n + below]
            if d != ((u, v) in xs) - ((u, v) in ys):
                return False
    return True


@pytest.fixture(scope="session")
def unknot2():
    return GridDiagram(2, (1, 0), (0, 1))


@pytest.fixture(scope="session")
def unknot3():
    return GridDiagram(3, (1, 2, 0), (0, 1, 2))


@pytest.fixture(scope="session")
def grid4():
    return GridDiagram(4, (1, 2, 3, 0), (0, 1, 2, 3))


@pytest.fixture(scope="session")
def hopf4():
    return load_grid(fixture_path("hopf4.grid"))


@pytest.fixture(scope="session")
def trefoil5():
    return load_grid(fixture_path("trefoil5.grid"))


@pytest.fixture(scope="session")
def t25():
    return load_grid(fixture_path("t25.grid"))


@pytest.fixture(scope="session")
def signs2(unknot2):
    return build_sign_assignment(unknot2)


@pytest.fixture(scope="session")
def signs3(unknot3):
    return build_sign_assignment(unknot3)


@pytest.fixture(scope="session")
def signs4(grid4):
    return build_sign_assignment(grid4)


@pytest.fixture(scope="session")
def signs_hopf(hopf4):
    return build_sign_assignment(hopf4)


@pytest.fixture(scope="session")
def signs5(trefoil5):
    return build_sign_assignment(trefoil5)


@pytest.fixture(scope="session")
def signs7(t25):
    return build_sign_assignment(t25)
