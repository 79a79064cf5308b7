import heapq
import os
import sys
from collections import deque

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridhom import partitions as pt
from gridhom.cdp import cd_terms
from gridhom.gridcomplex import FlavorSpec, UMapResult, exact_below, generator_complex
from gridhom.gridcore import GridDiagram, load_grid
from gridhom.homalg import HomologyTable, IntegerChainComplex, chain_add, homology_with_bases
from gridhom.signs import build_sign_assignment

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def reference_reduce(cx):
    """The Morse reduction of ``cx`` with its homotopy equivalences:
    (reduced, iota, pi).  It shares no code with ``homalg.reduce_complex``
    and ignores any ``level``.  It cancels in the library's order (Markowitz
    priority |column| * |row| when an entry is queued, ties first in, first
    out) on insertion-ordered ``{column: None}`` rows.  Each ``iota`` step
    is a ``(b, factor)`` tuple, and ``pi`` replays a log of ``(a, b, pi(a))``
    dicts on cell ids."""
    keys = list(cx.grading)
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    cols: list = [None] * n
    rows: list = [None] * n
    read = []
    for k, col in cx.diff.items():
        if col:
            c = index[k]
            read.append(c)
            cols[c] = col = {index[r]: v for r, v in col.items()}
            for r in col:
                if rows[r] is None:
                    rows[r] = {c: None}
                else:
                    rows[r][c] = None
    buckets: dict = {}
    for c in read:
        col = cols[c]
        for r, v in col.items():
            if v == 1 or v == -1:
                p = len(col) * len(rows[r])
                bucket = buckets.get(p)
                if bucket is None:
                    buckets[p] = bucket = deque()
                bucket.extend((c, r))
    prios = list(buckets)
    heapq.heapify(prios)

    alive = [True] * n
    steps: list = [None] * n
    cancelled: list = []

    while prios:
        p = prios[0]
        bucket = buckets[p]
        b = bucket.popleft()
        a = bucket.popleft()
        if not bucket:
            heapq.heappop(prios)
            del buckets[p]
        if not (alive[a] and alive[b]):
            continue
        db = cols[b]
        u = db.get(a, 0)
        if u != 1 and u != -1:
            continue
        rest = [(r, v) for r, v in db.items() if r != a]
        for c in [c for c in rows[a] if c != b and alive[c]]:
            col = cols[c]
            factor = -col.pop(a) * u
            for r, v in rest:
                w = col.get(r, 0) + factor * v
                if w:
                    col[r] = w
                    row = rows[r]
                    row[c] = None
                    if w == 1 or w == -1:
                        p = len(col) * len(row)
                        bucket = buckets.get(p)
                        if bucket is None:
                            buckets[p] = deque((c, r))
                            heapq.heappush(prios, p)
                        else:
                            bucket.extend((c, r))
                else:
                    del col[r]
                    del rows[r][c]
            if steps[c] is None:
                steps[c] = [(b, factor)]
            else:
                steps[c].append((b, factor))
        cancelled.append((a, b, {r: -u * v for r, v in rest}))
        alive[a] = alive[b] = False
        cols[a] = cols[b] = rows[a] = None
        for c in rows[b] or ():
            if cols[c] is not None:
                cols[c].pop(b, None)
        rows[b] = None

    survivors = [i for i in range(n) if alive[i]]
    reduced = IntegerChainComplex(
        {keys[i]: cx.grading[keys[i]] for i in survivors},
        {keys[i]: {keys[r]: v for r, v in cols[i].items()} for i in survivors if cols[i]},
    )
    iota = {keys[i]: {keys[r]: v for r, v in chain.items()} for i, chain in reference_iota(survivors, steps).items()}

    def pi(chain):
        out = {index[k]: v for k, v in chain.items()}
        for a, b, pi_a in cancelled:
            mu = out.pop(a, 0)
            if mu:
                for r, v in pi_a.items():
                    w = out.get(r, 0) + mu * v
                    if w:
                        out[r] = w
                    else:
                        out.pop(r, None)
            out.pop(b, None)
        return {keys[i]: v for i, v in out.items()}

    return reduced, iota, pi


def reference_iota(survivors, steps):
    """``iota`` of the survivors: each cell plus ``factor * iota(b)`` for its
    steps in order, memoized in post-order."""
    done: dict = {}
    for s in survivors:
        stack = [s]
        while stack:
            c = stack[-1]
            todo = [b for b, _ in steps[c] or () if b not in done]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if c in done:
                continue
            chain = {c: 1}
            for b, factor in steps[c] or ():
                chain = chain_add(chain, done[b], factor)
            done[c] = chain
    return {s: done[s] for s in survivors}


def raw_slice(g, s, spec, alexander2, maslov_cap=None):
    """The slice as built, unreduced: its generator complex over Z[U]
    written out cell by cell, with no Morse reduction before it."""
    gens = generator_complex(g, s, spec, alexander2, maslov_cap)
    return gens.expand(gens.complex)


def raw_table(g, s, spec, alexander2, maslov_cap=None):
    """The homology of ``raw_slice`` in the gradings below
    ``top = exact_below(maslov_cap)``, read off its cells of grading
    <= ``top``, which is all those gradings need."""
    cx = raw_slice(g, s, spec, alexander2, maslov_cap)
    top = exact_below(maslov_cap)
    keep = {key: gr for key, gr in cx.grading.items() if gr <= top}
    table = IntegerChainComplex(keep, {key: col for key, col in cx.diff.items() if key in keep}).homology()
    return HomologyTable({k: v for k, v in table.groups.items() if k < top})


def reduced_slice(g, s, spec, alexander2, maslov_cap=None):
    """A directly built slice reduced by ``reference_reduce``, as
    ``(cells, iota, pi, bases)``: the grading of every built cell, the
    homotopy equivalences and the reduced complex's homology bases below
    ``exact_below(maslov_cap)``."""
    cx = raw_slice(g, s, spec, alexander2, maslov_cap)
    reduced, iota, pi = reference_reduce(cx)
    top = exact_below(maslov_cap)
    bases = {k: b for k, b in homology_with_bases(reduced).items() if k < top}
    return cx.grading, iota, pi, bases


def plus_u_map(g, s, marking, alexander2, maslov_cap=None):
    """U_marking from the plus slice ``alexander2`` (truncated at
    ``maslov_cap``) to the slice below it (truncated two gradings lower),
    both built directly and reduced by ``reference_reduce``: each free
    representative is lifted to the built cells by ``iota``, mapped by U
    and projected by the target's ``pi``.  It shares no reduction and no
    U map with the library."""
    spec = FlavorSpec.make(g, "plus")
    comp = g.component_of_o[marking]
    target = tuple(v - 2 if k == comp else v for k, v in enumerate(alexander2))
    _, iota, _, src_bases = reduced_slice(g, s, spec, tuple(alexander2), maslov_cap)
    cells, _, pi, dst_bases = reduced_slice(g, s, spec, target, None if maslov_cap is None else maslov_cap - 2)
    matrices = {}
    for gr, basis in src_bases.items():
        if not basis.free_reps:
            continue
        images = []
        for rep in basis.free_reps:
            lifted: dict = {}
            for rkey, rv in rep.items():
                lifted = chain_add(lifted, iota[rkey], rv)
            image = {}
            for (sigma, j), v in lifted.items():
                if j[marking]:
                    key = (sigma, j[:marking] + (j[marking] - 1,) + j[marking + 1 :])
                    assert key in cells, key
                    image[key] = v
            images.append(pi(image))
        target_basis = dst_bases.get(gr - 2)
        if target_basis is None:
            assert not any(images)
            matrices[gr] = []
        else:
            matrices[gr] = [list(row) for row in zip(*(target_basis.express(c) for c in images))]
    return UMapResult(HomologyTable.from_bases(src_bases), HomologyTable.from_bases(dst_bases), matrices)


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


def refines(lam, coarser) -> bool:
    """Whether the composition ``lam`` refines ``coarser``.

    Equal totals: ``lam`` concatenates compositions of the parts of
    ``coarser``.  For sum(lam) <= sum(coarser) the generalized relation
    holds when ``lam`` refines some composition eta of its own total with
    len(eta) = len(coarser) and eta <= coarser entrywise.
    """
    n, m = sum(lam), sum(coarser)
    if n == m:
        return pt.split_concatenation(lam, coarser) is not None
    # choose eta <= coarser entrywise with |eta| = n, parts >= 1, and recurse
    return n < m and any(
        refines(lam, eta) for eta in _bounded_compositions(n, [min(p, n) for p in coarser])
    )


def _bounded_compositions(n: int, bounds: list[int]):
    if not bounds:
        if n == 0:
            yield ()
        return
    for first in range(1, min(bounds[0], n) + 1):
        for rest in _bounded_compositions(n - first, bounds[1:]):
            yield (first,) + rest


def in_leq(lam, mu) -> bool:
    """I(lam) lies in the closure of I(mu) iff mu refines lam."""
    return refines(tuple(mu), tuple(lam))


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
