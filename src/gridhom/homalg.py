"""Finitely generated free chain complexes over Z, or over Z[U].

A complex is a basis (opaque hashable keys, each with an integer grading) and
a sparse differential lowering the grading by one.  Homology is computed by
first cancelling unit-coefficient pairs (algebraic Morse reduction, which
keeps integer homology on the nose and shrinks the grid complexes by orders
of magnitude) and then running Smith normal form on what is left.

A coefficient is a constant, stored as an int, or a ``UPoly``: a
polynomial of positive degree in commuting U variables over Z.  The
reduction takes the ints +-1, and nothing else, as units.  That suffices
for the grid complex over Z[U] because it is homogeneous: the entries
between two generators all have one U-degree, so an entry with a constant
term is a constant, and every update of the reduction keeps a constant an
int.  Cancelling a unit is Z[U]-linear, so the reduction commutes with
every U map, and with setting any U power to a number (``gridcomplex``
expands each Alexander slice off the reduced complex).

The reduction runs on integer cell ids numbered in insertion order.  Its
pivot rule is Markowitz's: each unit entry is queued with the product of its
column and row lengths at the time it is queued, the least product is
cancelled first, and equal products go first in, first out.  Rows keep their
columns in insertion order, so the order of cancellations, and with it every
basis and U-map matrix, follows the insertion order of the complex and never
the hashes of its keys.

The reduction tracks no homotopy equivalence.  Chain maps are pushed down
to homology through a filtration instead: a complex may carry a ``level``
that the differential never raises, and its reduction then cancels only
pairs of cells on one level (a unit entry joining two levels is never
queued), so it also reduces every quotient {level >= L}, and the projection
between two such quotients of the reduced complex is the map they induce
(see ``reduce_complex``).
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

Chain = dict  # key -> int coefficient


class NotAComplex(Exception):
    pass


def chain_add(a: Chain, b: Chain, scale: int = 1) -> Chain:
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + scale * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


class UPoly(dict):
    """A polynomial in commuting U variables over Z: exponent -> non-zero
    int coefficient.  An exponent is a non-negative int, and exponents
    multiply by addition, so a vector of U powers packed into fields wide
    enough never to carry is one exponent; 0 is the constant term.  A
    ``UPoly`` never equals an int, so a complex stores its constants as
    ints and its ``UPoly`` entries have positive degree.

    It is as much of a ring as ``reduce_complex`` uses: ``+``, ``*`` and
    unary ``-`` (with ints as constants), and truth (a sum that cancels is
    empty, so false)."""

    __slots__ = ()

    def __neg__(self) -> "UPoly":
        return UPoly({e: -c for e, c in self.items()})

    def __add__(self, other) -> "UPoly":
        out = UPoly(self)
        for e, c in (other.items() if isinstance(other, dict) else ((0, other),)):
            w = out.get(e, 0) + c
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "UPoly":
        out = UPoly()
        for e2, c2 in (other.items() if isinstance(other, dict) else ((0, other),)):
            for e1, c1 in self.items():
                e = e1 + e2
                w = out.get(e, 0) + c1 * c2
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)
        return out

    __rmul__ = __mul__


@dataclass
class IntegerChainComplex:
    """Graded free complex with sparse differential ``diff[key] = chain``,
    over Z (int coefficients) or over Z[U] (int constants and ``UPoly``
    entries of positive degree, each U of degree -2, so an entry need not
    join keys one grading apart).

    ``level``, if given, is a filtration: a function key -> int such that
    every entry ``r`` of ``diff[k]`` has ``level(r) <= level(k)``, so the
    cells with level < L span a subcomplex for every L.  Only
    ``reduce_complex`` reads it (and checks it); the reduced complex carries
    the same function."""

    grading: dict  # key -> int
    diff: dict  # key -> Chain (keys absent mean zero differential)
    level: Callable | None = None  # key -> int that d never raises

    def basis_at(self, k: int) -> list:
        return [key for key, g in self.grading.items() if g == k]

    def gradings(self) -> list[int]:
        return sorted(set(self.grading.values()))

    def apply(self, chain: Chain) -> Chain:
        out: Chain = {}
        for k, c in chain.items():
            for k2, c2 in self.diff.get(k, {}).items():
                w = out.get(k2, 0) + c * c2
                if w:
                    out[k2] = w
                else:
                    del out[k2]
        return out

    def check_d_squared(self) -> bool:
        for key in self.diff:
            if self.apply(self.diff[key]):
                return False
        return True

    def validate_grading(self) -> None:
        for key, col in self.diff.items():
            gk = self.grading[key]
            for key2 in col:
                if self.grading[key2] != gk - 1:
                    raise NotAComplex(f"differential does not lower grading by 1 at {key!r}")

    def homology(self) -> "HomologyTable":
        (reduced,) = reduce_complex(self)
        return HomologyTable.from_bases(homology_with_bases(reduced))


@dataclass
class HomologyTable:
    """Per grading: free rank and invariant torsion factors d1 | d2 | ..."""

    groups: dict  # grading -> (rank, tuple of torsion factors > 1)

    @staticmethod
    def from_bases(bases: dict) -> "HomologyTable":
        """The table of ``homology_with_bases``'s output, non-zero groups only."""
        return HomologyTable(
            {k: (len(b.free_reps), b.torsion) for k, b in bases.items() if b.free_reps or b.torsion}
        )

    def rank(self, k: int) -> int:
        return self.groups.get(k, (0, ()))[0]

    def torsion(self, k: int) -> tuple:
        return self.groups.get(k, (0, ()))[1]

    def is_torsion_free(self) -> bool:
        return all(not t for _, t in self.groups.values())

    def nonzero(self) -> dict:
        return {k: v for k, v in self.groups.items() if v[0] or v[1]}

    def to_json_obj(self) -> dict:
        """The non-zero groups as ``{str(k): {"rank": r, "torsion": [...]}}``."""
        return {str(k): {"rank": r, "torsion": list(t)} for k, (r, t) in sorted(self.nonzero().items())}


# -- Morse reduction -----------------------------------------------------------


def reduce_complex(cx: IntegerChainComplex) -> tuple[IntegerChainComplex]:
    """Cancel unit pivots; returns the one-element tuple ``(reduced,)``
    (the perfbench spans read the reduced complex as ``result[0]``).

    The coefficients are ints or ``UPoly``; a unit is an int +-1.  On a
    homogeneous complex over Z[U], such as the grid's generator complex,
    every entry with a constant term is an int, so no invertible entry is
    missed (see the module docstring); the result is a Z[U]-complex
    homotopy equivalent to ``cx``.

    The cells are numbered in ``cx.grading`` order and the reduction runs on
    those numbers; the key -> number index is freed once the columns are
    read.  Each row is a list of the columns that met it, in the order they
    met it; a column leaves the row when its entry there cancels to zero,
    but not when the column itself is cancelled, so a row still counts the
    columns that died after meeting it.  A unit entry
    ``d(b) = u*a + ...`` is queued when its column is read and whenever an
    update leaves it a unit, with the Markowitz priority
    |column of b| * |row of a| at that moment.  The least priority leaves
    first, ties first in, first out; an entry whose cells died or whose
    coefficient is no longer a unit is dropped when it leaves.  So the
    cancellation order depends only on the insertion order of ``cx.grading``
    and ``cx.diff``, never on hashes.

    On a complex with a ``level``, an entry that raises the level raises
    ``NotAComplex``, and a unit entry whose two cells lie on different
    levels is never queued (levels never change, so it could never
    cancel), so only pairs on one level cancel, in Markowitz order.  Each
    update then adds the column of a cell on the pivot's level to a column
    on that level or above, so the reduced complex is filtered by the same
    level, which it carries.  The
    cancellations on the levels >= L reduce the quotient {level >= L} on
    their own, so that quotient of the result is homotopy equivalent to
    that quotient of ``cx``, and each level of the result to that level of
    ``cx``.  The homotopy equivalences of the reduction commute with the
    projection that drops the cells below L, so the projection between two
    quotients of the result is the map between those quotients of ``cx``.
    """
    keys = list(cx.grading)
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    cols: list = [None] * n  # cell -> {row cell: coefficient}
    rows: list = [None] * n  # cell -> [column cells], in the order they met it
    read = []  # the columns in ``cx.diff`` order
    for k, col in cx.diff.items():
        if col:
            c = index[k]
            read.append(c)
            cols[c] = col = {index[r]: v for r, v in col.items()}
            for r in col:
                if rows[r] is None:
                    rows[r] = [c]
                else:
                    rows[r].append(c)
    del index
    lev = None  # cell -> its level, on a filtered complex
    if cx.level is not None:
        lev = [cx.level(k) for k in keys]
        for c in read:
            lc = lev[c]
            for r in cols[c]:
                if lev[r] > lc:
                    raise NotAComplex(f"the differential raises the level at {keys[c]!r}")
    # the queue: priority -> deque of the unit entries that join two cells on
    # one level, as flat column, row pairs, and a heap of the priorities that
    # have a deque
    buckets: dict = {}
    for c in read:
        col = cols[c]
        for r, v in col.items():
            if (v == 1 or v == -1) and (lev is None or lev[r] == lev[c]):
                p = len(col) * len(rows[r])
                bucket = buckets.get(p)
                if bucket is None:
                    buckets[p] = bucket = deque()
                bucket.extend((c, r))
    prios = list(buckets)
    heapq.heapify(prios)

    alive = [True] * n

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
        # cancel the pair (a, b): d(b) = u*a + rest; live columns meet live
        # rows only, so ``r in col`` exactly when ``c`` is in ``rows[r]``
        rest = [(r, v) for r, v in db.items() if r != a]
        for c in [c for c in rows[a] if c != b and alive[c]]:
            col = cols[c]
            factor = -col.pop(a) * u
            for r, v in rest:
                old = col.get(r)
                w = factor * v if old is None else old + factor * v
                if w:
                    col[r] = w
                    row = rows[r]
                    if old is None:
                        row.append(c)
                    if (w == 1 or w == -1) and (lev is None or lev[r] == lev[c]):
                        p = len(col) * len(row)
                        bucket = buckets.get(p)
                        if bucket is None:
                            buckets[p] = deque((c, r))
                            heapq.heappush(prios, p)
                        else:
                            bucket.extend((c, r))
                else:
                    del col[r]
                    rows[r].remove(c)
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
        cx.level,
    )
    return (reduced,)


# -- Smith normal form -----------------------------------------------------------


def smith_normal_form(mat: list[list[int]]):
    """Diagonalize an integer matrix: S = L * mat * R.

    Returns (diag, L, Linv, R, Rinv).  ``diag`` lists the invariant factors
    (non-negative, each dividing the next, zeros trailing implicitly for the
    full rank profile).
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [row[:] for row in mat]
    L = [[int(i == j) for j in range(m)] for i in range(m)]
    Linv = [[int(i == j) for j in range(m)] for i in range(m)]
    R = [[int(i == j) for j in range(n)] for i in range(n)]
    Rinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        L[i] = [x - q * y for x, y in zip(L[i], L[j])]
        for r in range(m):  # Linv column op: col_j += q * col_i
            Linv[r][j] += q * Linv[r][i]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            a[r][i] -= q * a[r][j]
        for r in range(n):
            R[r][i] -= q * R[r][j]
        Rinv[j] = [x + q * y for x, y in zip(Rinv[j], Rinv[i])]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        L[i], L[j] = L[j], L[i]
        for r in range(m):
            Linv[r][i], Linv[r][j] = Linv[r][j], Linv[r][i]

    def col_swap(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            R[r][i], R[r][j] = R[r][j], R[r][i]
        Rinv[i], Rinv[j] = Rinv[j], Rinv[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        L[i] = [-x for x in L[i]]
        for r in range(m):
            Linv[r][i] = -Linv[r][i]

    diag = []
    s = 0
    while True:
        pivot = None
        best = None
        for i in range(s, m):
            for j in range(s, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        row_swap(s, pivot[0])
        col_swap(s, pivot[1])
        if a[s][s] < 0:
            row_negate(s)
        while True:
            done = True
            for i in range(s + 1, m):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    row_op(i, s, q)
                    if a[i][s]:
                        row_swap(s, i)
                        if a[s][s] < 0:
                            row_negate(s)
                        done = False
            for j in range(s + 1, n):
                if a[s][j]:
                    q = a[s][j] // a[s][s]
                    col_op(j, s, q)
                    if a[s][j]:
                        col_swap(s, j)
                        if a[s][s] < 0:
                            row_negate(s)
                        done = False
            if not done:
                continue
            # pivot must divide the remaining block for d1 | d2 | ...
            offender = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if a[i][j] % a[s][s]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(s, offender, -1)  # fold the offending row in and redo
        diag.append(a[s][s])
        s += 1
    return diag, L, Linv, R, Rinv


# -- homology with distinguished bases ------------------------------------------


@dataclass
class GradedHomologyBasis:
    """Homology of one grading with cycle representatives.

    ``free_reps`` are cycles spanning the free part; ``express`` writes any
    cycle as coordinates over them modulo boundaries and torsion.
    """

    keys: list
    free_reps: list[Chain]
    torsion: tuple
    _rinv: list[list[int]] = field(repr=False, default_factory=list)
    _rank: int = 0
    _l2: list[list[int]] = field(repr=False, default_factory=list)
    _free_idx: list[int] = field(repr=False, default_factory=list)

    def express(self, chain: Chain) -> list[int]:
        """Coordinates of a cycle over the free basis (mod torsion/boundary)."""
        v = [chain.get(k, 0) for k in self.keys]
        if not self.keys:
            if chain:
                raise ValueError("chain not supported on this grading")
            return []
        coords = [sum(self._rinv[i][j] * v[j] for j in range(len(v))) for i in range(len(v))]
        for i in range(self._rank):
            if coords[i]:
                raise ValueError("chain is not a cycle")
        z = coords[self._rank :]
        q = [sum(self._l2[i][j] * z[j] for j in range(len(z))) for i in range(len(z))]
        # entries with d2 == 1 are boundaries; entries with d2 > 1 are torsion
        return [q[i] for i in self._free_idx]


def homology_with_bases(cx: IntegerChainComplex) -> dict[int, GradedHomologyBasis]:
    """Per-grading homology with explicit free-part cycle representatives."""
    cx.validate_grading()
    out: dict[int, GradedHomologyBasis] = {}
    gradings = cx.gradings()
    if not gradings:
        return out
    for k in range(min(gradings), max(gradings) + 1):
        keys = cx.basis_at(k)
        below = cx.basis_at(k - 1)
        above = cx.basis_at(k + 1)
        nk = len(keys)
        if nk == 0:
            out[k] = GradedHomologyBasis(keys=[], free_reps=[], torsion=())
            continue
        if below:
            bidx = {key: i for i, key in enumerate(below)}
            A = [[0] * nk for _ in below]
            for j, key in enumerate(keys):
                for key2, v in cx.diff.get(key, {}).items():
                    A[bidx[key2]][j] = v
        else:
            A = [[0] * nk]  # zero map
        diag, _, _, R, Rinv = smith_normal_form(A)
        rank = len(diag)
        kernel_cols = [[R[r][c] for r in range(nk)] for c in range(rank, nk)]
        m = len(kernel_cols)
        if above:
            B = []
            for key in above:
                col = cx.diff.get(key, {})
                v = [col.get(kk, 0) for kk in keys]
                w = [sum(Rinv[i][j] * v[j] for j in range(nk)) for i in range(nk)]
                B.append(w[rank:])
            Y = [[B[c][r] for c in range(len(above))] for r in range(m)]
        else:
            Y = [[0] for _ in range(m)] if m else []
        if m == 0:
            out[k] = GradedHomologyBasis(keys=keys, free_reps=[], torsion=(), _rinv=Rinv, _rank=rank)
            continue
        d2, L2, L2inv, _, _ = smith_normal_form(Y)
        # invariant factors are non-zero, so the free part is the tail
        free_idx = list(range(len(d2), m))
        tors = tuple(d for d in d2 if d > 1)
        # representative of quotient basis element i: kernel * L2inv[:, i]
        free_reps = []
        for i in free_idx:
            vec = [sum(kernel_cols[c][r] * L2inv[c][i] for c in range(m)) for r in range(nk)]
            rep = {keys[r]: vec[r] for r in range(nk) if vec[r]}
            free_reps.append(rep)
        out[k] = GradedHomologyBasis(
            keys=keys, free_reps=free_reps, torsion=tors, _rinv=Rinv, _rank=rank, _l2=L2, _free_idx=free_idx
        )
    return out
