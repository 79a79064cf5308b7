"""Grid diagram data model.

A grid diagram of index ``n`` lives on the torus obtained from ``[0,n]^2``.
Internally everything is 0-indexed:

* columns ``c`` and rows ``r`` run over ``0..n-1``; the square cell ``(c, r)``
  is ``[c, c+1] x [r, r+1]``;
* ``o_row[c]`` / ``x_row[c]`` give the row of the O / X marking in column ``c``;
* a generator is a permutation ``sigma`` with one coordinate ``(i, sigma[i])``
  on each vertical circle ``x = i``.

The file format and all public examples are 1-indexed; translation happens at
the parsing layer.

Markings are indexed by their column: ``O_j`` is the O in column ``j``, and the
annuli ``H_j`` / ``V_j`` are the row and column through ``O_j``.  The marking
``X_{n-1}`` (0-indexed column ``n-1``) sits in the top-right cell
``(n-1, n-1)`` after canonicalization, and every domain handled by this
package has coefficient zero there.

Gradings are point counts against marking sets, each a sum of one look-up per
column in tables built once per diagram (``_MarkingTable``).  A generator is
graded on every ``generator`` call and kept by no one here.  The doubled
Alexander grading of each component is a sum of one table entry per column,
so ``generators(lo, hi)`` walks only the permutations within its bounds.

Empty rectangles are ``RectInfo`` records, found in O(n^2) per generator by
one sweep for both directions (``GridDiagram._sweep``) and built afresh on
every call: the diagram keeps their box data, not the records.

A domain from x to y is pinned by its ends and its data in the last column
and the top row (``GridDomain``): with ``Q_z(c, r) = #{i > c : z_i > r}``,
the points of z strictly up and to the right of the cell, its multiplicity on
cell ``(c, r)`` is ``Q_x(c, r) - Q_y(c, r) + a[r] + b[c]`` (Manolescu,
Ozsvath and Sarkar, arXiv:math/0607691).  Composing and splitting domains adds
and subtracts data; the ``n*n`` cells (``GridDomain.mult``, column-major, the
cell ``(c, r)`` at index ``c*n + r``) are worked out only where they are read.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, getitem, le, sub
from typing import NamedTuple

Perm = tuple[int, ...]


class GridError(Exception):
    """Base class for errors raised by this package."""


class InvalidGrid(GridError):
    """Marking data does not describe a grid diagram."""


class EndpointMismatch(GridError):
    """Attempt to compose domains whose endpoints do not match."""


class _MarkingTable(NamedTuple):
    """Point counts against one marking set P, by column.

    ``I(A, B)`` counts the pairs (a, b) with a strictly below-left of b, for
    generator points at lattice points and markings at cell centres, and
    ``M_P(x) = I(x, x) - I(x, P) - I(P, x) + I(P, P) + 1``.  The point (i, v)
    is below-left of the marking in cell (c, r) iff i <= c and v <= r, and
    above-right of it iff i > c and v > r, so ``I(x, P) = sum_i above[i][x_i]``
    and ``I(P, x) = sum_i below[i][x_i]``; ``I(x, x) = #{i < j : x_i < x_j}``.
    """

    above: tuple[tuple[int, ...], ...]  # [i][v]: markings (c, r) with c >= i and r >= v
    below: tuple[tuple[int, ...], ...]  # [i][v]: markings (c, r) with c < i and r < v
    inner: int  # I(P, P)

    @staticmethod
    def of(n: int, cells: list[tuple[int, int]]) -> "_MarkingTable":
        return _MarkingTable(
            tuple(tuple(sum(c >= i and r >= v for c, r in cells) for v in range(n)) for i in range(n)),
            tuple(tuple(sum(c < i and r < v for c, r in cells) for v in range(n)) for i in range(n)),
            sum(c < d and r < s for c, r in cells for d, s in cells),
        )

    def crossings(self, sigma: Perm) -> int:
        """``I(x, P) + I(P, x)`` for x = x^sigma."""
        return sum(map(getitem, self.above, sigma)) + sum(map(getitem, self.below, sigma))


def inversions(sigma: Perm) -> int:
    """``#{i < j : sigma[i] > sigma[j]}``: for each value, the smaller
    values to its right, counted in a bit set of the values seen."""
    seen = count = 0
    for v in reversed(sigma):
        count += (seen & (1 << v) - 1).bit_count()
        seen |= 1 << v
    return count


def quadrant_counts(sigma: Perm) -> list[int]:
    """``Q(c, r) = #{i > c : sigma[i] > r}`` at index ``c*n + r``."""
    n = len(sigma)
    out = [0] * (n * n)
    for c in range(n - 2, -1, -1):
        v = sigma[c + 1]
        base = c * n
        for r in range(n):
            out[base + r] = out[base + n + r] + (v > r)
    return out


def columns_within(n: int, lo: list[int], hi: list[int]) -> list[Perm]:
    """Each permutation w with ``lo[i] <= Q_w(c, r) <= hi[i]`` on every cell
    ``i = c*n + r`` (``Q_w`` as in ``quadrant_counts``), in lexicographic
    order of ``w[n-1], w[n-2], ..., w[0]``.

    Column c of ``Q_w`` depends only on the values ``w[c+1..n-1]``, so w is
    placed from the last column down and a partial permutation is dropped as
    soon as the column it fixes leaves its bounds.
    """
    lows = [lo[c * n : (c + 1) * n] for c in range(n)]
    highs = [hi[c * n : (c + 1) * n] for c in range(n)]
    steps = [[int(v > r) for r in range(n)] for v in range(n)]  # steps[v][r]: Q gains v > r
    out: list[Perm] = []
    w = [0] * n
    free = list(range(n))  # ascending

    def place(c: int, q: list[int]) -> None:
        if not (all(map(le, lows[c], q)) and all(map(le, q, highs[c]))):
            return
        if c == 0:
            w[0] = free[0]
            out.append(tuple(w))
            return
        for k, v in enumerate(free):
            w[c] = v
            del free[k]
            place(c - 1, list(map(add, q, steps[v])))
            free.insert(k, v)

    place(n - 1, [0] * n)
    return out


@dataclass(frozen=True)
class Generator:
    """A generator x^sigma with its gradings.

    ``alexander2`` stores the doubled Alexander multi-grading (one entry per
    link component), so half-integers stay exact.
    """

    sigma: Perm
    maslov: int
    alexander2: tuple[int, ...]


@dataclass(frozen=True)
class GridDiagram:
    """A toroidal grid diagram with one O and one X in each row and column."""

    n: int
    o_row: Perm
    x_row: Perm
    # The per-diagram caches of rectangle data: the marking data of a
    # rectangle's box (n^4 at most) here, and the n^2 row arcs of ``_arcs``.
    # Generators, rectangle records and domains are built on every
    # call and kept by no one here; a caller that revisits them keeps a table
    # of its own.
    _box_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InvalidGrid(f"grid index must be >= 1, got {n}")
        for name, perm in (("o_row", self.o_row), ("x_row", self.x_row)):
            if sorted(perm) != list(range(n)):
                raise InvalidGrid(f"{name} is not a permutation of 0..{n - 1}: {perm}")
        if n > 1 and any(self.o_row[c] == self.x_row[c] for c in range(n)):
            raise InvalidGrid("an O and an X occupy the same cell")

    # -- canonical position -------------------------------------------------

    @property
    def is_canonical(self) -> bool:
        return self.x_row[self.n - 1] == self.n - 1

    def _require_canonical(self) -> None:
        if not self.is_canonical:
            raise InvalidGrid("operation requires a canonicalized diagram")

    def shifted(self, row_shift: int, col_shift: int) -> "GridDiagram":
        """Cyclically shift rows and columns of the torus."""
        n = self.n
        o = tuple((self.o_row[(c + col_shift) % n] + row_shift) % n for c in range(n))
        x = tuple((self.x_row[(c + col_shift) % n] + row_shift) % n for c in range(n))
        return GridDiagram(n, o, x)

    # -- link components ----------------------------------------------------

    @cached_property
    def component_of_o(self) -> tuple[int, ...]:
        """Component id of each O marking, tracing O -> X along rows/columns.

        The permutation traced is c -> x_row^{-1}(o_row(c)); its orbits are the
        link components, numbered by their smallest column.
        """
        n = self.n
        x_col = [0] * n
        for c in range(n):
            x_col[self.x_row[c]] = c
        comp = [-1] * n
        next_id = 0
        for start in range(n):
            if comp[start] >= 0:
                continue
            c = start
            while comp[c] < 0:
                comp[c] = next_id
                c = x_col[self.o_row[c]]
            next_id += 1
        return tuple(comp)

    @cached_property
    def component_of_x(self) -> tuple[int, ...]:
        """Component id of each X marking: that of the O in its row."""
        return tuple(self.component_of_o[self.o_row.index(self.x_row[c])] for c in range(self.n))

    @property
    def num_components(self) -> int:
        return max(self.component_of_o) + 1

    # -- marking tables ---------------------------------------------------------

    @cached_property
    def _o_table(self) -> _MarkingTable:
        return _MarkingTable.of(self.n, list(enumerate(self.o_row)))

    @cached_property
    def _component_tables(self) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
        """Per component k: a table T and a constant with
        ``2*A_k(x) = sum_i T[i][x_i] + const``.

        2*A_k = M_{O_k} - M_{X_k} + (n_k - 1), with M_P the point count
        against the component's own markings (see ``_MarkingTable``);
        ``I(x, x)`` and the ``+ 1`` cancel in the difference, which leaves
        ``T[i][v] = X.above + X.below - O.above - O.below`` at (i, v).  The
        ``n_k - 1`` offset matches the Maslov normalization.
        """
        n, out = self.n, []
        for comp in range(self.num_components):
            os = [(c, r) for c, r in enumerate(self.o_row) if self.component_of_o[c] == comp]
            xs = [(c, r) for c, r in enumerate(self.x_row) if self.component_of_x[c] == comp]
            ot, xt = _MarkingTable.of(n, os), _MarkingTable.of(n, xs)
            table = tuple(
                tuple(xa + xb - oa - ob for xa, xb, oa, ob in zip(*rows))
                for rows in zip(xt.above, xt.below, ot.above, ot.below)
            )
            out.append((table, ot.inner - xt.inner + len(os) - 1))
        return tuple(out)

    @cached_property
    def _component_extremes(self) -> tuple[tuple[list[int], list[int]], ...]:
        """Per component, ``(least, most)`` indexed by a bit mask F of row
        values: the least and the greatest ``sum_i T[i][x_i]`` (T from
        ``_component_tables``) over the bijections x from the last |F|
        columns onto F.  A subset DP on the first of those columns, n * 2^n
        steps; the full mask gives the extremes of 2*A_k less its constant.
        """
        n, out = self.n, []
        for table, _ in self._component_tables:
            least, most = [0] * (1 << n), [0] * (1 << n)
            for mask in range(1, 1 << n):
                row = table[n - mask.bit_count()]
                rest = [(row[v], mask ^ (1 << v)) for v in range(n) if mask >> v & 1]
                least[mask] = min(t + least[m] for t, m in rest)
                most[mask] = max(t + most[m] for t, m in rest)
            out.append((least, most))
        return tuple(out)

    # -- generators and gradings --------------------------------------------

    def generators(self, lo: dict | None = None, hi: dict | None = None):
        """Iterate over the generators with ``lo[k] <= 2*A_k <= hi[k]`` for
        every component k that ``lo`` or ``hi`` names, all n! of them without
        bounds, in lexicographic order of sigma.

        Columns are placed from 0 up, each trying the free values in
        ascending order.  ``2*A_k`` is a sum of one table entry per column
        (``_component_tables``), so a partial permutation is dropped as soon
        as its placed sum plus the least (greatest) sum that the values
        still free can make on the columns still open
        (``_component_extremes``) lies above hi[k] (below lo[k]).
        """
        n = self.n
        lo, hi = lo or {}, hi or {}
        bounded = []  # per bounded component: its table, extremes by free mask, bounds less const
        for k, ((table, const), (least, most)) in enumerate(zip(self._component_tables, self._component_extremes)):
            if k in lo or k in hi:
                bounded.append((table, least, most, lo.get(k, -math.inf) - const, hi.get(k, math.inf) - const))
        sigma = [0] * n
        free = list(range(n))  # ascending

        def walk(c: int, sums: list[int], mask: int):
            for k, v in enumerate(free):
                rest = mask ^ (1 << v)
                placed = [s + table[c][v] for s, (table, *_) in zip(sums, bounded)]
                if any(
                    s + least[rest] > high or s + most[rest] < low
                    for s, (_, least, most, low, high) in zip(placed, bounded)
                ):
                    continue
                sigma[c] = v
                if c == n - 1:
                    yield self.generator(tuple(sigma))
                    continue
                del free[k]
                yield from walk(c + 1, placed, rest)
                free.insert(k, v)

        yield from walk(0, [0] * len(bounded), (1 << n) - 1)

    def generator(self, sigma: Perm) -> Generator:
        sigma = tuple(sigma)
        return Generator(sigma, self._maslov(sigma), self._alexander2(sigma))

    def _maslov(self, sigma: Perm) -> int:
        """Maslov grading, normalized so grid homology is a link invariant.

        ``M_O(x)`` read from the O table (see ``_MarkingTable``), with
        ``I(x, x) = C(n, 2) - inversions``; the extra ``n - l`` (markings
        minus components) corrects for index 0/3 stabilizations, pinning the
        unknot's hat homology at Maslov 0 on every grid presentation.
        """
        n, o = self.n, self._o_table
        pairs = n * (n - 1) // 2 - inversions(sigma)
        return pairs - o.crossings(sigma) + o.inner + 1 + (n - self.num_components)

    def _alexander2(self, sigma: Perm) -> tuple[int, ...]:
        """Doubled Alexander multi-grading, from ``_component_tables``."""
        return tuple(sum(map(getitem, table, sigma)) + const for table, const in self._component_tables)

    # -- rectangles -----------------------------------------------------------

    @cached_property
    def _arcs(self) -> tuple:
        """``_arcs[into][a]``: ``(up, down)`` leaving (``into`` false) and
        ``(down, up)`` entering, with ``up[b]`` the bit set of the rows
        ``a, a+1, ..., b-1`` mod n, the rows of a rectangle from row a up to
        row b (empty for a == b), and ``down[b]`` those from row b up to a."""
        n = self.n
        arcs = [[sum(1 << (a + k) % n for k in range((b - a) % n)) for b in range(n)] for a in range(n)]
        ups, downs = [tuple(arc) for arc in arcs], [tuple(arc[a] for arc in arcs) for a in range(n)]
        return tuple(zip(ups, downs)), tuple(zip(downs, ups))

    def rectangle_infos(self, sigma: Perm) -> list["RectInfo"]:
        """The empty rectangles leaving x^sigma that avoid the top-right cell (``_sweep``)."""
        return self._sweep(sigma, False)

    def rectangle_infos_into(self, y_sigma: Perm) -> list["RectInfo"]:
        """The empty rectangles entering x^y_sigma that avoid the top-right cell (``_sweep``)."""
        return self._sweep(y_sigma, True)

    def _sweep(self, p: Perm, into: bool) -> list["RectInfo"]:
        """The empty rectangles leaving x^p (entering it if ``into``) that
        avoid the top-right cell, as fresh records sharing their box data
        (``_box``): for each column pair i < j, the one with its bottom-left
        corner in column i (role 0), then the one with it in column j.

        The records into p with pair (i, j) are those leaving q, p with
        columns i and j swapped, and q agrees with p off them: one sweep
        serves both, with corner rows ``(a, b) = (p[i], p[j])`` leaving and
        ``(p[j], p[i])`` entering.  Emptiness is one AND of row bit sets,
        ``prefix[k]`` holding the rows of the points in the columns before k
        and ``_arcs[into]`` the rows of each arc.  Role 0 spans the rows a up
        to b over the columns strictly between i and j, so it is empty iff no
        point there has a row in that arc.  Role 1 spans the rows b up to a
        over the columns outside ``[i, j]``, likewise, their points' rows
        being ``prefix[i]`` and ``rows ^ prefix[j + 1]``.  Only role 1 covers
        the last column, so only it can cover the top-right cell: row n-1
        joins the rows it must miss.
        """
        self._require_canonical()
        p = tuple(p)
        n, boxes, new = self.n, self._box_cache, tuple.__new__  # new(RectInfo, fields) skips its Python-level __new__
        arcs, top, prefix = self._arcs[into], 1 << (n - 1), [0]
        for v in p:
            prefix.append(prefix[-1] | 1 << v)
        rows, infos = prefix[n], []
        for i in range(n - 1):
            si = p[i]
            (arc0, arc1), low, outer = arcs[si], prefix[i + 1], prefix[i] | top
            for j in range(i + 1, n):
                sj = p[j]
                role0 = not (prefix[j] ^ low) & arc0[sj]
                role1 = not (outer | rows ^ prefix[j + 1]) & arc1[sj]
                if role0 or role1:
                    pair = (i, j)
                    q = p[:i] + (sj,) + p[i + 1 : j] + (si,) + p[j + 1 :]
                    x, y, a, b = (q, p, sj, si) if into else (p, q, si, sj)
                    h = (b - a) % n
                    if role0:
                        shape = (i, j - i, a, h)
                        infos.append(new(RectInfo, (x, y, pair, 0) + (boxes.get(shape) or self._box(shape))))
                    if role1:
                        shape = (j, n - (j - i), b, n - h)
                        infos.append(new(RectInfo, (x, y, pair, 1) + (boxes.get(shape) or self._box(shape))))
        return infos

    def _box(self, shape: tuple[int, int, int, int]) -> tuple:
        """The fields of ``RectInfo`` from ``col0`` on, for the box
        ``shape = (col0, width, row0, height)`` of cells
        ``col0..col0+width-1 x row0..row0+height-1`` mod n, built and stored
        in ``_box_cache``; the sweeps call it only after a cache miss.  A box
        meets each column's O and X at most once, so its markings are the
        bit sets of the columns whose marking it covers."""
        col0, width, row0, height = shape
        n = self.n
        cols = [(c - col0) % n < width for c in range(n)]
        rows = [(r - row0) % n < height for r in range(n)]
        o_mask = sum(1 << c for c, r in enumerate(self.o_row) if cols[c] and rows[r])
        x_mask = sum(1 << c for c, r in enumerate(self.x_row) if cols[c] and rows[r])
        a_vec = tuple(int(cols[n - 1] and inside) for inside in rows[:-1])
        b_vec = tuple(int(rows[n - 1] and inside) for inside in cols[:-1])
        box = self._box_cache[shape] = shape + (o_mask, x_mask, cols[n - 1], rows[n - 1], a_vec, b_vec)
        return box

    def rectangles_from(self, x: Generator) -> list[tuple["GridDomain", Generator]]:
        """All rectangles in R(x, y), over all y, as full domain objects."""
        out = []
        for info in self.rectangle_infos(x.sigma):
            out.append((info.domain(self), self.generator(info.to_sigma)))
        return out

    def rectangles_into(self, y: Generator) -> list[tuple["GridDomain", Generator]]:
        """All rectangles in R(z, y), over all z."""
        return [
            (info.domain(self), self.generator(info.from_sigma))
            for info in self.rectangle_infos_into(y.sigma)
        ]

    # -- domains ---------------------------------------------------------------

    def trivial_domain(self, x: Generator) -> "GridDomain":
        zero = (0,) * (self.n - 1)
        return GridDomain(self, x.sigma, x.sigma, zero, zero)

    def marking_annulus(self, kind: str, j: int, x: Generator) -> "GridDomain":
        """H_j (row through O_j) or V_j (column through O_j) as a domain x -> x:
        H_j has ``a = e_{o_row[j]}``, V_j has ``b = e_j``.

        The last row and column are not allowable (they cover the top-right
        X marking) and are rejected.
        """
        n = self.n
        zero = (0,) * (n - 1)
        if kind == "H":
            row = self.o_row[j]
            if row == n - 1:
                raise InvalidGrid(f"row through O_{j} is the top row; not allowable")
            return GridDomain(self, x.sigma, x.sigma, tuple(int(r == row) for r in range(n - 1)), zero)
        if kind == "V":
            if j == n - 1:
                raise InvalidGrid(f"column through O_{j} is the last column; not allowable")
            return GridDomain(self, x.sigma, x.sigma, zero, tuple(int(c == j) for c in range(n - 1)))
        raise ValueError(f"kind must be 'H' or 'V', got {kind!r}")

    def unique_domain(self, x: Generator, y: Generator, a: tuple[int, ...], b: tuple[int, ...]) -> "GridDomain":
        """The unique 2-chain from x to y with last-column/last-row data (a, b).

        ``a[r]`` is the multiplicity in the rightmost column at row ``r`` and
        ``b[c]`` the multiplicity in the topmost row at column ``c``
        (``r, c < n-1``; the top-right cell is pinned to 0).  That is a
        ``GridDomain`` as it is stored, so this only checks the lengths; its
        cells follow the quadrant form, which meets the boundary condition by
        construction.  Entries may come out negative; callers test positivity.
        """
        n = self.n
        if len(a) != n - 1 or len(b) != n - 1:
            raise ValueError("a and b must have length n-1")
        return GridDomain(self, x.sigma, y.sigma, tuple(a), tuple(b))

    @staticmethod
    def base_maslov_index(x_sigma: Perm, y_sigma: Perm) -> int:
        """The Maslov index of the zero-data ``unique_domain(x, y)``, unbuilt:
        ``inversions(y) - inversions(x)``, which reads no marking.

        By the quadrant form the domain has ``Q_x(c, r) - Q_y(c, r)`` on cell
        ``(c, r)``, so its O count is ``I(O, x) - I(O, y)`` and its index
        ``M(x) - M(y) + 2*(I(O, x) - I(O, y))`` (MOS, arXiv:math/0607691).
        Since ``[i <= c][v <= r] - [i > c][v > r] = [i <= c] + [v <= r] - 1``,
        ``I(z, O) - I(O, z) = n`` for every generator z, so the O terms
        cancel and what is left is ``I(x, x) - I(y, y)``.
        """
        return inversions(y_sigma) - inversions(x_sigma)

    def subdomain_data(self, rem: "GridDomain") -> list[tuple[Perm, tuple[int, ...], tuple[int, ...]]]:
        """Every ``(w, a, b)`` with ``0 <= unique_domain(x, w, a, b) <= rem``
        cell by cell, where x is ``rem``'s start; sorted, so in the order of
        a scan over permutations w and then over a and b.

        With rem from x to y and data (A, B), the quadrant form turns both
        inequalities into bounds on ``Q_w``, from ``Q_y - A - B`` up to
        ``Q_x + A + B`` (a and b at their extremes), which prune the column
        search; for each w found and each a, every ``b[c]`` ranges over an
        interval read from rem's cells.
        """
        n, m = self.n, rem.mult
        qx, qy = quadrant_counts(rem.from_sigma), quadrant_counts(rem.to_sigma)
        amax, bmax = rem.a_vec + (0,), rem.b_vec + (0,)
        lo = [qy[c * n + r] - amax[r] - bmax[c] for c in range(n) for r in range(n)]
        hi = [qx[c * n + r] + amax[r] + bmax[c] for c in range(n) for r in range(n)]
        out = []
        for w in columns_within(n, lo, hi):
            d = list(map(sub, qx, quadrant_counts(w)))
            for a in itertools.product(*(range(v + 1) for v in amax[:-1])):
                b_ranges = []
                for c in range(n - 1):
                    # cell (c, r) holds fixed[r] + b[c], which must lie in [0, rem]
                    fixed = [d[c * n + r] + a[r] for r in range(n - 1)]
                    low = max(0, -min(fixed))
                    high = min([bmax[c]] + [m[c * n + r] - v for r, v in enumerate(fixed)])
                    if low > high:
                        break
                    b_ranges.append(range(low, high + 1))
                else:
                    out.extend((w, a, b) for b in itertools.product(*b_ranges))
        out.sort()
        return out


class RectInfo(NamedTuple):
    """An empty rectangle from ``from_sigma`` to ``to_sigma``, in compact form.

    ``pair = (i, j)`` are the two columns carrying the moving coordinates and
    ``role`` selects which of them is the bottom-left corner (0: column i).
    The cells covered are ``col0..col0+width-1 x row0..row0+height-1`` mod n;
    records of one box share its data (``GridDiagram._box``).
    ``a_vec``/``b_vec`` are the rectangle's data as a ``GridDomain`` stores
    it, so ``domain`` passes them on and paints no cell.
    """

    from_sigma: Perm
    to_sigma: Perm
    pair: tuple[int, int]
    role: int
    col0: int
    width: int
    row0: int
    height: int
    o_mask: int  # bit c set iff the rectangle covers the O of column c
    x_mask: int  # bit c set iff the rectangle covers the X of column c
    meets_last_column: bool  # covers a cell of column n-1
    meets_top_row: bool  # covers a cell of row n-1
    a_vec: tuple[int, ...]  # the domain's multiplicities in the rightmost column, rows 0..n-2
    b_vec: tuple[int, ...]  # the domain's multiplicities in the topmost row, columns 0..n-2

    @property
    def key(self) -> tuple:
        """``(from_sigma, pair, role)``, which tells the rectangles of one
        grid apart: a key for the tables that callers keep of their own,
        such as a table of signs.  The library keys nothing by it."""
        return (self.from_sigma, self.pair, self.role)

    def domain(self, g: GridDiagram) -> "GridDomain":
        return GridDomain(g, self.from_sigma, self.to_sigma, self.a_vec, self.b_vec)


@dataclass(frozen=True)
class GridDomain:
    """An integer 2-chain between two generators, stored as its ends and its
    data in the last column and the top row.

    ``a_vec[r]`` is the multiplicity in the rightmost column at row ``r`` and
    ``b_vec[c]`` the multiplicity in the topmost row at column ``c``
    (``r, c < n-1``); the top-right cell is 0.  Those pin the 2-chain: cell
    ``(c, r)`` holds ``Q_x(c, r) - Q_y(c, r) + a[r] + b[c]`` (``mult``, with
    ``a[n-1] = b[n-1] = 0`` and ``Q`` as in ``quadrant_counts``), so
    composing and splitting add and subtract the data.
    """

    diagram: GridDiagram
    from_sigma: Perm
    to_sigma: Perm
    a_vec: tuple[int, ...]
    b_vec: tuple[int, ...]

    @property
    def key(self) -> tuple:
        """``(from_sigma, to_sigma, a_vec, b_vec)``; equal on one diagram iff the domains are."""
        return (self.from_sigma, self.to_sigma, self.a_vec, self.b_vec)

    @cached_property
    def mult(self) -> tuple[int, ...]:
        """The multiplicity of every cell, ``(c, r)`` at index ``c*n + r``.

        Built leftwards from the last column (``a``, then 0): column c is
        column c+1 shifted by ``b[c] - b[c+1]``, plus the change in the
        quadrant counts, ``[x_{c+1} > r] - [y_{c+1} > r]``, which is +1 on the
        rows ``y_{c+1} <= r < x_{c+1}`` and -1 on ``x_{c+1} <= r < y_{c+1}``.
        """
        x, y, b = self.from_sigma, self.to_sigma, self.b_vec + (0,)
        col = list(self.a_vec) + [0]
        cols = [col]
        for c in range(self.diagram.n - 2, -1, -1):
            u, v, shift = x[c + 1], y[c + 1], b[c] - b[c + 1]
            if shift:
                col = [q + shift for q in col]
            elif u != v:
                col = col[:]  # column c+1 stays in cols unchanged
            if u > v:
                col[v:u] = [q + 1 for q in col[v:u]]
            elif u < v:
                col[u:v] = [q - 1 for q in col[u:v]]
            cols.append(col)
        cols.reverse()
        return tuple(itertools.chain.from_iterable(cols))

    def is_positive(self) -> bool:
        return min(self.mult) >= 0

    def is_trivial(self) -> bool:
        return self.from_sigma == self.to_sigma and not any(self.a_vec) and not any(self.b_vec)

    def max_multiplicity(self) -> int:
        return max(self.mult)

    def annulus_kind(self) -> str | None:
        """``"H"`` when the support is a non-empty union of full rows, ``"V"``
        when it is a non-empty union of full columns, None otherwise."""
        n, m = self.diagram.n, self.mult
        rows = {i % n for i, v in enumerate(m) if v}
        cols = {i // n for i, v in enumerate(m) if v}
        if rows and all(m[c * n + r] for r in rows for c in range(n)):
            return "H"
        if cols and all(m[c * n + r] for c in cols for r in range(n)):
            return "V"
        return None

    def annulus_room(self, kind: str, j: int) -> int:
        """How many copies of H_j ("H") or V_j ("V") fit in the domain: its
        least multiplicity on the row or column through O_j."""
        g, n = self.diagram, self.diagram.n
        if kind == "H":
            return min(self.mult[g.o_row[j] :: n])
        if kind == "V":
            return min(self.mult[j * n : (j + 1) * n])
        raise ValueError(f"kind must be 'H' or 'V', got {kind!r}")

    # -- structure -------------------------------------------------------------

    def maslov_index(self) -> int:
        """mu(D) = M(x) - M(y) + 2|O(D)|: the zero-data part from
        ``base_maslov_index``, plus ``a[o_c] + b[c]`` on the cell of each O_c."""
        g = self.diagram
        a = self.a_vec + (0,)
        o_data = sum(a[r] for r in g.o_row) + sum(self.b_vec)
        return g.base_maslov_index(self.from_sigma, self.to_sigma) + 2 * o_data

    def compose(self, other: "GridDomain") -> "GridDomain":
        if self.to_sigma != other.from_sigma:
            raise EndpointMismatch(f"cannot compose: {self.to_sigma} != {other.from_sigma}")
        a, b = tuple(map(add, self.a_vec, other.a_vec)), tuple(map(add, self.b_vec, other.b_vec))
        return GridDomain(self.diagram, self.from_sigma, other.to_sigma, a, b)

    def subtract(self, other: "GridDomain") -> "GridDomain":
        """Prefix strip: for ``self = other * E`` this is ``E``, the 2-chain
        ``self - other`` running from ``other.to`` to ``self.to``."""
        a, b = tuple(map(sub, self.a_vec, other.a_vec)), tuple(map(sub, self.b_vec, other.b_vec))
        return GridDomain(self.diagram, other.to_sigma, self.to_sigma, a, b)

    def strip_suffix(self, other: "GridDomain") -> "GridDomain":
        """Suffix strip: for ``self = E * other`` this is ``E``, the 2-chain
        ``self - other`` running from ``self.from`` to ``other.from``."""
        a, b = tuple(map(sub, self.a_vec, other.a_vec)), tuple(map(sub, self.b_vec, other.b_vec))
        return GridDomain(self.diagram, self.from_sigma, other.from_sigma, a, b)


# -- canonicalization and parsing ---------------------------------------------


def canonicalize(g: GridDiagram) -> GridDiagram:
    """Shift the torus so an X occupies the top-right cell.

    Among the ``n`` valid (row_shift, col_shift) pairs (one per X marking),
    the lexicographically smallest is chosen.
    """
    n = g.n
    if n == 1:
        return g
    x_col = [0] * n
    for c in range(n):
        x_col[g.x_row[c]] = c
    # For each row shift there is exactly one valid column shift, so the
    # lexicographically smallest valid pair is (0, cs) with cs moving the X
    # of the top row into the last column.
    cs = (x_col[n - 1] - (n - 1)) % n
    shifted = g.shifted(0, cs)
    assert shifted.is_canonical
    return shifted


def parse_grid_text(text: str) -> GridDiagram:
    """Parse the plain-text grid format (1-indexed rows per column).

    Besides blank lines and ``#`` comments the file holds exactly one line
    each of ``n=``, ``X:`` and ``O:``.
    """
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=" if line[0] in "nN" else ":")
        key = key.strip().lower()
        if not sep or key not in ("n", "x", "o"):
            raise InvalidGrid(f"unknown line in grid file: {line!r}")
        if key in fields:
            raise InvalidGrid(f"repeated {key!r} line in grid file")
        fields[key] = value
    if len(fields) != 3:
        raise InvalidGrid("grid file needs lines 'n=', 'X:' and 'O:'")
    n = int(fields["n"])
    x_rows = [int(t) for t in fields["x"].split()]
    o_rows = [int(t) for t in fields["o"].split()]
    if len(x_rows) != n or len(o_rows) != n:
        raise InvalidGrid("marking rows must list one entry per column")
    return GridDiagram(n, tuple(r - 1 for r in o_rows), tuple(r - 1 for r in x_rows))


def parse_grid_json(text: str) -> GridDiagram:
    data = json.loads(text)
    try:
        n = int(data["n"])
        x = tuple(int(r) - 1 for r in data["x_row"])
        o = tuple(int(r) - 1 for r in data["o_row"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGrid(f"bad JSON grid: {exc}") from exc
    if len(x) != n or len(o) != n:
        raise InvalidGrid("x_row and o_row must have length n")
    return GridDiagram(n, o, x)


def load_grid(path: str) -> GridDiagram:
    """Load a grid file (text or JSON) and canonicalize it."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        g = parse_grid_json(text)
    else:
        g = parse_grid_text(text)
    return canonicalize(g)
