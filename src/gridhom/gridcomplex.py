"""The grid complexes in their four flavors, sliced by Alexander grading.

Generators are ``[x, j_1, ..., j_n]`` with ``j_i >= 0`` recording negative
U-powers; the homological grading is ``M(x) + 2 sum(j)`` and each U_i lowers
its component's Alexander grading by one.  The full plus complex is
infinitely generated, so every computation happens in a fixed Alexander
(multi-)grading, a tuple of doubled gradings for every flavor.  A flavor
is three choices, which ``FlavorSpec.make`` turns into data (MOS,
arXiv:math/0607691; MOST, arXiv:math/0610559):

* ``plus``        -- no frozen O, every X avoided, every component sliced;
* ``hat``         -- plus with j_i = 0 at the first O of each component;
* ``tilde``       -- plus with all j_i = 0;
* ``plus_prime``  -- no frozen O; only the X markings on the component of the
                     distinguished top-right X are avoided, and only that
                     component is sliced.

A slice that pins every component is finite.  plus_prime slices of links
leave a component free, so they are infinite and are computed only under a
Maslov cap.  A capped slice has exact homology only below ``cap - 1``, so
capped results (a ``ReducedSlice`` and the U maps between two of them) keep
the gradings ``k <= cap - 2``, and read no cell of grading >= the cap.

A slice is never built cell by cell before anything cancels.  The grid
complex is free over Z[U] on the generators, with an entry s(r) U^o(r) per
rectangle, and cancelling one of its constant +-1 entries cancels every pair
of cells that entry gives in every slice at once, and commutes with every U
map.  So ``build_complex`` Morse-reduces the generator complex of a slice
over Z[U] (``generator_complex``, ``homalg.UPoly``) and writes out only the
survivors' cells: a reduction of the slice, with its U maps.  Survivors with
equal gaps share one table of their cells' j, and an arrow's target j is one
subtraction of packed integers (``expand``).

A window of slices shares one build.  U_m maps the cells with j_m >= k of a
slice one to one onto the slice k steps lower on m's component, so the slice
k steps lower is the quotient {j_m >= k} of the top slice, and d never
raises j_m; that holds as well for the slice written out of a reduced
generator complex.  The top slice of a window is built and Morse-reduced once,
cancelling only pairs of cells with equal j_m (``slice_tower``, through the
``level`` of ``homalg.reduce_complex``); every slice of the window is then
read off that small complex as the survivors with j_m >= k, relabelled
(``ReducedSlice.from_tower``), and U_m between two of them relabels each
survivor with j_m > k and drops those with j_m = k.  ``reduced_slices``
groups any set of uncapped slices into such windows, one tower each, and
gives each capped slice an unlevelled tower of its own; ``homology`` and the
spectrum read every slice through it, and ``u-map`` reads its source and
target off one tower, capped or not.  So ``from_tower`` is the one place a
slice is read, and the one place a cap truncates its homology.  When m is
the O column that hat freezes, the survivors with j_m = k are a reduction
of hat's slice k steps lower, so the spectrum builds no hat complex.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from gridhom import partitions as pt
from gridhom.gridcore import GridDiagram, GridError
from gridhom.homalg import (
    HomologyTable,
    IntegerChainComplex,
    UPoly,
    homology_with_bases,
    reduce_complex,
    smith_normal_form,
)
from gridhom.signs import SignAssignment

FLAVORS = ("plus", "hat", "tilde", "plus_prime")


class UnboundedSlice(GridError):
    pass


@dataclass(frozen=True)
class FlavorSpec:
    """What a flavor decides, as data.  The O columns in ``frozen`` carry no
    U power, differential rectangles miss the X markings of the columns in
    ``avoid``, and a slice pins the doubled Alexander grading of each
    component in ``sliced``, in that order.  Every other component's U
    powers are bounded only by a Maslov cap."""

    flavor: str
    frozen: tuple[int, ...]
    avoid: tuple[int, ...]
    sliced: tuple[int, ...]

    @staticmethod
    def make(g: GridDiagram, flavor: str) -> "FlavorSpec":
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        every = tuple(range(g.n))
        if flavor == "plus_prime":
            special = g.component_of_x[g.n - 1]
            return FlavorSpec(flavor, (), tuple(c for c in every if g.component_of_x[c] == special), (special,))
        first_o = {}  # component -> its first O column, which hat freezes
        for col, comp in enumerate(g.component_of_o):
            first_o.setdefault(comp, col)
        frozen = {"plus": (), "hat": tuple(first_o.values()), "tilde": every}[flavor]
        return FlavorSpec(flavor, frozen, every, tuple(range(g.num_components)))

    def free_cols(self, g: GridDiagram) -> list[list[int]]:
        """Per component of ``g``, its O columns whose U power may be
        non-zero: those not in ``frozen``."""
        comp_of_o = g.component_of_o
        return [[c for c in range(g.n) if comp_of_o[c] == k and c not in self.frozen] for k in range(g.num_components)]


def exponent_width(g: GridDiagram) -> int:
    """Bits per O column of a packed exponent in ``generator_complex``: an
    exponent's total degree is at most half the Maslov span plus one,
    below n * n, so its fields never carry."""
    return (g.n * g.n).bit_length()


def exact_below(maslov_cap: int | None) -> float:
    """A slice truncated at ``maslov_cap`` has exact homology in the gradings
    below this one (all of them without a cap)."""
    return math.inf if maslov_cap is None else maslov_cap - 1


def build_complex(
    g: GridDiagram,
    s: SignAssignment,
    spec: FlavorSpec,
    alexander2,
    maslov_cap: int | None = None,
) -> IntegerChainComplex:
    """Chain complex of one Alexander slice, truncated at ``maslov_cap``,
    Morse-reduced over Z[U] before it is written out cell by cell.

    ``alexander2`` is a tuple of doubled Alexander gradings, one for each
    component in ``spec.sliced``: every component for plus, hat and tilde,
    the distinguished one alone for plus_prime.  A slice that pins every
    component is finite, so ``maslov_cap=None`` computes it exactly; one
    that leaves a component free (plus_prime on a link) is infinite, and
    without a cap this raises ``UnboundedSlice``.  A slice truncated at a
    cap has its homology exact below ``cap - 1``.

    Three calls.  ``generator_complex`` builds the free complex over
    Z[U] on the generators with cells in the slice, one entry per target
    generator.  ``reduce_complex`` cancels its unit entries, the ints +-1;
    each such cancellation cancels, at once, every pair of cells it gives
    in the slice, and commutes with every U map.  ``expand`` then writes
    the slice of the few survivors out, cell by cell; it reads nothing
    else, and nothing holds the unreduced generator complex once it is
    reduced.  So the result is a reduction of the slice, with the slice's
    homology, and U_m still maps its cells with j_m >= k one to one onto
    the same reduction of the slice k steps lower (``slice_tower``).  Under
    a cap a cancelled pair can straddle it; the cell at the cap is then
    dropped with its partner above, which changes homology only at the cap.
    """
    (cx,) = reduce_complex(generator_complex(g, s, spec, alexander2, maslov_cap))
    return expand(g, spec, alexander2, maslov_cap, cx)


def expand(
    g: GridDiagram, spec: FlavorSpec, alexander2, maslov_cap: int | None, cx: IntegerChainComplex
) -> IntegerChainComplex:
    """The slice ``alexander2``, truncated at ``maslov_cap``, of ``cx``,
    which is ``generator_complex``'s complex of that slice or a reduction
    of it.

    Each key sigma of ``cx`` gives the cells (sigma, j) of the slice, in
    its order.  They depend only on sigma's gaps and, under a cap, on the
    budget its grading leaves, so each distinct table of ``(j, sum(j),
    packed j)`` is built once per call and shared.  A packed j has a field
    per column, wide enough for the slice's largest entry, and a guard bit
    above each.  A cell (sigma, j) has an arrow c to (tau, j - e) for each
    monomial c U^e of ``cx.diff[sigma][tau]`` with j - e >= 0.  With e
    re-packed into the same fields, J - E is then the packed j - e, and
    otherwise it sets a guard bit, which no packed j has, so one look-up
    finds the target or misses.  Every diff entry stores the key object
    that ``grading`` holds for its cell, so all columns that mention a cell
    share one key."""
    n, width = g.n, exponent_width(g)
    free_cols, pinned = spec.free_cols(g), dict(zip(spec.sliced, alexander2))
    free = len(pinned) < len(free_cols)

    # (sigma, maslov, table key) per survivor with a cell; the key holds
    # the gaps, and with a free component the budget the gaps leave
    rows = []
    top = 0  # no j entry of the slice exceeds it
    for sigma in cx.grading:
        x = g.generator(sigma)
        gaps = tuple((pinned[k] - x.alexander2[k]) // 2 if k in pinned else 0 for k in range(len(free_cols)))
        spare = None if maslov_cap is None else (maslov_cap - x.maslov) // 2 - sum(gaps)
        if spare is not None and spare < 0:
            continue  # above the cap, or an over-budget gap: no cell
        if not free:
            spare = None  # every cell spends exactly the gaps
        rows.append((sigma, x.maslov, (gaps, spare)))
        top = max(top, spare or 0, *gaps)
    step = max(width, top.bit_length()) + 1  # a field and its guard bit

    @functools.cache
    def table(gaps, spare):
        per_comp = []
        for k, cols in enumerate(free_cols):
            if k in pinned:
                per_comp.append(list(pt.weak_compositions(gaps[k], len(cols))))
            else:  # a free component, bounded only by the Maslov cap
                per_comp.append([p for total in range(spare + 1) for p in pt.weak_compositions(total, len(cols))])
        budget = None if spare is None else sum(gaps) + spare
        out = []
        for choice in itertools.product(*per_comp):
            j = [0] * n
            for cols, part in zip(free_cols, choice):
                for c, v in zip(cols, part):
                    j[c] = v
            total = sum(j)
            if budget is None or total <= budget:
                out.append((tuple(j), total, sum(v << step * c for c, v in enumerate(j))))
        return out

    # cells[sigma][J] is the key the grading holds for the cell (sigma, j);
    # diff columns store these keys, so each cell has one key object.  The
    # grading lists each generator's cells together, so walking cells keeps
    # its order, which the Morse reduction's tie-breaks depend on.
    grading: dict = {}
    cells: dict = {}
    for sigma, maslov, tkey in rows:
        by_j = cells[sigma] = {}
        for j, total, packed in table(*tkey):
            key = by_j[packed] = (sigma, j)
            grading[key] = maslov + 2 * total

    field = (1 << width) - 1
    repacked: dict = {}  # packed exponent -> the same exponent in j's fields
    diff: dict = {}
    for sigma, by_j in cells.items():
        # the monomials leaving sigma towards a generator with cells
        arrows = []
        for tau, entry in cx.diff.get(sigma, {}).items():
            targets = cells.get(tau)
            if targets is None:
                continue
            for e, coeff in entry.items() if isinstance(entry, UPoly) else ((0, entry),):
                o = repacked.get(e)
                if o is None:
                    o = repacked[e] = sum((e >> width * c & field) << step * c for c in range(n))
                arrows.append((targets, o, coeff))
        # distinct arrows reach distinct cells, so no two entries of a
        # column meet
        for packed, key in by_j.items():
            col = {t: coeff for targets, o, coeff in arrows if (t := targets.get(packed - o)) is not None}
            if col:
                diff[key] = col
    return IntegerChainComplex(grading, diff)


def _slice_generators(g: GridDiagram, spec: FlavorSpec, alexander2) -> tuple[dict, Iterator]:
    """``(pinned, generators)`` of a slice: sliced component -> doubled
    Alexander grading, and an iterator over the generators with a cell in
    the slice before any Maslov cap, in the order of the slice walk.

    Only the slice's generators are walked and graded: each pinned
    component's grading is bounded by the slice from above (U powers only
    raise it), and from below where the component has no free O column."""
    g._require_canonical()
    alexander2 = tuple(alexander2)
    if len(alexander2) != len(spec.sliced):
        raise ValueError(f"a {spec.flavor} slice needs {len(spec.sliced)} entries, one per sliced component")
    pinned = dict(zip(spec.sliced, alexander2))
    free_cols = spec.free_cols(g)
    lower = {k: v for k, v in pinned.items() if not free_cols[k]}
    # an odd gap leaves no cell
    generators = (
        x for x in g.generators(lower, pinned) if all((v - x.alexander2[k]) % 2 == 0 for k, v in pinned.items())
    )
    return pinned, generators


def lowest_cell_grading(g: GridDiagram, spec: FlavorSpec, alexander2) -> float:
    """The least Maslov grading of a cell of the slice ``alexander2``
    (infinity if it has none), before any cap and before any reduction:
    a generator's least cell spends its gaps and nothing more."""
    pinned, generators = _slice_generators(g, spec, alexander2)
    return min(
        (x.maslov + sum(v - x.alexander2[k] for k, v in pinned.items()) for x in generators),
        default=math.inf,
    )


def generator_complex(
    g: GridDiagram,
    s: SignAssignment,
    spec: FlavorSpec,
    alexander2,
    maslov_cap: int | None = None,
) -> IntegerChainComplex:
    """The generator complex of the slice ``alexander2`` (see
    ``build_complex``), a free complex over Z[U]; ``expand`` of it is the
    slice, unreduced.

    It has a key sigma, graded by M(x^sigma), for each generator x^sigma
    with a cell in the slice before any Maslov cap, and ``diff[sigma][tau]``
    is the sum of s(r) U^o(r) over the rectangles r from x^sigma to x^tau
    that the flavor keeps: no avoided X and no O in a frozen column.  An
    entry without U powers is an int, any other a ``UPoly`` whose exponents
    pack o(r) in ``exponent_width`` bits per column.  The generators of
    every Alexander grading above the slice span a subcomplex (a rectangle
    only raises a pinned component's grading), so this is the quotient by
    it, and a complex.

    The rectangles leaving each generator come from one fresh
    ``rectangle_infos`` call.  The flavor's avoided X and frozen O columns
    are bit sets, so a rectangle is kept after one AND with each of its
    marking masks, and its packed exponent is looked up by its ``o_mask``.
    Each kept rectangle between two generators of the slice asks ``s.of``
    for its sign once; ``s`` itself stores no signs."""
    if maslov_cap is None and len(spec.sliced) < g.num_components:
        raise UnboundedSlice(f"{spec.flavor} slices of links are infinite; give a maslov_cap")
    _, generators = _slice_generators(g, spec, alexander2)
    frozen = sum(1 << c for c in spec.frozen)
    avoid = sum(1 << c for c in spec.avoid)
    width = exponent_width(g)

    grading = {x.sigma: x.maslov for x in generators}
    # sigma -> the key ``grading`` holds for it; diff columns store these
    # keys, so all columns that mention a generator share one key object
    keys = {sigma: sigma for sigma in grading}
    packed: dict = {}  # o_mask -> its packed exponent
    diff: dict = {}
    for sigma in grading:
        col: dict = {}
        for info in g.rectangle_infos(sigma):
            tau = keys.get(info.to_sigma)
            if tau is None or info.x_mask & avoid or info.o_mask & frozen:
                continue
            sign = s.of(info)
            e = packed.get(info.o_mask)
            if e is None:
                e = packed[info.o_mask] = sum(1 << width * c for c in range(g.n) if info.o_mask >> c & 1)
            if not e:  # a constant entry is an int
                if coeff := col.get(tau, 0) + sign:
                    col[tau] = coeff
                else:
                    del col[tau]
                continue
            entry = col.get(tau)
            if entry is None:
                col[tau] = UPoly({e: sign})
            elif coeff := entry.get(e, 0) + sign:
                entry[e] = coeff
            else:
                del entry[e]
                if not entry:
                    del col[tau]
        if col:
            diff[sigma] = col
    return IntegerChainComplex(grading, diff)


def slice_tower(cx: IntegerChainComplex, marking: int | None) -> IntegerChainComplex:
    """The built slice ``cx`` Morse-reduced with the level j_marking, which
    d never raises (a rectangle through the marking's O lowers it).  Only
    cells with equal j_marking cancel, so every slice k steps lower on the
    marking's component can be read off the result
    (``ReducedSlice.from_tower``), truncated two gradings lower per step if
    ``cx`` is truncated; when ``marking`` is the O column that hat freezes,
    the survivors with j_marking = k, under their same-level differential,
    are a reduction of hat's slice k steps lower.  With ``marking`` None the
    slice is reduced without a level and only the slice itself can be read
    off it."""
    level = None if marking is None else lambda key: key[1][marking]
    return reduce_complex(IntegerChainComplex(cx.grading, cx.diff, level))[0]


def reduced_slices(
    g: GridDiagram, s: SignAssignment, spec: FlavorSpec, values, maslov_cap: int | None = None
) -> Iterator[tuple]:
    """``(alexander2, ReducedSlice)`` for each of the slices ``values``, once
    each, truncated at ``maslov_cap`` if one is given.

    Uncapped, the slices that agree on every sliced component but the
    first, and on the parity of the first, are read off one ``slice_tower``
    at the highest of them, levelled by the first O column that the flavor
    leaves free on the first sliced component.  A flavor that leaves that
    component no free column (tilde), and every slice under a cap (a slice
    read k steps down a capped tower would be capped 2k lower), is built
    and reduced on its own, with no level."""
    free = spec.free_cols(g)[spec.sliced[0]]
    marking = free[0] if free and maslov_cap is None else None
    groups: dict = {}
    for a2 in sorted(set(values), reverse=True):
        groups.setdefault(a2 if marking is None else (a2[1:], a2[0] % 2), []).append(a2)
    for top, *lower in groups.values():
        tower = slice_tower(build_complex(g, s, spec, top, maslov_cap), marking)
        for a2 in (top, *lower):
            yield a2, ReducedSlice.from_tower(tower, spec, marking, (top[0] - a2[0]) // 2, maslov_cap)


@dataclass
class UMapResult:
    """The U_i chain map between two Alexander slices, pushed to homology."""

    source_table: HomologyTable
    target_table: HomologyTable
    matrices: dict  # source grading -> integer matrix (target free basis x source)

    def is_isomorphism_at(self, gr: int) -> bool:
        rs = self.source_table.rank(gr)
        rt = self.target_table.rank(gr - 2)
        if rs != rt:
            return False
        if rs == 0:
            return True
        m = self.matrices.get(gr)
        if m is None or len(m) != rs:
            return False
        diag, *_ = smith_normal_form(m)
        return len(diag) == rs and all(d == 1 for d in diag)

    def is_isomorphism(self) -> bool:
        """U is an isomorphism at every grading of the source table and at
        every grading of the target table shifted up by two."""
        gradings = set(self.source_table.groups) | {k + 2 for k in self.target_table.groups}
        return all(self.is_isomorphism_at(gr) for gr in gradings)


@dataclass
class ReducedSlice:
    """One slice as the survivors of a ``slice_tower``, so it can be the
    source or the target of a U map.  It holds no label of its slice: the
    caller that reads it off a tower knows which slice it asked for.

    ``reduced`` is the few-cell complex of the survivors, relabelled to this
    slice; ``bases`` are its homology bases.  A slice truncated at a Maslov
    cap keeps no survivor of grading >= the cap, and keeps bases (and so
    its ``table``) only in the gradings ``k <= cap - 2``, where the
    truncation is exact."""

    spec: FlavorSpec
    reduced: IntegerChainComplex  # the survivors, relabelled to this slice
    bases: dict  # grading -> GradedHomologyBasis of ``reduced``

    @staticmethod
    def from_tower(
        tower: IntegerChainComplex, spec, marking: int | None, steps: int, maslov_cap: int | None = None
    ) -> "ReducedSlice":
        """The slice ``steps`` lower on the marking's component than the
        slice whose ``slice_tower`` is ``tower``, truncated at
        ``maslov_cap`` (two gradings lower per step than the tower's cap).
        Every slice the library reads, capped or not, is read here.

        U_marking^steps maps the survivors with j_marking >= steps one to one
        onto this slice's cells and commutes with d, so they are relabelled
        (sigma, j - steps e_m), two gradings lower per step, with their
        columns restricted to them, in the tower's order; ``tower`` is left
        as it is.  Under a cap the survivors of grading >= the cap are
        dropped: d lowers the grading, so the rest span a subcomplex, and
        its homology at k <= cap - 2 is the slice's, read off no cell above
        cap - 1."""
        m = marking
        top = exact_below(maslov_cap)
        # survivor -> its key in this slice
        keys = {key: key for key, gr in tower.grading.items() if gr - 2 * steps <= top}
        if steps:
            keys = {(sigma, j): (sigma, j[:m] + (j[m] - steps,) + j[m + 1 :]) for sigma, j in keys if j[m] >= steps}
        grading = {keys[key]: gr - 2 * steps for key, gr in tower.grading.items() if key in keys}
        diff: dict = {}
        for key, col in tower.diff.items():
            key2 = keys.get(key)
            if key2 is not None:
                col = {k: v for r, v in col.items() if (k := keys.get(r)) is not None}
                if col:
                    diff[key2] = col
        cx = IntegerChainComplex(grading, diff)
        bases = {k: b for k, b in homology_with_bases(cx).items() if k < top}
        return ReducedSlice(spec, cx, bases)

    @property
    def table(self) -> HomologyTable:
        return HomologyTable.from_bases(self.bases)


def _u_chain(chain: dict, marking: int) -> dict:
    """U_marking of a chain of cells, as a chain of the slice one step lower."""
    return {
        (sigma, j[:marking] + (j[marking] - 1,) + j[marking + 1 :]): v for (sigma, j), v in chain.items() if j[marking]
    }


def u_map(src: ReducedSlice, dst: ReducedSlice, marking: int) -> UMapResult:
    """The degree -2 map U_marking from the plus slice ``src`` to ``dst``,
    on homology in the gradings of ``src.bases``.

    ``dst`` is the slice one step lower on the marking's component, read
    off the same tower and capped two gradings lower than ``src``.  Each
    free representative is a chain of survivors; U maps it, by relabelling,
    to a chain of ``dst``'s survivors, because the tower's reduction
    respects the level U lowers.  U of a cell of ``src`` that is not zero
    or a cell of ``dst`` raises ``GridError``."""
    if src.spec.flavor != "plus" or dst.spec.flavor != "plus":
        raise ValueError("U maps are computed on the plus flavor")

    # U of every cell lands in dst.  U commutes with d because the grid
    # differential is Z[U]-linear; tests/test_gridcomplex.py checks that
    for sigma, j in src.reduced.grading:
        if j[marking] and (sigma, j[:marking] + (j[marking] - 1,) + j[marking + 1 :]) not in dst.reduced.grading:
            raise GridError(f"U_{marking} of {(sigma, j)} is not a cell of the target slice")

    matrices: dict = {}
    for gr, basis in src.bases.items():
        if not basis.free_reps:
            continue
        images = [_u_chain(rep, marking) for rep in basis.free_reps]
        target_basis = dst.bases.get(gr - 2)
        if target_basis is None:
            if any(images):
                raise GridError("U image escapes the truncation window")
            matrices[gr] = []
        else:
            matrices[gr] = [list(row) for row in zip(*(target_basis.express(c) for c in images))]

    return UMapResult(src.table, dst.table, matrices)
