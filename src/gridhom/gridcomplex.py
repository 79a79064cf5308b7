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
capped results (``capped_homology``, ``ReducedSlice`` and the U maps between
two of them) keep the gradings ``k <= cap - 2``.

A window of slices shares one build.  U_m maps the cells with j_m >= k of a
slice one to one onto the slice k steps lower on m's component, so the slice
k steps lower is the quotient {j_m >= k} of the top slice, and d never
raises j_m.  The top slice of a window is built and Morse-reduced once,
cancelling only pairs of cells with equal j_m (``slice_tower``, through the
``level`` of ``homalg.reduce_complex``); every slice of the window is then
read off that small complex as the survivors with j_m >= k, relabelled
(``ReducedSlice.from_tower``), and U_m between two of them is the
projection that drops the survivors with j_m = k.  ``reduced_slices`` groups
any set of uncapped slices into such windows, one tower each; ``homology``
and the spectrum read every uncapped slice through it, and ``u-map`` reads
its source and target off one tower, capped or not.  When m is the O column
that hat freezes, the survivors with j_m = k are a reduction of hat's slice
k steps lower, so the spectrum builds no hat complex.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from operator import sub

from gridhom import partitions as pt
from gridhom.gridcore import GridDiagram, GridError
from gridhom.homalg import (
    HomologyTable,
    IntegerChainComplex,
    chain_add,
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


def alexander2_range(g: GridDiagram) -> range:
    """The doubled Alexander gradings of a knot's generators, ascending,
    from the extremes of its grading table over all permutations; no
    generator is walked."""
    _, const = g._component_tables[0]
    least, most = g._component_extremes[0]
    return range(least[-1] + const, most[-1] + const + 1, 2)


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
    """Chain complex of one Alexander slice, truncated at ``maslov_cap``.

    ``alexander2`` is a tuple of doubled Alexander gradings, one for each
    component in ``spec.sliced``: every component for plus, hat and tilde,
    the distinguished one alone for plus_prime.  A slice that pins every
    component is finite, so ``maslov_cap=None`` computes it exactly; one
    that leaves a component free (plus_prime on a link) is infinite, and
    without a cap this raises ``UnboundedSlice``.  A slice truncated at a
    cap has its homology exact below ``cap - 1``.

    Only the slice's generators are walked and graded: each pinned
    component's grading is bounded by the slice from above (U powers only
    raise it), and from below where the component has no free O column.

    The differential is built per generator sigma from one fresh
    ``rectangle_infos`` call, kept only while sigma's cells are built.  Its
    rectangles are filtered once: no avoided X, no O in a frozen column, a
    target generator with cells in the slice.  Each cell (sigma, j) then
    skips a rectangle with an O where j is zero, tested on bit masks, and
    otherwise subtracts the rectangle's O markings from j and looks the
    result up.  Every diff entry stores the key object that ``grading``
    holds for its cell, so all columns that mention a cell share one key.
    Each arrow asks ``s.of`` for its sign once, the first time it lands in
    the slice, and keeps it for the other cells of sigma; ``s`` itself
    stores no signs.
    """
    g._require_canonical()
    n = g.n
    comp_of_o = g.component_of_o
    frozen, avoid = spec.frozen, spec.avoid
    alexander2 = tuple(alexander2)
    if len(alexander2) != len(spec.sliced):
        raise ValueError(f"a {spec.flavor} slice needs {len(spec.sliced)} entries, one per sliced component")
    if maslov_cap is None and len(spec.sliced) < g.num_components:
        raise UnboundedSlice(f"{spec.flavor} slices of links are infinite; give a maslov_cap")
    pinned = dict(zip(spec.sliced, alexander2))
    # per component, the O columns whose U-power j_c may be non-zero
    free_cols = [[c for c in range(n) if comp_of_o[c] == k and c not in frozen] for k in range(g.num_components)]
    # weak compositions of (total, parts), listed once for all generators
    compositions = functools.cache(lambda total, parts: list(pt.weak_compositions(total, parts)))

    lower = {k: v for k, v in pinned.items() if not free_cols[k]}
    grading: dict = {}
    for x in g.generators(lower, pinned):
        if maslov_cap is not None and x.maslov > maslov_cap:
            continue
        budget = None if maslov_cap is None else (maslov_cap - x.maslov) // 2
        per_comp: list[list[tuple[int, ...]]] = []
        for k, cols in enumerate(free_cols):
            if k not in pinned:
                # unconstrained component: bounded only by the Maslov cap
                options = []
                for total in range(budget + 1):
                    options.extend(compositions(total, len(cols)))
                per_comp.append(options)
                continue
            # an odd or over-budget gap leaves no option, so no cell
            gap2 = pinned[k] - x.alexander2[k]
            fits = gap2 % 2 == 0 and (budget is None or gap2 // 2 <= budget)
            per_comp.append(compositions(gap2 // 2, len(cols)) if fits else [])
        for choice in itertools.product(*per_comp):
            j = [0] * n
            for cols, part in zip(free_cols, choice):
                for c, v in zip(cols, part):
                    j[c] = v
            gr = x.maslov + 2 * sum(j)
            if maslov_cap is None or gr <= maslov_cap:
                grading[(x.sigma, tuple(j))] = gr

    # cells[sigma][j] is the key the grading holds for the cell (sigma, j);
    # diff columns store these keys, so each cell has one key object.  The
    # grading lists each generator's cells together, so walking cells keeps
    # its order, which the Morse reduction's tie-breaks depend on.
    cells: dict = {}
    for key in grading:
        cells.setdefault(key[0], {})[key[1]] = key

    zero_cols: dict = {}  # j -> bit mask of the columns c with j[c] == 0
    diff: dict = {}
    for sigma, by_j in cells.items():
        # the rectangles leaving sigma that can give an arrow in this slice:
        # no avoided X, no O in a frozen column and a target generator with
        # cells; the last entry is the arrow's sign, 0 until it first lands
        arrows = []
        for info in g.rectangle_infos(sigma):
            targets = cells.get(info.to_sigma)
            if targets is None or any(info.x_vec[c] for c in avoid):
                continue
            o_vec = info.o_vec
            if any(o_vec[c] for c in frozen):
                continue
            o_mask = sum(1 << c for c, v in enumerate(o_vec) if v)
            arrows.append([targets, o_vec if o_mask else None, o_mask, info, 0])
        for j, key in by_j.items():
            zeros = zero_cols.get(j)
            if zeros is None:
                zeros = zero_cols[j] = sum(1 << c for c, v in enumerate(j) if not v)
            col: dict = {}
            for arrow in arrows:
                targets, o_vec, o_mask, info, sign = arrow
                if o_mask & zeros:
                    continue  # an O where j has no U power: the target key would go negative
                key2 = targets.get(j if o_vec is None else tuple(map(sub, j, o_vec)))
                if key2 is None:
                    continue
                if not sign:
                    sign = arrow[4] = s.of(info)
                coeff = col.get(key2, 0) + sign
                if coeff:
                    col[key2] = coeff
                else:
                    del col[key2]
            if col:
                diff[key] = col
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


def reduced_slices(g: GridDiagram, s: SignAssignment, spec: FlavorSpec, values) -> Iterator[tuple]:
    """``(alexander2, ReducedSlice)`` for each of the uncapped slices
    ``values``, once each.

    The slices that agree on every sliced component but the first, and on
    the parity of the first, are read off one ``slice_tower`` at the highest
    of them, levelled by the first O column that the flavor leaves free on
    the first sliced component.  A flavor that leaves that component no free
    column (tilde) builds and reduces each slice on its own."""
    comp = spec.sliced[0]
    marking = next((c for c, k in enumerate(g.component_of_o) if k == comp and c not in spec.frozen), None)
    groups: dict = {}
    for a2 in sorted(set(values), reverse=True):
        groups.setdefault(a2 if marking is None else (a2[1:], a2[0] % 2), []).append(a2)
    for top, *lower in groups.values():
        tower = slice_tower(build_complex(g, s, spec, top), marking)
        for a2 in (top, *lower):
            yield a2, ReducedSlice.from_tower(tower, spec, a2, marking, (top[0] - a2[0]) // 2)


def capped_homology(
    g: GridDiagram, s: SignAssignment, spec: FlavorSpec, alexander2, maslov_cap: int | None
) -> HomologyTable:
    """Homology of the slice truncated at ``maslov_cap`` (if any), in the
    gradings below ``exact_below(maslov_cap)`` only."""
    table = build_complex(g, s, spec, alexander2, maslov_cap).homology()
    top = exact_below(maslov_cap)
    return HomologyTable({k: v for k, v in table.groups.items() if k < top})


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
    """One slice, Morse-reduced, with homotopy equivalences to its cells, so
    it can be the source or the target of a U map.

    It keeps what U maps read: the gradings of its cells, the few-cell
    reduced complex, ``iota`` (key of the reduced complex -> chain of
    cells), ``pi`` (chain of cells -> chain of the reduced complex) and the
    homology bases.  The library makes every slice with ``from_tower``, off
    the survivors of a ``slice_tower`` some steps higher: its cells are
    those survivors, relabelled to this slice, so ``grading`` is the reduced
    complex's own grading, ``iota`` is the identity and ``pi`` the
    restriction to them.  Between two such slices of one tower,
    pi o U o iota is U on the survivors, because the tower's reduction
    respects the level U lowers.  A slice reduced some other way (the test
    oracle reduces a built slice directly) has every built cell in
    ``grading`` and its own ``iota`` and ``pi``.

    A slice truncated at ``maslov_cap`` keeps homology bases (and so its
    ``table``) only in the gradings ``k <= maslov_cap - 2``, where the
    truncation is exact."""

    spec: FlavorSpec
    alexander2: tuple
    maslov_cap: int | None
    grading: dict  # cell -> Maslov grading
    reduced: IntegerChainComplex  # the Morse-reduced complex
    iota: dict  # key of the reduced complex -> chain of cells
    pi: Callable  # chain of cells -> chain in the reduced complex
    bases: dict  # grading -> GradedHomologyBasis of the reduced complex

    @staticmethod
    def from_tower(
        tower: IntegerChainComplex, spec, alexander2, marking: int | None, steps: int, maslov_cap: int | None = None
    ) -> "ReducedSlice":
        """The slice ``alexander2``, ``steps`` lower on the marking's
        component than the slice whose ``slice_tower`` is ``tower``, and
        truncated at ``maslov_cap`` (two gradings lower per step than the
        tower's cap).

        U_marking^steps maps the survivors with j_marking >= steps one to one
        onto this slice's cells and commutes with d, so they are relabelled
        (sigma, j - steps e_m), two gradings lower per step, with their
        columns restricted to them, in the tower's order; ``tower`` is left
        as it is."""
        m = marking
        keys = {key: key for key in tower.grading}  # survivor -> its key in this slice
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

        def pi(chain: dict) -> dict:
            return {key: v for key, v in chain.items() if key in grading}

        top = exact_below(maslov_cap)
        bases = {k: b for k, b in homology_with_bases(cx).items() if k < top}
        iota = {key: {key: 1} for key in grading}
        return ReducedSlice(spec, tuple(alexander2), maslov_cap, grading, cx, iota, pi, bases)

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

    ``dst`` is the slice one step lower on the marking's component, capped
    two gradings lower than ``src``: U of a cell of ``src`` that is not zero
    or a cell of ``dst`` raises ``GridError``."""
    if src.spec.flavor != "plus" or dst.spec.flavor != "plus":
        raise ValueError("U maps are computed on the plus flavor")

    # U of every cell lands in dst.  U commutes with d because the grid
    # differential is Z[U]-linear; tests/test_gridcomplex.py checks that
    for sigma, j in src.grading:
        if j[marking] and (sigma, j[:marking] + (j[marking] - 1,) + j[marking + 1 :]) not in dst.grading:
            raise GridError(f"U_{marking} of {(sigma, j)} is not a cell of the target slice")

    matrices: dict = {}
    for gr, basis in src.bases.items():
        if not basis.free_reps:
            continue
        images = []
        for rep in basis.free_reps:
            lifted: dict = {}
            for rkey, rv in rep.items():
                lifted = chain_add(lifted, src.iota[rkey], rv)
            images.append(dst.pi(_u_chain(lifted, marking)))
        target_basis = dst.bases.get(gr - 2)
        if target_basis is None:
            if any(images):
                raise GridError("U image escapes the truncation window")
            matrices[gr] = []
        else:
            matrices[gr] = [list(row) for row in zip(*(target_basis.express(c) for c in images))]

    return UMapResult(src.table, dst.table, matrices)
