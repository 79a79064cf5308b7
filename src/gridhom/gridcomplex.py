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
raises j_m.  ``slice_tower`` builds the top slice of a window and
Morse-reduces it once, cancelling only pairs of cells with equal j_m (the
``level`` of ``homalg.reduce_complex``); every lower slice of the window is
then read off that small complex as the survivors with j_m >= k
(``ReducedSlice.from_tower``), and U_m between two of them is the projection
that drops the survivors with j_m = k.  Hat is the kernel of U on plus at
the O column that hat freezes, a surjection, so ``kernel_table`` reads
hat's table off the cone of U between two reduced plus slices; no hat
complex is built or reduced.  The spectrum reads its window this way.
``homology`` and ``u-map`` walk theirs with ``slices_top_down``, which
builds the top slice, derives each lower one in full (``lower_slice``) and
leaves the reduction of each to the caller.
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
    cone_homology,
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


def lower_slice(cx: IntegerChainComplex, marking: int, steps: int = 1) -> IntegerChainComplex:
    """The slice ``steps`` lower on the component of the O column ``marking``,
    read off the built slice ``cx``.  The column must be one the flavor
    leaves free, on a component the slice pins.

    U_marking^steps maps the cells (sigma, j) of ``cx`` with
    ``j[marking] >= steps`` one to one onto the lower slice and commutes
    with d, so that slice is those cells relabelled (sigma, j - steps e_m),
    two gradings lower per step, with their columns filtered and relabelled.
    A slice truncated at cap c gives the lower one truncated at
    ``c - 2 * steps``.  One pass keeps the order of cells, columns and
    column entries, which is ``build_complex``'s, so the result equals the
    built slice item for item and reduces the same way.  The derived keys
    share one j tuple per distinct j.  The columns of ``cx`` are released as
    they are read, so ``cx.diff`` is empty afterwards.
    """
    drop = 2 * steps
    lowered: dict = {}  # j of cx -> the j it becomes, one tuple per distinct j
    keys: dict = {}  # key of cx -> its key in the lower slice
    grading: dict = {}
    for key, gr in cx.grading.items():
        sigma, j = key
        if j[marking] >= steps:
            j2 = lowered.get(j)
            if j2 is None:
                j2 = lowered[j] = j[:marking] + (j[marking] - steps,) + j[marking + 1 :]
            keys[key] = key2 = (sigma, j2)
            grading[key2] = gr - drop
    diff: dict = {}
    parent = cx.diff
    for key, col in parent.items():
        parent[key] = None
        key2 = keys.get(key)
        if key2 is not None:
            col = {k: v for r, v in col.items() if (k := keys.get(r)) is not None}
            if col:
                diff[key2] = col
    parent.clear()
    return IntegerChainComplex(grading, diff)


def lowering(g: GridDiagram, spec: FlavorSpec, upper, lower) -> tuple[int, int] | None:
    """``(marking, steps)`` with which ``lower_slice`` reads the slice
    ``lower`` off the slice ``upper``, or None when it cannot: the slices
    must differ on one component only, lower there by a positive even
    amount, and the flavor must leave an O column of that component free
    (the first such column is the marking)."""
    moved = [i for i, (u, v) in enumerate(zip(upper, lower)) if u != v]
    if len(moved) != 1:
        return None
    gap = upper[moved[0]] - lower[moved[0]]
    comp = spec.sliced[moved[0]]
    free = [c for c, k in enumerate(g.component_of_o) if k == comp and c not in spec.frozen]
    if gap <= 0 or gap % 2 or not free:
        return None
    return free[0], gap // 2


def slices_top_down(g: GridDiagram, s: SignAssignment, spec: FlavorSpec, values) -> Iterator[tuple]:
    """``(alexander2, complex)`` for each of the uncapped slices ``values``,
    once each and highest first.  The first slice is built; each later one
    is read off the one before it (``lower_slice``) when ``lowering``
    allows, and built otherwise.

    A yielded slice is used up when the next one is asked for: its columns
    are released then, read by ``lower_slice`` or dropped before a build.
    So the caller reduces it first, no slice is derived before its parent's
    reduction, and one built differential is held at a time.
    """
    cx = above = None
    for a2 in sorted(set(values), reverse=True):
        step = None if cx is None else lowering(g, spec, above, a2)
        if step is not None:
            cx = lower_slice(cx, *step)
        else:
            if cx is not None:
                cx.diff.clear()  # release the slice above before building
            cx = build_complex(g, s, spec, a2)
        above = a2
        yield a2, cx


def slice_tower(g: GridDiagram, s: SignAssignment, spec: FlavorSpec, alexander2, marking: int) -> IntegerChainComplex:
    """The uncapped slice ``alexander2`` built and Morse-reduced with the
    level j_marking, which d never raises (a rectangle through the marking's
    O lowers it).  Only cells with equal j_marking cancel, so every slice
    k steps lower on the marking's component can be read off the result
    (``ReducedSlice.from_tower``); when ``marking`` is the O column that hat
    freezes, the survivors with j_marking = k, under their same-level
    differential, are a reduction of hat's slice k steps lower."""
    cx = build_complex(g, s, spec, alexander2)
    return reduce_complex(IntegerChainComplex(cx.grading, cx.diff, lambda key: key[1][marking]))[0]


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

    It keeps what U maps and kernel cones read: the gradings of its cells,
    the few-cell reduced complex, ``iota``, ``pi`` and the homology bases.
    A slice comes in one of two ways:

    * ``reduce``: a built or derived complex, reduced once with ``iota`` and
      ``pi`` tracked.  ``grading`` holds every cell of that complex; its
      differential is dropped once the reduction returns.  ``pi`` holds only
      the reduction's log, one flat tuple of original keys and coefficients
      per cancellation, and replays it on the keys.  A slice that is never
      the target of a U map may skip the log (``pi`` is then None).
    * ``from_tower``: the survivors of a ``slice_tower`` a few steps higher.
      Its cells are those survivors, relabelled to this slice, so
      ``grading`` holds only them and is the reduced complex's own grading;
      ``iota`` is the identity and ``pi`` the restriction to them.  Between
      two such slices of one tower, pi o U o iota is U on the survivors,
      because the tower's reduction respects the level U lowers.

    A slice truncated at ``maslov_cap`` keeps homology bases (and so its
    ``table``) only in the gradings ``k <= maslov_cap - 2``, where the
    truncation is exact."""

    spec: FlavorSpec
    alexander2: tuple
    maslov_cap: int | None
    grading: dict  # cell -> Maslov grading: every cell, or the survivors of a tower
    reduced: IntegerChainComplex  # the Morse-reduced complex
    iota: dict  # key of the reduced complex -> chain of cells
    pi: Callable | None  # chain of cells -> chain in the reduced complex
    bases: dict  # grading -> GradedHomologyBasis of the reduced complex

    @staticmethod
    def reduce(cx, spec, alexander2, maslov_cap=None, track_pi=True) -> "ReducedSlice":
        """The slice whose built (or derived) complex is ``cx``."""
        reduced, iota, pi = reduce_complex(cx, track_iota=True, track_pi=track_pi)
        top = exact_below(maslov_cap)
        bases = {k: b for k, b in homology_with_bases(reduced).items() if k < top}
        return ReducedSlice(spec, tuple(alexander2), maslov_cap, cx.grading, reduced, iota, pi, bases)

    @staticmethod
    def from_tower(tower: IntegerChainComplex, spec, alexander2, marking: int, steps: int) -> "ReducedSlice":
        """The uncapped slice ``alexander2``, ``steps`` lower on the marking's
        component than the slice whose ``slice_tower`` is ``tower``: the
        survivors with j_marking >= steps, relabelled by ``lower_slice``."""
        # lower_slice empties the diff it reads, so it reads a copy of the tower's
        cx = lower_slice(IntegerChainComplex(tower.grading, dict(tower.diff)), marking, steps)
        cells = cx.grading

        def pi(chain: dict) -> dict:
            return {key: v for key, v in chain.items() if key in cells}

        iota = {key: {key: 1} for key in cells}
        return ReducedSlice(spec, tuple(alexander2), None, cells, cx, iota, pi, homology_with_bases(cx))

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
    or a cell of ``dst`` raises ``GridError``, as does a capped ``src`` with
    no cell in its exact window."""
    if src.spec.flavor != "plus" or dst.spec.flavor != "plus":
        raise ValueError("U maps are computed on the plus flavor")
    top = exact_below(src.maslov_cap)
    if src.maslov_cap is not None and not any(gr < top for gr in src.grading.values()):
        raise GridError(f"a cap of {src.maslov_cap} is exact below grading {top}, where the source slice has no cell")

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


def kernel_table(src: ReducedSlice, dst: ReducedSlice, marking: int) -> HomologyTable:
    """Homology of the kernel of U_marking from the uncapped plus slice
    ``src`` onto ``dst``, the slice one step lower.  The kernel is the cells
    with no U power at ``marking``, so on a knot with ``marking`` 0 this is
    hat's table of ``src``'s slice.

    U_marking is onto ``dst`` on chains, so the kernel's homology is that of
    the cone of pi_dst o U_marking o iota_src between the two reduced
    complexes, shifted down one (``cone_homology``); only that few-cell cone
    is reduced."""
    f = {key: dst.pi(_u_chain(chain, marking)) for key, chain in src.iota.items()}
    return cone_homology(src.reduced, dst.reduced, f, -2)
