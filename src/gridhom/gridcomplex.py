"""The grid complexes in their four flavors, sliced by Alexander grading.

Generators are ``[x, j_1, ..., j_n]`` with ``j_i >= 0`` recording negative
U-powers; the homological grading is ``M(x) + 2 sum(j)`` and each U_i lowers
its component's Alexander grading by one.  The full plus complex is
infinitely generated, so every computation happens in a fixed Alexander
(multi-)grading.  Such a slice is finite for plus, hat and tilde, and for
plus_prime on a knot; plus_prime slices of links are infinite and are
computed only under a Maslov cap, which gives homology exactly below
``cap - 1`` (``capped_homology``).

Flavors:

* ``plus``        -- rectangles crossing no X marking;
* ``plus_prime``  -- rectangles may cross X markings except on the component
                     of the distinguished top-right marking;
* ``hat``         -- plus, restricted to j_i = 0 at one chosen O per component;
* ``tilde``       -- plus, restricted to all j_i = 0.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import sub

from gridhom import partitions as pt
from gridhom.gridcore import GridDiagram, GridError
from gridhom.homalg import (
    HomologyTable,
    IntegerChainComplex,
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
    flavor: str
    hat_markings: tuple[int, ...] = ()

    @staticmethod
    def make(g: GridDiagram, flavor: str, hat_markings=None) -> "FlavorSpec":
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        if flavor != "hat":
            return FlavorSpec(flavor)
        if hat_markings is None:
            chosen = {}
            for col, comp in enumerate(g.component_of_o):
                chosen.setdefault(comp, col)
            hat_markings = tuple(chosen[c] for c in sorted(chosen))
        else:
            hat_markings = tuple(hat_markings)
            comps = sorted(g.component_of_o[c] for c in hat_markings)
            if comps != list(range(g.num_components)):
                raise ValueError("hat needs exactly one marking per link component")
        return FlavorSpec("hat", hat_markings)


def _x_constraint_mask(g: GridDiagram, flavor: str) -> tuple[int, ...]:
    """Columns whose X marking must be avoided by differential rectangles."""
    if flavor in ("plus", "hat", "tilde"):
        return tuple(range(g.n))
    # plus_prime: only the X markings on the component of the top-right one
    comp_of_x = [g.component_of_o[g.o_row.index(g.x_row[c])] for c in range(g.n)]
    special = comp_of_x[g.n - 1]
    return tuple(c for c in range(g.n) if comp_of_x[c] == special)


def build_complex(
    g: GridDiagram,
    s: SignAssignment,
    spec: FlavorSpec,
    alexander2,
    maslov_cap: int | None = None,
) -> IntegerChainComplex:
    """Chain complex of one Alexander slice, truncated at ``maslov_cap``.

    ``alexander2`` is the doubled Alexander multi-grading (one entry per
    component) for plus/hat/tilde; for plus_prime it is the doubled grading
    on the distinguished component alone.

    For plus/hat/tilde, and plus_prime on a knot, the slice is finite (the
    U-power total over each component is pinned by the Alexander grading),
    so ``maslov_cap=None`` computes the exact slice.  plus_prime slices of
    links are infinite: without a cap this raises ``UnboundedSlice``.  A
    slice truncated at a cap has its homology exact below ``cap - 1``.

    The differential is built per generator sigma: its rectangles are
    filtered once (no avoided X, a target generator with cells in the
    slice), and each cell (sigma, j) then only subtracts a rectangle's O
    markings from j and looks the result up; a negative entry, such as one
    in a frozen column, matches no cell.  Every diff entry
    stores the key object that ``grading`` holds for its cell, so all
    columns that mention a cell share one key.  Signs are asked only for
    arrows that land in the slice.
    """
    g._require_canonical()
    n = g.n
    flavor = spec.flavor
    comp_of_o = g.component_of_o
    ncomp = g.num_components
    frozen = set()
    if flavor == "hat":
        frozen = set(spec.hat_markings)
    elif flavor == "tilde":
        frozen = set(range(n))
    # per component, the O columns whose U-power j_c may be non-zero
    free_cols = [[c for c in range(n) if comp_of_o[c] == k and c not in frozen] for k in range(ncomp)]
    # weak compositions of (total, parts), listed once for all generators
    compositions = functools.cache(lambda total, parts: list(pt.weak_compositions(total, parts)))

    special_comp = None
    if flavor == "plus_prime":
        special_comp = comp_of_o[g.o_row.index(g.x_row[n - 1])]
        alexander2 = (int(alexander2),) if isinstance(alexander2, int) else tuple(alexander2)
        if len(alexander2) != 1:
            raise ValueError("plus_prime slices by the distinguished component only")
        if maslov_cap is None and ncomp > 1:
            raise UnboundedSlice("plus_prime slices of links are infinite; give a maslov_cap")
    else:
        alexander2 = tuple(alexander2)
        if len(alexander2) != ncomp:
            raise ValueError(f"alexander grading needs {ncomp} components")

    grading: dict = {}
    for x in g.generators():
        if maslov_cap is not None and x.maslov > maslov_cap:
            continue
        budget = None if maslov_cap is None else (maslov_cap - x.maslov) // 2
        per_comp: list[list[tuple[int, ...]]] = []
        ok = True
        for k, cols in enumerate(free_cols):
            if special_comp is not None and k != special_comp:
                # unconstrained component: bounded only by the Maslov cap
                options = []
                for total in range(budget + 1):
                    options.extend(compositions(total, len(cols)))
                per_comp.append(options)
                continue
            gap2 = alexander2[k if special_comp is None else 0] - x.alexander2[k]
            if gap2 < 0 or gap2 % 2:
                ok = False
                break
            gap = gap2 // 2
            if budget is not None and gap > budget:
                ok = False
                break
            if not cols and gap > 0:
                ok = False
                break
            per_comp.append(compositions(gap, len(cols)))
        if not ok:
            continue
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

    avoid = _x_constraint_mask(g, flavor)
    diff: dict = {}
    for sigma, by_j in cells.items():
        # the rectangles leaving sigma that can give an arrow in this slice:
        # no avoided X and a target generator with cells
        arrows = []
        for info in g.rectangle_infos(sigma):
            targets = cells.get(info.to_sigma)
            if targets is None or any(info.x_vec[c] for c in avoid):
                continue
            arrows.append((info, targets, info.o_vec if any(info.o_vec) else None))
        for j, key in by_j.items():
            col: dict = {}
            for info, targets, o_vec in arrows:
                key2 = targets.get(j if o_vec is None else tuple(map(sub, j, o_vec)))
                if key2 is None:
                    continue
                coeff = col.get(key2, 0) + s.of(info)
                if coeff:
                    col[key2] = coeff
                else:
                    del col[key2]
            if col:
                diff[key] = col
    return IntegerChainComplex(grading, diff)


def capped_homology(
    g: GridDiagram, s: SignAssignment, spec: FlavorSpec, alexander2, maslov_cap: int
) -> HomologyTable:
    """Homology of the slice truncated at ``maslov_cap``, keeping only the
    gradings ``k <= maslov_cap - 2``, where the truncation is exact."""
    table = build_complex(g, s, spec, alexander2, maslov_cap).homology()
    return HomologyTable({k: v for k, v in table.groups.items() if k <= maslov_cap - 2})


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


@dataclass
class ReducedSlice:
    """One slice, built once and Morse-reduced once with both homotopy
    equivalences tracked, so it can be the source or the target of a U map."""

    complex: IntegerChainComplex
    iota: dict  # key of the reduced complex -> chain in ``complex``
    pi: dict  # key of ``complex`` -> chain in the reduced complex
    bases: dict  # grading -> GradedHomologyBasis of the reduced complex

    @staticmethod
    def build(g, s, spec, alexander2, maslov_cap=None) -> "ReducedSlice":
        cx = build_complex(g, s, spec, alexander2, maslov_cap)
        reduced, iota, pi = reduce_complex(cx, track_iota=True, track_pi=True)
        return ReducedSlice(cx, iota, pi, homology_with_bases(reduced))

    @property
    def table(self) -> HomologyTable:
        return HomologyTable.from_bases(self.bases)


def cached_slice(slices: dict, g, s, spec, alexander2, maslov_cap=None) -> ReducedSlice:
    """The slice ``alexander2`` under ``maslov_cap`` from ``slices`` (keyed
    by ``(alexander2, maslov_cap)``), built on a miss."""
    key = (alexander2, maslov_cap)
    found = slices.get(key)
    if found is None:
        found = slices[key] = ReducedSlice.build(g, s, spec, alexander2, maslov_cap)
    return found


def u_map(
    g: GridDiagram,
    s: SignAssignment,
    spec: FlavorSpec,
    marking: int,
    alexander2,
    maslov_cap: int | None = None,
    *,
    slices: dict | None = None,
) -> UMapResult:
    """The degree -2 map U_marking from slice ``alexander2`` downward.

    ``slices`` is a caller-owned cache of ``ReducedSlice`` of this grid,
    sign table and plus flavor, keyed by ``(alexander2 tuple, maslov_cap)``:
    both slices are taken from it when present and added to it otherwise, so
    a caller walking down a tower builds and reduces each slice once.  With
    ``None`` both slices are built here.
    """
    if spec.flavor != "plus":
        raise ValueError("U maps are computed on the plus flavor")
    comp = g.component_of_o[marking]
    a2 = tuple(alexander2)
    target_a2 = tuple(v - 2 if k == comp else v for k, v in enumerate(a2))
    slices = {} if slices is None else slices
    src = cached_slice(slices, g, s, spec, a2, maslov_cap)
    dst = cached_slice(slices, g, s, spec, target_a2, None if maslov_cap is None else maslov_cap - 2)

    def u_of(key):
        sigma, j = key
        if j[marking] == 0:
            return {}
        j2 = tuple(v - 1 if c == marking else v for c, v in enumerate(j))
        return {(sigma, j2): 1}

    # chain map check: d(U x) == U(d x) within the truncation
    for key in src.complex.grading:
        left = dst.complex.apply(u_of(key))
        right: dict = {}
        for key2, v in src.complex.diff.get(key, {}).items():
            for key3, v3 in u_of(key2).items():
                right[key3] = right.get(key3, 0) + v * v3
        right = {k: v for k, v in right.items() if v}
        if left != right:
            raise GridError(f"U map is not a chain map at {key}")

    iota, pi, hb_dst = src.iota, dst.pi, dst.bases
    matrices: dict = {}
    for gr, basis in src.bases.items():
        if not basis.free_reps:
            continue
        cols = []
        for rep in basis.free_reps:
            chain: dict = {}
            for rkey, rv in rep.items():
                for okey, ov in iota[rkey].items():
                    for ukey, uv in u_of(okey).items():
                        for pkey, pv in pi[ukey].items():
                            chain[pkey] = chain.get(pkey, 0) + rv * ov * uv * pv
            chain = {k: v for k, v in chain.items() if v}
            target_basis = hb_dst.get(gr - 2)
            if target_basis is None:
                if chain:
                    raise GridError("U image escapes the truncation window")
                cols.append([])
                continue
            cols.append(target_basis.express(chain))
        rows = max((len(c) for c in cols), default=0)
        matrices[gr] = [[c[r] if r < len(c) else 0 for c in cols] for r in range(rows)]

    return UMapResult(src.table, dst.table, matrices)
