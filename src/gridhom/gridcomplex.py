"""The grid complexes in their four flavors, sliced by Alexander grading.

Generators are ``[x, j_1, ..., j_n]`` with ``j_i >= 0`` recording negative
U-powers; the homological grading is ``M(x) + 2 sum(j)`` and each U_i lowers
its component's Alexander grading by one.  The full plus complex is
infinitely generated, so every computation happens in a fixed Alexander
(multi-)grading with a Maslov cap; raising the cap only adds cells at the
top, and ``stable_homology`` raises it until the table is stable below
``cap - 2``.

Flavors:

* ``plus``        -- rectangles crossing no X marking;
* ``plus_prime``  -- rectangles may cross X markings except on the component
                     of the distinguished top-right marking;
* ``hat``         -- plus, restricted to j_i = 0 at one chosen O per component;
* ``tilde``       -- plus, restricted to all j_i = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from gridhom import partitions as pt
from gridhom.gridcore import GridDiagram, GridError
from gridhom.homalg import (
    HomologyTable,
    IntegerChainComplex,
    homology_with_bases,
    reduce_complex,
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

    For plus/hat/tilde the slice is finite (the U-power total over each
    component is pinned by the Alexander grading), so ``maslov_cap=None``
    computes the exact slice; truncating at a cap still computes homology
    exactly below ``cap - 1``.  plus_prime slices are infinite and require
    a cap.
    """
    g._require_canonical()
    n = g.n
    flavor = spec.flavor
    comp_of_o = g.component_of_o
    ncomp = g.num_components
    comp_markings = [[c for c in range(n) if comp_of_o[c] == k] for k in range(ncomp)]
    frozen = set()
    if flavor == "hat":
        frozen = set(spec.hat_markings)
    elif flavor == "tilde":
        frozen = set(range(n))

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
        for k in range(ncomp):
            cols = [c for c in comp_markings[k] if c not in frozen]
            if special_comp is not None and k != special_comp:
                # unconstrained component: bounded only by the Maslov cap
                options = []
                for total in range(budget + 1):
                    options.extend(pt.weak_compositions(total, len(cols)))
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
            per_comp.append(list(pt.weak_compositions(gap, len(cols))))
        if not ok:
            continue
        for choice in itertools.product(*per_comp):
            j = [0] * n
            for k in range(ncomp):
                cols = [c for c in comp_markings[k] if c not in frozen]
                for c, v in zip(cols, choice[k]):
                    j[c] = v
            gr = x.maslov + 2 * sum(j)
            if maslov_cap is None or gr <= maslov_cap:
                grading[(x.sigma, tuple(j))] = gr

    avoid = _x_constraint_mask(g, flavor)
    diff: dict = {}
    for (sigma, j), gr in grading.items():
        col: dict = {}
        for info in g.rectangle_infos(sigma):
            if any(info.x_vec[c] for c in avoid):
                continue
            j2 = tuple(a - b for a, b in zip(j, info.o_vec))
            if any(v < 0 for v in j2):
                continue
            key2 = (info.to_sigma, j2)
            if key2 not in grading:
                continue  # only possible when it fell below nothing; never above
            coeff = col.get(key2, 0) + s.of(info)
            if coeff:
                col[key2] = coeff
            else:
                del col[key2]
        if col:
            diff[(sigma, j)] = col
    return IntegerChainComplex(grading, diff)


def capped_homology(
    g: GridDiagram, s: SignAssignment, spec: FlavorSpec, alexander2, maslov_cap: int
) -> HomologyTable:
    """Homology of the slice truncated at ``maslov_cap``, keeping only the
    gradings ``k <= maslov_cap - 2``, where the truncation is exact."""
    table = build_complex(g, s, spec, alexander2, maslov_cap).homology()
    return HomologyTable({k: v for k, v in table.groups.items() if k <= maslov_cap - 2})


def stable_homology(
    g: GridDiagram,
    s: SignAssignment,
    spec: FlavorSpec,
    alexander2,
    cap_start: int = 2,
    cap_limit: int = 80,
) -> HomologyTable:
    """Homology of one slice, with cap stabilization where a cap is needed.

    plus/hat/tilde slices are finite, so the exact answer comes from one
    uncapped run.  plus_prime slices of links are infinite: the cap is
    raised until two consecutive capped tables agree (each is exact in its
    window, so agreement certifies that nothing appears above the smaller).
    """
    if spec.flavor != "plus_prime" or g.num_components == 1:
        return build_complex(g, s, spec, alexander2, None).homology()
    prev = None
    for cap in range(cap_start, cap_limit + 1, 2):
        table = capped_homology(g, s, spec, alexander2, cap)
        if table == prev:
            return table
        prev = table
    raise UnboundedSlice(f"homology did not stabilize below cap {cap_limit}")


@dataclass
class UMapResult:
    """The U_i chain map between two Alexander slices, pushed to homology."""

    source_table: HomologyTable
    target_table: HomologyTable
    matrices: dict  # source grading -> integer matrix (target free basis x source)

    def is_isomorphism_at(self, gr: int) -> bool:
        from gridhom.homalg import smith_normal_form

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


def u_map(
    g: GridDiagram,
    s: SignAssignment,
    spec: FlavorSpec,
    marking: int,
    alexander2,
    maslov_cap: int | None = None,
) -> UMapResult:
    """The degree -2 map U_marking from slice ``alexander2`` downward."""
    if spec.flavor != "plus":
        raise ValueError("U maps are computed on the plus flavor")
    comp = g.component_of_o[marking]
    a2 = tuple(alexander2)
    target_a2 = tuple(v - 2 if k == comp else v for k, v in enumerate(a2))
    src = build_complex(g, s, spec, a2, maslov_cap)
    dst = build_complex(g, s, spec, target_a2, None if maslov_cap is None else maslov_cap - 2)

    def u_of(key):
        sigma, j = key
        if j[marking] == 0:
            return {}
        j2 = tuple(v - 1 if c == marking else v for c, v in enumerate(j))
        return {(sigma, j2): 1}

    # chain map check: d(U x) == U(d x) within the truncation
    for key in src.grading:
        left = dst.apply(u_of(key))
        right: dict = {}
        for key2, v in src.diff.get(key, {}).items():
            for key3, v3 in u_of(key2).items():
                right[key3] = right.get(key3, 0) + v * v3
        right = {k: v for k, v in right.items() if v}
        if left != right:
            raise GridError(f"U map is not a chain map at {key}")

    red_src, iota, _ = reduce_complex(src, track_iota=True)
    red_dst, _, pi = reduce_complex(dst, track_pi=True)
    hb_src = homology_with_bases(red_src)
    hb_dst = homology_with_bases(red_dst)

    matrices: dict = {}
    for gr, basis in hb_src.items():
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

    src_table = _table_of(hb_src)
    dst_table = _table_of(hb_dst)
    return UMapResult(src_table, dst_table, matrices)


def _table_of(hb) -> HomologyTable:
    groups = {}
    for gr, basis in hb.items():
        if basis.free_reps or basis.torsion:
            groups[gr] = (len(basis.free_reps), basis.torsion)
    return HomologyTable(groups)
