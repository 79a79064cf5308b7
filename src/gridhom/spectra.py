"""Cell-level bookkeeping for the flow-category CW complexes, and the wedge
decompositions available in the Hurewicz range.

A window [B, A] of Maslov gradings turns one Alexander slice of a grid
complex into a finite CW complex: one cell of dimension C_d(B, A) + gr per
generator, attached along the zero-dimensional compactified moduli spaces,
so the cellular chain complex is the grid complex shifted by C_d(B, A).

When the homology of a slice is free abelian and supported in at most two
consecutive Maslov gradings, the associated spectrum is a wedge of spheres
determined by the ranks; otherwise the decomposition is reported as
undetermined, with the cone description when exactly two gradings occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gridhom.gridcore import GridDiagram
from gridhom.homalg import HomologyTable, IntegerChainComplex
from gridhom.gridcomplex import FlavorSpec, ReducedSlice, alexander2_range, build_complex, capped_homology, u_map
from gridhom.signs import SignAssignment


def dimension_offset(b: int, a: int, d: int) -> int:
    """C_d(B, A) = (A - B) d - B."""
    return (a - b) * d - b


@dataclass
class WedgeDecomposition:
    """Wedge of spheres, or a report of why the criterion does not apply."""

    summands: list | None  # [(degree, multiplicity)] sorted, or None
    ranks: dict = field(default_factory=dict)
    torsion_free: bool = True
    cone: str | None = None

    @property
    def determined(self) -> bool:
        return self.summands is not None

    def describe(self) -> str:
        if self.determined:
            if not self.summands:
                return "*"
            return " v ".join(
                " v ".join([f"S^{deg}"] * mult) for deg, mult in self.summands
            )
        if self.cone:
            return f"undetermined: {self.cone}"
        return "undetermined"

    def to_json_obj(self):
        if self.determined:
            return {"wedge": [[d, m] for d, m in self.summands]}
        out = {"undetermined": {str(k): v for k, v in sorted(self.ranks.items())}}
        if not self.torsion_free:
            out["torsion"] = True
        if self.cone:
            out["cone"] = self.cone
        return out


def wedge_decomposition(table: HomologyTable) -> WedgeDecomposition:
    nz = table.nonzero()
    ranks = {k: r for k, (r, t) in nz.items()}
    if not table.is_torsion_free():
        return WedgeDecomposition(None, ranks, torsion_free=False)
    support = sorted(ranks)
    if not support:
        return WedgeDecomposition([])
    if len(support) == 1:
        d = support[0]
        return WedgeDecomposition([(d, ranks[d])])
    if len(support) == 2 and support[1] == support[0] + 1:
        return WedgeDecomposition([(d, ranks[d]) for d in support])
    cone = None
    if len(support) == 2:
        d1, d2 = support
        k, l = ranks[d1], ranks[d2]
        src = f"S^{d2 - 1}" if l == 1 else f"wedge of {l} copies of S^{d2 - 1}"
        dst = f"S^{d1}" if k == 1 else f"wedge of {k} copies of S^{d1}"
        cone = f"cone of a stable map {src} -> {dst}"
    return WedgeDecomposition(None, ranks, cone=cone)


@dataclass
class CellStructure:
    """Cells of the CW complex for one slice in the window [B, A]."""

    window: tuple[int, int]
    d: int
    offset: int
    cells: dict  # key -> cell dimension
    boundary: dict  # key -> {key: coeff}, the cellular boundary degrees
    complex: IntegerChainComplex

    def shift_to(self, b2: int, a2: int) -> int:
        """Cell-dimension shift when enlarging the window to [b2, a2]."""
        b, a = self.window
        if b2 > b or a2 < a:
            raise ValueError("windows only grow")
        return dimension_offset(b2, a2, self.d) - self.offset


def cell_census(
    g: GridDiagram,
    s: SignAssignment,
    spec: FlavorSpec,
    alexander2,
    window: tuple[int, int],
    d: int = 1,
) -> CellStructure:
    """Cell list and cellular boundary for one Alexander slice and window.

    The cellular boundary in a consecutive pair of dimensions is the signed
    count of points in the compactified moduli spaces, i.e. exactly the grid
    differential; the construction asserts that identification.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    b, a = window
    if b > a:
        raise ValueError("empty window")
    cx = build_complex(g, s, spec, alexander2, maslov_cap=a)
    offset = dimension_offset(b, a, d)
    cells = {key: offset + gr for key, gr in cx.grading.items() if b <= gr <= a}
    boundary: dict = {}
    for key, col in cx.diff.items():
        if key not in cells:
            continue
        entries = {k: v for k, v in col.items() if k in cells}
        if entries:
            boundary[key] = entries
    grading = {key: cx.grading[key] for key in cells}
    sub = IntegerChainComplex(grading, boundary)
    # cellular chain complex == grid complex in the window, shifted by offset
    for key, dim in cells.items():
        assert dim == offset + grading[key]
    return CellStructure((b, a), d, offset, cells, boundary, sub)


@dataclass
class SliceReport:
    alexander2: int
    tables: dict  # flavor -> HomologyTable
    wedges: dict  # flavor -> WedgeDecomposition
    u_maps: dict  # marking -> {"iso": bool, "matrices": {gr: matrix}}


def spectrum_report(g: GridDiagram, s: SignAssignment, alexander_range=None) -> dict:
    """Per-Alexander hat and plus wedge summaries and U_0; knots only (one
    Alexander component).

    ``alexander_range`` is an iterable of doubled gradings; by default the
    range spanned by the generators.  The report keeps the caller's order.

    The slices are walked from the top down and each plus slice is built
    and Morse-reduced once: its ``ReducedSlice`` gives the plus table, the
    source of U_0 on it and the target of U_0 from the slice above.  So the
    largest slice is built and reduced while nothing else is held, and every
    later one beside at most one ``ReducedSlice``, which keeps its cells'
    gradings but not its differential.
    """
    if g.num_components != 1:
        raise ValueError("spectrum reports are per-component; use a knot grid")
    order = list(alexander2_range(g) if alexander_range is None else alexander_range)
    hat, plus = FlavorSpec.make(g, "hat"), FlavorSpec.make(g, "plus")
    below = None
    out: dict[int, SliceReport] = {}
    for a2 in sorted(set(order), reverse=True):
        here = below if below is not None and below.alexander2 == (a2,) else None
        below = None
        tables = {"hat": capped_homology(g, s, hat, (a2,), None)}
        if here is None:
            here = ReducedSlice.build(g, s, plus, (a2,))
        tables["plus"] = here.table
        wedges = {flavor: wedge_decomposition(table) for flavor, table in tables.items()}
        umaps = {}
        if tables["plus"].nonzero():
            below = ReducedSlice.build(g, s, plus, (a2 - 2,))
            res = u_map(here, below, 0)
            umaps[0] = {
                "iso": res.is_isomorphism(),
                "matrices": {gr: res.matrices.get(gr, []) for gr in sorted(tables["plus"].groups)},
            }
        out[a2] = SliceReport(a2, tables, wedges, umaps)
    return {a2: out[a2] for a2 in order}


def alexander_label(a2: int) -> str:
    """The Alexander grading of doubled value ``a2``: ``"2"`` or ``"3/2"``."""
    return f"{a2 // 2}" if a2 % 2 == 0 else f"{a2}/2"


def report_to_json_obj(report: dict) -> dict:
    obj = {}
    for a2, rep in sorted(report.items()):
        entry = {}
        for flavor, table in rep.tables.items():
            entry[flavor] = {
                "homology": table.to_json_obj(),
                **rep.wedges[flavor].to_json_obj(),
            }
        if rep.u_maps:
            entry["u_maps"] = {
                str(m): {"iso": d["iso"], "matrices": {str(k): v for k, v in d["matrices"].items()}}
                for m, d in rep.u_maps.items()
            }
        obj[alexander_label(a2)] = entry
    return obj
