"""Per-Alexander spectrum reports of a knot: the hat and plus homology of
each slice, the wedge of spheres it determines in the Hurewicz range, and
U_0 on plus homology.

When the homology of a slice is free abelian and supported in at most two
consecutive Maslov gradings, the associated spectrum is a wedge of spheres
determined by the ranks; otherwise the decomposition is reported as
undetermined, with the cone description when exactly two gradings occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gridhom.gridcore import GridDiagram
from gridhom.homalg import HomologyTable, IntegerChainComplex
from gridhom.gridcomplex import FlavorSpec, ReducedSlice, alexander2_range, reduced_slices, u_map
from gridhom.signs import SignAssignment


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
class SliceReport:
    alexander2: int
    tables: dict  # flavor -> HomologyTable
    wedges: dict  # flavor -> WedgeDecomposition
    u_maps: dict  # marking -> {"iso": bool, "matrices": {gr: matrix}}


def spectrum_report(g: GridDiagram, s: SignAssignment, alexander_range=None) -> dict:
    """Per-Alexander hat and plus wedge summaries and U_0; knots only (one
    Alexander component, so every doubled grading is even).

    ``alexander_range`` is an iterable of doubled gradings; by default the
    range spanned by the generators.  The report keeps the caller's order.

    A slice's report reads two plus slices, its own and the one below, the
    target of U_0.  All of them come from one tower (``reduced_slices``): the
    top plus slice is built and Morse-reduced once with the level j_0, and
    the slice L steps lower is read off the few survivors as those with
    j_0 >= L.  That gives each slice's plus table, and U_0 from it to the
    slice below is the projection that drops its survivors with j_0 = L.
    Hat freezes column 0, so hat's table is the homology of the kernel of
    U_0: the slice's survivors with j_0 = L in the tower (0 in the slice's
    own labels), under their own differential.
    So one slice is built and reduced, while nothing else is held, and no
    hat complex is built.
    """
    if g.num_components != 1:
        raise ValueError("spectrum reports are per-component; use a knot grid")
    order = list(alexander2_range(g) if alexander_range is None else alexander_range)
    if any(a2 % 2 for a2 in order):
        raise ValueError("a knot's doubled Alexander gradings are even")
    window = {(a2 - step,) for a2 in order for step in (0, 2)}
    slices = {a2: sl for (a2,), sl in reduced_slices(g, s, FlavorSpec.make(g, "plus"), window)}
    return {a2: _slice_report(slices[a2], slices[a2 - 2]) for a2 in order}


def _slice_report(here: ReducedSlice, below: ReducedSlice) -> SliceReport:
    """The report of ``here``'s slice; ``below`` is the slice one step lower."""
    # d never raises j_0, so the survivors with j_0 = 0 span a subcomplex,
    # the kernel of U_0, and their columns meet no other cell
    kernel = {key: gr for key, gr in here.grading.items() if not key[1][0]}
    hat = IntegerChainComplex(kernel, {key: col for key, col in here.reduced.diff.items() if key in kernel})
    tables = {"hat": hat.homology(), "plus": here.table}
    wedges = {flavor: wedge_decomposition(table) for flavor, table in tables.items()}
    umaps = {}
    if tables["plus"].nonzero():
        res = u_map(here, below, 0)
        umaps[0] = {
            "iso": res.is_isomorphism(),
            "matrices": {gr: res.matrices.get(gr, []) for gr in sorted(tables["plus"].groups)},
        }
    return SliceReport(here.alexander2[0], tables, wedges, umaps)


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
