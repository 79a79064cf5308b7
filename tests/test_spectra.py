import pytest

from gridhom import gridcomplex
from gridhom.homalg import HomologyTable, reduce_complex
from gridhom.gridcomplex import FlavorSpec, build_complex
from gridhom.spectra import report_to_json_obj, spectrum_report, wedge_decomposition
from conftest import plus_u_map, reference_reduce


def table(entries, torsion=None):
    groups = {k: (r, ()) for k, r in entries.items()}
    if torsion:
        for k, t in torsion.items():
            r, _ = groups.get(k, (0, ()))
            groups[k] = (r, tuple(t))
    return HomologyTable(groups)


class TestWedge:
    def test_single_sphere(self):
        w = wedge_decomposition(table({4: 1}))
        assert w.determined and w.summands == [(4, 1)]
        assert w.describe() == "S^4"

    def test_trivial(self):
        w = wedge_decomposition(table({}))
        assert w.determined and w.summands == []
        assert w.describe() == "*"

    def test_two_consecutive(self):
        w = wedge_decomposition(table({-1: 1, 0: 1}))
        assert w.summands == [(-1, 1), (0, 1)]
        assert w.describe() == "S^-1 v S^0"

    def test_nonconsecutive_cone(self):
        w = wedge_decomposition(table({-1: 1, 2: 1}))
        assert not w.determined
        assert w.cone == "cone of a stable map S^1 -> S^-1"

    def test_three_gradings_undetermined(self):
        w = wedge_decomposition(table({0: 1, 1: 1, 2: 1}))
        assert not w.determined and w.cone is None

    def test_torsion_undetermined(self):
        w = wedge_decomposition(table({0: 1}, torsion={0: (2,)}))
        assert not w.determined and not w.torsion_free

    def test_idempotent(self):
        # homology of a determined wedge reproduces the decomposition
        w = wedge_decomposition(table({3: 2, 4: 1}))
        assert w.determined
        again = wedge_decomposition(table({d: m for d, m in w.summands}))
        assert again.summands == w.summands


class TestReport:
    def test_unknot_report(self, unknot2, signs2):
        rep = spectrum_report(unknot2, signs2, range(-2, 5, 2))
        assert rep[0].wedges["hat"].describe() == "S^0"
        assert rep[0].wedges["plus"].describe() == "S^0"
        assert rep[2].wedges["plus"].describe() == "S^2"
        assert rep[-2].wedges["plus"].describe() == "*"
        assert rep[2].u_maps[0]["iso"] is True

    def test_delta_thin_hat_always_determined(self, trefoil5, signs5):
        rep = spectrum_report(trefoil5, signs5)
        for a2, slice_rep in rep.items():
            table = slice_rep.tables["hat"]
            support = {m for m, (r, t) in table.nonzero().items()}
            assert len(support) <= 1  # single Maslov grading per Alexander
            assert slice_rep.wedges["hat"].determined

    def test_links_rejected(self, hopf4, signs_hopf):
        with pytest.raises(ValueError):
            spectrum_report(hopf4, signs_hopf)


class TestSharedSlices:
    """spectrum_report builds and reduces the top plus slice alone, reads the
    lower ones off its survivors and hands each to u_map as source and as
    target; the answers must not change."""

    def test_iso_verdict(self, trefoil5, signs5, unknot2, signs2):
        rep = spectrum_report(trefoil5, signs5, [2, 4])
        assert rep[2].u_maps[0]["iso"] is False  # rank H+(A=0) = 2, rank H+(A=1) = 1
        assert rep[4].u_maps[0]["iso"] is True
        tower = spectrum_report(unknot2, signs2, range(2, 9, 2))
        assert all(slice_rep.u_maps[0]["iso"] for slice_rep in tower.values())

    def test_report_matches_standalone(self, trefoil5, signs5):
        order = [8, 2, 4]  # unsorted, with a gap at 6
        rep = spectrum_report(trefoil5, signs5, order)
        assert list(rep) == order
        for a2 in order:
            for flavor in ("hat", "plus"):
                spec = FlavorSpec.make(trefoil5, flavor)
                assert rep[a2].tables[flavor] == build_complex(trefoil5, signs5, spec, (a2,)).homology()
            res = plus_u_map(trefoil5, signs5, 0, (a2,))
            gradings = sorted(set(res.matrices) | set(rep[a2].tables["plus"].groups))
            assert rep[a2].u_maps[0] == {
                "iso": res.is_isomorphism(),
                "matrices": {gr: res.matrices.get(gr, []) for gr in gradings},
            }

    @pytest.mark.parametrize(
        "grid, signs, order",
        [("trefoil5", "signs5", [8, 2, 6]), ("t25", "signs7", [4, 0])],  # unsorted, with gaps
    )
    def test_report_does_not_depend_on_walk_order(self, grid, signs, order, request):
        g, s = request.getfixturevalue(grid), request.getfixturevalue(signs)
        rep = spectrum_report(g, s, order)
        assert list(rep) == order
        alone: dict = {}
        for a2 in order:
            alone.update(report_to_json_obj(spectrum_report(g, s, [a2])))
        assert report_to_json_obj(rep) == alone

    def test_each_slice_built_once(self, trefoil5, signs5, monkeypatch):
        built = []

        def counting(g, s, spec, alexander2, maslov_cap=None):
            built.append((spec.flavor, alexander2))
            return build_complex(g, s, spec, alexander2, maslov_cap)

        monkeypatch.setattr(gridcomplex, "build_complex", counting)
        spectrum_report(trefoil5, signs5, [8, 2, 4])
        # plus 8 alone: plus 6, 4, 2 and 0 are read off it, and hat off their level j_0 = 0
        assert built == [("plus", (8,))]

    @pytest.mark.parametrize("a2", [4, 6, 8, 10])
    def test_tracking_leaves_reduction_unchanged(self, a2, trefoil5, signs5):
        # the oracle's tracked reduction, which u_map tests read, cancels as
        # the library's untracked one does
        cx = build_complex(trefoil5, signs5, FlavorSpec.make(trefoil5, "plus"), (a2,))
        (plain,) = reduce_complex(cx)
        tracked, iota, pi = reference_reduce(cx)
        assert list(tracked.grading.items()) == list(plain.grading.items())
        assert list(tracked.diff) == list(plain.diff)
        for key, col in plain.diff.items():
            assert list(tracked.diff[key].items()) == list(col.items())
        assert set(iota) == set(plain.grading)
        for key in tracked.grading:
            assert pi(iota[key]) == {key: 1}
