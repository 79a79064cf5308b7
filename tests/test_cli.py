import json
import os
import subprocess
import sys

import pytest

import gridhom
from gridhom.cli import main
from gridhom.gridcomplex import FlavorSpec, capped_homology
from gridhom.gridcore import load_grid
from gridhom.signs import build_sign_assignment
from conftest import fixture_path, plus_u_map


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestValidate:
    def test_good(self, capsys):
        code, out = run(capsys, "validate", fixture_path("trefoil5.grid"))
        assert code == 0
        assert "n=5" in out

    def test_duplicate_rows_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.grid"
        bad.write_text("n=2\nX: 1 2\nO: 1 1\n")
        assert main(["validate", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["validate", "/nonexistent.grid"]) == 2


class TestHomology:
    def test_trefoil_hat_json(self, capsys):
        code, out = run(
            capsys,
            "--json",
            "homology",
            fixture_path("trefoil5.grid"),
            "--flavor",
            "hat",
            "--alexander=-2",
            "--alexander=0",
            "--alexander=2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["tables"]["-2"] == {"-2": {"rank": 1, "torsion": []}}
        assert data["tables"]["0"] == {"-1": {"rank": 1, "torsion": []}}
        assert data["tables"]["2"] == {"0": {"rank": 1, "torsion": []}}

    def test_csv_output(self, tmp_path, capsys):
        code, _ = run(
            capsys,
            "homology",
            fixture_path("unknot2.grid"),
            "--flavor",
            "plus",
            "--alexander=0",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        files = os.listdir(tmp_path)
        assert any(f.endswith(".csv") for f in files)


class TestSharedBuilds:
    """``homology`` reads its uncapped slices off shared towers and ``u-map``
    its source and target off one tower; the answers are those of direct
    builds."""

    @pytest.mark.parametrize("grid, flavor, slices", [
        ("trefoil5", "plus", ["6", "-2", "2", "4", "2"]),  # unsorted, with a gap and a repeat
        ("hopf4", "hat", ["2,0", "0,0", "2,-2", "-2,-2", "0,-2"]),  # some slices move two components
        ("hopf4", "tilde", ["2,0", "0,0"]),  # tilde leaves no O column free, so every slice is built
    ])
    def test_homology(self, grid, flavor, slices, capsys):
        g = load_grid(fixture_path(f"{grid}.grid"))
        s = build_sign_assignment(g)
        spec = FlavorSpec.make(g, flavor)
        code, out = run(capsys, "--json", "homology", fixture_path(f"{grid}.grid"), "--flavor", flavor,
                        *(f"--alexander={a}" for a in slices))
        assert code == 0
        tables = json.loads(out)["tables"]
        for a in slices:
            a2 = tuple(int(v) for v in a.split(","))
            assert tables[a.replace(",", "_")] == capped_homology(g, s, spec, a2, None).to_json_obj(), a

    @pytest.mark.parametrize("grid, marking, a2, cap", [
        ("trefoil5", 0, "6", None), ("trefoil5", 2, "4", 6), ("hopf4", 1, "2,2", None), ("hopf4", 2, "2,2", 6),
        *(("trefoil5", m, str(a2), None) for m in range(5) for a2 in range(-2, 11, 2) if (m, a2) != (0, 6)),
    ])
    def test_u_map(self, grid, marking, a2, cap, capsys):
        g = load_grid(fixture_path(f"{grid}.grid"))
        alexander2 = tuple(int(v) for v in a2.split(","))
        res = plus_u_map(g, build_sign_assignment(g), marking, alexander2, cap)
        argv = ["--json", "u-map", fixture_path(f"{grid}.grid"), "--marking", str(marking), "--alexander", a2]
        code, out = run(capsys, *argv, *([] if cap is None else ["--cap", str(cap)]))
        assert code == 0
        data = json.loads(out)
        assert data["matrices"] == {str(k): m for k, m in sorted(res.matrices.items())}
        assert data["isomorphism"] == res.is_isomorphism()
        assert res.source_table.nonzero()


class TestSliceLabels:
    """The text lines name a slice as the ``--json`` output does."""

    @pytest.mark.parametrize("argv", [
        ["homology", fixture_path("hopf4.grid"), "--flavor", "tilde", "--alexander=0,0", "--alexander=2,0"],
        ["homology", fixture_path("trefoil5.grid"), "--flavor", "plus-prime", "--alexander=0", "--alexander=2"],
    ])
    def test_homology(self, argv, capsys):
        code, text = run(capsys, *argv)
        assert code == 0
        _, out = run(capsys, "--json", *argv)
        labels = [line.split(":")[0].strip()[len("2A="):] for line in text.splitlines()[1:]]
        assert labels == list(json.loads(out)["tables"]) == [a.split("=")[1].replace(",", "_") for a in argv[4:]]

    def test_u_map(self, capsys):
        argv = ["u-map", fixture_path("hopf4.grid"), "--alexander", "2,0"]
        code, text = run(capsys, *argv)
        assert code == 0
        _, out = run(capsys, "--json", *argv)
        label = "_".join(map(str, json.loads(out)["alexander2"]))
        assert text.splitlines()[0] == f"U_0 on slice 2A={label}" == "U_0 on slice 2A=2_0"


class TestVerifiers:
    def test_signs_verify(self, capsys):
        code, out = run(capsys, "signs-verify", fixture_path("unknot2.grid"))
        assert code == 0

    def test_poset_verify(self, capsys):
        code, out = run(capsys, "poset-verify", fixture_path("unknot2.grid"), "--bound", "2")
        assert code == 0

    def test_cdp_verify(self, capsys):
        code, out = run(capsys, "--json", "cdp-verify", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["d_squared_zero"] is True
        assert len(data["identities"]) == 9
        assert all(data["identities"].values())

    def test_permutohedron(self, capsys):
        code, out = run(capsys, "--json", "permutohedron", "--n", "4")
        data = json.loads(out)
        assert code == 0 and data["facets"] == 14 and data["coherent"] is True

    def test_zn(self, capsys, tmp_path):
        dot = str(tmp_path / "zn.dot")
        code, out = run(capsys, "--json", "zn", "--n", "2", "--edges", "--dot", dot)
        data = json.loads(out)
        assert code == 0 and data["count"] == 7
        assert os.path.exists(dot)

    def test_zn_dot_does_not_need_edges(self, capsys, tmp_path):
        # --dot writes the closure order whether or not --edges is given;
        # only --edges adds closure_pairs to the output
        texts = []
        for extra in ([], ["--edges"]):
            dot = tmp_path / f"zn{len(extra)}.dot"
            code, out = run(capsys, "--json", "zn", "--n", "2", "--dot", str(dot), *extra)
            assert code == 0 and ("closure_pairs" in json.loads(out)) == bool(extra)
            texts.append(dot.read_text())
        assert texts[0] == texts[1] and texts[0].count(" -> ") == json.loads(out)["closure_pairs"] > 0

    def test_strata(self, capsys):
        code, out = run(
            capsys,
            "--json",
            "strata",
            fixture_path("unknot2.grid"),
            "--max-codim",
            "1",
        )
        data = json.loads(out)
        assert code == 0
        types = sorted(e.get("type") for e in data["strata"] if e["codim"] == 1)
        assert types == ["TypeI", "TypeII"]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "hopf4.grid"],
        ["u-map", "unknot2.grid", "--alexander", "2", "--marking", "7"],
        ["u-map", "unknot2.grid", "--alexander", "0,1"],
        ["homology", "unknot2.grid", "--alexander=abc"],
        ["homology", "unknot2.grid", "--alexander=0,2"],
        ["homology", "hopf4.grid", "--flavor", "plus-prime"],
        ["strata", "unknot2.grid", "--seed", "{bad"],
        ["strata", "unknot2.grid", "--seed", '{"domain":"Q1"}'],
        ["strata", "unknot2.grid", "--seed", '{"n_vec":[1,0],"lambdas":[[],[1]]}'],
        ["cdp-verify", "--n", "1"],
        ["zn", "--n", "13"],
        ["permutohedron", "--n", "9"],
        ["poset-verify", "unknot2.grid", "--bound", "-1"],
        ["strata", "unknot2.grid", "--max-codim", "-1"],
        ["homology", "hopf4.grid", "--flavor", "plus-prime", "--alexander=4"],
        ["u-map", "trefoil5.grid", "--alexander", "6", "--cap", "1"],
        ["zn", "--n", "2", "--edges", "--dot", "/nonexistent_dir/x.dot"],
        ["homology", "unknot2.grid", "--out", os.path.join(fixture_path("unknot2.grid"), "sub")],
        ["spectrum", "trefoil5.grid", "--alexander", "1"],  # a knot's doubled gradings are even
        ["spectrum", "trefoil5.grid", "--alexander", "4", "--alexander", "1"],
        ["homology", "trefoil5.grid", "--flavor", "hat", "--alexander=1"],
        ["u-map", "trefoil5.grid", "--alexander", "1"],
    ],
)
def test_bad_input_exits_2(argv, capsys):
    argv = [fixture_path(a) if a.endswith(".grid") else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "", out
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "maslov_cap" not in err, err


class TestCapWindow:
    """A capped result reports only the gradings k <= cap - 2, where the
    truncation is exact, and says so in ``exact_below``."""

    def test_u_map(self, capsys):
        argv = ["--json", "u-map", fixture_path("trefoil5.grid"), "--alexander", "6"]
        for cap, want in ((None, {"6": [[1]]}), (4, {}), (8, {"6": [[1]]})):
            code, out = run(capsys, *argv, *([] if cap is None else ["--cap", str(cap)]))
            assert code == 0
            data = json.loads(out)
            assert data["matrices"] == want and data["isomorphism"] is True
            assert data.get("exact_below") == (None if cap is None else cap - 1)

    def test_plus_prime_link_table(self, capsys):
        want = {"0": {"-1": {"rank": 1, "torsion": []}}, "2": {"1": {"rank": 1, "torsion": []}}}
        for cap in (4, 6, 8):
            code, out = run(
                capsys, "--json", "homology", fixture_path("hopf4.grid"), "--flavor", "plus-prime",
                "--alexander=0", "--alexander=2", "--cap", str(cap),
            )
            assert code == 0
            assert json.loads(out) == {"exact_below": cap - 1, "flavor": "plus-prime", "tables": want}


class TestSpectrum:
    def test_unknot(self, capsys):
        code, out = run(
            capsys, "--json", "spectrum", fixture_path("unknot2.grid"), "--alexander=0", "--alexander=2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["0"]["hat"]["wedge"] == [[0, 1]]
        assert data["1"]["plus"]["wedge"] == [[2, 1]]


class TestGoldenFiles:
    def test_spectrum_matches_golden(self, capsys):
        argv = ["--json", "spectrum", fixture_path("trefoil5.grid")]
        for a2 in (2, 4, 6, 8):
            argv += ["--alexander", str(a2)]
        code, out = run(capsys, *argv)
        assert code == 0
        with open(fixture_path(os.path.join("expected", "trefoil5_spectrum.json"))) as fh:
            assert out == fh.read()


    @pytest.mark.parametrize("name,flavors", [
        ("unknot2", ("hat", "plus", "tilde")),
        ("trefoil5", ("hat", "plus")),
        ("hopf4", ("tilde",)),
    ])
    def test_fixture_matches_golden(self, name, flavors, capsys):
        with open(fixture_path(os.path.join("expected", f"{name}.json"))) as fh:
            golden = json.load(fh)
        assert "provenance" in golden
        for flavor in flavors:
            for a2_key, table in golden[flavor].items():
                args = [
                    "--json",
                    "homology",
                    fixture_path(f"{name}.grid"),
                    "--flavor",
                    flavor,
                    f"--alexander={a2_key}",
                ]
                code = main(args)
                out = capsys.readouterr().out
                assert code == 0
                data = json.loads(out)
                assert list(data["tables"]) == [a2_key.replace(",", "_")]
                got = data["tables"][a2_key.replace(",", "_")]
                want = {m: {"rank": rt[0], "torsion": rt[1]} for m, rt in table.items()}
                assert got == want, (name, flavor, a2_key)


def test_closed_stdout_ends_quietly():
    """A reader that closes the pipe early gets no traceback on stderr."""
    src = os.path.dirname(os.path.dirname(gridhom.__file__))
    argv = ["--json", "homology", fixture_path("unknot2.grid"), "--flavor", "plus", "--alexander=2"]
    with subprocess.Popen(
        [sys.executable, "-m", "gridhom.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")
