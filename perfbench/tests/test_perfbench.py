"""Tests of the benchmark itself: span arithmetic, patch restoration, seeded
workloads, oracles, and agreement with BENCHMARK.json.

Run with ``python -m pytest perfbench/tests``.
"""

import contextlib
import io
import json
import sys
from array import array
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _synthetic(rows):
    """rows: (name, parent index, start, end) -> Tracer-style arrays."""
    names = sorted({r[0] for r in rows})
    return (
        names,
        array("i", [names.index(r[0]) for r in rows]),
        array("i", [r[1] for r in rows]),
        array("d", [r[2] for r in rows]),
        array("d", [r[3] for r in rows]),
    )


def test_self_time_subtracts_direct_children_only():
    rows = [
        ("a", -1, 0.0, 10.0),  # 0: children 1 and 3 cover 3 + 2
        ("b", 0, 1.0, 4.0),  # 1: child 2 covers 1
        ("c", 1, 2.0, 3.0),  # 2
        ("b", 0, 5.0, 7.0),  # 3
        ("d", -1, 11.0, 12.0),  # 4: a second root
    ]
    assert spans.self_times(*_synthetic(rows)) == {"a": 5.0, "b": 4.0, "c": 1.0, "d": 1.0}


def test_self_time_of_recursion_is_the_outer_duration():
    rows = [("g", -1, 0.0, 6.0), ("g", 0, 1.0, 3.0), ("g", 1, 1.5, 2.0), ("h", 0, 4.0, 5.0)]
    assert spans.self_times(*_synthetic(rows)) == {"g": 5.0, "h": 1.0}


def test_wrapped_calls_record_nested_spans():
    tracer = spans.Tracer()
    inner = spans._spanned(tracer, lambda x: x + 1, "inner")
    outer = spans._spanned(tracer, lambda x: inner(inner(x)), "outer")
    assert outer(1) == 3
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    times = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert times["outer"] + times["inner"] == pytest.approx(total)
    assert tracer.stack == [-1]


def _layer_attributes():
    """Identity of every attribute of every gridhom module and class."""
    import gridhom.cli  # noqa: F401

    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "gridhom" and not modname.startswith("gridhom."):
            continue
        for name, value in vars(mod).items():
            out[(modname, name)] = id(value)
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    out[(modname, name, attr)] = id(member)
    return out


def test_traced_run_restores_every_wrapped_function():
    from gridhom import cdp, cli, domainposet, gridcomplex, homalg, strata
    from gridhom.gridcore import GridDiagram
    from gridhom.signs import build_sign_assignment

    before = _layer_attributes()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        # a function imported by name is patched in the importing module too
        assert gridcomplex.reduce_complex is homalg.reduce_complex
        assert gridcomplex.reduce_complex.__wrapped__ is not None
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["--json", "spectrum", str(ROOT / "fixtures" / "unknot2.grid"), "--alexander", "2"]
            assert cli.main(argv) == 0
        g = GridDiagram(3, (1, 2, 0), (0, 1, 2))
        s = build_sign_assignment(g)
        y = g.generator((2, 0, 1))
        assert cdp.graded_piece_acyclicity(g, s, (1, 0), (0, 1), y).ok
        domainposet.g_minimum(g, (1, 1), (1, 1), y)
        x = g.generator((0, 1, 2))
        (r1, z), *_ = g.rectangles_from(x)
        (r2, _), *_ = g.rectangles_from(z)
        r1.compose(r2)
        g.rectangles_into(x)
        zero_n, zero_lam = cdp.trivial_decoration(g)
        assert strata.enumerate_strata(s, g.marking_annulus("H", 0, x), zero_n, zero_lam, 1)
    finally:
        restore()
    assert _layer_attributes() == before
    assert tracer.missing == []
    # every layer span fired at least once
    span_names = {name[:-2] for name, unit in spans.PER_LAYER if unit == "s"}
    assert span_names <= set(tracer.names)
    assert tracer.stack == [-1]
    assert tracer.counts["signs.lifts"] <= tracer.counts["signs.of_calls"]


def test_domains_sample_is_seeded():
    one = workloads.requests("domains", 1)
    assert one == workloads.requests("domains", 1)
    assert one != workloads.requests("domains", 2)
    pieces = [r for r in one if r["op"] == "piece"]
    count = 3 ** 4 * workloads.PIECE_REPS
    assert len(pieces) == count
    # balanced: every a and b vector equally often, every y at least count // 120 times
    for key in ("a", "b"):
        seen = {}
        for r in pieces:
            seen[tuple(r[key])] = seen.get(tuple(r[key]), 0) + 1
        assert set(seen.values()) == {workloads.PIECE_REPS}
    ys = {}
    for r in pieces:
        ys[tuple(r["y"])] = ys.get(tuple(r["y"]), 0) + 1
    assert len(ys) == 120 and min(ys.values()) == count // 120
    assert sorted(r["kind"] for r in one if r["op"] == "strata") == ["H", "V"]


@pytest.mark.parametrize("workload,slices", [("hat_t25", workloads.HAT_T25_SLICES), ("spectrum_trefoil", workloads.SPECTRUM_SLICES)])
def test_fixture_seed_only_orders_the_slices(workload, slices):
    orders = {tuple(workloads.requests(workload, seed)[0]["slices"]) for seed in range(20)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(slices) for o in orders)


def _cli_reply(obj):
    return {"ok": True, "result": {"exit": 0, "stdout": json.dumps(obj)}}


def test_oracles_count_wrong_and_missing_answers():
    oracle = workloads.Oracle()
    request = {"op": "cli", "argv": ["--json", "homology"], "slices": [0, 8]}
    good = {"tables": {"(0,)": {"-2": {"rank": 1, "torsion": []}}, "(8,)": {}}}
    assert oracle.check(request, _cli_reply(good)) == [True, True]
    bad = {"tables": {"(0,)": {"-2": {"rank": 1, "torsion": [2]}}, "(8,)": {}}}
    assert oracle.check(request, _cli_reply(bad)) == [False, True]
    assert oracle.check(request, None) == [False, False]
    # content decides, not the JSON shape of a table; a malformed answer fails
    other_shape = {"tables": {"0": {"-2": [1, []], "-1": [0, []]}, "[8]": {}}}
    assert oracle.check(request, _cli_reply(other_shape)) == [True, True]
    assert oracle.check(request, _cli_reply([])) == [False, False]
    assert oracle.check(request, _cli_reply({"tables": {"(0,)": {}}})) == [False, False]
    assert oracle.check(request, {"ok": False, "error": "MemoryError: "}) == [False, False]

    spectrum = {"op": "cli", "argv": ["--json", "spectrum"], "slices": [12]}
    entry = {
        "plus": {"homology": {"12": {"rank": 1, "torsion": []}}},
        "hat": {"homology": {}},
        "u_maps": {"0": {"iso": True}},
    }
    assert oracle.check(spectrum, _cli_reply({"6": entry})) == [True]
    entry["u_maps"]["0"]["iso"] = False
    assert oracle.check(spectrum, _cli_reply({"6": entry})) == [False]

    def piece_reply(homology, size, minimum):
        return {"ok": True, "result": {"homology": homology, "size": size, "minimum": minimum}}

    identity, top = [0, 1, 2, 3, 4], [4, 3, 2, 1, 0]
    piece = {"op": "piece", "a": [0, 0, 0, 0], "b": [0, 0, 0, 0], "y": identity}
    assert oracle.check(piece, piece_reply({"0": [1, []]}, 1, identity)) == [True]
    assert oracle.check(piece, piece_reply({}, 1, identity)) == [False]
    piece["a"] = [1, 0, 0, 0]
    assert oracle.check(piece, piece_reply({}, 1, identity)) == [True]
    # the piece lives on [m, Id]; below the longest permutation lie all 120
    assert oracle.check(piece, piece_reply({}, 120, top)) == [True]
    assert oracle.check(piece, piece_reply({}, 119, top)) == [False]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


def test_worker_killed_at_the_deadline_fails_its_items():
    import time

    requests = workloads.requests("hat_t25", 1)
    episode = run.run_episode(requests, False, time.perf_counter() + 1.5)
    assert episode.replies == [None]
    assert episode.wall_s < 10
    assert workloads.Oracle().check(requests[0], episode.replies[0]) == [False] * 7


def test_memory_guard_turns_an_overrun_into_failed_items(monkeypatch):
    import time

    monkeypatch.setattr(run, "MEMORY_LIMIT_MB", 100)
    requests = workloads.requests("hat_t25", 1)
    episode = run.run_episode(requests, False, time.perf_counter() + 120)
    (reply,) = episode.replies
    # the worker survives and answers; at the limit CPython may report the
    # failed allocation as MemoryError or as SystemError
    assert reply is not None and reply["ok"] is False
    assert episode.peak_rss_mb < 100
    assert workloads.Oracle().check(requests[0], reply) == [False] * 7
