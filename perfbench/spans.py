"""Spans and counts around the public functions of each gridhom layer.

The benchmark wraps these functions from its own files, so the package under
test carries no instrumentation.  ``install`` replaces each function in its
class or module, and in every gridhom module that imported it by name (for
example ``gridcomplex`` binds ``reduce_complex`` directly); the returned
callable puts every original back.

Spans are kept in flat arrays (name id, parent span, start, end) and reduced
to per-layer self times once the traced episode has finished.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Per-layer metrics, in the order they are reported: (name, unit).  A name
# ending in ``_s`` is the self time of the span of the same name without the
# suffix; the other names are counts kept by the wrappers below.
PER_LAYER = (
    ("gridcore.grading_s", "s"),
    ("gridcore.generators_graded", "count"),
    ("gridcore.generator_yields", "count"),
    ("gridcore.rect_s", "s"),
    ("gridcore.rect_calls", "count"),
    ("gridcore.rect_misses", "count"),
    ("gridcore.rectangles", "count"),
    ("gridcore.domain_s", "s"),
    ("gridcore.domains_built", "count"),
    ("signs.lift_s", "s"),
    ("signs.lifts", "count"),
    ("signs.of_s", "s"),
    ("signs.of_calls", "count"),
    ("gridcomplex.build_s", "s"),
    ("gridcomplex.build_calls", "count"),
    ("gridcomplex.cells", "count"),
    ("gridcomplex.diff_entries", "count"),
    ("gridcomplex.u_map_s", "s"),
    ("homalg.reduce_s", "s"),
    ("homalg.reduce_tracked_s", "s"),
    ("homalg.cells_in", "count"),
    ("homalg.cells_out", "count"),
    ("homalg.reduce_ratio", "ratio"),
    ("homalg.homology_s", "s"),
    ("homalg.snf_s", "s"),
    ("homalg.snf_calls", "count"),
    ("homalg.snf_max_entries", "count"),
    ("homalg.bases_s", "s"),
    ("domainposet.g_minimum_s", "s"),
    ("domainposet.g_set_s", "s"),
    ("domainposet.g_set_members", "count"),
    ("cdp.piece_s", "s"),
    ("cdp.pieces", "count"),
    ("cdp.piece_cells", "count"),
    ("strata.enumerate_s", "s"),
    ("strata.found", "count"),
    ("spectra.report_s", "s"),
    ("cli.main_s", "s"),
    ("trace.spans", "count"),
    ("trace_overhead_frac", "ratio"),
)


class Tracer:
    """Spans of one process, in flat arrays, plus named counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []  # layer functions that were not found
        self._seen: dict = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def at_least(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def first_seen(self, kind: str, owner, key) -> bool:
        """Whether ``key`` is new for this owner object (a grid or sign table)."""
        entry = self._seen.get((kind, id(owner)))
        if entry is None:
            # keep the owner alive so its id is not reused by another object
            entry = self._seen[(kind, id(owner))] = (owner, set())
        seen = entry[1]
        if key in seen:
            return False
        seen.add(key)
        return True

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.name, self.parent, self.start, self.end)

    def report(self) -> dict:
        return {"self_s": self.self_times(), "counts": dict(self.counts), "spans": len(self.start)}


def self_times(names, name, parent, start, end) -> dict[str, float]:
    """Per span name: total duration minus the part covered by child spans.

    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    Spans of one thread nest, so children of a span never overlap.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    out = dict.fromkeys(names, 0.0)
    for i, nid in enumerate(name):
        out[names[nid]] += end[i] - start[i] - covered[i]
    return out


def _spanned(tracer: Tracer, fn, span, after=None):
    """``fn`` inside a span.  ``span`` is a name, or a function of the call's
    arguments returning one; ``after(result, *args, **kwargs)`` keeps counts."""
    names, parents, starts, ends, stack = (
        tracer.name,
        tracer.parent,
        tracer.start,
        tracer.end,
        tracer.stack,
    )
    clock = time.perf_counter
    fixed = tracer.name_id(span) if isinstance(span, str) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nid = fixed if fixed is not None else tracer.name_id(span(*args, **kwargs))
        idx = len(starts)
        names.append(nid)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _counted_generator(tracer: Tracer, fn, key: str, after=None):
    """A generator function that counts the items ``fn`` yields (no span:
    the time between items belongs to the consumer)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.count(key)
            yield item

    return wrapper


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(class or module, attribute, replacement) for every wrapped function."""
    from gridhom import cdp, cli, domainposet, gridcomplex, gridcore, homalg, signs, spectra, strata

    t = tracer
    grid, domain, rect = gridcore.GridDiagram, gridcore.GridDomain, gridcore.RectInfo
    out = []

    def add(owner, attr, span, after=None, wrap=_spanned):
        fn = vars(owner).get(attr)
        if fn is None:  # renamed or removed: its metrics read 0
            t.missing.append(f"{owner.__name__}.{attr}")
        else:
            out.append((owner, attr, wrap(t, fn, span, after)))

    def graded(result, g, sigma):
        if t.first_seen("generator", g, result.sigma):
            t.count("gridcore.generators_graded")

    def rects(result, g, sigma):
        t.count("gridcore.rect_calls")
        if t.first_seen("rectangles", g, tuple(sigma)):
            t.count("gridcore.rect_misses")
            t.count("gridcore.rectangles", len(result))

    def built(result, *args, **kwargs):
        t.count("gridcore.domains_built")

    add(grid, "generator", "gridcore.grading", graded)
    add(grid, "generators", "gridcore.generator_yields", wrap=_counted_generator)
    add(grid, "rectangle_infos", "gridcore.rect", rects)
    for attr in ("rectangle_infos_into", "rectangles_from", "rectangles_into"):
        add(grid, attr, "gridcore.rect")
    add(rect, "domain", "gridcore.domain", built)
    add(domain, "subtract", "gridcore.domain", built)
    add(domain, "compose", "gridcore.domain", built)
    add(grid, "unique_domain", "gridcore.domain", built)
    add(domain, "is_positive", "gridcore.domain")

    def sign_span(s, info):
        t.count("signs.of_calls")
        if t.first_seen("sign", s, info.key):
            t.count("signs.lifts")
            return "signs.lift"
        return "signs.of"

    add(signs.SignAssignment, "of", sign_span)

    def complex_built(cx, *args, **kwargs):
        t.count("gridcomplex.build_calls")
        t.count("gridcomplex.cells", len(cx.grading))
        t.count("gridcomplex.diff_entries", sum(len(col) for col in cx.diff.values()))

    add(gridcomplex, "build_complex", "gridcomplex.build", complex_built)
    add(gridcomplex, "u_map", "gridcomplex.u_map")

    def reduce_span(cx, track_iota=False, track_pi=False):
        return "homalg.reduce_tracked" if track_iota or track_pi else "homalg.reduce"

    def reduced(result, cx, *args, **kwargs):
        t.count("homalg.cells_in", len(cx.grading))
        t.count("homalg.cells_out", len(result[0].grading))

    def snf(result, mat, *args, **kwargs):
        t.count("homalg.snf_calls")
        t.at_least("homalg.snf_max_entries", len(mat) * (len(mat[0]) if mat else 0))

    add(homalg, "reduce_complex", reduce_span, reduced)
    add(homalg, "smith_normal_form", "homalg.snf", snf)
    add(homalg, "homology_with_bases", "homalg.bases")
    add(homalg.IntegerChainComplex, "homology", "homalg.homology")

    def members(result, *args, **kwargs):
        t.count("domainposet.g_set_members", len(result))

    add(domainposet, "g_minimum", "domainposet.g_minimum")
    add(domainposet, "g_set", "domainposet.g_set", members)

    def piece(report, *args, **kwargs):
        t.count("cdp.pieces")
        t.count("cdp.piece_cells", report.size)

    add(cdp, "graded_piece_acyclicity", "cdp.piece", piece)
    add(cdp, "graded_piece_complex", "cdp.piece")

    def found(result, *args, **kwargs):
        t.count("strata.found", len(result))

    add(strata, "enumerate_strata", "strata.enumerate", found)
    add(spectra, "spectrum_report", "spectra.report")
    add(spectra, "report_to_json_obj", "spectra.report")
    add(cli, "main", "cli.main")
    return out


def install(tracer: Tracer):
    """Wrap every layer function; returns a callable that restores them all."""
    undo = []
    patches = _patches(tracer)
    modules = [m for name, m in sys.modules.items() if name == "gridhom" or name.startswith("gridhom.")]
    for owner, attr, replacement in patches:
        original = vars(owner)[attr]
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            targets += [
                (mod, name)
                for mod in modules
                if mod is not owner
                for name, value in vars(mod).items()
                if value is original
            ]
        for target, name in targets:
            undo.append((target, name, original))
            setattr(target, name, replacement)

    def restore() -> None:
        for target, name, original in reversed(undo):
            setattr(target, name, original)

    return restore


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metric values (except the overhead) from a tracer report."""
    self_s, counts = report["self_s"], report["counts"]
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace_overhead_frac":
            continue
        if name == "homalg.reduce_ratio":
            cells_in = counts.get("homalg.cells_in", 0)
            out[name] = counts.get("homalg.cells_out", 0) / cells_in if cells_in else 0.0
        elif name == "trace.spans":
            out[name] = report["spans"]
        elif unit == "s":
            out[name] = self_s.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out
