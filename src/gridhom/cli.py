"""Command line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on input errors
(a bad grid file, slice, marking, seed or size, or an output path that cannot
be written), reported as one line on stderr, and 141 (128 + SIGPIPE, as a
shell reports a pipe writer killed by the signal) when stdout is closed
before all output is written, with nothing on stderr.  An ``--alexander``
slice gives one doubled grading per sliced component: every component for
plus, hat and tilde, the distinguished one alone for plus-prime; on a knot
every doubled grading is even, so an odd one is refused.  On links
every homology flavor needs explicit ``--alexander`` slices, and plus-prime
also needs ``--cap``: its slices of a link are infinite, and a capped table
is exact up to grading cap - 2.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys

from gridhom import cdp, domainposet, spectra, strata
from gridhom.gridcore import GridDiagram, GridError, canonicalize, load_grid
from gridhom.gridcomplex import (
    FlavorSpec,
    ReducedSlice,
    alexander2_range,
    build_complex,
    capped_homology,
    exact_below,
    reduced_slices,
    slice_tower,
    u_map,
)
from gridhom.signs import build_sign_assignment, verify_axioms


class InputError(GridError):
    """A bad command line input; ``main`` reports it and returns 2."""


def _load(path: str) -> GridDiagram:
    try:
        return load_grid(path)
    except (OSError, GridError, ValueError) as exc:
        raise InputError(str(exc)) from None


def _parse_slice(text: str, g: GridDiagram, width: int) -> tuple[int, ...]:
    """A doubled Alexander slice of ``g``: ``width`` comma separated
    integers.  A knot's doubled gradings are all even, so an odd one is
    refused there."""
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"Alexander slice {text!r} is not a comma separated list of integers") from None
    if len(parts) != width:
        raise InputError(f"Alexander slice {text!r} has {len(parts)} entries; expected {width}")
    if g.num_components == 1 and parts[0] % 2:
        raise InputError(f"--alexander {parts[0]} is odd; a knot's doubled Alexander gradings are even")
    return parts


def _emit(args, obj, text_lines):
    if args.json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _slice_label(a2: tuple[int, ...]) -> str:
    """A slice's name in text lines, JSON keys and CSV file names: ``2`` for
    the slice (2,), ``2_0`` for the link slice (2, 0)."""
    return "_".join(str(v) for v in a2)


def _write_csvs(outdir: str, name: str, tables: dict) -> None:
    """One CSV per slice of ``tables``, ``{label: HomologyTable.to_json_obj()}``."""
    try:
        os.makedirs(outdir, exist_ok=True)
        for label, groups in tables.items():
            with open(os.path.join(outdir, f"{name}_A2_{label}.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["maslov", "rank", "torsion"])
                for k, group in groups.items():
                    writer.writerow([k, group["rank"], ";".join(map(str, group["torsion"]))])
    except OSError as exc:
        raise InputError(f"cannot write --out: {exc}") from None


def cmd_validate(args) -> int:
    g = _load(args.grid)
    obj = {
        "n": g.n,
        "o_row": [r + 1 for r in g.o_row],
        "x_row": [r + 1 for r in g.x_row],
        "components": g.num_components,
        "canonical": g.is_canonical,
    }
    _emit(args, obj, [f"valid grid, n={g.n}, components={g.num_components}"])
    return 0


def cmd_generators(args) -> int:
    g = _load(args.grid)
    rows = []
    for x in g.generators():
        rows.append(
            {
                "sigma": [v + 1 for v in x.sigma],
                "maslov": x.maslov,
                "alexander2": list(x.alexander2),
            }
        )
    _emit(
        args,
        {"count": len(rows), "generators": rows},
        [f"{len(rows)} generators"]
        + [f"  sigma={r['sigma']} M={r['maslov']} 2A={r['alexander2']}" for r in rows[:40]],
    )
    return 0


def _alexander_values(args, g: GridDiagram, spec: FlavorSpec) -> list[tuple[int, ...]]:
    if args.alexander:
        return [_parse_slice(text, g, len(spec.sliced)) for text in args.alexander]
    if g.num_components > 1:
        raise InputError("links need explicit --alexander slices")
    return [(a2,) for a2 in alexander2_range(g)]


def cmd_homology(args) -> int:
    g = _load(args.grid)
    spec = FlavorSpec.make(g, args.flavor.replace("-", "_"))
    values = _alexander_values(args, g, spec)
    if args.cap is None and len(spec.sliced) < g.num_components:
        raise InputError(f"{args.flavor} slices of a link are infinite; give --cap")
    s = build_sign_assignment(g)
    if args.cap is not None:
        tables = {a2: capped_homology(g, s, spec, a2, args.cap) for a2 in values}
    else:
        tables = {a2: sl.table for a2, sl in reduced_slices(g, s, spec, values)}
    obj = {
        "flavor": args.flavor,
        "tables": {_slice_label(k): t.to_json_obj() for k, t in sorted(tables.items())},
    }
    if args.cap is not None:
        obj["exact_below"] = exact_below(args.cap)
    lines = [f"{args.flavor} homology of {args.grid}"]
    for a2, t in sorted(tables.items()):
        nz = t.nonzero()
        lines.append(f"  2A={_slice_label(a2)}: " + (str(nz) if nz else "0"))
    if args.out:
        _write_csvs(args.out, args.flavor, obj["tables"])
    _emit(args, obj, lines)
    return 0


def cmd_u_map(args) -> int:
    g = _load(args.grid)
    if not 0 <= args.marking < g.n:
        raise InputError(f"--marking must lie in 0..{g.n - 1}")
    a2 = _parse_slice(args.alexander, g, g.num_components)
    s = build_sign_assignment(g)
    spec = FlavorSpec.make(g, "plus")
    comp = g.component_of_o[args.marking]
    target = tuple(v - 2 if k == comp else v for k, v in enumerate(a2))
    cap = args.cap
    cx = build_complex(g, s, spec, a2, cap)
    top = exact_below(cap)
    if cap is not None and not any(gr < top for gr in cx.grading.values()):
        raise InputError(f"a cap of {cap} is exact below grading {top}, where the source slice has no cell")
    # the target is the U_marking-quotient of the source, capped two lower
    tower = slice_tower(cx, args.marking)
    src = ReducedSlice.from_tower(tower, spec, a2, args.marking, 0, cap)
    dst = ReducedSlice.from_tower(tower, spec, target, args.marking, 1, None if cap is None else cap - 2)
    res = u_map(src, dst, args.marking)
    gradings = sorted(res.matrices)
    obj = {
        "marking": args.marking,
        "alexander2": list(a2),
        "matrices": {str(k): res.matrices[k] for k in gradings},
        "isomorphism": res.is_isomorphism(),
    }
    if cap is not None:
        obj["exact_below"] = exact_below(cap)
    _emit(
        args,
        obj,
        [f"U_{args.marking} on slice 2A={_slice_label(a2)}"]
        + [f"  gr {k}: {res.matrices[k]}" for k in gradings]
        + [f"  isomorphism: {obj['isomorphism']}"],
    )
    return 0


def cmd_signs_verify(args) -> int:
    g = _load(args.grid)
    rep = verify_axioms(g, build_sign_assignment(g))
    obj = {
        "checked": rep.checked,
        "shapes": rep.shape_counts,
        "violations": [str(v) for v in rep.violations],
    }
    _emit(
        args,
        obj,
        [f"checked {rep.checked} index-2 domains", f"shape census: {rep.shape_counts}"]
        + ([f"VIOLATIONS: {len(rep.violations)}"] if rep.violations else ["all axioms hold"]),
    )
    return 0 if rep.ok else 1


def cmd_poset_verify(args) -> int:
    if args.bound < 0:
        raise InputError("--bound must be >= 0")
    g = _load(args.grid)
    gens = list(g.generators())
    mismatches = 0
    for x in gens:
        for y in gens:
            if domainposet.generator_leq(g, y, x) != domainposet.bruhat_leq(x.sigma, y.sigma):
                mismatches += 1
    bound = args.bound
    interval_failures = 0
    checks = 0
    for y in gens:
        for a in itertools.product(range(bound + 1), repeat=g.n - 1):
            for b in itertools.product(range(bound + 1), repeat=g.n - 1):
                m = domainposet.g_minimum(g, a, b, y)
                G = domainposet.g_set(g, a, b, y)
                I = domainposet.interval(g, m, g.generator(tuple(range(g.n))))
                checks += 1
                if G != I:
                    interval_failures += 1
    obj = {
        "bruhat_mismatches": mismatches,
        "interval_checks": checks,
        "interval_failures": interval_failures,
    }
    ok = mismatches == 0 and interval_failures == 0
    _emit(
        args,
        obj,
        [
            f"generator order vs opposite Bruhat: {'OK' if mismatches == 0 else f'{mismatches} mismatches'}",
            f"interval law on {checks} triples: {'OK' if interval_failures == 0 else f'{interval_failures} failures'}",
        ],
    )
    return 0 if ok else 1


def cmd_cdp_verify(args) -> int:
    if args.grid:
        g = _load(args.grid)
    else:
        n = args.n
        g = canonicalize(GridDiagram(n, tuple((i + 1) % n for i in range(n)), tuple(range(n))))
    if g.n < 2:
        raise InputError("cdp-verify needs a grid with n >= 2")
    s = build_sign_assignment(g)
    cc = cdp.ClosureComplex.build(s, cdp.curated_seeds(g))
    ledger = cc.identity_ledger()
    d2 = cc.complex.check_d_squared()
    obj = {"closure_size": len(cc.elements), "d_squared_zero": d2, "identities": ledger}
    ok = d2 and all(ledger.values())
    _emit(
        args,
        obj,
        [f"closure of {len(cc.seeds)} seeds: {len(cc.elements)} triples", f"d^2 = 0: {d2}"]
        + [f"  {name}: {'OK' if good else 'FAIL'}" for name, good in ledger.items()],
    )
    return 0 if ok else 1


def _parse_seed(g: GridDiagram, text: str) -> cdp.PartitionedDomain:
    """The ``--seed`` configuration; anything malformed exits with status 2."""
    try:
        data = json.loads(text)
        sigma = tuple(v - 1 for v in data.get("from", range(1, g.n + 1)))
        if sorted(sigma) != list(range(g.n)):
            raise ValueError(f'"from" must be a permutation of 1..{g.n}')
        x = g.generator(sigma)
        dom_spec = data.get("domain", "trivial")
        if dom_spec == "trivial":
            dom = g.trivial_domain(x)
        elif dom_spec[:1] in ("H", "V") and dom_spec[1:].isdigit() and int(dom_spec[1:]) < g.n:
            dom = g.marking_annulus(dom_spec[0], int(dom_spec[1:]), x)
        else:
            raise ValueError(f'"domain" must be "trivial", "H<j>" or "V<j>" with j < {g.n}')
        n_vec = tuple(int(v) for v in data.get("n_vec", [0] * g.n))
        lambdas = tuple(tuple(int(p) for p in lam) for lam in data.get("lambdas", [[]] * g.n))
        return cdp.PartitionedDomain(dom, n_vec, lambdas)
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"bad --seed: {exc}") from None


def cmd_strata(args) -> int:
    if args.max_codim < 0:
        raise InputError("--max-codim must be >= 0")
    g = _load(args.grid)
    s = build_sign_assignment(g)
    if args.seed is None:
        row_j = next(j for j in range(g.n) if g.o_row[j] != g.n - 1)
        args.seed = json.dumps({"domain": f"H{row_j}"})
    seed = _parse_seed(g, args.seed)
    descs = strata.enumerate_strata(s, seed.domain, seed.n_vec, seed.lambdas, args.max_codim)
    obj = {"count": len(descs), "strata": []}
    lines = [f"{len(descs)} strata up to codim {args.max_codim}"]
    for desc in descs:
        entry = {
            "codim": desc.codim,
            "pieces": [
                {
                    "from": [v + 1 for v in p.domain.from_sigma],
                    "to": [v + 1 for v in p.domain.to_sigma],
                    "mu": p.domain.maslov_index(),
                    "rows_out": list(p.e_rows),
                    "cols_out": list(p.f_cols),
                    "n_vec": list(p.n_vec),
                    "lambdas": [list(l) for l in p.lambdas],
                }
                for p in desc.pieces
            ],
        }
        if desc.codim == 1:
            entry["type"] = strata.classify_codim1(desc)
        obj["strata"].append(entry)
        label = entry.get("type", "")
        lines.append(f"  codim {desc.codim} {label}: r={desc.r}")
    _emit(args, obj, lines)
    return 0


def cmd_zn(args) -> int:
    if not 0 <= args.n <= strata.ZN_MAX:
        raise InputError(f"zn needs 0 <= --n <= {strata.ZN_MAX}")
    sts = strata.zn_strata(args.n)
    edges = [(a, b) for a in sts for b in sts if a != b and strata.zn_leq(a, b)] if args.edges or args.dot else []
    obj = {
        "count": len(sts),
        "strata": [
            {"p": [st.p_minus, st.p_zero, st.p_plus], "lambda": list(st.lam), "dim": st.dim}
            for st in sts
        ],
    }
    lines = [f"Z_{args.n}: {len(sts)} strata"]
    for st in sts:
        lines.append(f"  Z({st.p_minus},{st.p_zero},{st.p_plus}; {st.lam}) dim {st.dim}")
    if args.edges:
        obj["closure_pairs"] = len(edges)
        lines.append(f"closure pairs: {len(edges)}")
    if args.dot:
        dot = ["digraph zn {"]
        for a, b in edges:
            dot.append(f'  "{a.p_minus},{a.p_zero},{a.p_plus};{a.lam}" -> "{b.p_minus},{b.p_zero},{b.p_plus};{b.lam}";')
        dot.append("}")
        try:
            with open(args.dot, "w") as fh:
                fh.write("\n".join(dot))
        except OSError as exc:
            raise InputError(f"cannot write --dot: {exc}") from None
        lines.append(f"wrote {args.dot}")
    _emit(args, obj, lines)
    return 0


def cmd_permutohedron(args) -> int:
    n = args.n
    if not 1 <= n <= strata.PERMUTOHEDRON_MAX:
        raise InputError(f"permutohedron needs 1 <= --n <= {strata.PERMUTOHEDRON_MAX}")
    fs = strata.facets(n)
    coherent = strata.check_facet_coherence(n) if n <= 6 else None
    halfspaces = strata.check_half_space_description(n) if n <= 6 else None
    obj = {
        "n": n,
        "facets": len(fs),
        "expected_facets": 2**n - 2,
        "coherent": coherent,
        "half_spaces_ok": halfspaces,
    }
    ok = len(fs) == 2**n - 2 and coherent is not False and halfspaces is not False
    _emit(
        args,
        obj,
        [
            f"Pi_{n}: {len(fs)} facets (expected {2**n - 2})",
            f"product identifications coherent: {coherent}",
            f"half-space description: {halfspaces}",
        ],
    )
    return 0 if ok else 1


def cmd_spectrum(args) -> int:
    g = _load(args.grid)
    if g.num_components != 1:
        raise InputError("spectrum reports need a knot grid (one component)")
    rng = None
    if args.alexander:
        rng = [_parse_slice(v, g, 1)[0] for v in args.alexander]
    report = spectra.spectrum_report(g, build_sign_assignment(g), rng)
    obj = spectra.report_to_json_obj(report)
    lines = [f"spectrum report for {args.grid}"]
    for a2, rep in sorted(report.items()):
        a_label = spectra.alexander_label(a2)
        for flavor in rep.wedges:
            lines.append(f"  A={a_label} {flavor}: {rep.wedges[flavor].describe()}")
        for m, data in rep.u_maps.items():
            lines.append(f"  A={a_label} U_{m} iso: {data['iso']}")
    _emit(args, obj, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gridhom", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--json", action="store_true", help="machine readable output")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, help="check a grid file")
    sp.add_argument("grid")

    sp = add("generators", cmd_generators, help="list generators with gradings")
    sp.add_argument("grid")

    sp = add("homology", cmd_homology, help="grid homology tables")
    sp.add_argument("grid")
    sp.add_argument("--flavor", default="hat", choices=["plus", "hat", "tilde", "plus-prime"])
    sp.add_argument("--alexander", action="append", help="doubled Alexander slice, comma separated per component (use --alexander=-2,0 for negatives; repeatable)")
    sp.add_argument("--cap", type=int, default=None, help="Maslov cap; reports gradings up to cap - 2")
    sp.add_argument("--out", help="directory for per-grading CSVs")

    sp = add("u-map", cmd_u_map, help="the U_i map on homology")
    sp.add_argument("grid")
    sp.add_argument("--marking", type=int, default=0)
    sp.add_argument("--alexander", required=True, help="doubled source slice, comma separated")
    sp.add_argument("--cap", type=int, default=None, help="Maslov cap; reports source gradings up to cap - 2")

    sp = add("signs-verify", cmd_signs_verify, help="verify the sign axioms exhaustively")
    sp.add_argument("grid")

    sp = add("poset-verify", cmd_poset_verify, help="generator order vs Bruhat; interval law")
    sp.add_argument("grid")
    sp.add_argument("--bound", type=int, default=1, help="max entry of the (a, b) vectors")

    sp = add("cdp-verify", cmd_cdp_verify, help="d^2=0 and the nine sign identities")
    sp.add_argument("--grid")
    sp.add_argument("--n", type=int, default=3)

    sp = add("strata", cmd_strata, help="enumerate moduli strata of a configuration")
    sp.add_argument("grid")
    sp.add_argument("--seed", default=None, help="JSON configuration, e.g. {\"domain\": \"H0\"}")
    sp.add_argument("--max-codim", type=int, default=2)

    sp = add("zn", cmd_zn, help="the stratification poset of Sym^N(C)/R")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--edges", action="store_true")
    sp.add_argument("--dot", help="write the closure order as DOT")

    sp = add("permutohedron", cmd_permutohedron, help="face lattice checks")
    sp.add_argument("--n", type=int, required=True)

    sp = add("spectrum", cmd_spectrum, help="per-Alexander wedge report")
    sp.add_argument("grid")
    sp.add_argument("--alexander", action="append", help="doubled grading to include (repeatable)")

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: point stdout at devnull, so that the flush at
        # interpreter exit does not fail on the buffered rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
