"""The benchmark's workloads: the requests made from a seed, how the worker
answers each request, and the oracle that checks each answer.

A request is one JSON object.  ``cli`` requests run one ``gridhom`` command
line; ``piece`` and ``strata`` requests call the library directly, because the
command line does not expose single graded pieces.  Requests are what the
runner sends; results are counted per *item*: one Alexander slice of a
command, one graded piece, or one strata configuration.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("hat_t25", "spectrum_trefoil", "domains")

# The hat range stops at 2A=8: the full range up to 2A=16 needs more memory
# than the benchmark's limit.
HAT_T25_SLICES = (-4, -2, 0, 2, 4, 6, 8)
SPECTRUM_SLICES = (12, 14, 16, 18)

# Graded pieces CD^{a,b,y} on trefoil5 with entries of a and b at most 2.  The
# sample is balanced so that its cost hardly depends on the seed: every a and
# every b vector occurs PIECE_REPS times and every y equally often (plus a
# seeded remainder); only the pairing is random.
PIECE_GRID = "trefoil5"
PIECE_MAX_ENTRY = 2
PIECE_REPS = 8

# Annulus configurations for the strata enumeration on t25 (to codim 2), at
# the identity generator.  On the canonical t25 grid O_1 lies in the top row
# and O_6 in the last column, so H_1 and V_6 are not allowable.
STRATA_GRID = "t25"
STRATA_H = (0, 2, 3, 4, 5, 6)
STRATA_V = (0, 1, 2, 3, 4, 5)
STRATA_MAX_CODIM = 2


def requests(workload: str, seed: int) -> list[dict]:
    """The requests of one episode; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "hat_t25":
        order = list(HAT_T25_SLICES)
        rng.shuffle(order)
        argv = ["--json", "homology", "fixtures/t25.grid", "--flavor", "hat"]
        return [{"op": "cli", "argv": argv + [f"--alexander={a}" for a in order], "slices": order}]
    if workload == "spectrum_trefoil":
        order = list(SPECTRUM_SLICES)
        rng.shuffle(order)
        argv = ["--json", "spectrum", "fixtures/trefoil5.grid"]
        for a in order:
            argv += ["--alexander", str(a)]
        return [{"op": "cli", "argv": argv, "slices": order}]
    if workload == "domains":
        return domain_requests(rng)
    raise ValueError(f"unknown workload {workload!r}")


def domain_requests(rng: random.Random) -> list[dict]:
    n = 5  # trefoil5
    vecs = [list(v) for v in itertools.product(range(PIECE_MAX_ENTRY + 1), repeat=n - 1)]
    a_list = vecs * PIECE_REPS
    b_list = vecs * PIECE_REPS
    rng.shuffle(a_list)
    rng.shuffle(b_list)
    perms = [list(p) for p in itertools.permutations(range(n))]
    count = len(a_list)
    y_list = perms * (count // len(perms)) + rng.sample(perms, count % len(perms))
    rng.shuffle(y_list)
    out = [{"op": "piece", "a": a, "b": b, "y": y} for a, b, y in zip(a_list, b_list, y_list)]
    out.append({"op": "strata", "kind": "H", "j": rng.choice(STRATA_H)})
    out.append({"op": "strata", "kind": "V", "j": rng.choice(STRATA_V)})
    rng.shuffle(out)
    return out


def units(request: dict) -> int:
    """Number of items a request carries."""
    return len(request["slices"]) if request["op"] == "cli" else 1


# -- worker side -------------------------------------------------------------------


class Grids:
    """Fixture grids and their sign assignments, loaded on first use."""

    def __init__(self) -> None:
        self._loaded: dict = {}

    def get(self, name: str):
        found = self._loaded.get(name)
        if found is None:
            from gridhom import gridcore, signs

            g = gridcore.load_grid(str(ROOT / "fixtures" / f"{name}.grid"))
            found = self._loaded[name] = (g, signs.build_sign_assignment(g))
        return found


def annulus_configuration(g, kind: str, j: int):
    """The strata seed: annulus H_j or V_j at the identity, no bubbles."""
    from gridhom import cdp

    x = g.generator(tuple(range(g.n)))
    zero_n, zero_lam = cdp.trivial_decoration(g)
    return cdp.PartitionedDomain(g.marking_annulus(kind, j, x), zero_n, zero_lam)


def run_request(request: dict, grids: Grids):
    """Compute one request in the worker; the result must be JSON-able."""
    from gridhom import cdp, cli, domainposet, strata

    op = request["op"]
    if op == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(request["argv"])
            except SystemExit as exc:
                code = exc.code
        return {"exit": code, "stdout": out.getvalue()}
    if op == "piece":
        g, s = grids.get(PIECE_GRID)
        a, b, y = tuple(request["a"]), tuple(request["b"]), g.generator(tuple(request["y"]))
        rep = cdp.graded_piece_acyclicity(g, s, a, b, y)
        homology = {str(k): [r, list(t)] for k, (r, t) in rep.homology.nonzero().items()}
        minimum = domainposet.g_minimum(g, a, b, y)
        return {"size": rep.size, "homology": homology, "minimum": list(minimum.sigma)}
    if op == "strata":
        g, s = grids.get(STRATA_GRID)
        t = annulus_configuration(g, request["kind"], request["j"])
        descs = strata.enumerate_strata(s, t.domain, t.n_vec, t.lambdas, STRATA_MAX_CODIM)
        census = [ev for d in descs if d.codim == 1 for ev in strata.codim1_boundary_events(d)]
        return {"found": len(descs), "census": census}
    raise ValueError(f"unknown request {op!r}")


# -- oracles -------------------------------------------------------------------------


class Oracle:
    """Checks answers; a wrong or missing answer fails every item it carries.

    Homology tables are compared by content, so either JSON shape the
    package writes for a group ({"rank": r, "torsion": t} or [r, t]) passes.
    """

    def __init__(self) -> None:
        self._hat = None
        self._census: dict = {}
        self._interval_size: dict = {}

    def check(self, request: dict, reply: dict | None) -> list[bool]:
        n = units(request)
        if reply is None or not reply.get("ok"):
            return [False] * n
        try:
            return self._check(request, reply["result"])
        except (AttributeError, KeyError, TypeError, ValueError):  # an answer of the wrong shape
            return [False] * n

    def _check(self, request: dict, result: dict) -> list[bool]:
        op = request["op"]
        if op == "cli":
            if result["exit"] != 0:
                return [False] * units(request)
            output = json.loads(result["stdout"])
            check = self._hat_slice if request["argv"][1] == "homology" else _spectrum_slice
            return [check(output, a2) for a2 in request["slices"]]
        if op == "piece":
            m = tuple(result["minimum"])
            if m not in self._interval_size:
                self._interval_size[m] = sum(
                    _bruhat_leq(z, m) for z in itertools.permutations(range(len(m)))
                )
            ok = _groups(result["homology"]) == _piece_expected(request)
            return [ok and result["size"] == self._interval_size[m]]
        return [_canonical(result["census"]) == self._census_expected(request["kind"], request["j"])]

    def _hat_slice(self, output: dict, a2: int) -> bool:
        if self._hat is None:
            with open(ROOT / "fixtures" / "expected" / "t25.json") as fh:
                self._hat = json.load(fh)["hat"]
        # the slice key is "(8,)" today; "8" or "[8]" name the same slice
        tables = {int(k.strip("()[], ")): v for k, v in output["tables"].items()}
        return a2 in tables and _groups(tables[a2]) == _groups(self._hat.get(str(a2), {}))

    def _census_expected(self, kind: str, j: int) -> list[str]:
        """Criterion 10's oracle: the differential's raw terms."""
        key = (kind, j)
        if key not in self._census:
            from gridhom import cdp, gridcore, signs

            g = gridcore.load_grid(str(ROOT / "fixtures" / f"{STRATA_GRID}.grid"))
            t = annulus_configuration(g, kind, j)
            self._census[key] = _canonical(cdp.differential_events(signs.build_sign_assignment(g), t))
        return self._census[key]


def _groups(table: dict) -> dict:
    """{maslov: (rank, torsion)} of the non-zero groups of a JSON table."""
    out = {}
    for k, v in table.items():
        rank, torsion = (v["rank"], v["torsion"]) if isinstance(v, dict) else v
        if rank or torsion:
            out[int(k)] = (rank, tuple(torsion))
    return out


def _spectrum_slice(output: dict, a2: int) -> bool:
    """Trefoil plus = Z at Maslov 2A, hat = 0, U_0 an isomorphism (A >= 2)."""
    entry = output[str(a2 // 2)]
    plus = _groups(entry["plus"]["homology"])
    hat = _groups(entry["hat"]["homology"])
    return plus == {a2: (1, ())} and hat == {} and entry["u_maps"]["0"]["iso"] is True


def _piece_expected(request: dict) -> dict:
    """Criterion 8: CD^{a,b,y} is acyclic unless (a, b, y) = (0, 0, Id), where it is Z."""
    trivial = not any(request["a"]) and not any(request["b"]) and request["y"] == sorted(request["y"])
    return {0: (1, ())} if trivial else {}


def _bruhat_leq(sigma, tau) -> bool:
    """Strong Bruhat order by the rank criterion: for every prefix and every
    value threshold, sigma has no more large entries than tau."""
    n = len(sigma)
    return all(
        sum(v >= i for v in sigma[: j + 1]) <= sum(v >= i for v in tau[: j + 1])
        for i in range(n)
        for j in range(n)
    )


def _canonical(events) -> list[str]:
    return sorted(json.dumps(e) for e in events)
