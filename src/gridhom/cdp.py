"""Complexes of positive domains, with and without partition decorations.

``CD`` is generated by positive domains avoiding the top-right X marking,
graded by Maslov index, with the differential splitting a rectangle off the
front or (with sign ``(-1)^mu``) off the back.  ``CDP`` decorates a domain
with a vector of bubble counts ``N`` and compositions ``lambda_j`` of each
``N_j``; its differential has four kinds of terms:

* type I   -- split off a rectangle (as in CD);
* type II  -- extract a full row H_j or column V_j and unit-enlarge lambda_j;
* type III -- elementary coarsening of one lambda_j;
* type IV  -- initial/final reduction of one lambda_j, dropping the removed
              part from N_j.

Both complexes are infinitely generated; computations happen on finite
downward closures of seed sets, or on the associated-graded pieces that the
acyclicity argument actually uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from gridhom import partitions as pt
from gridhom.domainposet import g_set
from gridhom.gridcore import Generator, GridDiagram, GridDomain, inversions
from gridhom.homalg import HomologyTable, IntegerChainComplex, chain_add
from gridhom.signs import SignAssignment


@dataclass(frozen=True)
class PartitionedDomain:
    """A positive domain with bubble counts and height partitions."""

    domain: GridDomain
    n_vec: tuple[int, ...]
    lambdas: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.domain.diagram.n
        if not self.domain.is_positive():
            raise ValueError("the domain of a partitioned domain must be positive")
        if len(self.n_vec) != n or len(self.lambdas) != n:
            raise ValueError(f"n_vec and lambdas need one entry per marking ({n})")
        for nj, lam in zip(self.n_vec, self.lambdas):
            if sum(lam) != nj or any(p < 1 for p in lam):
                raise ValueError("each lambda_j must be a composition of N_j")

    @property
    def gr(self) -> int:
        return self.domain.maslov_index() + sum(len(lam) for lam in self.lambdas)

    @property
    def key(self):
        return triple_key(self.domain, self.n_vec, self.lambdas)


def triple_key(domain: GridDomain, n_vec: tuple, lambdas: tuple) -> tuple:
    """The key of the triple (domain, N, lambda), as ``PartitionedDomain.key``
    has it, for callers that hold the parts but not a triple."""
    return domain.key + (n_vec, lambdas)


def trivial_decoration(g: GridDiagram) -> tuple[tuple[int, ...], tuple]:
    return (0,) * g.n, ((),) * g.n


def curated_seeds(g: GridDiagram) -> list[PartitionedDomain]:
    """Seeds whose closures exercise every differential type: an allowable
    row and column annulus, two partitioned constant domains, an index-2
    L-shape and (when present) a cross."""
    x_id = g.generator(tuple(range(g.n)))
    other = g.generator(tuple(range(1, g.n)) + (0,))
    zero_n, zero_lam = trivial_decoration(g)
    row_j = next(j for j in range(g.n) if g.o_row[j] != g.n - 1)
    seeds = [
        PartitionedDomain(g.marking_annulus("H", row_j, x_id), zero_n, zero_lam),
        PartitionedDomain(g.marking_annulus("V", 0, other), zero_n, zero_lam),
        PartitionedDomain(
            g.trivial_domain(x_id), (2,) + (0,) * (g.n - 1), ((1, 1),) + ((),) * (g.n - 1)
        ),
        PartitionedDomain(
            g.trivial_domain(other), (3,) + (0,) * (g.n - 1), ((2, 1),) + ((),) * (g.n - 1)
        ),
    ]
    want = {"L": True, "X": True}
    for x in g.generators():
        for r1, y in g.rectangles_from(x):
            for r2, z in g.rectangles_from(y):
                d = r1.compose(r2)
                if d.annulus_kind():
                    continue
                key = "X" if d.max_multiplicity() == 2 else "L"
                if want.get(key):
                    want[key] = False
                    seeds.append(PartitionedDomain(d, zero_n, zero_lam))
        if not any(want.values()):
            break
    return seeds


def _parity_sign(k: int) -> int:
    return -1 if k % 2 else 1


# -- CD differential -----------------------------------------------------------


def cd_terms(s: SignAssignment, D: GridDomain):
    """Raw CD differential terms of a positive domain, before cancellation.

    Yields ("prefix"|"suffix", coefficient, complement domain); a suffix
    splitting carries the rectangle's sign times ``(-1)^mu(D)``.
    """
    g = D.diagram
    for info in g.rectangle_infos(D.from_sigma):
        rest = D.subtract(info.domain(g))
        if rest.is_positive():
            yield "prefix", s.of(info), rest
    sign_suffix = _parity_sign(D.maslov_index())
    for info in g.rectangle_infos_into(D.to_sigma):
        E = D.strip_suffix(info.domain(g))
        if E.is_positive():
            yield "suffix", sign_suffix * s.of(info), E


# -- CDP differential -----------------------------------------------------------
#
# Each delta_* yields labelled raw terms (label, coefficient, target) before
# any cancellation.  Labels: "prefix"/"suffix" (type I), "row"/"col" (type II),
# "coarsen" (type III), "initial"/"final" (type IV).


def _with_lambda(t: PartitionedDomain, j: int, lam, n_vec=None) -> PartitionedDomain:
    lambdas = t.lambdas[:j] + (tuple(lam),) + t.lambdas[j + 1 :]
    return PartitionedDomain(t.domain, n_vec if n_vec is not None else t.n_vec, lambdas)


def _prefix_sign(t: PartitionedDomain, j: int) -> int:
    """(-1)^mu(D) times (-1) to the number of parts before lambda_j."""
    return _parity_sign(t.domain.maslov_index() + sum(len(lam) for lam in t.lambdas[:j]))


def delta_I(s: SignAssignment, t: PartitionedDomain):
    for label, coeff, E in cd_terms(s, t.domain):
        yield label, coeff, PartitionedDomain(E, t.n_vec, t.lambdas)


def delta_II(s: SignAssignment, t: PartitionedDomain):
    g = t.domain.diagram
    x = g.generator(t.domain.from_sigma)
    for j in range(g.n):
        sign = _prefix_sign(t, j)
        for kind, label in (("H", "row"), ("V", "col")):
            # no room in the top row or the last column: they are not allowable
            if t.domain.annulus_room(kind, j) < 1:
                continue
            E = t.domain.subtract(g.marking_annulus(kind, j, x))
            n_vec = tuple(v + 1 if k == j else v for k, v in enumerate(t.n_vec))
            for lam2, ue_sign in pt.unit_enlargements(t.lambdas[j]):
                lambdas = t.lambdas[:j] + (lam2,) + t.lambdas[j + 1 :]
                yield label, sign * ue_sign, PartitionedDomain(E, n_vec, lambdas)


def delta_III(s: SignAssignment, t: PartitionedDomain):
    for j, lam in enumerate(t.lambdas):
        sign = _prefix_sign(t, j)
        for lam2, ec_sign in pt.elementary_coarsenings(lam):
            yield "coarsen", sign * ec_sign, _with_lambda(t, j, lam2)


def delta_IV(s: SignAssignment, t: PartitionedDomain):
    for j, lam in enumerate(t.lambdas):
        if not lam:
            continue
        sign = _prefix_sign(t, j)
        n_ini = tuple(v - lam[0] if k == j else v for k, v in enumerate(t.n_vec))
        yield "initial", sign, _with_lambda(t, j, lam[1:], n_ini)
        n_fin = tuple(v - lam[-1] if k == j else v for k, v in enumerate(t.n_vec))
        yield "final", sign * _parity_sign(len(lam)), _with_lambda(t, j, lam[:-1], n_fin)


DELTAS = {"I": delta_I, "II": delta_II, "III": delta_III, "IV": delta_IV}


def differential_events(s: SignAssignment, t: PartitionedDomain) -> list[tuple[str, tuple]]:
    """Labeled raw differential terms, before any cancellation.

    Each event carries the key of the surviving triple; the multiset matches
    the codimension-one boundary census of the moduli space.
    """
    return [(label, u.key) for part in DELTAS.values() for label, _, u in part(s, t)]


def _summed(terms) -> dict:
    """``{key: (coefficient, triple)}`` of raw terms, zero sums dropped."""
    acc: dict = {}
    for _, c, u in terms:
        cur = acc.get(u.key)
        acc[u.key] = (cur[0] + c if cur else c, u)
    return {key: cu for key, cu in acc.items() if cu[0]}


def cdp_differential(s: SignAssignment, t: PartitionedDomain) -> list[tuple[int, PartitionedDomain]]:
    """The full differential, with coefficients summed per target."""
    return list(_summed(term for part in DELTAS.values() for term in part(s, t)).values())


# -- closures ------------------------------------------------------------------

# The nine identities whose sum gives d^2 = 0; "A.B" is delta_A . delta_B.
IDENTITIES = (
    "I.I",
    "II.II",
    "III.III",
    "I.II+II.I",
    "I.III+III.I",
    "I.IV+IV.I",
    "II.III+III.II",
    "II.IV+IV.II",
    "IV.IV+III.IV+IV.III",
)


@dataclass
class ClosureComplex:
    """A finite downward-closed family of triples with the CDP differential."""

    seeds: list[PartitionedDomain]
    elements: dict  # key -> PartitionedDomain
    complex: IntegerChainComplex
    parts: dict  # type name -> {key: {key2: coeff}}

    @staticmethod
    def build(s: SignAssignment, seeds) -> "ClosureComplex":
        elements = {t.key: t for t in seeds}
        parts: dict = {name: {} for name in DELTAS}
        frontier = list(elements.values())
        while frontier:
            t = frontier.pop()
            for name, part in DELTAS.items():
                col = _summed(part(s, t))
                if col:
                    parts[name][t.key] = {key: c for key, (c, _) in col.items()}
                for key, (_, u) in col.items():
                    if key not in elements:
                        elements[key] = u
                        frontier.append(u)
        diff: dict = {}
        for key in elements:
            col: dict = {}
            for cols in parts.values():
                col = chain_add(col, cols.get(key, {}))
            if col:
                diff[key] = col
        grading = {key: t.gr for key, t in elements.items()}
        return ClosureComplex(list(seeds), elements, IntegerChainComplex(grading, diff), parts)

    def compose_parts(self, first: str, then: str) -> dict:
        """Matrix of delta_then . delta_first on the closure."""
        out: dict = {}
        cols_first = self.parts.get(first, {})
        cols_then = self.parts.get(then, {})
        for key, col in cols_first.items():
            acc: dict = {}
            for mid, c in col.items():
                for tgt, c2 in cols_then.get(mid, {}).items():
                    acc[tgt] = acc.get(tgt, 0) + c * c2
            acc = {k: v for k, v in acc.items() if v}
            if acc:
                out[key] = acc
        return out

    def identity_holds(self, name: str) -> bool:
        """Whether the sum of compositions named by ``name`` (for example
        "I.II+II.I") vanishes on the closure."""
        total: dict = {}
        for term in name.split("+"):
            then, first = term.split(".")
            for key, col in self.compose_parts(first, then).items():
                total[key] = chain_add(total.get(key, {}), col)
        return not any(total.values())

    def identity_ledger(self) -> dict:
        """The nine identities whose sum gives d^2 = 0."""
        return {name: self.identity_holds(name) for name in IDENTITIES}


# -- distinguished subcomplexes ---------------------------------------------------


def build_cdp_dagger(g: GridDiagram, s: SignAssignment) -> IntegerChainComplex:
    """The subcomplex on (trivial domain at x^Id, N in {0,1}^n, unit parts).

    Its differential has only type IV terms, and the initial/final reductions
    cancel in pairs, so it vanishes and the homology in degree k is free of
    rank C(n, k); the differential is computed in full, not assumed zero.
    """
    x_id = g.generator(tuple(range(g.n)))
    triples = []
    for n_vec in itertools.product((0, 1), repeat=g.n):
        lambdas = tuple((1,) if v else () for v in n_vec)
        triples.append(PartitionedDomain(g.trivial_domain(x_id), n_vec, lambdas))
    grading = {t.key: t.gr for t in triples}
    diff: dict = {}
    for t in triples:
        col = {u.key: c for c, u in cdp_differential(s, t)}
        if not col.keys() <= grading.keys():
            raise AssertionError("dagger subcomplex is not closed")
        if col:
            diff[t.key] = col
    return IntegerChainComplex(grading, diff)


# -- associated graded pieces of CD ----------------------------------------------


@dataclass
class GradedPieceReport:
    size: int
    homology: HomologyTable
    expected_acyclic: bool

    @property
    def ok(self) -> bool:
        nz = self.homology.nonzero()
        if self.expected_acyclic:
            return not nz
        return nz == {0: (1, ())}


def graded_piece_complex(
    g: GridDiagram, s: SignAssignment, a, b, y: Generator
) -> IntegerChainComplex:
    """The associated-graded piece CD^{a,b,y} on the interval [m^{a,b,y}, Id].

    Generators are the x in G^{a,b,y}, each carrying its unique positive
    domain (x, y, a, b).  That is the zero-data domain (x, y, 0, 0) followed
    by the periodic domain (y, y, a, b), so its Maslov index is the sum of
    theirs: the first ``inversions(y) - inversions(x)``
    (``GridDiagram.base_maslov_index``), the second the data's share of the
    O cells, the same for every x.  The differential splits off front
    rectangles avoiding the last row and column, read from the arrow table
    ``SignAssignment.inner_arrows``.
    """
    a, b = tuple(a), tuple(b)
    members = g_set(g, a, b, y)
    top = g.unique_domain(y, y, a, b).maslov_index() + inversions(y.sigma)
    grading = {x: top - inversions(x) for x in members}
    diff: dict = {}
    for sigma in members:
        col = {tau: v for tau, v in s.inner_arrows(sigma).items() if tau in members}
        if col:
            diff[sigma] = col
    return IntegerChainComplex(grading, diff)


def graded_piece_acyclicity(
    g: GridDiagram, s: SignAssignment, a, b, y: Generator
) -> GradedPieceReport:
    cx = graded_piece_complex(g, s, a, b, y)
    expected_acyclic = any(a) or any(b) or y.sigma != tuple(range(g.n))
    return GradedPieceReport(len(cx.grading), cx.homology(), expected_acyclic)
