"""Sign assignments on rectangles.

A sign assignment is a map s: {rectangles} -> {+1, -1} such that for every
positive index-2 domain the two rectangle decompositions R1*S1 = R2*S2 carry
opposite products, horizontal annuli carry product +1, and vertical annuli
product -1.

Construction.  A rectangle from x^sigma using columns {i, j} changes the
generator by the transposition (i j).  We lift each permutation to the Pin
group sitting inside the Clifford algebra Cl(R^n): the transposition (i j)
lifts to the vector e_i - e_j, and a fixed choice of reduced word gives a
lift L(sigma) for every generator.  The rectangle's sign is the comparison

    L(sigma) * (e_bl - e_tr)  =  s0 * 2^k * L(sigma (i j)),   s0 in {+1, -1},

with the vector oriented from the column of the rectangle's bottom-left
corner to that of its top-right corner, further corrected by the parity of
the rectangle's cell counts in the top row and in the rightmost column.
Distinct transpositions multiply compatibly in the Clifford algebra, which
forces the two-decomposition axiom; the orientation and parity corrections
pin down the annulus axioms.  ``verify_axioms`` re-checks everything
exhaustively; nothing is trusted on faith.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gridhom.gridcore import GridDiagram, GridDomain, GridError, RectInfo

CliffordElt = dict  # bitmask of {0..n-1} -> int coefficient


class Unsatisfiable(GridError):
    """The axiom system admits no solution (never expected)."""


def _mul_vector(elt: CliffordElt, i: int, j: int) -> CliffordElt:
    """Right-multiply by the unnormalized vector e_i - e_j."""
    out: CliffordElt = {}
    for mask, c in elt.items():
        for k, sgn in ((i, 1), (j, -1)):
            # e_S * e_k: move e_k past the elements of S greater than k
            above = (mask >> (k + 1)).bit_count()
            coeff = c * sgn * (1 - 2 * (above & 1))
            new = mask ^ (1 << k)
            w = out.get(new, 0) + coeff
            if w:
                out[new] = w
            else:
                del out[new]
    return out


class _PinLifts:
    """Lazy table of Clifford lifts of permutations, one fixed lift each."""

    def __init__(self, n: int):
        self.n = n
        self._table: dict[tuple, CliffordElt] = {tuple(range(n)): {0: 1}}

    def lift(self, sigma: tuple) -> CliffordElt:
        found = self._table.get(sigma)
        if found is not None:
            return found
        # peel the smallest descent; recursion depth <= n(n-1)/2
        stack = [sigma]
        while stack:
            top = stack[-1]
            if top in self._table:
                stack.pop()
                continue
            p = next(p for p in range(self.n - 1) if top[p] > top[p + 1])
            parent = list(top)
            parent[p], parent[p + 1] = parent[p + 1], parent[p]
            parent = tuple(parent)
            got = self._table.get(parent)
            if got is None:
                stack.append(parent)
                continue
            self._table[top] = _mul_vector(got, p, p + 1)
            stack.pop()
        return self._table[sigma]

    def edge_sign(self, sigma: tuple, pair: tuple[int, int]) -> int:
        """Sign comparing L(sigma)*(e_i - e_j) with L(sigma (i j))."""
        i, j = pair
        tau = list(sigma)
        tau[i], tau[j] = tau[j], tau[i]
        prod = _mul_vector(self.lift(sigma), i, j)
        target = self.lift(tuple(tau))
        key = min(target)
        num, den = prod[key], target[key]
        if num % den:
            raise Unsatisfiable("Pin lift comparison failed; lifts are inconsistent")
        lam = num // den
        if any(prod.get(mask, 0) != lam * c for mask, c in target.items()) or len(prod) != len(
            target
        ):
            raise Unsatisfiable("Pin lift comparison failed; not proportional")
        return 1 if lam > 0 else -1


@dataclass
class SignAssignment:
    """Total sign table on the rectangles of one grid diagram."""

    diagram: GridDiagram
    _lifts: _PinLifts = field(repr=False, default=None)
    _cache: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if self._lifts is None:
            self._lifts = _PinLifts(self.diagram.n)

    def of(self, info: RectInfo) -> int:
        key = info.key
        s = self._cache.get(key)
        if s is None:
            i, j = info.pair
            if info.role == 1:
                i, j = j, i  # orient the reflection vector from the BL corner's column
            s = self._lifts.edge_sign(info.from_sigma, (i, j))
            # Correct by the cell-count parities in the top row and the
            # rightmost column; both are Z/2-linear in the 2-chain, so they
            # never disturb the two-decomposition axiom, and together with
            # the orientation above they pin the annulus axioms.
            flip = 0
            if info.meets_top_row:
                flip ^= info.width & 1
            if info.meets_last_column:
                flip ^= info.height & 1
            self._cache[key] = s = -s if flip else s
        return s

    def table(self) -> dict:
        """Materialize signs of every rectangle in the grid."""
        for x in self.diagram.generators():
            for info in self.diagram.rectangle_infos(x.sigma):
                self.of(info)
        return dict(self._cache)


def build_sign_assignment(g: GridDiagram) -> SignAssignment:
    """Construct a deterministic sign assignment for a canonical grid."""
    g._require_canonical()
    return SignAssignment(g)


class GaugeTwist:
    """The sign assignment u(x) s(R) u(y) for a gauge u: generators -> {+-1}.

    Any gauge twist of a valid assignment is again valid; homology is
    unchanged because the twist is a change of basis x -> u(x) x.
    """

    def __init__(self, base, gauge: dict):
        self.base = base
        self.gauge = gauge
        self.diagram = base.diagram

    def of(self, info: RectInfo) -> int:
        return self.gauge[info.from_sigma] * self.base.of(info) * self.gauge[info.to_sigma]


# -- verification ------------------------------------------------------------


SHAPE_CLASSES = (
    "cross",
    "disjoint",
    "hexagon-ll",
    "hexagon-lr",
    "hexagon-ul",
    "hexagon-ur",
    "annulus-horizontal",
    "annulus-vertical",
)


@dataclass
class AxiomReport:
    checked: int
    shape_counts: dict
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _classify(d: GridDomain, decomps) -> str:
    if d.max_multiplicity() > 1:
        return "cross"
    kind = d.annulus_kind()
    if kind:
        return "annulus-horizontal" if kind == "H" else "annulus-vertical"
    pairs = {info.pair for info, _ in decomps} | {info.pair for _, info in decomps}
    cols = set()
    for p in pairs:
        cols.update(p)
    if len(cols) == 4:
        return "disjoint"
    # hexagon: orient by where the narrow rectangle sits relative to the wide one
    r1, r2 = decomps[0]
    wide, narrow = (r1, r2) if r1.width >= r2.width else (r2, r1)
    above = (narrow.row0 - wide.row0) % d.diagram.n >= wide.height
    left_aligned = narrow.col0 == wide.col0
    if above:
        return "hexagon-ul" if left_aligned else "hexagon-ur"
    return "hexagon-ll" if left_aligned else "hexagon-lr"


def verify_axioms(g: GridDiagram, s: SignAssignment) -> AxiomReport:
    """Exhaustively check the sign axioms over all index-2 positive domains."""
    groups: dict = {}
    for x in g.generators():
        for r1 in g.rectangle_infos(x.sigma):
            first = r1.domain(g)
            for r2 in g.rectangle_infos(r1.to_sigma):
                d = first.compose(r2.domain(g))
                groups.setdefault(d.key, (d, []))[1].append((r1, r2))
    shape_counts = {name: 0 for name in SHAPE_CLASSES}
    violations = []
    for (from_sigma, _, mult), (d, decomps) in groups.items():
        shape = _classify(d, decomps)
        shape_counts[shape] += 1
        prods = [s.of(r1) * s.of(r2) for r1, r2 in decomps]
        if shape == "annulus-horizontal":
            if len(decomps) != 1 or prods[0] != 1:
                violations.append((from_sigma, mult, "horizontal annulus", prods))
        elif shape == "annulus-vertical":
            if len(decomps) != 1 or prods[0] != -1:
                violations.append((from_sigma, mult, "vertical annulus", prods))
        else:
            if len(decomps) != 2 or prods[0] != -prods[1]:
                violations.append((from_sigma, mult, shape, prods))
    return AxiomReport(checked=len(groups), shape_counts=shape_counts, violations=violations)
