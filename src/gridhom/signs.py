"""Sign assignments on rectangles.

A sign assignment is a map s: {rectangles} -> {+1, -1} such that for every
positive index-2 domain the two rectangle decompositions R1*S1 = R2*S2 carry
opposite products, horizontal annuli carry product +1, and vertical annuli
product -1.

Construction.  A rectangle from x^sigma using columns {i, j} changes the
generator by the transposition (i j).  We lift each permutation to the Pin
group sitting inside the Clifford algebra Cl(R^n) (e_k^2 = +1; MOST,
arXiv:math/0610559): the transposition (i j) lifts to the vector e_i - e_j,
and a fixed choice of reduced word (peel the smallest descent) gives a lift
L(sigma) for every generator.  The rectangle's sign is the sign s0 in

    L(sigma) * (e_bl - e_tr)  =  lambda * L(sigma (i j)),   lambda = s0 * |lambda|,

with the vector oriented from the column of the rectangle's bottom-left
corner to that of its top-right corner, further corrected by the parity of
the rectangle's cell counts in the top row and in the rightmost column.
Distinct transpositions multiply compatibly in the Clifford algebra, which
forces the two-decomposition axiom; the orientation and parity corrections
pin down the annulus axioms.

Evaluation.  The lifts are never expanded in the 2^n blades of Cl(R^n).  A
spinor representation rho on C^d, d = 2^(n // 2), sends each e_k to a
Jordan-Wigner gamma (Pauli Z on the factors before k // 2, then X or Y; for
odd n the last e_k is Z on every factor), a permutation of the basis with
phases +-1 and +-i.  rho is injective on each parity, and both sides above
have the parity of the length of sigma plus one, so the identity holds
exactly when it holds in rho.  Reversion, the anti-automorphism that fixes
vectors, turns it into

    rho(e_bl - e_tr) u_sigma  =  lambda * u_{sigma (i j)},   u_sigma = rho(L(sigma)^rev) v0,

for a fixed v0 != 0; each u_sigma is nonzero because rho(L(sigma)^rev) is
invertible.  Each u_sigma is d Gaussian integers, kept as 2d integer
coordinates (real and imaginary parts), and follows from its parent's along
the reduced word, since L(sigma)^rev = (e_p - e_{p+1}) L(parent)^rev; it is
kept divided by the positive gcd of its entries, which keeps every lambda's
sign.

Bit sets.  On the coordinates, every gamma (``_gammas``) sends coordinate
t XOR f to t with a sign: X or Y flips a factor, Y also swaps real and
imaginary parts.  So a u_sigma with entries in {0, +-1} is kept as two bit
sets (P, N) of its +1 and -1 coordinates, coordinate t at bit 4t, and a
gamma is at most two block swaps (one per bit of f) and one masked swap of P
and N.  The entries of rho(e_p - e_{p+1}) u are differences of two entries
in {0, +-1}; the table builder halves them when every nonzero one is +-2,
and raises ``Unsatisfiable`` on a zero vector or on a scaled entry outside
{0, +-1} (not met on any grid up to n = 9), so every stored u_sigma has
entries in {0, +-1}.  Equal vectors share one pair (60,480 distinct ones
for the 9! permutations at n = 9).

Exactness.  With one digit per 4 bits, P - N is u_sigma as one balanced
base-16 integer.  If w = rho(e_i - e_j) u_sigma equals lambda * u_tau, then
lambda = w_k / u_k at a coordinate with u_k = +-1, so lambda is a nonzero
integer with |lambda| <= 2, and every digit of w and of lambda * u_tau lies
in [-2, 2].  Integers with digits that small determine their digits, so the
vector identity holds exactly when the integers satisfy it: ``edge_sign``
takes one ``divmod`` of the two and asks for no remainder and a quotient of
0 < |lambda| <= 2, raising ``Unsatisfiable`` otherwise.  The u_sigma are
kept, one per permutation reached; rectangle signs are not: each ``of`` call
applies two gammas to u_sigma and compares the result with u_tau, so a
caller that revisits a rectangle keeps the sign in a table of its own.
``verify_axioms`` re-checks the axioms exhaustively; nothing is trusted on
faith.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from gridhom.gridcore import GridDiagram, GridError, RectInfo


class Unsatisfiable(GridError):
    """The axiom system admits no solution (never expected)."""


def _gammas(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """rho(e_k) for k < n as ``(src, sgn)``: on the 2d integer coordinates
    (real part of basis vector b at 2b, imaginary part at 2b + 1) it sends u
    to the vector whose coordinate t is ``sgn[t] * u[src[t]]``."""
    m = n // 2
    d = 1 << m
    out = []
    for k in range(n):
        a, y = divmod(k, 2)
        flip = 1 << a if a < m else 0  # X or Y on factor a; none for odd n's last gamma
        src, sgn = [0] * (2 * d), [0] * (2 * d)
        for b in range(d):
            p = 2 * ((b & ((1 << a) - 1)).bit_count() & 1)  # Z on the factors before a
            if y:  # Y: |0> -> i|1>, |1> -> -i|0>
                p += 3 if b >> a & 1 else 1
            # the image of basis vector b is i^p times basis vector b ^ flip
            t = b ^ flip
            src[2 * t], sgn[2 * t] = 2 * b + (p & 1), 1 if p % 4 in (0, 3) else -1
            src[2 * t + 1], sgn[2 * t + 1] = 2 * b + 1 - (p & 1), 1 if p % 4 < 2 else -1
        out.append((tuple(src), tuple(sgn)))
    return out


class _Spinors:
    """Lazy table of u_sigma = rho(L(sigma)^rev) v0, one fixed Pin lift L,
    each scaled by a positive number to entries in {0, +-1} and kept as two
    bit sets ``(P, N)`` of its +1 and -1 coordinates, coordinate t at bit
    4t; equal vectors are stored once."""

    def __init__(self, n: int):
        size = 2 << n // 2  # coordinates
        self._gammas = []  # per k: the block swaps of rho(e_k), then its sign mask
        for src, sgn in _gammas(n):
            f = src[0]
            if src != tuple(t ^ f for t in range(size)):
                raise Unsatisfiable("a gamma is not an XOR of the coordinate index")
            swaps = tuple(
                (4 << b, sum(1 << 4 * t for t in range(size) if not t >> b & 1))
                for b in range(f.bit_length())
                if f >> b & 1
            )
            self._gammas.append((swaps, sum(1 << 4 * t for t in range(size) if sgn[t] < 0)))
        self._table: dict[tuple, tuple[int, int]] = {tuple(range(n)): (1, 0)}
        self._shared: dict[tuple, tuple] = {(1, 0): (1, 0)}  # each distinct u_sigma, keyed by itself

    def _gamma(self, k: int, u: tuple[int, int]) -> tuple[int, int]:
        """rho(e_k) u: coordinate t of the result is sgn[t] * u[t ^ f]."""
        p, q = u
        swaps, negate = self._gammas[k]
        for shift, low in swaps:
            p = (p & low) << shift | p >> shift & low
            q = (q & low) << shift | q >> shift & low
        d = (p ^ q) & negate
        return p ^ d, q ^ d

    def spinor(self, sigma: tuple) -> tuple[int, int]:
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
            p = next(p for p in range(len(top) - 1) if top[p] > top[p + 1])
            parent = list(top)
            parent[p], parent[p + 1] = parent[p + 1], parent[p]
            parent = tuple(parent)
            got = self._table.get(parent)
            if got is None:
                stack.append(parent)
                continue
            # rho(e_p - e_{p+1}) u: each coordinate is a - b with a, b in {0, +-1}
            (pa, na), (pb, nb) = self._gamma(p, got), self._gamma(p + 1, got)
            odd = (pa | na) ^ (pb | nb)  # the coordinates +-1
            plus2, minus2 = pa & nb, na & pb
            if plus2 | minus2:
                if odd:
                    raise Unsatisfiable("a scaled spinor has an entry outside {0, +-1}")
                u = (plus2, minus2)  # halved
            elif odd:
                u = ((pa | nb) & odd, (na | pb) & odd)
            else:
                raise Unsatisfiable("a spinor vanished")
            self._table[top] = self._shared.setdefault(u, u)
            stack.pop()
        return self._table[sigma]

    def edge_sign(self, sigma: tuple, tau: tuple, i: int, j: int) -> int:
        """Sign of lambda in L(sigma)*(e_i - e_j) = lambda * L(tau), tau = sigma (i j)."""
        u = self.spinor(sigma)
        (pa, na), (pb, nb) = self._gamma(i, u), self._gamma(j, u)
        pt, nt = self.spinor(tau)
        # w = rho(e_i - e_j) u_sigma and u_tau as balanced base-16 integers
        lam, rest = divmod(pa - na - pb + nb, pt - nt)
        if rest or not lam or not -2 <= lam <= 2:
            raise Unsatisfiable("Pin lift comparison failed; the ratio is not +-1 or +-2")
        return 1 if lam > 0 else -1


@dataclass
class SignAssignment:
    """Total sign table on the rectangles of one grid diagram.

    ``of`` computes a rectangle's sign from the spinor table on every call
    and keeps nothing per rectangle; a caller that asks for a sign more than
    once keeps its own table for the length of its call.  The assignment
    owns two tables that live as long as it does: the spinor table (one
    entry per permutation reached) and the arrow table of ``inner_arrows``
    (``_inner``, one entry per generator asked about), which
    ``cdp.graded_piece_complex`` reads for every piece.  Drop the assignment
    to drop both.
    """

    diagram: GridDiagram
    _spinors: _Spinors = field(init=False, repr=False)
    _inner: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self._spinors = _Spinors(self.diagram.n)

    def of(self, info: RectInfo) -> int:
        i, j = info.pair
        if info.role == 1:
            i, j = j, i  # orient the reflection vector from the BL corner's column
        s = self._spinors.edge_sign(info.from_sigma, info.to_sigma, i, j)
        # Correct by the cell-count parities in the top row and the
        # rightmost column; both are Z/2-linear in the 2-chain, so they
        # never disturb the two-decomposition axiom, and together with
        # the orientation above they pin the annulus axioms.
        flip = 0
        if info.meets_top_row:
            flip ^= info.width & 1
        if info.meets_last_column:
            flip ^= info.height & 1
        return -s if flip else s

    def inner_arrows(self, sigma) -> dict:
        """``{tau: summed sign}`` over the rectangles from x^sigma to x^tau
        that meet neither the last column nor the top row, zero sums dropped,
        in the order of ``rectangle_infos``.

        Built on the first call for sigma from one ``rectangle_infos`` call
        and one ``of`` per rectangle, then kept in ``_inner``.
        """
        arrows = self._inner.get(sigma)
        if arrows is None:
            acc: dict = {}
            for info in self.diagram.rectangle_infos(sigma):
                if not (info.meets_last_column or info.meets_top_row):
                    acc[info.to_sigma] = acc.get(info.to_sigma, 0) + self.of(info)
            arrows = self._inner[sigma] = {tau: v for tau, v in acc.items() if v}
        return arrows


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


SHAPE_CLASSES = ("cross", "disjoint", "hexagon", "annulus-horizontal", "annulus-vertical")


@dataclass
class AxiomReport:
    checked: int
    shape_counts: dict
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _arcs_meet(start1: int, len1: int, start2: int, len2: int, n: int) -> bool:
    """Whether the arcs ``start..start+len-1`` of Z/n share a point."""
    return (start2 - start1) % n < len1 or (start1 - start2) % n < len2


def _classify(decomps) -> str:
    """The shape of an index-2 domain, read from its decompositions
    ``(r1, r2, sign)``: ``cross`` when the two boxes of one overlap on the
    torus (a cell holds 2), an annulus when it ends where it starts
    (horizontal iff it has data in the last column), else ``disjoint`` or
    ``hexagon`` as its decompositions move four or three columns in all; no
    label depends on the order of ``decomps``."""
    r1, r2, _ = decomps[0]
    n = len(r1.from_sigma)
    if _arcs_meet(r1.col0, r1.width, r2.col0, r2.width, n) and _arcs_meet(r1.row0, r1.height, r2.row0, r2.height, n):
        return "cross"
    if r2.to_sigma == r1.from_sigma:
        return "annulus-horizontal" if any(r1.a_vec) or any(r2.a_vec) else "annulus-vertical"
    cols = {c for r1, r2, _ in decomps for c in r1.pair + r2.pair}
    return "disjoint" if len(cols) == 4 else "hexagon"


def verify_axioms(g: GridDiagram, s: SignAssignment) -> AxiomReport:
    """Exhaustively check the sign axioms over all index-2 positive domains."""
    # the records of every generator with the sign of each rectangle, built
    # once for this check: a rectangle occurs in many domains
    infos = {x.sigma: [(r, s.of(r)) for r in g.rectangle_infos(x.sigma)] for x in g.generators()}
    checked = 0
    shape_counts = {name: 0 for name in SHAPE_CLASSES}
    violations = []
    for from_sigma, rects in infos.items():
        # The composites r1*r2 from one x, kept until the next x, keyed as
        # ``GridDomain.key`` less the common start: the end and the data.
        groups: dict = {}
        for r1, s1 in rects:
            for r2, s2 in infos[r1.to_sigma]:
                key = (r2.to_sigma, tuple(map(add, r1.a_vec, r2.a_vec)), tuple(map(add, r1.b_vec, r2.b_vec)))
                groups.setdefault(key, []).append((r1, r2, s1 * s2))
        checked += len(groups)
        for decomps in groups.values():
            shape = _classify(decomps)
            shape_counts[shape] += 1
            prods = [p for _, _, p in decomps]
            if shape == "annulus-horizontal":
                label, ok = "horizontal annulus", prods == [1]
            elif shape == "annulus-vertical":
                label, ok = "vertical annulus", prods == [-1]
            else:
                label, ok = shape, len(prods) == 2 and prods[0] == -prods[1]
            if not ok:
                r1, r2, _ = decomps[0]
                violations.append((from_sigma, r1.domain(g).compose(r2.domain(g)).mult, label, prods))
    return AxiomReport(checked=checked, shape_counts=shape_counts, violations=violations)
