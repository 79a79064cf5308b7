"""The partial order on grid generators and its Bruhat-order bridge.

``y <= x`` when some positive domain from x to y avoids both the rightmost
column and the topmost row; on permutations this is the opposite of the
strong Bruhat order.  The module also provides the witness rectangles and
the minimum generator m^{a,b,y} of the upward-closed sets G^{a,b,y} that
drive the acyclicity of the positive-domain complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from gridhom.gridcore import Generator, GridDiagram, RectInfo

Perm = tuple[int, ...]


def generator_leq(g: GridDiagram, y: Generator, x: Generator) -> bool:
    """y <= x iff the unique (x -> y) domain with A = B = 0 is positive."""
    return g.base_domain(x, y).is_positive()


def inversions(sigma: Perm) -> int:
    n = len(sigma)
    return sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])


def bruhat_leq(sigma: Perm, tau: Perm) -> bool:
    """Strong Bruhat order via the rank-matrix (subword) criterion."""
    n = len(sigma)
    for i in range(n):
        cs = ct = 0
        for j in range(n):
            # running counts of values >= i among the first j+1 entries
            if sigma[j] >= i:
                cs += 1
            if tau[j] >= i:
                ct += 1
            if cs > ct:
                return False
    return True


def descents(sigma: Perm) -> list[int]:
    return [p for p in range(len(sigma) - 1) if sigma[p] > sigma[p + 1]]


def _swap(sigma: Perm, p: int) -> Perm:
    out = list(sigma)
    out[p], out[p + 1] = out[p + 1], out[p]
    return tuple(out)


def reduced_words(sigma: Perm) -> list[tuple[int, ...]]:
    """All reduced words (sequences of adjacent swap positions, applied left
    to right starting from the identity)."""
    if not inversions(sigma):
        return [()]
    out = []
    for p in descents(sigma):
        for word in reduced_words(_swap(sigma, p)):
            out.append(word + (p,))
    return out


def canonical_reduced_word(sigma: Perm) -> tuple[int, ...]:
    """Lexicographically least reduced word, built front-first."""
    word = []
    current = tuple(sigma)
    # peel letters from the front: any valid first letter extends to a full
    # reduced word, so greedily taking the smallest is lexicographically least
    while inversions(current):
        for p in range(len(sigma) - 1):
            rest = _front_unswap(current, p)
            if inversions(rest) == inversions(current) - 1:
                word.append(p)
                current = rest
                break
    return tuple(word)


def _front_unswap(sigma: Perm, p: int) -> Perm:
    """Remove a front letter tau_p: sigma = tau_p . rest (values p, p+1 swap)."""
    return tuple(p + 1 if v == p else p if v == p + 1 else v for v in sigma)


def has_word_ending_in(sigma: Perm, p: int) -> bool:
    """Whether some reduced word of sigma ends with the swap at position p."""
    return sigma[p] > sigma[p + 1]


@dataclass(frozen=True)
class WitnessRectangle:
    """A rectangle into y certifying plausibility of a triple (a, b, y).

    ``omega`` counts the annuli left of the last column (A-kind) or below the
    top row (B-kind) that the rectangle meets; ``tau`` is its width (A) or
    height (B).
    """

    kind: str  # "A" or "B"
    from_gen: Generator
    rect: RectInfo
    omega: int
    tau: int


def _witnesses(g: GridDiagram, a, b, y: Generator) -> list[WitnessRectangle]:
    """A- and B-witness rectangles into y.

    ``omega`` counts the annuli the rectangle crosses between its left edge
    (bottom edge for B) and the last column (row); together with the width
    (height) ``tau`` this pins both corners, so the lexicographic minimizer
    is unique.
    """
    n = g.n
    out = []
    for info in g.rectangle_infos_into(y.sigma):
        av, bv = info.a_vec, info.b_vec
        z = g.generator(info.from_sigma)
        if any(av) and all(x <= bound for x, bound in zip(av, a)):
            omega = (n - 1 - info.col0) % n
            out.append(WitnessRectangle("A", z, info, omega, info.width))
        if any(bv) and all(x <= bound for x, bound in zip(bv, b)):
            omega = (n - 1 - info.row0) % n
            out.append(WitnessRectangle("B", z, info, omega, info.height))
    return out


def minimal_witness(g: GridDiagram, a, b, y: Generator) -> WitnessRectangle | None:
    """The A-witness minimizing (omega, tau) lexicographically, else the
    minimal B-witness, else None."""
    ws = _witnesses(g, a, b, y)
    for kind in ("A", "B"):
        pool = [w for w in ws if w.kind == kind]
        if pool:
            pool.sort(key=lambda w: (w.omega, w.tau))
            return pool[0]
    return None


def g_minimum(g: GridDiagram, a, b, y: Generator) -> Generator:
    """The minimum m^{a,b,y} of G^{a,b,y}, by the witness recursion."""
    a, b = tuple(a), tuple(b)
    w = minimal_witness(g, a, b, y)
    if w is None:
        return y
    if w.kind == "A":
        a2 = tuple(x - r for x, r in zip(a, w.rect.a_vec))
        return g_minimum(g, a2, b, w.from_gen)
    b2 = tuple(x - r for x, r in zip(b, w.rect.b_vec))
    return g_minimum(g, a, b2, w.from_gen)


def g_set(g: GridDiagram, a, b, y: Generator) -> set[Perm]:
    """G^{a,b,y}: all x admitting a positive domain to y with the prescribed
    last-column/last-row data.

    That domain is ``unique_domain(x, y, a, b)``, whose multiplicity on cell
    (c, r) is ``Q_x(c, r) - Q_y(c, r) + a[r] + b[c]`` with ``Q_z(c, r)`` the
    number of points of z strictly up and to the right of the cell, so
    membership is ``Q_x >= Q_y - a[r] - b[c]`` on every cell; a pruned column
    search finds the members without building any domain.
    """
    return g.positive_sources(y, a, b)


def interval(g: GridDiagram, lo: Generator, hi: Generator) -> set[Perm]:
    out = set()
    for z in g.generators():
        if generator_leq(g, lo, z) and generator_leq(g, z, hi):
            out.add(z.sigma)
    return out
