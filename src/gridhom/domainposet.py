"""The partial order on grid generators and its Bruhat-order bridge.

``y <= x`` when some positive domain from x to y avoids both the rightmost
column and the topmost row; on permutations this is the opposite of the
strong Bruhat order.  By the quadrant form of that domain (see ``g_set``),
``y <= x`` iff ``Q_y <= Q_x`` on every cell.  The module also finds
the minimum generator m^{a,b,y} of the upward-closed sets G^{a,b,y} that
drive the acyclicity of the positive-domain complex, by stepping back along
minimal witness rectangles.
"""

from __future__ import annotations

from operator import le, sub

from gridhom.gridcore import Generator, GridDiagram, columns_within, inversions, quadrant_counts

Perm = tuple[int, ...]


def generator_leq(g: GridDiagram, y: Generator, x: Generator) -> bool:
    """y <= x iff the unique (x -> y) domain with A = B = 0 is positive,
    unbuilt: by the quadrant form, iff ``Q_y <= Q_x`` on every cell."""
    return all(map(le, quadrant_counts(y.sigma), quadrant_counts(x.sigma)))


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


def _witness_records(g: GridDiagram, a, b, y_sigma: Perm):
    """``(kind, omega, tau, record)`` for each A- and B-witness rectangle
    into y, in the order of ``rectangle_infos_into``.

    ``omega`` counts the annuli the rectangle crosses between its left edge
    (bottom edge for B) and the last column (row); together with the width
    (height) ``tau`` this pins both corners, so the lexicographic minimizer
    is unique.  A rectangle avoids the top-right cell, so it meets the last
    column (top row) off that cell iff it meets it at all:
    ``meets_last_column`` stands for ``any(a_vec)`` and ``meets_top_row``
    for ``any(b_vec)``.
    """
    n = g.n
    for info in g.rectangle_infos_into(y_sigma):
        if info.meets_last_column and all(map(le, info.a_vec, a)):
            yield "A", (n - 1 - info.col0) % n, info.width, info
        if info.meets_top_row and all(map(le, info.b_vec, b)):
            yield "B", (n - 1 - info.row0) % n, info.height, info


def _minimal_witness_record(g: GridDiagram, a, b, y_sigma: Perm):
    """The A-witness record minimizing (omega, tau) lexicographically, else
    the minimal B-witness record, else None."""
    best: dict = {}
    for w in _witness_records(g, a, b, y_sigma):
        if w[0] not in best or w[1:3] < best[w[0]][1:3]:
            best[w[0]] = w
    return best.get("A") or best.get("B")


def g_minimum(g: GridDiagram, a, b, y: Generator) -> Generator:
    """The minimum m^{a,b,y} of G^{a,b,y}, by the witness recursion: step
    back along the minimal witness into y, lowering a (A) or b (B) by its
    last-column (top-row) data, until no witness is left."""
    a, b = tuple(a), tuple(b)
    sigma = y.sigma
    while (found := _minimal_witness_record(g, a, b, sigma)) is not None:
        kind, _, _, info = found
        if kind == "A":
            a = tuple(map(sub, a, info.a_vec))
        else:
            b = tuple(map(sub, b, info.b_vec))
        sigma = info.from_sigma
    return g.generator(sigma)


def g_set(g: GridDiagram, a, b, y: Generator) -> set[Perm]:
    """G^{a,b,y}: all x admitting a positive domain to y with the prescribed
    last-column/last-row data.

    That domain is the ``GridDomain`` (x, y, a, b), whose multiplicity on
    cell (c, r) is ``Q_x(c, r) - Q_y(c, r) + a[r] + b[c]`` with ``Q_z(c, r)``
    the number of points of z strictly up and to the right of the cell, so
    membership is ``Q_x >= Q_y - a[r] - b[c]`` on every cell (a and b padded
    with zeros to length n); a column search bounded from below only finds
    the members without building any domain.
    """
    n = g.n
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    qy = quadrant_counts(y.sigma)
    lo = [qy[c * n + r] - a[r] - b[c] for c in range(n) for r in range(n)]
    return set(columns_within(n, lo, [n] * (n * n)))


def interval(g: GridDiagram, lo: Generator, hi: Generator) -> set[Perm]:
    """Every z with lo <= z <= hi: ``Q_lo <= Q_z <= Q_hi`` on every cell,
    one column search."""
    return set(columns_within(g.n, quadrant_counts(lo.sigma), quadrant_counts(hi.sigma)))
