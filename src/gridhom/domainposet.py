"""The partial order on grid generators and its Bruhat-order bridge.

``y <= x`` when some positive domain from x to y avoids both the rightmost
column and the topmost row; on permutations this is the opposite of the
strong Bruhat order.  By the quadrant form of that domain (see ``g_set``),
``y <= x`` iff ``Q_y <= Q_x`` on every cell.  The module also finds
the minimum generator m^{a,b,y} of the upward-closed sets G^{a,b,y} that
drive the acyclicity of the positive-domain complex: one loop that steps
back along the minimal witness rectangle into the current generator, read
from one ``rectangle_infos_into`` call per step.
"""

from __future__ import annotations

from operator import le, sub

from gridhom.gridcore import Generator, GridDiagram, columns_within, quadrant_counts

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


def g_minimum(g: GridDiagram, a, b, y: Generator) -> Generator:
    """The minimum m^{a,b,y} of G^{a,b,y}, by the witness recursion: step
    back along the minimal witness rectangle into y, lowering a (b) by its
    last-column (top-row) data, until no witness is left.

    A-witnesses (they meet the last column, with ``a_vec <= a``) come
    first, minimized by (omega, width); otherwise B-witnesses (they meet
    the top row, with ``b_vec <= b``), minimized by (omega, height).  omega
    counts the annuli crossed from the left (bottom) edge to the last column
    (top row); with the width (height) it pins both corners, so each
    minimizer is unique.  A rectangle avoids the top-right cell, so
    ``meets_last_column`` and ``meets_top_row`` stand for ``any(a_vec)`` and
    ``any(b_vec)``.
    """
    n = g.n
    a, b = tuple(a), tuple(b)
    sigma = y.sigma
    while True:
        infos = g.rectangle_infos_into(sigma)
        if wa := [i for i in infos if i.meets_last_column and all(map(le, i.a_vec, a))]:
            info = min(wa, key=lambda i: ((n - 1 - i.col0) % n, i.width))
            a = tuple(map(sub, a, info.a_vec))
        elif wb := [i for i in infos if i.meets_top_row and all(map(le, i.b_vec, b))]:
            info = min(wb, key=lambda i: ((n - 1 - i.row0) % n, i.height))
            b = tuple(map(sub, b, info.b_vec))
        else:
            return g.generator(sigma)
        sigma = info.from_sigma


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
