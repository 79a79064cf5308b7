"""Ordered partitions (compositions) and the moves used by the partitioned
domain complex: elementary coarsenings and unit enlargements, each with its
sign.  The initial/final reductions are taken in ``cdp.delta_IV``.
``split_concatenation`` cuts a composition into consecutive blocks of given
totals; the splitting of bubble partitions across the pieces of a stratum
reads it.

A composition is a plain tuple of positive integers; the empty tuple is the
unique composition of 0.
"""

from __future__ import annotations

import itertools

Composition = tuple[int, ...]


def all_compositions(n: int):
    """All 2^(n-1) compositions of n (just () for n = 0)."""
    if n == 0:
        yield ()
        return
    for bits in itertools.product((0, 1), repeat=n - 1):
        yield from_epsilon(bits)


def weak_compositions(n: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``n``, in
    lexicographic order."""
    if parts == 1:
        yield (n,)
    elif parts == 0:
        if n == 0:
            yield ()
    else:
        for first in range(n + 1):
            for rest in weak_compositions(n - first, parts - 1):
                yield (first,) + rest


def from_epsilon(bits) -> Composition:
    """The composition of N whose bit string of length N-1 is ``bits``: 0
    between objects sharing a class, 1 between classes.  01001 -> (2,3,1)."""
    parts = []
    run = 1
    for b in bits:
        if b:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def elementary_coarsenings(lam: Composition) -> list[tuple[Composition, int]]:
    """Merge adjacent parts k, k+1; the merge at position k carries (-1)^k.

    Positions are 1-indexed as in the sign convention, so the first merge
    comes with -1.
    """
    out = []
    for k in range(1, len(lam)):
        merged = lam[: k - 1] + (lam[k - 1] + lam[k],) + lam[k + 1 :]
        out.append((merged, -1 if k % 2 else 1))
    return out


def unit_enlargements(lam: Composition) -> list[tuple[Composition, int]]:
    """Insert a part 1 before position k = 1..m+1, with sign (-1)^(k-1).

    Insertion after the last part is included: the cancellation of a final
    reduction against a unit enlargement in the last position needs it, and
    d^2 = 0 on the partitioned domain complex fails without it.  On the
    empty composition the single enlargement is ((1,), +1).
    """
    out = []
    for k in range(1, len(lam) + 2):
        enlarged = lam[: k - 1] + (1,) + lam[k - 1 :]
        out.append((enlarged, -1 if (k - 1) % 2 else 1))
    return out


def split_concatenation(lam: Composition, totals) -> list[Composition] | None:
    """Split a composition into consecutive blocks of the given totals;
    None when impossible (the split is unique when it exists)."""
    blocks = []
    pos = 0
    for t in totals:
        acc = 0
        start = pos
        while acc < t:
            if pos >= len(lam):
                return None
            acc += lam[pos]
            pos += 1
        if acc != t:
            return None
        blocks.append(lam[start:pos])
    if pos != len(lam):
        return None
    return blocks


def coarsenings_of(lam: Composition) -> set[Composition]:
    """All compositions coarser than or equal to ``lam`` (same total)."""
    out = {lam}
    frontier = [lam]
    while frontier:
        cur = frontier.pop()
        for merged, _ in elementary_coarsenings(cur):
            if merged not in out:
                out.add(merged)
                frontier.append(merged)
    return out
