"""``reduce_complex`` against a reference Morse reduction.

``reference_reduce`` is the reduction as it stood before its rows became
lists: rows are insertion-ordered ``{column: None}`` dicts, each ``iota``
step is a ``(b, factor)`` tuple and ``pi`` replays a log of ``(a, b, pi(a))``
dicts on cell ids.  The library must give the same reduced complex (order
included), the same ``iota`` and the same ``pi`` of every cell.
"""

import heapq
import random
from collections import deque

import pytest

from gridhom import cdp
from gridhom.gridcomplex import FlavorSpec, build_complex
from gridhom.homalg import IntegerChainComplex, chain_add, reduce_complex


def reference_reduce(cx):
    """The tracked reduction of ``cx``: (reduced, iota, pi), as in the
    library but on dict rows, tuple steps and a dict ``pi`` log."""
    keys = list(cx.grading)
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    cols: list = [None] * n
    rows: list = [None] * n
    read = []
    for k, col in cx.diff.items():
        if col:
            c = index[k]
            read.append(c)
            cols[c] = col = {index[r]: v for r, v in col.items()}
            for r in col:
                if rows[r] is None:
                    rows[r] = {c: None}
                else:
                    rows[r][c] = None
    buckets: dict = {}
    for c in read:
        col = cols[c]
        for r, v in col.items():
            if v == 1 or v == -1:
                p = len(col) * len(rows[r])
                bucket = buckets.get(p)
                if bucket is None:
                    buckets[p] = bucket = deque()
                bucket.extend((c, r))
    prios = list(buckets)
    heapq.heapify(prios)

    alive = [True] * n
    steps: list = [None] * n
    cancelled: list = []

    while prios:
        p = prios[0]
        bucket = buckets[p]
        b = bucket.popleft()
        a = bucket.popleft()
        if not bucket:
            heapq.heappop(prios)
            del buckets[p]
        if not (alive[a] and alive[b]):
            continue
        db = cols[b]
        u = db.get(a, 0)
        if u != 1 and u != -1:
            continue
        rest = [(r, v) for r, v in db.items() if r != a]
        for c in [c for c in rows[a] if c != b and alive[c]]:
            col = cols[c]
            factor = -col.pop(a) * u
            for r, v in rest:
                w = col.get(r, 0) + factor * v
                if w:
                    col[r] = w
                    row = rows[r]
                    row[c] = None
                    if w == 1 or w == -1:
                        p = len(col) * len(row)
                        bucket = buckets.get(p)
                        if bucket is None:
                            buckets[p] = deque((c, r))
                            heapq.heappush(prios, p)
                        else:
                            bucket.extend((c, r))
                else:
                    del col[r]
                    del rows[r][c]
            if steps[c] is None:
                steps[c] = [(b, factor)]
            else:
                steps[c].append((b, factor))
        cancelled.append((a, b, {r: -u * v for r, v in rest}))
        alive[a] = alive[b] = False
        cols[a] = cols[b] = rows[a] = None
        for c in rows[b] or ():
            if cols[c] is not None:
                cols[c].pop(b, None)
        rows[b] = None

    survivors = [i for i in range(n) if alive[i]]
    reduced = IntegerChainComplex(
        {keys[i]: cx.grading[keys[i]] for i in survivors},
        {keys[i]: {keys[r]: v for r, v in cols[i].items()} for i in survivors if cols[i]},
    )
    iota = {keys[i]: {keys[r]: v for r, v in chain.items()} for i, chain in reference_iota(survivors, steps).items()}

    def pi(chain):
        out = {index[k]: v for k, v in chain.items()}
        for a, b, pi_a in cancelled:
            mu = out.pop(a, 0)
            if mu:
                for r, v in pi_a.items():
                    w = out.get(r, 0) + mu * v
                    if w:
                        out[r] = w
                    else:
                        out.pop(r, None)
            out.pop(b, None)
        return {keys[i]: v for i, v in out.items()}

    return reduced, iota, pi


def reference_iota(survivors, steps):
    done: dict = {}
    for s in survivors:
        stack = [s]
        while stack:
            c = stack[-1]
            todo = [b for b, _ in steps[c] or () if b not in done]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if c in done:
                continue
            chain = {c: 1}
            for b, factor in steps[c] or ():
                chain = chain_add(chain, done[b], factor)
            done[c] = chain
    return {s: done[s] for s in survivors}


def ordered(reduced, iota, pi, keys):
    """Everything a tracked reduction returns, as lists that keep order."""
    return (
        list(reduced.grading.items()),
        [(k, list(col.items())) for k, col in reduced.diff.items()],
        [(k, list(chain.items())) for k, chain in iota.items()],
        [(k, list(pi({k: 1}).items())) for k in keys],
    )


def assert_matches_reference(cx):
    got = reduce_complex(cx, track_iota=True, track_pi=True)
    want = reference_reduce(cx)
    assert ordered(*got, cx.grading) == ordered(*want, cx.grading)
    return len(cx.grading) - len(got[0].grading)


@pytest.mark.parametrize(
    "grid, signs, flavor, alexander2",
    [("trefoil5", "signs5", "plus", 8), ("t25", "signs7", "hat", 2)],
)
def test_grid_slice(grid, signs, flavor, alexander2, request):
    g, s = request.getfixturevalue(grid), request.getfixturevalue(signs)
    cx = build_complex(g, s, FlavorSpec.make(g, flavor), (alexander2,))
    assert assert_matches_reference(cx)


def test_seeded_graded_pieces_trefoil5(trefoil5, signs5):
    rng = random.Random(21)
    gens = list(trefoil5.generators())
    cancelled = 0
    for _ in range(40):
        y = rng.choice(gens)
        a = tuple(rng.randint(0, 2) for _ in range(4))
        b = tuple(rng.randint(0, 2) for _ in range(4))
        cancelled += assert_matches_reference(cdp.graded_piece_complex(trefoil5, signs5, a, b, y))
    assert cancelled
