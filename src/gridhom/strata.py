"""Combinatorics of moduli-space strata.

Everything here is the discrete shadow of the stratified spaces: descriptors
of broken trajectories with boundary degenerations and partition data, the
local-model posets Z_N and I_N, and the permutohedron face lattice.  No
smooth geometry is computed.  The strata of one configuration are its
geometric splittings, each with one product over the markings of the ways
to share out and coarsen that marking's bubbles (``enumerate_strata``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from gridhom import partitions as pt
from gridhom.cdp import triple_key
from gridhom.gridcore import GridDiagram, GridDomain, GridError
from gridhom.signs import SignAssignment


class DegenerateInput(GridError):
    pass


class NotCodimOne(GridError):
    pass


def dimension(D: GridDomain, n_vec, lambdas) -> tuple[int, int]:
    """(dimension, thick dimension) of the moduli space of (D, N, lambda)."""
    n_vec = tuple(n_vec)
    if D.is_trivial() and not any(n_vec):
        raise DegenerateInput("the empty configuration carries no moduli space")
    mu = D.maslov_index()
    k = mu - 1 + sum(len(lam) for lam in lambdas)
    l = mu - 1 + 2 * sum(n_vec)
    return k, l


# -- strata of the compactified moduli spaces -------------------------------------


@dataclass(frozen=True)
class StratumPiece:
    domain: GridDomain
    e_rows: tuple[int, ...]  # multiplicities of extracted rows H_j, by marking
    f_cols: tuple[int, ...]  # multiplicities of extracted columns V_j
    n_vec: tuple[int, ...]
    lambdas: tuple
    eta: tuple

    @property
    def extras(self) -> tuple[int, ...]:
        return tuple(e + f for e, f in zip(self.e_rows, self.f_cols))

    @property
    def dim(self) -> int:
        return self.domain.maslov_index() - 1 + sum(len(lam) for lam in self.lambdas)

    @property
    def key(self):
        return self.domain.key + (self.e_rows, self.f_cols, self.n_vec, self.lambdas)


@dataclass(frozen=True)
class StratumDescriptor:
    pieces: tuple[StratumPiece, ...]
    codim: int

    @property
    def r(self) -> int:
        return len(self.pieces)

    @property
    def key(self):
        return tuple(p.key for p in self.pieces)


def _positive_subdomains(g: GridDiagram, rem: GridDomain):
    """All positive domains from rem.from_sigma contained in rem, each with
    the rest of rem after it (positive too: ``subdomain_data`` keeps
    exactly the data with ``0 <= cand <= rem``)."""
    x = g.generator(rem.from_sigma)
    for sigma, a, b in g.subdomain_data(rem):
        cand = g.unique_domain(x, g.generator(sigma), a, b)
        yield cand, rem.subtract(cand)


def _strip_annuli(g: GridDiagram, dom: GridDomain, kind: str, counts) -> GridDomain:
    """dom minus ``counts[j]`` copies of each annulus H_j or V_j at its start."""
    x = g.generator(dom.from_sigma)
    for j, k in enumerate(counts):
        for _ in range(k):
            dom = dom.subtract(g.marking_annulus(kind, j, x))
    return dom


def _extractions(g: GridDiagram, rem: GridDomain):
    """Choices of row/column multiples (E, F) with E + F <= rem.

    The rows H_j are pairwise disjoint, and so are the columns V_j, so for a
    positive rem each choice within the per-annulus room leaves a positive
    remainder.
    """
    row_room = [rem.annulus_room("H", j) for j in range(g.n)]
    for e_rows in itertools.product(*(range(v + 1) for v in row_room)):
        left = _strip_annuli(g, rem, "H", e_rows)
        col_room = [left.annulus_room("V", j) for j in range(g.n)]
        for f_cols in itertools.product(*(range(v + 1) for v in col_room)):
            yield tuple(e_rows), tuple(f_cols), _strip_annuli(g, left, "V", f_cols)


def _lambda_refinements(eta, extras, max_extra_codim):
    """``(lam, contribution)`` for each lam reachable from eta by inserting
    ``extras`` units and coarsening whose codimension contribution, which
    is ``2 * extras + len(eta) - len(lam)``, is at most ``max_extra_codim``."""
    level = {eta}
    for _ in range(extras):
        level = {lam2 for lam in level for lam2, _ in pt.unit_enlargements(lam)}
    coarse = dict.fromkeys(lam2 for lam in level for lam2 in pt.coarsenings_of(lam))
    return [(lam, c) for lam in coarse if (c := 2 * extras + len(eta) - len(lam)) <= max_extra_codim]


def _marking_options(n_j: int, lam_j, extras, max_extra_codim):
    """``(counts, etas, lams, contribution)`` for each split of (n_j, lam_j)
    into consecutive blocks eta_i of totals counts_i, one per piece, and
    each refinement lam_i of eta_i after ``extras[i]`` insertions."""
    for counts in pt.weak_compositions(n_j, len(extras)):
        etas = pt.split_concatenation(lam_j, counts)
        if etas is None:
            continue
        refinements = [_lambda_refinements(eta, e, max_extra_codim) for eta, e in zip(etas, extras)]
        for pick in itertools.product(*refinements):
            lams, contributions = zip(*pick)
            if (contribution := sum(contributions)) <= max_extra_codim:
                yield counts, etas, lams, contribution


def enumerate_strata(
    s: SignAssignment,
    D: GridDomain,
    n_vec,
    lambdas,
    max_codim: int = 2,
) -> list[StratumDescriptor]:
    """All strata of the compactified moduli space up to ``max_codim``.

    A stratum breaks the trajectory into r positive pieces and extracts row
    and column degenerations from each.  The decorations of each such
    geometric splitting are one product over the markings of
    ``_marking_options``, so a marking with no option empties it; the
    codimension is tested before any piece is built, and a candidate with
    a constant, undecorated piece is dropped.  ``s`` is not read: callers
    pass it by position.
    """
    g = D.diagram
    n_vec = tuple(n_vec)
    lambdas = tuple(tuple(lam) for lam in lambdas)
    k, _ = dimension(D, n_vec, lambdas)
    found: dict = {}

    def recurse(rem: GridDomain, pieces_geo, r_left):
        """Collect geometric splittings (domain, E, F) piece lists."""
        for e_rows, f_cols, after_ex in _extractions(g, rem):
            if r_left == 1:
                yield pieces_geo + [(after_ex, e_rows, f_cols)]
                continue
            for piece, rest in _positive_subdomains(g, after_ex):
                yield from recurse(rest, pieces_geo + [(piece, e_rows, f_cols)], r_left - 1)

    for r in range(1, max_codim + 2):
        budget = max_codim - (r - 1)
        for geo in recurse(D, [], r):
            extras = [[e[j] + f[j] for _, e, f in geo] for j in range(g.n)]  # by marking, then piece
            options = [_marking_options(nj, lam, ex, budget) for nj, lam, ex in zip(n_vec, lambdas, extras)]
            for combo in itertools.product(*options):
                counts, etas, lams, contributions = zip(*combo)  # each indexed by marking
                codim = r - 1 + sum(contributions)
                if codim > max_codim:
                    continue
                pieces = []
                for (dom, e_rows, f_cols), nv, eta, lam in zip(geo, zip(*counts), zip(*etas), zip(*lams)):
                    piece = StratumPiece(dom, e_rows, f_cols, nv, lam, eta)
                    if dom.is_trivial() and not any(piece.extras) and not any(nv):
                        break
                    pieces.append(piece)
                else:
                    assert codim == k - sum(p.dim for p in pieces), "codimension bookkeeping mismatch"
                    desc = StratumDescriptor(tuple(pieces), codim)
                    found[desc.key] = desc
    return sorted(found.values(), key=lambda d: (d.codim, d.key))


def codim1_boundary_events(desc: StratumDescriptor) -> list[tuple[str, tuple]]:
    """The differential events a codimension-one stratum accounts for.

    Type I strata contribute one event per zero-dimensional factor: a
    rectangle factor in first (second) position matches a prefix (suffix)
    splitting, and a constant-domain bubble cluster in first (second)
    position matches an initial (final) reduction.  Type II and III strata
    match row/column degenerations and coarsenings directly.
    """
    label = classify_codim1(desc)
    events = []
    if label == "TypeI":
        first, second = desc.pieces
        for piece, other, rect_label, bubble_label in (
            (first, second, "prefix", "initial"),
            (second, first, "suffix", "final"),
        ):
            if piece.dim != 0:
                continue
            survivor = triple_key(other.domain, other.n_vec, other.lambdas)
            if piece.domain.maslov_index() == 1:
                events.append((rect_label, survivor))
            else:
                events.append((bubble_label, survivor))
        return events
    piece = desc.pieces[0]
    n_vec = tuple(n + e for n, e in zip(piece.n_vec, piece.extras))
    survivor = triple_key(piece.domain, n_vec, piece.lambdas)
    if label == "TypeII":
        events.append(("row" if any(piece.e_rows) else "col", survivor))
    else:
        events.append(("coarsen", survivor))
    return events


def classify_codim1(desc: StratumDescriptor) -> str:
    """Label a codimension-one stratum as TypeI, TypeII, or TypeIII."""
    if desc.codim != 1:
        raise NotCodimOne(f"stratum has codimension {desc.codim}")
    if desc.r == 2:
        if all(not any(p.extras) for p in desc.pieces) and all(
            p.lambdas == p.eta for p in desc.pieces
        ):
            return "TypeI"
        raise NotCodimOne("codimension-one stratum with impossible shape")
    piece = desc.pieces[0]
    total_extras = sum(piece.extras)
    if total_extras == 1 and piece.lambdas != piece.eta:
        return "TypeII"
    if total_extras == 0:
        return "TypeIII"
    raise NotCodimOne("codimension-one stratum with impossible shape")


# -- the local-model posets Z_N and I_N ---------------------------------------------


@dataclass(frozen=True)
class ZnStratum:
    p_minus: int
    p_zero: int
    p_plus: int
    lam: tuple[int, ...]

    @property
    def dim(self) -> int:
        return 2 * self.p_minus + 2 * self.p_plus + len(self.lam) - 1

    def codim_in(self, n: int) -> int:
        return (2 * n - 1) - self.dim


ZN_MAX = 12  # largest N for zn_strata
PERMUTOHEDRON_MAX = 8  # largest n for permutohedron_faces


def zn_strata(n: int) -> list[ZnStratum]:
    """All strata of Sym^N(C)/R, by imaginary signs and real collisions."""
    if n > ZN_MAX:
        raise ValueError(f"zn_strata is intended for N <= {ZN_MAX}")
    out = []
    for p_minus in range(n + 1):
        for p_zero in range(n - p_minus + 1):
            p_plus = n - p_minus - p_zero
            for lam in pt.all_compositions(p_zero):
                out.append(ZnStratum(p_minus, p_zero, p_plus, lam))
    return out


def zn_leq(a: ZnStratum, b: ZnStratum) -> bool:
    """Closure order: a <= b when a lies in the closure of b.

    Derived from the local model: each part of a's partition splits into
    points going below, staying real (refining b's partition blockwise), or
    going above.
    """
    if a.p_minus > b.p_minus or a.p_plus > b.p_plus:
        return False

    def assign(parts, need_minus, need_plus, mu_rest):
        if not parts:
            return need_minus == 0 and need_plus == 0 and not mu_rest
        head = parts[0]
        for qm in range(min(head, need_minus) + 1):
            for qp in range(min(head - qm, need_plus) + 1):
                q0 = head - qm - qp
                # mu_rest must start with a composition of q0
                for cut in range(len(mu_rest) + 1):
                    if sum(mu_rest[:cut]) == q0:
                        if assign(parts[1:], need_minus - qm, need_plus - qp, mu_rest[cut:]):
                            return True
                    if sum(mu_rest[:cut]) > q0:
                        break
        return False

    return assign(
        list(a.lam), b.p_minus - a.p_minus, b.p_plus - a.p_plus, list(b.lam)
    )


# -- permutohedron face lattice -------------------------------------------------------


@dataclass(frozen=True)
class PermutohedronFace:
    """A face of Pi_n: a strictly increasing chain of proper subsets."""

    n: int
    chain: tuple[frozenset, ...]

    @property
    def codim(self) -> int:
        return len(self.chain)

    @property
    def dim(self) -> int:
        return self.n - 1 - len(self.chain)

    def vertices(self) -> list[tuple[int, ...]]:
        """Permutations sigma whose vertex v_sigma lies on this face."""
        out = []
        for sigma in itertools.permutations(range(1, self.n + 1)):
            if all(set(sigma[: len(S)]) == S for S in self.chain):
                out.append(sigma)
        return out


def vertex_coordinates(sigma) -> tuple[int, ...]:
    """v_sigma = (sigma^{-1}(1), ..., sigma^{-1}(n)) with values 1..n."""
    n = len(sigma)
    inv = [0] * (n + 1)
    for pos, val in enumerate(sigma, start=1):
        inv[val] = pos
    return tuple(inv[1:])


def permutohedron_faces(n: int, max_codim: int | None = None) -> list[PermutohedronFace]:
    """All faces of Pi_n (chains of proper nonempty subsets of {1..n})."""
    if n > PERMUTOHEDRON_MAX:
        raise ValueError(f"permutohedron_faces is intended for n <= {PERMUTOHEDRON_MAX}")
    universe = list(range(1, n + 1))
    faces = [PermutohedronFace(n, ())]
    frontier = [()]
    while frontier:
        chain = frontier.pop()
        if max_codim is not None and len(chain) >= max_codim:
            continue
        smallest = chain[0] if chain else frozenset(universe)
        for size in range(1, len(smallest)):
            for subset in itertools.combinations(sorted(smallest), size):
                new = (frozenset(subset),) + chain
                faces.append(PermutohedronFace(n, new))
                frontier.append(new)
    return faces


def facets(n: int) -> list[PermutohedronFace]:
    return [f for f in permutohedron_faces(n, max_codim=1) if f.codim == 1]


def facet_product_map(n: int, subset: frozenset):
    """The identification Pi_k x Pi_{n-k} = F_S of a facet.

    Returns a function sending a pair of vertex permutations (alpha of S in
    its sorted order, beta of the complement) to the coordinates of the
    corresponding vertex of Pi_n on the facet.
    """
    S = sorted(subset)
    comp = [j for j in range(1, n + 1) if j not in subset]
    k = len(S)

    def embed(alpha_coords, beta_coords):
        out = [0] * n
        for idx, j in enumerate(S):
            out[j - 1] = alpha_coords[idx]
        for idx, j in enumerate(comp):
            out[j - 1] = beta_coords[idx] + k
        return tuple(out)

    return embed


def check_half_space_description(n: int) -> bool:
    """Pi_n = intersection of the 2^n - 2 half-spaces H_S (on vertices)."""
    vertices = [vertex_coordinates(sig) for sig in itertools.permutations(range(1, n + 1))]
    total = n * (n + 1) // 2
    for v in vertices:
        if sum(v) != total:
            return False
        for size in range(1, n):
            for S in itertools.combinations(range(1, n + 1), size):
                if sum(v[j - 1] for j in S) < size * (size + 1) // 2:
                    return False
    return True


def check_facet_coherence(n: int) -> bool:
    """The two identifications of a codim-2 face (chain T < S) agree.

    Route 1: restrict F_S = Pi_k x Pi_{n-k} to the facet of the Pi_k factor
    given by T.  Route 2: restrict F_T = Pi_t x Pi_{n-t} to the facet of the
    Pi_{n-t} factor given by the image of S.  Both must induce the same
    vertex set bijection with the face of the chain (T, S).
    """
    for t_size in range(1, n - 1):
        for s_size in range(t_size + 1, n):
            for S in itertools.combinations(range(1, n + 1), s_size):
                for T in itertools.combinations(S, t_size):
                    face = PermutohedronFace(n, (frozenset(T), frozenset(S)))
                    verts = {vertex_coordinates(sig) for sig in face.vertices()}
                    got = set()
                    embed_S = facet_product_map(n, frozenset(S))
                    sortS = sorted(S)
                    T_in_S = frozenset(sortS.index(j) + 1 for j in T)
                    embed_T_in_S = facet_product_map(s_size, T_in_S)
                    for a in itertools.permutations(range(1, t_size + 1)):
                        for b in itertools.permutations(range(1, s_size - t_size + 1)):
                            for c in itertools.permutations(range(1, n - s_size + 1)):
                                inner = embed_T_in_S(
                                    vertex_coordinates(a), vertex_coordinates(b)
                                )
                                got.add(embed_S(inner, vertex_coordinates(c)))
                    if got != verts:
                        return False
    return True
