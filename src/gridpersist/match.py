"""Epsilon-indecomposability, bottleneck matchings, and instability reports.

A module is eps-indecomposable when it splits as one indecomposable plus a
strictly eps-trivial rest.  Bottleneck matchings pair summands of two modules
by a Hopcroft-Karp matching of per-pair verified interleaving certificates;
a successful matching certifies d_B <= eps, while matching failure is
inconclusive (the per-pair certificate search is incomplete).  Rank
obstructions give the converse: sound lower bounds on any matching.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from fractions import Fraction

from .core import GridModule, as_frac, zero_module
from .decomp import decompose, is_indecomposable, is_isomorphic
from .interleave import (CertificateError, InterleavingCertificate,
                         TrivialRegion, block_sum_certificates,
                         compose_chain, is_eps_trivial,
                         is_strictly_eps_trivial, local_change_certificate,
                         rank_lower_bound, trivial_certificate,
                         weaken_certificate, zero_certificate)
from .kan import prune, restriction_extension, union_grid
from .construct import fold, fold_eps0, iso_certificate


class EpsIndecomposability:
    """Outcome of the eps-indecomposability test, with witnesses.

    `value` is the verdict; `indecomposable_part` is the unique summand that
    is not strictly eps-trivial (None when all are); `trivial_parts` are the
    remaining summands.  `is_zero` flags the zero module, which has no
    indecomposable summand at all and is reported as False by convention.
    """

    def __init__(self, value, indecomposable_part, trivial_parts, is_zero):
        self.value = value
        self.indecomposable_part = indecomposable_part
        self.trivial_parts = trivial_parts
        self.is_zero = is_zero

    def __bool__(self):
        return self.value


def is_eps_indecomposable(M: GridModule, eps, seed: int = 0):
    """Does M split as (indecomposable) + (strictly eps-trivial rest)?

    The parts are decompose(M)'s summands, on M's own grid (decompose
    compresses M, so no coordinate needs shedding first)."""
    eps = as_frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if M.total_dim() == 0:
        return EpsIndecomposability(False, None, [], True)
    parts, _ = decompose(M, seed)
    big = [X for X in parts if not is_strictly_eps_trivial(X, eps)]
    if len(big) > 1:
        return EpsIndecomposability(False, None, parts, False)
    ind = big[0] if big else None
    rest = [X for X in parts if X is not ind]
    return EpsIndecomposability(True, ind, rest, False)


# -- pairwise certificate search ------------------------------------------------


def _pad_to_zero_certificate(X: GridModule, eps):
    """A certificate d(X, 0) <= eps, available iff X is 2eps-trivial."""
    if not is_eps_trivial(X, 2 * eps):
        return None
    try:
        return trivial_certificate(X, eps)
    except CertificateError:
        return None


def summand_certificate(X: GridModule, Y: GridModule, eps):
    """Search for a verified eps-certificate between two summands.

    Tries, in order: equal extensions (zero-distance local change on the
    empty region), an isomorphism on the common grid, and the through-zero
    route when both summands are eps-trivial.  Returns a verified
    certificate or None; None is not a proof of distance > eps.
    """
    eps = as_frac(eps)
    if X.total_dim() == 0 and Y.total_dim() == 0:
        return zero_certificate(X, Y, eps)
    if X.total_dim() == 0:
        c = _pad_to_zero_certificate(Y, eps)
        return None if c is None else c.flip()
    if Y.total_dim() == 0:
        return _pad_to_zero_certificate(X, eps)
    try:
        return local_change_certificate(X, Y, TrivialRegion([]), eps)
    except CertificateError:
        pass
    g = union_grid(X.grid, Y.grid)
    Xg, Yg = restriction_extension(X, g), restriction_extension(Y, g)
    W = is_isomorphic(Xg, Yg)
    if W is not None:
        return weaken_certificate(iso_certificate(W), eps)
    cx = _pad_to_zero_certificate(X, eps / 2)
    cy = _pad_to_zero_certificate(Y, eps / 2)
    if cx is not None and cy is not None:
        return compose_chain([cx, cy.flip()])
    return None


# -- bottleneck matching --------------------------------------------------------


class MatchResult:
    """A bottleneck matching attempt at a given eps.

    `matched` reports success; `pairs` lists (i, j, certificate) triples over
    the zero-padded summand lists `left` and `right`.  A successful matching
    certifies d_B <= eps.  Failure is NOT a lower bound.
    """

    def __init__(self, matched, eps, left, right, pairs):
        self.matched = matched
        self.eps = eps
        self.left = left
        self.right = right
        self.pairs = pairs

    def __bool__(self):
        return self.matched

    @property
    def status(self):
        return "matched" if self.matched else "no-matching-found"


def _padded_summands(M: GridModule, N: GridModule, seed: int = 0):
    if M.grid.n != N.grid.n or M.p != N.p:
        raise ValueError("need two modules with the same number of "
                         "parameters over the same prime")
    left, _ = decompose(M, seed)
    right, _ = decompose(N, seed)
    n = M.grid.n
    while len(left) < len(right):
        left.append(zero_module(n, M.p))
    while len(right) < len(left):
        right.append(zero_module(n, N.p))
    return left, right


def bottleneck_upper_bound(M: GridModule, N: GridModule, eps,
                           seed: int = 0) -> MatchResult:
    """Try to certify d_B(M, N) <= eps by a perfect summand matching.

    Both summand lists are padded with zero modules to equal length; an edge
    (i, j) exists when summand_certificate found a verified eps-certificate.
    """
    eps = as_frac(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    left, right = _padded_summands(M, N, seed)
    certs = {}
    for i, X in enumerate(left):
        for j, Y in enumerate(right):
            c = summand_certificate(X, Y, eps)
            if c is not None:
                certs[(i, j)] = c
    partner = _perfect_matching(len(left), len(right), certs)
    if partner is None:
        return MatchResult(False, eps, left, right, [])
    return MatchResult(True, eps, left, right,
                       [(i, j, certs[(i, j)]) for i, j in enumerate(partner)])


def _perfect_matching(n_left: int, n_right: int, edges):
    """The right partner of every left node in a maximum matching of the
    bipartite graph with the given (i, j) edges, or None when it leaves a
    left node unmatched.  Hopcroft-Karp, left nodes in index order and
    neighbours in edge order, so the edge list alone fixes which matching
    is picked (and with it the bytes of a matching's certificates)."""
    adj = [[] for _ in range(n_left)]
    for i, j in edges:
        adj[i].append(j)
    free, inf = n_left, float("inf")       # free: owner of a free right node
    partner, owner = [None] * n_left, [free] * n_right

    def augment(i):
        for j in adj[i]:
            k = owner[j]
            if dist[k] == dist[i] + 1 and (k == free or augment(k)):
                owner[j], partner[i] = i, j
                return True
        dist[i] = inf
        return False

    while True:     # a phase: layer by breadth first, augment depth first
        dist = [0 if j is None else inf for j in partner] + [inf]
        queue = deque(i for i in range(n_left) if partner[i] is None)
        while queue:
            i = queue.popleft()
            if dist[i] < dist[free]:
                for j in adj[i]:
                    if dist[owner[j]] == inf:
                        dist[owner[j]] = dist[i] + 1
                        queue.append(owner[j])
        if dist[free] == inf:
            return None if None in partner else partner
        for i in range(n_left):
            if partner[i] is None:
                augment(i)


def matching_to_interleaving(result: MatchResult) -> InterleavingCertificate:
    """Assemble a matching's pair certificates into one eps-interleaving
    between the padded sums; verifies the assembled certificate."""
    if not result.matched:
        raise ValueError("no matching to assemble")
    cert = block_sum_certificates([c for _, _, c in sorted(result.pairs)],
                                  verify=False)[0]
    cert.verify()
    return cert


# -- rank obstructions and the instability gap ----------------------------------


def matching_lower_bound(M: GridModule, N: GridModule, seed: int = 0):
    """A sound lower bound for d_B(M, N) from per-pair rank obstructions.

    Every eps-matching pairs each left summand with a right summand (or a
    zero pad) at interleaving distance <= eps, which rank_lower_bound bounds
    from below; so does the least bound whose edges hold a perfect matching
    (found by bisection, as more edges keep one).  Returns (bound,
    edge_bounds) with edge_bounds[(i, j)] the per-pair bound.
    """
    left, right = _padded_summands(M, N, seed)
    bounds = {}
    for i, X in enumerate(left):
        for j, Y in enumerate(right):
            bounds[(i, j)] = rank_lower_bound(X, Y)
    values = sorted(set(bounds.values())) or [Fraction(0)]
    i = bisect_left(values, True, key=lambda v: _perfect_matching(
        len(left), len(right), [e for e, b in bounds.items() if b <= v])
        is not None)
    return values[i], bounds


class InstabilityReport:
    """An explicit d_B vs d_I gap for a decomposable module.

    `certificate` is a verified interleaving d_I(M, N) <= d_i_upper with N
    indecomposable; `d_b_lower` bounds every possible summand matching from
    below via rank obstructions, so the bottleneck distance exceeds the
    interleaving distance by at least `gap`.
    """

    def __init__(self, module, n_module, certificate, d_b_lower, edge_bounds):
        self.module = module
        self.n_module = n_module
        self.certificate = certificate
        self.d_i_upper = certificate.eps
        self.d_b_lower = d_b_lower
        self.edge_bounds = edge_bounds

    @property
    def gap(self):
        return self.d_b_lower / self.d_i_upper

    def describe(self):
        lines = [
            f"d_I(M, N) <= {self.d_i_upper} (verified interleaving, "
            f"N indecomposable)",
            f"d_B(M, N) >= {self.d_b_lower} (rank obstruction over all "
            f"candidate matchings)",
            f"gap: {self.gap}x",
        ]
        for (i, j), b in sorted(self.edge_bounds.items()):
            lines.append(f"  pair (left {i}, right {j}): d_I >= {b}")
        return "\n".join(lines)


def instability_demo(M: GridModule, delta, seed: int = 0) -> InstabilityReport:
    """Fold M's summands into one indecomposable N within delta and bound the
    bottleneck distance from below, exhibiting the d_B / d_I gap.

    The fold (see construct.fold) runs at eps0 = tau/m, with tau the
    coarsest pitch of the summands' grids and m minimal such that
    eps0 < delta/4, so d_I(M, N) <= 8/5 eps0 < delta for any number of
    summands."""
    delta = as_frac(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    parts, W = decompose(M, seed)
    if len(parts) < 2:
        raise ValueError("need a decomposable module with >= 2 summands")
    eps0 = fold_eps0([prune(X) for X in parts], delta)
    cur, fold_c, _ = fold(parts, eps0)
    total = compose_chain([fold_c, iso_certificate(W)], verify=True)
    if total.eps >= delta:
        raise RuntimeError("stage certificates exceeded the delta budget")
    if not is_indecomposable(cur):
        raise RuntimeError("fold failed its indecomposability check")
    d_b_lower, bounds = matching_lower_bound(M, cur, seed)
    return InstabilityReport(M, cur, total.flip(), d_b_lower, bounds)
