"""Interleaving certificates and epsilon-triviality, with exact verification.

A certificate for d(M, N) <= eps stores each interleaving morphism on its
own evaluation grid (a natural map is constant on that grid's cells) and
re-verifies every naturality square and both triangle identities from
scratch; nothing about how a certificate was built is trusted downstream.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm, prod

import numpy as np

from . import field
from .core import (Components, Grid, GridModule, _block_table, _exact,
                   _failing_squares, _field_table, _over_den, _padded,
                   _unique_rows, _vertex, as_frac, sum_module, zero_module)
from .kan import (_axis_floors, _edge_ids, _floors, _on, _pair_maps,
                  _unique_maps, restriction_extension, snap_to_lattice,
                  union_grid)


class CertificateError(ValueError):
    pass


# -- epsilon-trivial regions --------------------------------------------------

class TrivialRegion:
    """A finite union of half-open boxes prod [lo_i, hi_i) in R^n."""

    def __init__(self, boxes):
        self.boxes = [tuple((as_frac(lo), as_frac(hi)) for lo, hi in box)
                      for box in boxes]
        for box in self.boxes:
            for lo, hi in box:
                if lo >= hi:
                    raise ValueError("degenerate box")
        self.n = len(self.boxes[0]) if self.boxes else 0
        # the lower and upper corners as integers over one denominator
        self._den, (self._lo, self._hi) = _over_den(
            [[c for box in self.boxes for c, _ in box],
             [c for box in self.boxes for _, c in box]])

    def _corners(self, L: int, s: int = 0):
        """(lo, hi): the lower and upper corners times L, plus s, as integer
        arrays of shape (boxes, n); L a multiple of the corners' common
        denominator."""
        f = L // self._den
        return (a.reshape(len(self.boxes), self.n) for a in _exact(
            [[c * f + s for c in self._lo], [c * f + s for c in self._hi]]))

    def contains(self, point) -> bool:
        return any(all(lo <= x < hi for (lo, hi), x in zip(box, point))
                   for box in self.boxes)

    def is_eps_trivial(self, eps) -> bool:
        """True when the region does not meet its own diagonal eps-translate:
        no boxes b1, b2 with lo1 < hi2 + eps and lo2 + eps < hi1 on every
        axis (boxes are not degenerate), all pairs compared at once as
        integers over one common denominator."""
        eps = as_frac(eps)
        if eps <= 0:
            return not self.boxes
        L = lcm(self._den, eps.denominator)
        (lo, hi), (loe, hie) = self._corners(L), self._corners(
            L, eps.numerator * (L // eps.denominator))
        return not ((lo[:, None] < hie[None]) & (loe[None] < hi[:, None])
                    ).all(axis=2).any()

    def mask(self, grid: Grid) -> np.ndarray:
        """Boolean array over grid.shape marking the vertices in the region;
        a box corner need not be a grid coordinate.  A box holds, per axis,
        the coordinates from the first at or above its lower corner to the
        last below its upper one, all found by searchsorted on integers
        over one common denominator (Grid.ints)."""
        inside = np.zeros(grid.shape, dtype=bool)
        if not self.boxes:
            return inside
        L = lcm(self._den, grid.den)
        lo, hi = self._corners(L)
        cuts = [(np.searchsorted(a, lo[:, k]), np.searchsorted(a, hi[:, k]))
                for k, a in enumerate(grid.ints(L))]
        for b in range(len(self.boxes)):
            inside[tuple(slice(i[b], j[b]) for i, j in cuts)] = True
        return inside


# -- module triviality --------------------------------------------------------

def is_eps_trivial(M: GridModule, eps) -> bool:
    """Does every structure map x -> x + eps of the extension vanish?

    It suffices to test grid vertices: the map at any interior point factors
    through the map at the minimum of its cell.
    """
    eps = as_frac(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    src = np.flatnonzero(M.dims.ravel() > 0)
    dst = _floors(M.grid, M.grid, eps)[src]
    # maps into zero spaces vanish without composing them
    live = M.dims.ravel()[dst] > 0
    return not (live.any() and
                M.structure_maps(src[live], dst[live]).any())


def triviality_radius(M: GridModule):
    """The infimum of the eps for which M is eps-trivial.

    Returns a Fraction (the set of trivial eps is the closed ray up from
    it; 0 for the zero module), or None when M is not eps-trivial for any
    eps (unbounded support).  Triviality is monotone in eps and changes
    only at differences of two coordinates on one axis, so the radius is
    the least such difference at which M is trivial, found by bisection;
    past the largest one every map lands at the top vertex.
    """
    if M.total_dim() == 0:
        return Fraction(0)
    d = np.unique(np.concatenate([np.subtract.outer(a, a).ravel()
                                  for a in M.grid.nums]))
    d = [Fraction(int(x), M.grid.den) for x in d[d > 0]]
    i = bisect_left(d, True, key=lambda eps: is_eps_trivial(M, eps))
    return d[i] if i < len(d) else None


def is_strictly_eps_trivial(M: GridModule, eps) -> bool:
    """Is M eps'-trivial for some eps' < eps?  Triviality changes only at
    differences of M's coordinates, multiples of 1/M.grid.den, so it is
    enough to test the largest eps' < eps on the common lattice."""
    eps = as_frac(eps)
    return eps > 0 and is_eps_trivial(
        M, eps - Fraction(1, lcm(M.grid.den, eps.denominator)))


# -- certificates -------------------------------------------------------------

def map_grid(M: GridModule, N: GridModule, eps) -> Grid:
    """The evaluation grid of a natural map M -> N[eps]: M's grid together
    with N's shifted down by eps.  Such a map is constant on the cells of
    this grid, so its values at the vertices fix it."""
    eps = as_frac(eps)
    L = lcm(M.grid.den, N.grid.den, eps.denominator)
    return Grid.from_ints(L, [np.union1d(a, b) for a, b in
                              zip(_on(M.grid, L), _on(N.grid, L, -eps))])


def _holds_map_grids(M: GridModule, N: GridModule, eps, PF: Grid, PG: Grid):
    """Does PF hold every coordinate of map_grid(M, N, eps) and PG every one
    of map_grid(N, M, eps)?  All are compared as integers on one common
    denominator."""
    L = lcm(M.grid.den, N.grid.den, PF.den, PG.den, eps.denominator)
    return all(_holds(c, np.concatenate([a, b]))
               for X, Y, P in ((M, N, PF), (N, M, PG))
               for a, b, c in zip(_on(X.grid, L), _on(Y.grid, L, -eps),
                                  _on(P, L)))


def _holds(coords, need) -> bool:
    """Is every value of need one of the ascending values coords?"""
    i = np.minimum(np.searchsorted(coords, need), len(coords) - 1)
    return bool((coords[i] == need).all())


class InterleavingCertificate:
    """A claimed eps-interleaving between the extensions of M and N.

    f[v]: M^(v) -> N^(v+eps) for every vertex v of `grid`, and
    g[v]: N^(v) -> M^(v+eps) for every vertex v of `g_grid` (by default
    `grid`).  A natural map is constant on the cells of its map_grid, so
    each grid must hold every coordinate of its map's map_grid, and the
    map's value at a point is its component at the point's floor in its
    grid.  f and g may be any vertex -> matrix mappings (missing entries
    are zero); the builders here return Components tables on the map
    grids.  verify() re-checks everything exactly.
    """

    def __init__(self, M: GridModule, N: GridModule, eps, grid: Grid, f, g,
                 g_grid: Grid = None):
        self.m_module = M
        self.n_module = N
        self.eps = as_frac(eps)
        self.grid = grid
        self.g_grid = grid if g_grid is None else g_grid
        self.f = f
        self.g = g

    def verify(self):
        """Exact re-verification; raises CertificateError on any failure.

        M and N are taken to be valid.  `grid` must hold every coordinate
        of map_grid(M, N, eps) and `g_grid` every one of map_grid(N, M,
        eps) ("evaluation grid too coarse").  Each component of f and g is
        checked for its dimensions and entries (core._field_table), and
        each naturality square along the edges of its map's grid, one batch
        per map, both structure maps read by id off the modules' step
        tables (the floors of an edge's ends are at most one step apart).
        g[eps] o f = eta_2eps is checked at the vertices of M's grid where
        M has generators (naturality implies it elsewhere), f read by
        floors in `grid` and g by floors in `g_grid`; f[eps] o g likewise.
        On any grid holding M's, these are the vertices that no onto step
        reaches, so a certificate on one grid closed under -eps and -2 eps
        is checked as it always was.  Distinct checks of a kind run as one
        batched product.  A failure names the first failing vertex in C
        order of the first failing check: by index in the map's grid for a
        component or a square, by coordinates for a triangle.
        """
        M, N, eps = self.m_module, self.n_module, self.eps
        if eps < 0:
            raise CertificateError("negative eps")
        if not _holds_map_grids(M, N, eps, self.grid, self.g_grid):
            raise CertificateError("evaluation grid too coarse")
        p = M.p
        # each module's steps zero-padded to one square size D, then the
        # identity (for the ends of an edge that share a floor), then zero
        # at id -1 (no stored step, or no floor); which of them are onto;
        # its dimensions by flat floor index (-1, no floor, is 0)
        D = max(M.max_pointwise_dim(), N.max_pointwise_dim())

        def tables(mod):
            t = mod.step_table()
            full = field.ranks(t.mats, p) == [len(m) for m in t.mats]
            return (_padded(t.mats + [field.eye(D)], D, D),
                    np.append(full, [True, False]),
                    np.append(mod.dims.ravel(), 0))

        SM = tables(M)
        SN = SM if N is M else tables(N)
        # per map (f, then g): its grid, table, padded stack, source and
        # the source's onto flags; its naturality failures, if any
        maps, fails = [], []
        for name, comp, P, (X, SX), (Y, SY) in (
                ("f", self.f, self.grid, (M, SM), (N, SN)),
                ("g", self.g, self.g_grid, (N, SN), (M, SM))):
            # the floors of the grid's vertices in X, and of them + eps in Y
            x0, ye = _floors(X.grid, P), _floors(Y.grid, P, eps)
            t = _field_table(comp, P.shape, p, SY[2][ye], SX[2][x0],
                             f"{name} component", CertificateError)
            C = _padded(t.mats, D, D)
            maps.append((P, t, C, X, SX[1]))
            # naturality, f(w) M(v->w) = N(v+eps->w+eps) f(v) for f, in one
            # batch over the edges of P, axis by axis; absent components
            # are zero, and both maps are read by id in the stacks
            v, w = P.edge_ends()
            e = np.flatnonzero(w >= 0)
            src, dst, k = v[e], w[e], e // len(x0)
            ca = _edge_ids(X, x0[src], x0[dst], k)
            cb = _edge_ids(Y, ye[src], ye[dst], k)
            # floors further apart need a walk (-2, read as the identity):
            # the grid is too coarse unless a square fails on an earlier axis
            top = np.min(k[(ca == -2) | (cb == -2)], initial=P.n)
            bad = _failing_squares(np.stack(
                [t.ids[src], t.ids[dst], ca, cb], axis=1), p, C, SX[0], SY[0])
            if bad is not None and k[bad] < top:
                fails.append((k[bad], name, f"{name} naturality fails at "
                              f"{_vertex(src[bad], P.shape)} axis {k[bad]}"))
            elif top < P.n:
                fails.append((top, name, "evaluation grid too coarse"))
        # the first by axis, f before g ("f" < "g")
        if fails:
            raise CertificateError(min(fails)[2])
        # triangle identities g[eps] o f = eta_2eps and f[eps] o g =
        # eta_2eps, equations of natural maps out of X = M (resp. N).  Two
        # of them that agree at a predecessor of v agree at v whenever the
        # structure map from there onto X(v) is onto, so by induction along
        # the grid order only the vertices of X's grid where X(v) has
        # generators are checked (on a finer grid, a vertex off X's grid
        # is reached from its predecessor by an identity of X)
        for name, inner, outer in (("g.f", *maps), ("f.g", *maps[::-1])):
            P, t, C, X, onto = inner
            Pu, u, Cu, *_ = outer
            # any map into a zero space is onto; X stores a step only
            # where there is a successor (a missing one, id -1, is not onto)
            covered = X.dims.ravel() == 0
            covered[X.grid.edge_ends()[1][onto[X.step_table().ids]]] = True
            at = np.flatnonzero(~covered)
            inv, walks = _unique_maps(X, at, _floors(X.grid, X.grid,
                                                     2 * eps)[at])
            # the first map at the floor of v, the second at that of v + eps
            iv = np.append(t.ids, -1)[_floors(P, X.grid)[at]]
            iu = np.append(u.ids, -1)[_floors(Pu, X.grid, eps)[at]]
            rows, first, _ = _unique_rows(np.stack([iu, iv, inv], axis=1))
            iu, iv, c = rows.T
            diff = np.matmul(Cu[iu], C[iv]) - _padded(walks, D, D)[c]
            bad = first[(diff % p).any(axis=(1, 2))]
            if len(bad):
                v = X.grid.coord(_vertex(at[bad.min()], X.grid.shape))
                raise CertificateError(f"triangle {name} fails at "
                                       f"({', '.join(map(str, v))})")
        return True

    def is_valid(self) -> bool:
        try:
            return self.verify()
        except CertificateError:
            return False

    def flip(self) -> "InterleavingCertificate":
        return InterleavingCertificate(self.n_module, self.m_module, self.eps,
                                       self.g_grid, self.g, self.f, self.grid)

    def __repr__(self):
        return (f"InterleavingCertificate(eps={self.eps}, "
                f"grid_shape={self.grid.shape}, "
                f"g_grid_shape={self.g_grid.shape})")


def _at_floors(comp, P: Grid, grid: Grid, shift=0) -> np.ndarray:
    """(ids, mats): the matrices of the table Components.of(comp, P.shape,
    drop_zero=True), and a flat array over grid of the id of the component
    at the floor in P of each vertex plus shift (-1 where there is none)."""
    t = Components.of(comp, P.shape, drop_zero=True)
    return np.append(t.ids, -1)[_floors(P, grid, shift)], t.mats


def identity_certificate(M: GridModule, eps,
                         verify: bool = True) -> InterleavingCertificate:
    """The certificate d(M, M) <= eps via shift units: the local change of
    M into itself on the empty region."""
    return local_change_certificate(M, M, TrivialRegion([]), eps, verify)


def zero_certificate(M: GridModule, N: GridModule,
                     eps) -> InterleavingCertificate:
    """The unverified certificate d(M, N) <= eps with f = 0 and g = 0;
    valid exactly when M and N are both 2eps-trivial."""
    return InterleavingCertificate(M, N, eps, map_grid(M, N, eps), {}, {},
                                   map_grid(N, M, eps))


def trivial_certificate(M: GridModule, eps) -> InterleavingCertificate:
    """Certificate d(M, 0) <= eps; valid exactly when M is 2eps-trivial."""
    cert = zero_certificate(M, zero_module(M.grid.n, M.p), eps)
    cert.verify()
    return cert


def compose_chain(certs, verify: bool = True) -> InterleavingCertificate:
    """Compose a chain of certificates d(M_0,M_1) <= e_1, ...,
    d(M_{t-1},M_t) <= e_t into one for d(M_0, M_t) <= sum e_i.

    Adjacent middle modules must have equal extensions.  The composite is
    assembled in a single pass (no intermediate certificates) and verified
    unless verify=False; skipping only makes sense when the result feeds a
    later composition that is itself verified.
    """
    certs = list(certs)
    if not certs:
        raise CertificateError("empty chain")
    if verify:
        # without verification the composite is checked by whoever verifies
        # the returned certificate; with it, catch mismatched middles early
        for c1, c2 in zip(certs, certs[1:]):
            _require_same_module(c1.n_module, c2.m_module)
    M, L = certs[0].m_module, certs[-1].n_module
    eps = sum(c.eps for c in certs)
    p = M.p

    def fill(grid, parts):
        # per chain element (component, its grid, its eps): its component
        # at the floor, in its grid, of each vertex shifted by the
        # cumulative interleaving shift.  A missing or zero component
        # anywhere in the chain makes the composite component zero.
        cols, tabs, s = [], [], 0
        for comp, P, e in parts:
            ids, mats = _at_floors(comp, P, grid, s)
            cols.append(ids)
            tabs.append(mats)
            s += e
        sig = np.stack(cols, axis=1)
        live = (sig >= 0).all(axis=1)
        out = np.full(len(sig), -1, dtype=np.int64)
        rows, _, out[live] = _unique_rows(sig[live])
        # one batched product per chain position, on zero-padded stacks
        D = max((max(m.shape) for mats in tabs for m in mats), default=0)
        prods = _padded(tabs[0], D, D)[rows[:, 0]]
        for mats, i in zip(tabs[1:], rows.T[1:]):
            prods = field.mmul(_padded(mats, D, D)[i], prods, p)
        r = [tabs[-1][i].shape[0] for i in rows[:, -1].tolist()]
        c = [tabs[0][i].shape[1] for i in rows[:, 0].tolist()]
        return Components(grid.shape, out, [m[:a, :b].copy() for m, a, b in
                                            zip(prods, r, c)], drop_zero=True)

    # each composite is natural, hence constant on the cells of its map
    # grid; middle grids need not appear there
    GF, GG = map_grid(M, L, eps), map_grid(L, M, eps)
    f = fill(GF, [(c.f, c.grid, c.eps) for c in certs])
    g = fill(GG, [(c.g, c.g_grid, c.eps) for c in reversed(certs)])
    cert = InterleavingCertificate(M, L, eps, GF, f, g, GG)
    if verify:
        cert.verify()
    return cert


def _require_same_module(A: GridModule, B: GridModule):
    """The middle modules of a composition must have equal extensions (the
    certificates' components then refer to the same value spaces); comparing
    data on the union grid decides this."""
    if A is B:
        return
    if A.p != B.p or A.grid.n != B.grid.n:
        raise CertificateError("middle modules do not match")
    if A.grid != B.grid:
        g = union_grid(A.grid, B.grid)
        A, B = (restriction_extension(X, g) for X in (A, B))
    # both step tables numbered jointly by content, zero and empty steps
    # read as absent (an edge carried by neither is a zero map on both)
    ta, tb = A.step_table(), B.step_table()
    ids = Components((2,) + ta.shape, np.concatenate(
        [ta.ids, np.where(tb.ids >= 0, tb.ids + len(ta.mats), -1)]),
        ta.mats + tb.mats, drop_zero=True).ids.reshape(2, -1)
    if not (np.array_equal(A.dims, B.dims) and
            np.array_equal(ids[0], ids[1])):
        raise CertificateError("middle modules do not match")


def block_sum_certificates(certs, verify: bool = True):
    """Block sum: from d(A_i, B_i) <= eps for every i, certify
    d(A_1 + ... + A_k, B_1 + ... + B_k) <= eps, both sums taken on the union
    of their summands' grids.  Returns (cert, sum of A_i, sum of B_i)."""
    certs = list(certs)
    if not certs:
        raise CertificateError("empty block sum")
    eps = certs[0].eps
    if any(c.eps != eps for c in certs):
        raise CertificateError("block sums require equal eps (weaken first)")
    S1 = _sum_on_union([c.m_module for c in certs])
    S2 = _sum_on_union([c.n_module for c in certs])

    def fill(grid, parts):
        # per summand (component, its grid, source, target): its component
        # id at the floor of each vertex, with the block's row and column
        # dimensions (needed where the component is absent)
        return _block_table(grid.shape, [
            (*_at_floors(comp, P, grid),
             np.append(Y.dims.ravel(), 0)[_floors(Y.grid, grid, eps)],
             np.append(X.dims.ravel(), 0)[_floors(X.grid, grid)])
            for comp, P, X, Y in parts], drop_zero=True)

    GF, GG = map_grid(S1, S2, eps), map_grid(S2, S1, eps)
    f = fill(GF, [(c.f, c.grid, c.m_module, c.n_module) for c in certs])
    g = fill(GG, [(c.g, c.g_grid, c.n_module, c.m_module) for c in certs])
    cert = InterleavingCertificate(S1, S2, eps, GF, f, g, GG)
    if verify:
        cert.verify()
    return cert, S1, S2


def _sum_on_union(mods) -> GridModule:
    grid = union_grid(*(X.grid for X in mods))
    return sum_module(*(X if X.grid == grid else
                        restriction_extension(X, grid) for X in mods))


def weaken_certificate(c: InterleavingCertificate, eps2) -> InterleavingCertificate:
    """Relax a certificate to a larger eps: compose it with the shift units
    of its second module."""
    eps2 = as_frac(eps2)
    if eps2 < c.eps:
        raise CertificateError("can only weaken to a larger eps")
    if eps2 == c.eps:
        return c
    unit = identity_certificate(c.n_module, eps2 - c.eps, verify=False)
    return compose_chain([c, unit], verify=True)


def snap_certificate(M: GridModule, pitch):
    """Snap M to the (pitch Z)^n lattice and certify d(M, snap) <= pitch.

    Returns (L, cert), L = snap_to_lattice(M, pitch): L(y) is M at the
    floor in M's grid of y's floor in L's grid.  f maps M(x) to L(x + pitch)
    and g maps L(x) to M(x + pitch) by M's structure maps, as the ceiling of
    each coordinate of M at or below x is in L's grid, at or below x + pitch.
    """
    pitch = as_frac(pitch)
    L = snap_to_lattice(M, pitch)
    GF, GG = map_grid(M, L, pitch), map_grid(L, M, pitch)

    # the maps of f and g in one batch; each table renumbers its own
    ids, mats = _unique_maps(
        M, np.concatenate([_floors(M.grid, GF),
                           _floors(M.grid, GG, via=L.grid)]),
        np.concatenate([_floors(M.grid, GF, pitch, via=L.grid),
                        _floors(M.grid, GG, pitch)]))
    f, g = (Components(P.shape, half, mats, drop_zero=True) for P, half in
            zip((GF, GG), np.split(ids, [prod(GF.shape)])))
    cert = InterleavingCertificate(M, L, pitch, GF, f, g, GG)
    cert.verify()
    return L, cert


def local_change_certificate(M: GridModule, M2: GridModule,
                             region: TrivialRegion, eps,
                             verify: bool = True) -> InterleavingCertificate:
    """Certify d(M, M2) <= eps when M and M2 agree outside an eps-trivial
    region U: use M's own structure maps inside U and M2's outside (and
    symmetrically), then verify the interleaving exactly.  f is filled on
    map_grid(M, M2, eps) and g on map_grid(M2, M, eps); when M and M2 share
    a grid (a splice of M on its own grid) these are one grid, built once
    and returned as both grid and g_grid, with one region mask and one
    pair of floor tables for both modules.  verify=False defers soundness
    to a later verification of a composite containing this certificate."""
    eps = as_frac(eps)
    if not region.is_eps_trivial(eps):
        raise CertificateError("region is not eps-trivial")
    if M.p != M2.p or M.grid.n != M2.grid.n:
        raise CertificateError("incompatible modules")
    # f on its map grid, then g on its, as one flat array of vertices; on
    # one module grid both map grids are one grid, evaluated once
    GF = map_grid(M, M2, eps)
    GG = GF if M.grid == M2.grid else map_grid(M2, M, eps)
    grids = (GF,) if GG is GF else (GF, GG)
    inside = np.concatenate([region.mask(P).ravel() for P in grids])

    def floors(X):
        return [np.concatenate([_floors(X.grid, P, s) for P in grids])
                for s in (0, eps)]

    # the eps-shift structure maps of both modules; whether M and M2 agree
    # outside U is not checked here: verify decides whether these maps
    # interleave them
    ends = floors(M)
    # on one grid both modules map the same pairs of floors, found once
    found = _unique_rows(np.stack(ends, axis=1)) if GG is GF else None
    own, own_mats = _unique_maps(M, *ends, found)
    other, other_mats = _unique_maps(
        M2, *(ends if GG is GF else floors(M2)), found)
    other += len(own_mats)
    mats = own_mats + other_mats
    cert = InterleavingCertificate(
        M, M2, eps, GF,
        Components(GF.shape, np.where(inside, own, other)[:prod(GF.shape)],
                   mats, drop_zero=True),
        Components(GG.shape, np.where(inside, other, own)[-prod(GG.shape):],
                   mats, drop_zero=True), GG)
    if verify:
        cert.verify()
    return cert


# -- rank obstruction ---------------------------------------------------------

def rank_lower_bound(M: GridModule, N: GridModule):
    """A certified lower bound for the interleaving distance of M and N.

    If an eps-interleaving existed, every rank rk(M(a) -> M(b)) with
    b - a >= 2 eps would be bounded by rk(N(a+eps) -> N(b-eps)).  The sweep
    tests exact windows at candidate eps drawn from half-differences of grid
    coordinates (and their 9/10 multiples, to witness open-ended windows),
    the 192 largest of them, from the top down; any violated candidate is a
    sound bound.  Returns a Fraction (0 when no obstruction is found).
    """
    cands = set()
    for A in (M, N):
        coords = sorted({c for ax in A.grid.axes for c in ax})
        for i, c1 in enumerate(coords):
            for c2 in coords[i + 1:]:
                h = (c2 - c1) / 2
                cands.add(h)
                cands.add(h * Fraction(9, 10))
    cands = sorted(cands, reverse=True)[:192]
    for eps in cands:
        if _rank_violation(M, N, eps) or _rank_violation(N, M, eps):
            return eps
    return Fraction(0)


def _rank_violation(M: GridModule, N: GridModule, eps) -> bool:
    """Is there a window witnessing rk_M > rk_N at shift eps?

    Every support vertex a of M is tested at once.  The M-rank runs from a
    to the floor of a + 2 eps, whose cell's supremum (the next coordinate,
    when there is one) strictly exceeds a + 2 eps on every axis.  The
    N-rank runs over the widest window strictly inside: from the floor of
    a + eps up to the floor of supremum - eps - 1/L (1/L the lattice of
    both grids and eps), or to N's top on an axis with no supremum.  Each
    distinct map's rank is computed once.
    """
    eps = as_frac(eps)
    vs = np.flatnonzero(M.dims.ravel() > 0)
    at = np.unravel_index(vs, M.grid.shape)
    top = [f[i] for f, i in zip(_axis_floors(M.grid, M.grid, 2 * eps), at)]
    r_m = _ranks(M, vs, np.ravel_multi_index(top, M.grid.shape))
    live = r_m > 0
    src = [f[i] for f, i in zip(_axis_floors(N.grid, M.grid, eps), at)]
    if (live & np.any([c < 0 for c in src], axis=0)).any():
        return True    # N is zero at a + eps
    L = lcm(M.grid.den, N.grid.den, eps.denominator)
    inner = _axis_floors(N.grid, M.grid, -eps - Fraction(1, L))
    # the supremum of the cell at index j is coordinate j + 1
    tgt = [np.maximum(np.append(f[1:], s - 1)[t[live]], c[live])
           for f, s, t, c in zip(inner, N.grid.shape, top, src)]
    r_n = _ranks(N, np.ravel_multi_index([c[live] for c in src], N.grid.shape),
                 np.ravel_multi_index(tgt, N.grid.shape))
    return bool((r_n < r_m[live]).any())


def _ranks(mod: GridModule, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Ranks of mod's structure maps between the flat vertices src <= dst,
    each distinct map ranked once, all in one batch."""
    if not len(src):
        return np.zeros(0, dtype=np.int64)
    inv, mats = _unique_maps(mod, src, dst)
    return field.ranks(mats, mod.p)[inv]


# -- factoring through a bounded-mesh grid ------------------------------------

def factor_through_grid(L: GridModule, window: Grid, r):
    """Factor the shift unit of L through a bounded-mesh grid window.

    For a window P with mesh widths in [alpha, beta] and any 0 <= r <= alpha,
    the shift unit eta_beta of L_P factors as m o (eta_r)_P where
    m: (L restricted to P+r)[r] -> L_P[beta].  Returns the components of m
    indexed by window vertices after verifying the factorization square
    exactly.  The window must reach at least as far as L's grid on top.
    """
    r = as_frac(r)
    meshes = [ax[i + 1] - ax[i] for ax in window.axes for i in range(len(ax) - 1)]
    if not meshes:
        raise ValueError("window needs at least two coordinates per axis")
    alpha, beta = min(meshes), max(meshes)
    if not (0 <= r <= alpha):
        raise ValueError(f"need 0 <= r <= min mesh width {alpha}")
    for ax_w, ax_l in zip(window.axes, L.grid.axes):
        if ax_w[-1] < ax_l[-1]:
            raise ValueError("window must cover L's grid on top")
    # floors in L of v, of v + r and of the window floor t of v + beta.
    # On each axis t is the next window coordinate after v or later, so
    # t >= v + alpha >= v + r, or t = v on the window's top, where both
    # floors are L's top; m is the structure map between the last two
    base, src, tgt = (_floors(L.grid, window), _floors(L.grid, window, r),
                      _floors(L.grid, window, beta, via=window))
    maps, rows, cols, inv = _pair_maps(L, src, tgt)
    # verify the square eta_beta = m o (eta_r)_P wherever v has a floor in L
    on = np.flatnonzero(base >= 0)
    eta_r = L.structure_maps(base[on], src[on])
    eta_beta = L.structure_maps(base[on], tgt[on])
    fails = np.flatnonzero((np.matmul(maps[inv[on]], eta_r) % L.p
                            != eta_beta).any(axis=(1, 2)))
    if len(fails):
        raise ValueError("factorization square fails at "
                         f"{window.coord(_vertex(on[fails[0]], window.shape))}")
    return {v: maps[j, :rows[j], :cols[j]].copy()
            for v, j in zip(window.vertices(), inv.tolist())}
