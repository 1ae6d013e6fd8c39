"""Interleaving certificates and epsilon-triviality, with exact verification.

A certificate for d(M, N) <= eps stores both interleaving morphisms on a
common evaluation grid and re-verifies every naturality square and both
triangle identities from scratch; nothing about how a certificate was built
is trusted downstream.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import ceil, lcm

import numpy as np

from . import field
from .core import (Components, Grid, GridModule, _failing_squares, _padded,
                   _strides, _unique_rows, _vertex, as_frac, sum_module,
                   zero_module)
from .kan import (_axis_floors, _flat, _flat_floors, _floors_via, _is_subgrid,
                  _pair_maps, _unique_maps, restriction_extension,
                  snap_to_lattice, union_grid)


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

    def contains(self, point) -> bool:
        return any(all(lo <= x < hi for (lo, hi), x in zip(box, point))
                   for box in self.boxes)

    def is_eps_trivial(self, eps) -> bool:
        """True when the region does not meet its own diagonal eps-translate."""
        eps = as_frac(eps)
        if eps <= 0:
            return not self.boxes
        for b1 in self.boxes:
            for b2 in self.boxes:
                # does b1 intersect (b2 + eps)?
                if all(max(lo1, lo2 + eps) < min(hi1, hi2 + eps)
                       for (lo1, hi1), (lo2, hi2) in zip(b1, b2)):
                    return False
        return True

    def mask(self, grid: Grid) -> np.ndarray:
        """Boolean array over grid.shape marking the vertices in the region;
        every box corner must be a grid coordinate."""
        inside = np.zeros(grid.shape, dtype=bool)
        for box in self.boxes:
            inside[tuple(slice(bisect_left(a, ceil(lo * grid.den)),
                               bisect_left(a, ceil(hi * grid.den)))
                         for (lo, hi), a in zip(box, grid.nums))] = True
        return inside

    def corner_coords(self, axis: int):
        out = set()
        for box in self.boxes:
            out.add(box[axis][0])
            out.add(box[axis][1])
        return out


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
    dst = _flat_floors(M.grid, M.grid, eps).ravel()[src]
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

def certificate_grid(M: GridModule, N: GridModule, eps, extra_axes=None) -> Grid:
    """The evaluation grid for an eps-certificate between M and N: the union
    of both grids, closed downward under -eps and -2eps.  On this grid,
    checking naturality and the triangle identities at vertices decides them
    at every point of R^n."""
    eps = as_frac(eps)
    return union_grid(M.grid, N.grid, *([extra_axes] if extra_axes else []),
                      shifts=(0, eps, 2 * eps))


class InterleavingCertificate:
    """A claimed eps-interleaving between the extensions of M and N.

    f[v]: M^(v) -> N^(v+eps) and g[v]: N^(v) -> M^(v+eps) for every vertex v
    of the evaluation grid.  f and g may be any vertex -> matrix mappings
    (missing entries are zero); the builders here return Components tables.
    verify() re-checks everything exactly.
    """

    def __init__(self, M: GridModule, N: GridModule, eps, grid: Grid, f, g):
        self.m_module = M
        self.n_module = N
        self.eps = as_frac(eps)
        self.grid = grid
        self.f = f
        self.g = g

    def verify(self):
        """Exact re-verification; raises CertificateError on any failure.

        Every component of f and g is checked against the dimensions it
        must have, every naturality square along each grid edge, and both
        triangle identities at each vertex where M (resp. N) has generators;
        at the other vertices the triangles follow from the checked
        naturality.  The two ends of a grid edge have floors at most one
        step apart in M and N, so the structure maps of a naturality square
        are read off the modules' step tables; only the triangles walk
        structure maps.  Vertices are grouped by signature (the components
        and structure maps involved); the distinct checks of a kind run as
        one batched product.
        """
        M, N, eps, P = self.m_module, self.n_module, self.eps, self.grid
        if eps < 0:
            raise CertificateError("negative eps")
        if not _is_subgrid(certificate_grid(M, N, eps), P):
            raise CertificateError("evaluation grid too coarse")
        p = M.p
        shape = P.shape

        def floors(grid, shift):
            return _flat_floors(grid, P, shift).ravel()

        m0, me, m2e = (floors(M.grid, s) for s in (0, eps, 2 * eps))
        n0, ne, n2e = (floors(N.grid, s) for s in (0, eps, 2 * eps))
        pe = floors(P, eps)
        # dimension lookups by flat floor index; index -1 (no floor) is 0
        dm = np.append(M.dims.ravel(), 0)
        dn = np.append(N.dims.ravel(), 0)
        F, G = Components.of(self.f, shape), Components.of(self.g, shape)
        for name, t, rows, cols in (("f", F, dn[ne], dm[m0]),
                                    ("g", G, dm[me], dn[n0])):
            bad = t.misfits(rows, cols)
            if len(bad):
                raise CertificateError(
                    f"{name} shape at {_vertex(bad[0], shape)}: "
                    f"{t.mats[t.ids[bad[0]]].shape}")
        if pe.min(initial=0) < 0:
            # x + eps fell below the grid: only possible when eps < 0
            raise CertificateError("evaluation grid not closed under -eps")

        # structure maps, numbered by content: a check depends only on the
        # matrices involved, and refined grids repeat the same few maps.
        # New contents in a batch are numbered in order of shape, then
        # entries (the order _unique_maps lists them in), so the checks and
        # the failure reported do not depend on how the maps were found
        canon, cmats = {}, []

        def number(mats):
            ids = np.empty(len(mats), dtype=np.int64)
            for i in sorted(range(len(mats)), key=lambda i: (
                    mats[i].shape, mats[i].ravel().tolist())):
                m = mats[i]
                ids[i] = canon.setdefault((m.shape, m.tobytes()), len(cmats))
                if ids[i] == len(cmats):
                    cmats.append(m)
            return ids

        def edge_ids(mod, a, b, k):
            # the maps of mod from floor a to floor b of the ends of edges
            # along axis k: the identity where a == b, the empty map where
            # a is -1, else the step at a (zero where none is stored)
            t, d = mod.step_table(), np.append(mod.dims.ravel(), 0)
            step = (a >= 0) & (b == a + _strides(mod.grid.shape)[k])
            if not ((a == b) | (a < 0) | step).all():
                raise CertificateError("evaluation grid too coarse")
            sid = np.where(step, t.ids[k * mod.dims.size + np.maximum(a, 0)],
                           -1)
            maps, _, inv = _unique_rows(np.stack([sid, d[b], d[a], a == b], 1))
            return number([t.mats[i] if i >= 0 else field.eye(r) if eye else
                           field.zeros(r, c)
                           for i, r, c, eye in maps.tolist()])[inv]

        # components and structure maps zero-padded to one square size
        D = max(M.max_pointwise_dim(), N.max_pointwise_dim())
        CF, CG = (_padded(t.mats, D, D) for t in (F, G))

        # the edges into each vertex, with the map of M (resp. N) on each
        into = {"f": [], "g": []}
        idx = np.arange(int(np.prod(shape))).reshape(shape)
        for k in range(P.n):
            if shape[k] < 2:
                continue
            src = np.take(idx, range(shape[k] - 1), axis=k).ravel()
            dst = src + idx.strides[k] // idx.itemsize
            # naturality of f: f(w) M(v->w) = N(v+eps->w+eps) f(v), and of
            # g likewise; absent components are zero
            for name, t, C, a0, b0, ma, mb in (("f", F, CF, m0, ne, M, N),
                                               ("g", G, CG, n0, me, N, M)):
                ca_all = edge_ids(ma, a0[src], a0[dst], k)
                sig = np.stack([t.ids[src], t.ids[dst], ca_all,
                                edge_ids(mb, b0[src], b0[dst], k)], axis=1)
                into[name].append((dst, ca_all))
                S = _padded(cmats, D, D)
                bad = _failing_squares(sig, p, C, S, S)
                if len(bad):
                    raise CertificateError(
                        f"{name} naturality fails at "
                        f"{_vertex(src[bad[0]], shape)} axis {k}")
        # vertices reached from a predecessor by an onto map of M (resp. N),
        # with the ranks of all the maps taken in one batch
        onto = field.ranks(cmats, p) == [len(m) for m in cmats]
        covered = {}
        for name, size in (("f", len(m0)), ("g", len(n0))):
            covered[name] = np.zeros(size, dtype=bool)
            for dst, ca in into[name]:
                covered[name][dst] |= onto[ca]
        # triangle identities g[eps] o f = eta_2eps and f[eps] o g = eta_2eps;
        # the component at v + eps is the one at its floor pe in P.  Both
        # sides are natural (checked above), so two of them that agree at a
        # predecessor of v agree at v whenever the structure map from there
        # onto M(v) (resp. N(v)) is onto; by induction along the grid order
        # only the other vertices, where M(v) has generators, are checked
        for name, up, Cu, t, C, x0, x2e, mid, mod, cov in (
                ("g.f", G, CG, F, CF, m0, m2e, dn[ne], M, covered["f"]),
                ("f.g", F, CF, G, CG, n0, n2e, dm[me], N, covered["g"])):
            at = np.flatnonzero((x0 >= 0) & ~cov)
            inv, walks = _unique_maps(mod, x0[at], x2e[at])
            sig = np.stack([up.ids[pe[at]], t.ids[at], number(walks)[inv],
                            mid[at]], axis=1)
            rows, first, _ = _unique_rows(sig)
            iu, iv, c, _ = rows.T
            diff = np.matmul(Cu[iu], C[iv]) - _padded(cmats, D, D)[c]
            bad = np.flatnonzero((diff % p).any(axis=(1, 2)))
            if len(bad):
                raise CertificateError(f"triangle {name} fails at "
                                       f"{_vertex(at[first[bad[0]]], shape)}")
        return True

    def is_valid(self) -> bool:
        try:
            return self.verify()
        except CertificateError:
            return False

    def flip(self) -> "InterleavingCertificate":
        return InterleavingCertificate(self.n_module, self.m_module, self.eps,
                                       self.grid, self.g, self.f)

    def __repr__(self):
        return (f"InterleavingCertificate(eps={self.eps}, "
                f"grid_shape={self.grid.shape})")


def _dims_at(mod: GridModule, grid: Grid, shift=0) -> np.ndarray:
    """Flat array over grid: dim of mod's extension at each vertex + shift."""
    return np.append(mod.dims.ravel(), 0)[_flat_floors(mod.grid, grid,
                                                       shift).ravel()]


def identity_certificate(M: GridModule, eps,
                         verify: bool = True) -> InterleavingCertificate:
    """The certificate d(M, M) <= eps via shift units."""
    eps = as_frac(eps)
    grid = certificate_grid(M, M, eps)
    ids, mats = _unique_maps(M, _flat_floors(M.grid, grid).ravel(),
                             _flat_floors(M.grid, grid, eps).ravel())
    f = Components(grid.shape, ids, mats, drop_zero=True)
    cert = InterleavingCertificate(M, M, eps, grid, f, f)
    if verify:
        cert.verify()
    return cert


def trivial_certificate(M: GridModule, eps) -> InterleavingCertificate:
    """Certificate d(M, 0) <= eps; valid exactly when M is 2eps-trivial."""
    eps = as_frac(eps)
    Z = zero_module(M.grid.n, M.p)
    grid = certificate_grid(M, Z, eps)
    cert = InterleavingCertificate(M, Z, eps, grid, {}, {})
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
    # the composite is natural, hence constant on cells of the refinement of
    # the two endpoint grids; middle grids need not appear here
    grid = certificate_grid(M, L, eps)
    p = M.p

    def fill(ordered, comps):
        # per chain element: its component at the floor (in its own grid) of
        # each evaluation vertex shifted by the cumulative interleaving
        # shift.  A missing or zero component anywhere in the chain makes
        # the composite component zero.
        cols, mats, s = [], [], 0
        for c, comp in zip(ordered, comps):
            t = Components.of(comp, c.grid.shape, drop_zero=True)
            fl = _flat_floors(c.grid, grid, s).ravel()
            cols.append(np.where(fl >= 0, t.ids[np.maximum(fl, 0)], -1))
            mats.append(t.mats)
            s += c.eps
        sig = np.stack(cols, axis=1)
        live = (sig >= 0).all(axis=1)
        out = np.full(len(sig), -1, dtype=np.int64)
        rows, _, out[live] = _unique_rows(sig[live])
        prods = []
        for row in rows.tolist():
            m = mats[0][row[0]]
            for cm, i in zip(mats[1:], row[1:]):
                m = field.mmul(cm[i], m, p)
            prods.append(m)
        return Components(grid.shape, out, prods, drop_zero=True)

    f = fill(certs, [c.f for c in certs])
    g = fill(certs[::-1], [c.g for c in reversed(certs)])
    cert = InterleavingCertificate(M, L, eps, grid, f, g)
    if verify:
        cert.verify()
    return cert


def compose_certificates(c1: InterleavingCertificate,
                         c2: InterleavingCertificate,
                         verify: bool = True) -> InterleavingCertificate:
    """From d(M,N) <= e1 and d(N,L) <= e2, certify d(M,L) <= e1+e2."""
    return compose_chain([c1, c2], verify=verify)


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
    grid = certificate_grid(S1, S2, eps)

    def fill(comps, rows_of, cols_of):
        # per summand: its component id at each vertex, with the block's
        # row and column dimensions (needed where the component is absent)
        cols, mats = [], []
        for c, comp, R, C in zip(certs, comps, rows_of, cols_of):
            t = Components.of(comp, c.grid.shape, drop_zero=True)
            fl = _flat_floors(c.grid, grid).ravel()
            cols += [np.where(fl >= 0, t.ids[np.maximum(fl, 0)], -1),
                     _dims_at(R, grid, eps), _dims_at(C, grid)]
            mats.append(t.mats)
        sig = np.stack(cols, axis=1)
        live = (sig[:, 0::3] >= 0).any(axis=1)
        out = np.full(len(sig), -1, dtype=np.int64)
        rows, _, out[live] = _unique_rows(sig[live])
        blocks = []
        for row in rows.tolist():
            trip = list(zip(row[0::3], row[1::3], row[2::3]))
            m = field.zeros(sum(t[1] for t in trip), sum(t[2] for t in trip))
            r = c = 0
            for cm, (i, dr, dc) in zip(mats, trip):
                if i >= 0:
                    m[r:r + dr, c:c + dc] = cm[i]
                r += dr
                c += dc
            blocks.append(m)
        return Components(grid.shape, out, blocks)

    f = fill([c.f for c in certs], [c.n_module for c in certs],
             [c.m_module for c in certs])
    g = fill([c.g for c in certs], [c.m_module for c in certs],
             [c.n_module for c in certs])
    cert = InterleavingCertificate(S1, S2, eps, grid, f, g)
    if verify:
        cert.verify()
    return cert, S1, S2


def _sum_on_union(mods) -> GridModule:
    grid = union_grid(*(X.grid for X in mods))
    return sum_module(*(X if X.grid == grid else
                        restriction_extension(X, grid) for X in mods))


def pair_sum_certificates(c1: InterleavingCertificate,
                          c2: InterleavingCertificate,
                          verify: bool = True):
    """Block sum: from d(A,B) <= eps and d(C,D) <= eps, certify
    d(A+C, B+D) <= eps.  Returns (cert, A+C, B+D)."""
    return block_sum_certificates([c1, c2], verify=verify)


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
    grid = certificate_grid(M, L, pitch)

    def in_m(shift):
        # flat floors in M of the floors in L of the vertices plus shift
        return _flat(_floors_via(M.grid, L.grid,
                                 _axis_floors(L.grid, grid, shift)),
                     M.grid.shape).ravel()

    # the maps of f and g in one batch; each table renumbers its own
    ids, mats = _unique_maps(
        M, np.concatenate([_flat_floors(M.grid, grid).ravel(), in_m(0)]),
        np.concatenate([in_m(pitch),
                        _flat_floors(M.grid, grid, pitch).ravel()]))
    f, g = (Components(grid.shape, half, mats, drop_zero=True)
            for half in np.split(ids, 2))
    cert = InterleavingCertificate(M, L, pitch, grid, f, g)
    cert.verify()
    return L, cert


def local_change_certificate(M: GridModule, M2: GridModule,
                             region: TrivialRegion, eps,
                             verify: bool = True) -> InterleavingCertificate:
    """Certify d(M, M2) <= eps when M and M2 agree outside an eps-trivial
    region U: use M's own structure maps inside U and M2's outside (and
    symmetrically), then verify the interleaving exactly.  verify=False
    defers soundness to a later verification of a composite containing this
    certificate."""
    eps = as_frac(eps)
    if not region.is_eps_trivial(eps):
        raise CertificateError("region is not eps-trivial")
    if M.p != M2.p or M.grid.n != M2.grid.n:
        raise CertificateError("incompatible modules")
    extra = [sorted(region.corner_coords(k)) for k in range(M.grid.n)]
    grid = certificate_grid(M, M2, eps, extra_axes=extra)
    inside = region.mask(grid).ravel()
    fm0 = _flat_floors(M.grid, grid).ravel()
    f20 = _flat_floors(M2.grid, grid).ravel()
    dm = np.append(M.dims.ravel(), 0)
    d2 = np.append(M2.dims.ravel(), 0)
    bad = ~inside & (dm[fm0] != d2[f20])
    if bad.any():
        v = _vertex(np.flatnonzero(bad)[0], grid.shape)
        raise CertificateError(
            f"modules differ outside the region at {grid.coord(v)}")
    # the eps-shift structure maps of both modules
    own, own_mats = _unique_maps(M, fm0,
                                 _flat_floors(M.grid, grid, eps).ravel())
    other, other_mats = _unique_maps(M2, f20,
                                     _flat_floors(M2.grid, grid, eps).ravel())
    other += len(own_mats)
    mats = own_mats + other_mats
    cert = InterleavingCertificate(
        M, M2, eps, grid,
        Components(grid.shape, np.where(inside, own, other), mats,
                   drop_zero=True),
        Components(grid.shape, np.where(inside, other, own), mats,
                   drop_zero=True))
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
    base, src, tgt = (_flat(f, L.grid.shape).ravel() for f in (
        _axis_floors(L.grid, window), _axis_floors(L.grid, window, r),
        _floors_via(L.grid, window, _axis_floors(window, window, beta))))
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
