"""Surgery on persistence modules: the rigid gadget G, thin corners,
antennas, antenna relocation, folding k modules into one indecomposable by
a chain of gadgets (tacking is the fold of two), and the approximation of
any module by an indecomposable within any interleaving tolerance.

Axes are 0-indexed here; the constructions treat axis 0 / axis 1 the way the
informal pictures treat their first two coordinates, freezing the remaining
coordinates.  Every constructor returns its result together with a
local-change interleaving certificate back to its input, verified unless
the caller passes verify_cert=False.  approximate_indecomposable and
match.instability_demo do so for the fold: its stage certificates are never
verified on their own, only the composite certificate they build, which
is always verified before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from . import field
from .core import (Grid, GridModule, ModuleMorphism, as_frac,
                   interval_module, sum_module)
from .decomp import PreconditionError, decompose, is_indecomposable
from .interleave import (CertificateError, InterleavingCertificate,
                         TrivialRegion, block_sum_certificates,
                         certificate_grid, compose_certificates,
                         compose_chain, local_change_certificate,
                         snap_certificate, trivial_certificate)
from .kan import (_axis_floors, _flat, prune, restriction_extension,
                  union_grid)


# -- the gadget G ---------------------------------------------------------------

_G_DIMS = {}
for _y, _row in zip((4, 3, 2, 1, 0),
                    ((1, 1, 1, 1, 1),
                     (1, 2, 2, 2, 1),
                     (0, 1, 2, 2, 1),
                     (0, 0, 1, 2, 1),
                     (0, 0, 0, 1, 1))):
    for _x, _d in enumerate(_row):
        _G_DIMS[(_x, _y)] = _d


def _g_steps(p):
    """Step matrices of G in gadget coordinates; key ((x, y), axis)."""
    def m(rows):
        return field.fmat(rows, p)
    up, down, left = m([[1], [1]]), m([[1, -1]]), m([[1], [0]])
    right = m([[0], [1]])
    e1, e2, z1 = field.eye(1), field.eye(2), field.zeros(1, 1)
    s = {}
    # axis 0 (x -> x+1)
    for x in range(4):
        s[((x, 4), 0)] = e1
    s[((0, 3), 0)] = up
    s[((1, 3), 0)] = e2
    s[((2, 3), 0)] = e2
    s[((3, 3), 0)] = down
    s[((1, 2), 0)] = left
    s[((2, 2), 0)] = e2
    s[((3, 2), 0)] = down
    s[((2, 1), 0)] = right
    s[((3, 1), 0)] = down
    s[((3, 0), 0)] = z1
    # axis 1 (y -> y+1)
    s[((0, 3), 1)] = z1
    s[((1, 2), 1)] = left
    s[((1, 3), 1)] = down
    s[((2, 1), 1)] = right
    s[((2, 2), 1)] = e2
    s[((2, 3), 1)] = down
    s[((3, 0), 1)] = up
    s[((3, 1), 1)] = e2
    s[((3, 2), 1)] = e2
    s[((3, 3), 1)] = down
    for y in range(4):
        s[((4, y), 1)] = e1
    return s


def module_G(p: int = field.DEFAULT_PRIME) -> GridModule:
    """The rigid 25-dimensional gadget on {0,...,4}^2: its endomorphism
    algebra is just the scalars, and it carries an axis-0 antenna at (0,3)
    and an axis-1 antenna at (3,0)."""
    grid = Grid([range(5), range(5)])
    dims = np.zeros((5, 5), dtype=np.int64)
    for (x, y), d in _G_DIMS.items():
        dims[x, y] = d
    M = GridModule(grid, dims, _g_steps(p), p)
    M.validate()
    return M


# -- refinement ---------------------------------------------------------------------

def _refine(M: GridModule, extra_per_axis) -> GridModule:
    axes = [sorted(set(ax) | set(extra_per_axis[k]))
            for k, ax in enumerate(M.grid.axes)]
    return restriction_extension(M, Grid(axes))


# -- corner and antenna detection ------------------------------------------------

def _first_vertex(A: GridModule, mask: np.ndarray):
    """The coordinates of the first vertex (in C order) where mask holds, or
    None."""
    at = np.argwhere(mask.reshape(A.grid.shape))
    return A.grid.coord(tuple(at[0].tolist())) if len(at) else None


def has_thin_corner(A: GridModule):
    """A vertex r with A(r) one-dimensional and A vanishing strictly below r
    (in every axis-combination), or None."""
    lower = A.dims
    for k in range(A.grid.n):
        lower = lower.cumsum(axis=k)
    return _first_vertex(A, (A.dims == 1) & (lower == 1))


def has_antenna(A: GridModule, axis: int, eps=None):
    """A vertex r with A(r) = k, A zero on the ray below r along `axis`, and
    zero structure maps out of r along every other axis (at lattice shift eps
    when given, else to the immediate grid successor).  Returns the first
    such vertex or None."""
    shape = A.grid.shape
    found = ((A.dims == 1) & (A.dims.cumsum(axis=axis) == 1)).ravel()
    for j in range(A.grid.n):
        if j == axis:
            continue
        # where the map out of each vertex along axis j lands (-1: nowhere)
        tabs = [np.arange(s) for s in shape]
        tabs[j] = (np.append(np.arange(1, shape[j]), -1) if eps is None else
                   _axis_floors(A.grid, A.grid, eps)[j])
        dst = _flat(tabs, shape).ravel()
        found &= dst >= 0
        at = np.flatnonzero(found)
        found[at] = ~A.structure_maps(at, dst[at]).any(axis=(1, 2))
    return _first_vertex(A, found)


# -- thin corner -----------------------------------------------------------------

def _assert_lattice(A: GridModule, eps):
    for ax in A.grid.axes:
        for c in ax:
            if (c / eps).denominator != 1:
                raise ValueError(f"grid coordinate {c} not on the {eps}-lattice")


def add_thin_corner(A: GridModule, eps, check: bool = True,
                    verify_cert: bool = True):
    """Make the minimal support corner one-dimensional at half pitch.

    Returns (A2, certificate at eps/2, corner vertex r).  A2 differs from A
    only on the (eps/2)-trivial box [r, r + eps/2)^n.
    """
    eps = as_frac(eps)
    _assert_lattice(A, eps)
    if A.total_dim() == 0:
        raise ValueError("cannot add a corner to the zero module")
    if check and not is_indecomposable(A):
        raise ValueError("input must be indecomposable")
    h = eps / 2
    support = A.support_vertices()
    minimal = [v for v in support
               if not any(w != v and all(a <= b for a, b in zip(w, v))
                          for w in support)]
    rv = min(minimal, key=lambda v: A.grid.coord(v))
    r = A.grid.coord(rv)
    # the inclusion of the new 1-dim corner into A(r)
    iota = None
    for k in range(A.grid.n):
        if A.has_succ(rv, k):
            st = A.step(rv, k)
            for col in range(st.shape[1]):
                if st[:, col].any():
                    iota = field.zeros(A.dim(rv), 1)
                    iota[col, 0] = 1
                    break
        if iota is not None:
            break
    if iota is None:
        iota = field.zeros(A.dim(rv), 1)
        iota[0, 0] = 1
    Aref = _refine(A, [{r[k] + h, r[k] + eps} for k in range(A.grid.n)])
    rv = Aref.grid.index_of(r)
    dims = Aref.dims.copy()
    dims[rv] = 1
    steps = {}
    for (v, k), m in Aref.steps.items():
        if v == rv:
            steps[(v, k)] = field.mmul(m, iota, A.p)
        else:
            steps[(v, k)] = m
    A2 = GridModule(Aref.grid, dims, steps, A.p)
    A2.validate()
    region = TrivialRegion([[(r[k], r[k] + h) for k in range(A.grid.n)]])
    cert = local_change_certificate(Aref, A2, region, h, verify=verify_cert)
    if has_thin_corner(A2) is None:
        raise RuntimeError("corner construction failed its own check")
    if check and not is_indecomposable(A2):
        raise RuntimeError("corner construction broke indecomposability")
    return A2, cert, r


# -- antenna splice ----------------------------------------------------------------

def add_antenna(A: GridModule, eps, check: bool = True,
                verify_cert: bool = True):
    """Splice the gadget into the thin corner, producing an axis-0 antenna.

    Requires has_thin_corner(A) over the eps-lattice.  Returns
    (A2, certificate at eps, antenna tip r + (3 eps/5) e_1); A2 differs from
    A only on the eps-trivial box [r, r + 4 eps/5)^n, over pitch eps/5.
    """
    eps = as_frac(eps)
    _assert_lattice(A, eps)
    r = has_thin_corner(A)
    if r is None:
        raise ValueError("input has no thin corner")
    n = A.grid.n
    if n < 2:
        raise ValueError("need at least two parameters")
    q = eps / 5
    extra = [{r[k] + j * q for j in range(1, 6)} if k < 2 else
             {r[k] + q, r[k] + eps} for k in range(n)]
    Aref = _refine(A, extra)
    p = A.p
    gsteps = _g_steps(p)
    grid = Aref.grid

    def gvert(gx, gy):
        return grid.index_of((r[0] + gx * q, r[1] + gy * q) + tuple(r[2:]))

    block = {gvert(gx, gy): (gx, gy) for gx in range(5) for gy in range(5)}
    dims = Aref.dims.copy()
    for v, (gx, gy) in block.items():
        dims[v] = _G_DIMS[(gx, gy)]
    steps = {}
    out = GridModule(grid, dims, steps, p)
    # composites G(x,y) -> G(4,4) = k, used along frozen axes; G's flat
    # vertex 5 x + y is (x, y)
    g44 = module_G(p).structure_maps(np.arange(25), np.full(25, 24))
    for v in grid.vertices():
        v = tuple(v)
        for k in range(n):
            if not out.has_succ(v, k):
                continue
            w = out.succ(v, k)
            if dims[v] == 0 or dims[w] == 0:
                continue
            if v in block and w in block:
                steps[(v, k)] = gsteps.get((block[v], k),
                                           field.zeros(int(dims[w]), int(dims[v])))
            elif v in block:
                gx, gy = block[v]
                old = Aref.step(v, k)  # a map out of the old corner value k
                if k < 2:
                    if (k == 0 and gx != 4) or (k == 1 and gy != 4):
                        raise RuntimeError("block boundary mismatch")
                    steps[(v, k)] = old
                else:
                    steps[(v, k)] = field.mmul(
                        old, g44[5 * gx + gy, :1, :_G_DIMS[(gx, gy)]], p)
            elif w in block:
                if Aref.dim(v) != 0:
                    raise RuntimeError("nonzero module below the corner")
            else:
                steps[(v, k)] = Aref.step(v, k)
    out.validate()
    region = TrivialRegion([[(r[k], r[k] + 4 * q) for k in range(n)]])
    cert = local_change_certificate(Aref, out, region, eps,
                                    verify=verify_cert)
    tip = (r[0], r[1] + 3 * q) + tuple(r[2:])
    if has_antenna(out, 0, eps=q) != tip:
        raise RuntimeError("antenna construction failed its own check")
    if check and not is_indecomposable(out):
        raise RuntimeError("antenna construction broke indecomposability")
    return out, cert, tip


# -- antenna relocation ------------------------------------------------------------

def move_antenna(A: GridModule, eps, s, check: bool = True,
                 verify_cert: bool = True):
    """Relocate an axis-0 antenna at r to the vertex s by laying a constant-k
    staircase, one axis at a time.

    Requires s_k < r_k on even axes (0-indexed), s_k > r_k on odd axes, and
    A zero wherever the axis-0 coordinate is <= s_0.  Returns
    (A2, certificate at eps, new antenna axis): the antenna ends up on
    axis 0 when n is even and on axis n-1 when n is odd.
    """
    eps = as_frac(eps)
    _assert_lattice(A, eps)
    s = tuple(as_frac(x) for x in s)
    n = A.grid.n
    r = has_antenna(A, 0, eps=eps)
    if r is None:
        raise ValueError("input has no axis-0 antenna")
    for k in range(n):
        if k % 2 == 0 and not s[k] < r[k]:
            raise ValueError(f"need s[{k}] < r[{k}]")
        if k % 2 == 1 and not s[k] > r[k]:
            raise ValueError(f"need s[{k}] > r[{k}]")
        if ((s[k] - r[k]) / eps).denominator != 1:
            raise ValueError("target not on the lattice")
    if A.dims[:A.grid._axis_floor(0, s[0]) + 1].any():
        raise ValueError("module must vanish at axis-0 coordinates <= s_0")

    # half-open staircase boxes T_1 ... T_n (stage k moves along axis k-1)
    boxes = []
    for stage in range(1, n + 1):
        a = stage - 1
        box = []
        for k in range(n):
            if k < a:
                box.append((s[k], s[k] + eps))
            elif k == a:
                if stage % 2 == 1:
                    box.append((s[k], r[k]))
                else:
                    box.append((r[k] + eps, s[k] + eps))
            else:
                box.append((r[k], r[k] + eps))
        boxes.append(box)
    region = TrivialRegion(boxes)
    extra = [{s[k], s[k] + eps, r[k], r[k] + eps} for k in range(n)]
    Aref = _refine(A, extra)
    grid = Aref.grid
    rv = grid.index_of(r)
    in_T = region.mask(grid)
    dims = Aref.dims.copy()
    dims[in_T] = 1
    steps = {}
    out = GridModule(grid, dims, steps, A.p)
    for v in grid.vertices():
        v = tuple(v)
        for k in range(n):
            if not out.has_succ(v, k):
                continue
            w = out.succ(v, k)
            if dims[v] == 0 or dims[w] == 0:
                continue
            if in_T[v] and (in_T[w] or w == rv):
                steps[(v, k)] = field.eye(1)
            elif in_T[v]:
                steps[(v, k)] = field.zeros(int(dims[w]), int(dims[v]))
            elif in_T[w]:
                raise ValueError("staircase crosses the module's support")
            else:
                steps[(v, k)] = Aref.step(v, k)
    out.validate()
    cert = local_change_certificate(Aref, out, region, eps,
                                    verify=verify_cert)
    new_axis = 0 if n % 2 == 0 else n - 1
    if has_antenna(out, new_axis, eps=eps) is None:
        raise RuntimeError("relocation failed its own antenna check")
    if check and not is_indecomposable(out):
        raise RuntimeError("relocation broke indecomposability")
    return out, cert, new_axis


# -- folding -----------------------------------------------------------------------

def _fold_axes(n: int):
    """(ell, ellp): relocated antennas point along ell, and consecutive
    joins of a fold climb along ellp."""
    return (0, 1) if n % 2 == 0 else (n - 1, n - 2)


def _join_chain(Ys, joins, eta, ell, ellp):
    """Tie k antenna-equipped modules into one by a chain of k-1 gadgets.

    joins[j] = (t, a, b): join j ties the chain so far, whose free antenna
    sits at t, to Ys[j + 1], whose axis-ell antenna sits at t - eta e_ellp.
    Both antennas are fed by constant-k runs from the left; the runs rise
    to the bottom cells (4,0) and (3,0) of a gadget on
    [a - 5 eta, a) x [b, b + 5 eta) (axes ell, ellp), and that gadget's own
    antenna at (0,3) is the chain's free antenna for the next join.
    Returns (M, region): M is the sum of the Ys, the runs and the gadgets
    with the feeding maps, and agrees with the sum of the Ys outside the
    union `region` of all runs and gadget boxes.
    """
    n = Ys[0].grid.n
    p = Ys[0].p
    gsteps = _g_steps(p)
    boxes, extra = [], [set() for _ in range(n)]
    plans = []
    for t, a, b in joins:
        frozen = [(t[k], t[k] + eta) for k in range(n)]

        def fbox(ell_iv, ellp_iv, frozen=frozen):
            box = list(frozen)
            box[ell], box[ellp] = ell_iv, ellp_iv
            return box

        tB = list(t)
        tB[ellp] -= eta
        tB = tuple(tB)
        runA = [fbox((a - eta, t[ell] + eta), (t[ellp], t[ellp] + eta)),
                fbox((a - eta, a), (t[ellp] + eta, b))]
        runB = [fbox((a - 2 * eta, t[ell] + eta), (t[ellp] - eta, t[ellp])),
                fbox((a - 2 * eta, a - eta), (t[ellp], b))]
        gbox = fbox((a - 5 * eta, a), (b, b + 5 * eta))
        boxes += [gbox] + runA + runB
        for box in [gbox] + runA + runB:
            for k, (lo, hi) in enumerate(box):
                extra[k] |= {lo, hi}
        for i in range(-5, 1):
            extra[ell].add(a + i * eta)
        for i in range(6):
            extra[ellp].add(b + i * eta)
        plans.append((t, tB, a, b, runA, runB))
    gm = union_grid(*(Y.grid for Y in Ys), extra)
    pieces = [Y if Y.grid == gm else restriction_extension(Y, gm) for Y in Ys]
    links = []   # (piece index at v, vertex v, axis, piece index at v + e_k)

    def add_piece(dims, steps):
        pieces.append(GridModule(gm, dims, steps, p))
        return len(pieces) - 1

    def run_piece(run, tip, owner):
        cells = TrivialRegion(run).mask(gm)
        tipv = gm.index_of(tip)
        cells[tipv] = False
        steps = {}
        me = len(pieces)
        for v in map(tuple, np.argwhere(cells).tolist()):
            for k in range(n):
                if v[k] + 1 >= gm.shape[k]:
                    continue
                w = v[:k] + (v[k] + 1,) + v[k + 1:]
                if cells[w]:
                    steps[(v, k)] = field.eye(1)
                elif w == tipv:
                    links.append((me, v, k, owner))
        return add_piece(cells.astype(np.int64), steps)

    owner_of_tip = 0
    for j, (t, tB, a, b, runA, runB) in enumerate(plans):
        ia = run_piece(runA, t, owner_of_tip)
        ib = run_piece(runB, tB, j + 1)

        def gv(gx, gy):
            x = list(t)
            x[ell], x[ellp] = a - (5 - gx) * eta, b + gy * eta
            return gm.index_of(tuple(x))

        block = {gv(gx, gy): (gx, gy) for gx in range(5) for gy in range(5)}
        dims = np.zeros(gm.shape, dtype=np.int64)
        for v, g in block.items():
            dims[v] = _G_DIMS[g]
        steps = {}
        for v, g in block.items():
            for k in (ell, ellp):
                w = v[:k] + (v[k] + 1,) + v[k + 1:]
                if w in block and dims[v] and dims[w]:
                    st = gsteps.get((g, 0 if k == ell else 1))
                    steps[(v, k)] = st if st is not None else \
                        field.zeros(int(dims[w]), int(dims[v]))
        ig = add_piece(dims, steps)
        # the two rises feed the gadget's bottom cells (4,0) and (3,0)
        for src, x in ((ia, a - eta), (ib, a - 2 * eta)):
            v = list(t)
            v[ell], v[ellp] = x, b - eta
            links.append((src, gm.index_of(tuple(v)), ellp, ig))
        owner_of_tip = ig
    S = sum_module(*pieces)
    offs = np.cumsum([P.dims for P in pieces], axis=0) - \
        np.stack([P.dims for P in pieces])
    steps = dict(S.steps)
    for src, v, k, dst in links:
        w = v[:k] + (v[k] + 1,) + v[k + 1:]
        blk = steps[(v, k)].copy()
        blk[offs[dst][w], offs[src][v]] = 1
        steps[(v, k)] = blk
    M = GridModule(gm, S.dims, steps, p)
    M.validate()
    return M, TrivialRegion(boxes)


def fold(parts, eps0, check_stages: bool = False, verify_cert: bool = True):
    """Join k >= 2 indecomposables, all on the eps0-lattice, into one
    indecomposable M with d(M, X_1 + ... + X_k) <= 8/5 eps0.

    Every stage but the last runs on one summand's own grid: a thin corner
    (certificate eps0/2), an antenna at pitch eta = eps0/10 (eps0/2), and
    the relocation of the antenna (eta) into its slot of one staircase
    left of all supports.  A single pass then ties the k antennas together
    with a chain of k-1 gadgets (5 eta, one local change on the union of
    all runs and gadget boxes).  The per-summand stages compose on each
    summand's grid and combine by one block sum, so the budget does not
    depend on k and the pitch stays eta.

    Returns (M, cert, stage_certs): cert is d(M, S) <= 8/5 eps0 with S the
    direct sum of the parts on a common refinement of their grids (same
    extension as X_1 + ... + X_k, blocks in the order of `parts`);
    stage_certs are
    the per-summand certificates d(Y_i, X_i) <= 11/10 eps0 (Y_i the
    relocated summand), followed by the join certificate d(M, sum Y_i) <=
    eps0/2.
    """
    eps0 = as_frac(eps0)
    if len(parts) < 2:
        raise PreconditionError("a fold needs at least two modules")
    n = parts[0].grid.n
    if n < 2 or any(X.grid.n != n for X in parts):
        raise PreconditionError("need modules with the same n >= 2 "
                                "parameters")
    if any(X.total_dim() == 0 for X in parts):
        raise PreconditionError("fold needs nonzero modules")
    eta = eps0 / 10
    ell, ellp = _fold_axes(n)
    prepared = []
    for X in parts:
        X1, c1, _ = add_thin_corner(prune(X), eps0, check=check_stages,
                                    verify_cert=verify_cert)
        X2, c2, alpha = add_antenna(X1, eps0 / 2, check=check_stages,
                                    verify_cert=verify_cert)
        prepared.append((X2, c1, c2, alpha))

    def support_min(X, k):
        return min(X.grid.axes[k][v[k]] for v in X.support_vertices())

    # the staircase corner u: below (axis 0 and ell), left or right of every
    # antenna according to the relocation's axis parities
    alphas = [al for _, _, _, al in prepared]
    u = []
    for k in range(n):
        if k in (0, ell):
            u.append(min(min(support_min(X2, k) for X2, *_ in prepared),
                         min(al[k] for al in alphas)) - 2 * eta)
        elif k % 2 == 0:
            u.append(min(al[k] for al in alphas) - 2 * eta)
        else:
            u.append(max(al[k] for al in alphas) + 2 * eta)
    t = list(u)
    t[ellp] += eta
    t = tuple(t)

    def relocate(i, target):
        X2, c1, c2, _ = prepared[i]
        Y, c3, axis = move_antenna(X2, eta, target, check=check_stages,
                                   verify_cert=verify_cert)
        assert axis == ell
        prep = compose_chain([c3.flip(), c2.flip(), c1.flip()], verify=False)
        return Y, prep

    Y, prep = relocate(0, t)
    Ys, preps, joins = [Y], [prep], []
    lo = support_min(Y, ell)
    for i in range(1, len(parts)):
        s = list(t)
        s[ellp] -= eta
        Y, prep = relocate(i, tuple(s))
        Ys.append(Y)
        preps.append(prep)
        a = min(lo, support_min(Y, ell)) - eta
        b = t[ellp] + 2 * eta
        joins.append((t, a, b))
        lo = a - 5 * eta
        t = list(t)
        t[ell], t[ellp] = a - 5 * eta, b + 3 * eta
        t = tuple(t)
    M, region = _join_chain(Ys, joins, eta, ell, ellp)
    block, SY, _ = block_sum_certificates(preps, verify=False)
    join = local_change_certificate(SY, M, region, 5 * eta,
                                    verify=verify_cert).flip()
    cert = compose_chain([join, block], verify=verify_cert)
    assert cert.eps == Fraction(8, 5) * eps0
    return M, cert, preps + [join]


def _frac_gcd(vals):
    out = Fraction(0)
    for v in vals:
        v = abs(as_frac(v))
        if v == 0:
            continue
        # gcd(a/b, c/d) = gcd(a d, c b) / (b d), reduced
        out = Fraction(gcd(out.numerator * v.denominator,
                           v.numerator * out.denominator),
                       out.denominator * v.denominator)
    if out == 0:
        raise PreconditionError("cannot infer a pitch from an all-zero grid")
    return out


def infer_pitch(*modules) -> Fraction:
    """The coarsest tau with every grid coordinate on (tau Z)^n."""
    vals = [c for M in modules for ax in M.grid.axes for c in ax]
    return _frac_gcd(vals)


def fold_eps0(parts, delta, tau=None) -> Fraction:
    """The fold scale for pruned `parts` within delta: eps0 = tau/m with tau
    the coarsest pitch of their grids (unless given) and m minimal such
    that eps0 < delta/4."""
    tau = infer_pitch(*parts) if tau is None else as_frac(tau)
    return tau / (int(4 * tau / delta) + 1)


def tack(A: GridModule, B: GridModule, delta, tau=None,
         check_stages: bool = False):
    """Replace two indecomposables A and B (ValueError otherwise) by a
    single indecomposable within delta of A + B.

    The fold of [A, B] (see `fold`) at eps0 = tau/m, with tau the coarsest
    pitch of both (pruned) grids unless given and m minimal such that
    eps0 < delta/4: thin corners (eps0/2), antennas at pitch eps0/10
    (eps0/2), relocation of both antennas to a common out-of-support corner
    (eps0/10) and the gadget join (eps0/2).  The returned certificate
    between M and A + B has eps = 1.6 eps0 < delta.
    """
    delta = as_frac(delta)
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    n = A.grid.n
    if n < 2 or B.grid.n != n or B.p != A.p:
        raise PreconditionError("need two modules over one prime with the "
                                "same n >= 2 parameters")
    if A.total_dim() == 0 or B.total_dim() == 0:
        raise PreconditionError("tack needs nonzero modules")
    A, B = prune(A), prune(B)
    if not (is_indecomposable(A) and is_indecomposable(B)):
        raise PreconditionError("tack joins two indecomposable modules")
    eps0 = fold_eps0([A, B], delta, tau)
    assert eps0 < delta / 4
    M, cert, _ = fold([A, B], eps0, check_stages=check_stages)
    if not is_indecomposable(M):
        raise RuntimeError("tacked module failed its indecomposability check")
    assert cert.eps == Fraction(8, 5) * eps0 < delta
    return M, cert


# -- the approximation pipeline ------------------------------------------------

class ApproxResult:
    """The approximation, its verified certificate to the input, the snap
    certificate, and the stage certificates: for k >= 2 summands those of
    the fold (one per summand, then the join), for a zero snap the cube's
    certificate, otherwise none.  The fold's stage certificates are never
    verified on their own, only as parts of `certificate`."""

    def __init__(self, module, certificate, snap_cert, stage_certs):
        self.module = module
        self.certificate = certificate
        self.snap_cert = snap_cert
        self.stage_certs = stage_certs


def iso_certificate(W: ModuleMorphism) -> InterleavingCertificate:
    """A 0-interleaving from a verified isomorphism W: A -> B."""
    W.validate()
    if not W.is_isomorphism():
        raise CertificateError("witness is not an isomorphism")
    # at eps 0 the evaluation grid of two modules on one grid is that grid
    f = {v: m for v, m in W.mats.items() if m.size and m.any()}
    g = {v: m for v, m in W.inverse().mats.items() if m.size and m.any()}
    cert = InterleavingCertificate(W.source, W.target, 0, W.source.grid,
                                   f, g)
    cert.verify()
    return cert


def approximate_indecomposable(N: GridModule, eps, seed: int = 0
                               ) -> ApproxResult:
    """An indecomposable module within eps of N, with a verified certificate.

    Snap N to the (eps/2)-lattice (certificate eps/2) and decompose the
    snap into k summands.  For k >= 2, fold them (see `fold`) at
    eps0 = eps/4, whose lattice holds every summand: the corner and antenna
    stages take eps/8 each, the relocation to a common staircase at pitch
    eta = eps/40 takes eta, and the single pass of k-1 gadget joins takes
    eps/8, so the fold costs 2 eps/5 for any k and the whole chain
    snap, iso, fold stays at 9 eps/10.  The zero case returns the unit cube
    module, eps/2 away from the zero snap.
    """
    eps = as_frac(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    n = N.grid.n
    if n < 2:
        raise PreconditionError("indecomposable approximation needs n >= 2 "
                                "parameters")
    if N.total_dim() == 0:
        # the only module at distance 0 from N is zero, so approximate by the
        # unit eps-cube, which sits at distance exactly eps/2
        M = interval_module((0,) * n, (eps,) * n, p=N.p)
        grid = certificate_grid(M, N, eps / 2)
        total = InterleavingCertificate(M, N, eps / 2, grid, {}, {})
        total.verify()
        if not is_indecomposable(M):
            raise RuntimeError("cube module failed indecomposability")
        return ApproxResult(M, total, None, [])
    L, snap_c = snap_certificate(N, eps / 2)
    # a lattice ceiling where nothing changes repeats the slice below it;
    # prune drops it, keeping the extension identical
    L = prune(L)
    if L.total_dim() == 0:
        M = interval_module((0,) * n, (eps,) * n, p=N.p)
        cube_c = trivial_certificate(M, eps / 2)  # d(M, 0) <= eps/2, exact
        # the snapped module is the zero extension; its data matches 0
        total = compose_certificates(cube_c, snap_c.flip())
        total.verify()
        if not is_indecomposable(M):
            raise RuntimeError("cube module failed indecomposability")
        return ApproxResult(M, total, snap_c, [cube_c])
    parts, W = decompose(L, seed)
    chain, stage_certs = [], []
    if len(parts) == 1:
        M = parts[0]
    else:
        M, fold_c, stage_certs = fold(parts, eps / 4, verify_cert=False)
        chain.append(fold_c)
    total = compose_chain(chain + [iso_certificate(W), snap_c.flip()],
                          verify=True)
    assert total.eps <= eps
    if not is_indecomposable(M):
        raise RuntimeError("folded module failed its indecomposability check")
    return ApproxResult(M, total, snap_c, stage_certs)
