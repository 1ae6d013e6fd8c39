"""Surgery on persistence modules: the rigid gadget G, thin corners,
antennas, antenna relocation, folding k modules into one indecomposable by
a chain of gadgets (tacking is the fold of two), and the approximation of
any module by an indecomposable within any interleaving tolerance.

Every stage is a local change on an eps-trivial region, and every stage
builds its module the same way, by one splice (_splice): on a refinement
of the input's grid, the input keeps its data outside a vertex mask, new
pieces (a one-dimensional corner, a placed copy of G, constant
one-dimensional runs) supply the data inside it, and given link matrices
wire the edges that leave the pieces.

Axes are 0-indexed here; the constructions treat axis 0 / axis 1 the way the
informal pictures treat their first two coordinates, freezing the remaining
coordinates.  Every constructor returns its result together with a
local-change interleaving certificate back to its input.  The stages and
the fold return their certificates unverified and their modules untested
for indecomposability: what the construction claims is the bound on the
composite and the indecomposability of the final module, so only those
are checked, once, by the function that returns them (tack,
approximate_indecomposable and match.instability_demo).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import field
from .core import (Components, Grid, GridModule, ModuleMorphism,
                   _unique_rows, _vertex, as_frac, interval_module, sum_module)
from .decomp import PreconditionError, decompose, is_indecomposable
from .interleave import (CertificateError, InterleavingCertificate,
                         TrivialRegion, block_sum_certificates,
                         compose_chain, local_change_certificate,
                         snap_certificate, trivial_certificate,
                         zero_certificate)
from .kan import (_axis_floors, _flat, prune, restriction_extension,
                  union_grid)


# -- the gadget G ---------------------------------------------------------------

# _G_DIMS[x, y]: the rows below run from y = 4 down to y = 0
_G_DIMS = np.array([(1, 1, 1, 1, 1),
                    (1, 2, 2, 2, 1),
                    (0, 1, 2, 2, 1),
                    (0, 0, 1, 2, 1),
                    (0, 0, 0, 1, 1)])[::-1].T


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


def _place_G(grid: Grid, origin, axes, p):
    """G on the 5 x 5 grid vertices from the vertex at `origin` along axes
    = (a, b): (x, y) of G sits at that vertex + x e_a + y e_b.  Returns
    (G, block), block[(x, y)] the grid vertex of (x, y)."""
    o = grid.index_of(origin)
    block = {}
    for x, y in np.ndindex(5, 5):
        v = list(o)
        v[axes[0]] += x
        v[axes[1]] += y
        block[(x, y)] = tuple(v)
    dims = np.zeros(grid.shape, dtype=np.int64)
    for g, v in block.items():
        dims[v] = _G_DIMS[g]
    steps = Components.of({(axes[k],) + block[g]: m for (g, k), m in
                           _g_steps(p).items()}, (grid.n,) + grid.shape)
    return GridModule(grid, dims, steps, p), block


def module_G(p: int = field.DEFAULT_PRIME) -> GridModule:
    """The rigid 25-dimensional gadget on {0,...,4}^2: its endomorphism
    algebra is just the scalars, and it carries an axis-0 antenna at (0,3)
    and an axis-1 antenna at (3,0)."""
    M, _ = _place_G(Grid([range(5), range(5)]), (0, 0), (0, 1), p)
    M.validate()
    return M


# -- the splice --------------------------------------------------------------------

def _run(grid: Grid, cells: np.ndarray, ends, p):
    """A constant one-dimensional run on the vertex mask `cells`: the piece
    (identity steps between cells) and the table of its links, ends[w] on
    the edges from a cell v into a vertex w = v + e_k listed in `ends`."""
    v, w = grid.edge_ends()
    # per vertex its index in ends, and -1 (also for w = -1, no successor)
    end = np.full(cells.size + 1, -1, dtype=np.int64)
    end[[np.ravel_multi_index(x, grid.shape) for x in ends]] = range(len(ends))
    c = np.append(cells.ravel(), False)
    link = np.where(c[v], end[w], -1)
    shape = (grid.n,) + grid.shape
    step = Components(shape, np.where(c[v] & c[w] & (link < 0), 0, -1),
                      [field.eye(1)])
    return (GridModule(grid, cells.astype(np.int64), step, p),
            Components(shape, link, list(ends.values())))


def _splice(base: GridModule, region: np.ndarray, pieces, links):
    """The module that is `base` outside the vertex mask `region` and the
    sum of `pieces` (modules on base's grid with disjoint supports) inside
    it, wired by `links`: step tables (or {(k,) + v: matrix} mappings) of
    the edges v -> v + e_k leaving a piece, a later one overriding an
    earlier one.  Every other edge between nonzero vertices is zero, except
    that an edge from a nonzero base vertex outside the region into a
    nonzero vertex inside it raises ValueError unless a link names it.  The
    result is validated."""
    grid = base.grid
    shape = (grid.n,) + grid.shape
    dims = np.append(np.where(region, sum(P.dims for P in pieces),
                              base.dims).ravel(), 0)
    v, w = grid.edge_ends()
    inside = np.append(region.ravel(), False)
    # base steps between two vertices outside the region, then the pieces'
    # steps and the links, each overriding what came before
    t = base.step_table()
    ids = np.where(inside[v] | inside[w], -1, t.ids)
    mats = list(t.mats)
    links = [Components.of(x, shape) for x in links]
    for t in [P.step_table() for P in pieces] + links:
        ids = np.where(t.ids >= 0, t.ids + len(mats), ids)
        mats += t.mats
    linked = (np.array([t.ids for t in links]) >= 0).any(axis=0)
    pos = dims > 0
    bad = np.flatnonzero(~inside[v] & (base.dims.ravel()[v] > 0) & inside[w]
                         & pos[w] & ~linked)
    if len(bad):
        at = grid.coord(_vertex(v[bad[0]], grid.shape))
        raise ValueError(f"the module's support at {at} enters the spliced "
                         f"region along axis {bad[0] // region.size}")
    # zero steps on the other edges between nonzero vertices that touch the
    # region, one matrix per shape
    gap = np.flatnonzero(pos[v] & pos[w] & (inside[v] | inside[w])
                         & (ids < 0))
    sizes, _, kind = _unique_rows(np.stack([dims[w[gap]], dims[v[gap]]], 1))
    ids[gap] = len(mats) + kind
    mats += [field.zeros(r, c) for r, c in sizes.tolist()]
    out = GridModule(grid, dims[:-1], Components(shape, ids, mats), base.p)
    out.validate()
    return out


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


def has_antenna(A: GridModule, axis: int, eps):
    """A vertex r with A(r) = k, A zero on the ray below r along `axis`, and
    zero structure maps from r to r + eps e_j for every other axis j.
    Returns the first such vertex or None."""
    shape = A.grid.shape
    found = ((A.dims == 1) & (A.dims.cumsum(axis=axis) == 1)).ravel()
    for j in range(A.grid.n):
        if j == axis:
            continue
        # where the map out of each vertex along axis j lands (-1: nowhere)
        tabs = [np.arange(s) for s in shape]
        tabs[j] = _axis_floors(A.grid, A.grid, eps)[j]
        dst = _flat(tabs, shape)
        found &= dst >= 0
        at = np.flatnonzero(found)
        found[at] = ~A.structure_maps(at, dst[at]).any(axis=(1, 2))
    return _first_vertex(A, found)


# -- thin corner -----------------------------------------------------------------

def _assert_lattice(A: GridModule, eps):
    """ValueError when eps <= 0, or naming A's first grid coordinate, axis
    by axis, that is not a multiple of eps: a modulo test on integers over
    lcm(den, eps's denominator)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    L = lcm(A.grid.den, eps.denominator)
    e = eps.numerator * (L // eps.denominator)
    for a in A.grid.ints(L):
        # in Python ints, exact for any eps
        off = np.flatnonzero(a.astype(object) % e)
        if len(off):
            c = Fraction(int(a[off[0]]), L)
            raise ValueError(f"grid coordinate {c} not on the {eps}-lattice")


def add_thin_corner(A: GridModule, eps):
    """Make the minimal support corner one-dimensional at half pitch.

    Returns (A2, certificate at eps/2, corner vertex r).  The corner r is
    the least support vertex in coordinate order, a minimal one.  A2 is the
    splice of A, refined at r + eps/2 and r + eps, with a one-dimensional
    piece at r, linked into A by the steps out of r restricted to one basis
    line of A(r): the first that some step out of r keeps nonzero.  It
    differs from A only on the (eps/2)-trivial box [r, r + eps/2)^n.
    Neither the certificate nor the indecomposability of A2 is checked
    here.
    """
    eps = as_frac(eps)
    _assert_lattice(A, eps)
    if A.total_dim() == 0:
        raise ValueError("cannot add a corner to the zero module")
    h = eps / 2
    n, p = A.grid.n, A.p
    rv = tuple(np.argwhere(A.dims > 0)[0].tolist())
    r = A.grid.coord(rv)
    # the inclusion of the new 1-dim corner into A(r)
    t = A.step_table()
    cols = [c for k in range(n) if (k,) + rv in t
            for c in np.flatnonzero(t[(k,) + rv].any(axis=0)).tolist()]
    iota = field.zeros(A.dim(rv), 1)
    iota[cols[0] if cols else 0, 0] = 1
    Aref = restriction_extension(
        A, union_grid(A.grid, [{r[k] + h, r[k] + eps} for k in range(n)]))
    rv = Aref.grid.index_of(r)
    corner = np.zeros(Aref.grid.shape, dtype=bool)
    corner[rv] = True
    t = Aref.step_table()
    A2 = _splice(Aref, corner, [GridModule(Aref.grid, corner,
                                           Components.of({}, t.shape), p)],
                 [{(k,) + rv: field.mmul(t[(k,) + rv], iota, p)
                   for k in range(n) if (k,) + rv in t}])
    region = TrivialRegion([[(r[k], r[k] + h) for k in range(n)]])
    cert = local_change_certificate(Aref, A2, region, h, verify=False)
    if has_thin_corner(A2) is None:
        raise RuntimeError("corner construction failed its own check")
    return A2, cert, r


# -- antenna splice ----------------------------------------------------------------

def add_antenna(A: GridModule, eps):
    """Splice the gadget into the thin corner, producing an axis-0 antenna.

    Requires has_thin_corner(A) over the eps-lattice.  A2 is the splice of
    A, refined at pitch q = eps/5 around the corner r, with a copy of G on
    the block r + q {0..4}^2 of axes 0 and 1: every edge that leaves the
    block maps through G's top corner G(4, 4), which takes the place of
    the one-dimensional corner value.  Returns (A2, certificate at eps,
    antenna tip r + 3 q e_1); A2 differs from A only on the eps-trivial
    box [r, r + 4 q)^n.  Neither the certificate nor the indecomposability
    of A2 is checked here.
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
    Aref = restriction_extension(A, union_grid(A.grid, extra))
    grid, p = Aref.grid, A.p
    G, block = _place_G(grid, r, (0, 1), p)
    region = np.zeros(grid.shape, dtype=bool)
    for v in block.values():
        region[v] = True
    # the composites G(x, y) -> G(4, 4); block lists (4, 4) last
    flat = np.ravel_multi_index(np.array(list(block.values())).T, grid.shape)
    tops = G.structure_maps(flat, np.full(25, flat[-1]))
    t, links = Aref.step_table(), {}
    for (g, v), top in zip(block.items(), tops):
        for k in range(n):
            w = v[:k] + (v[k] + 1,) + v[k + 1:]
            if _G_DIMS[g] and (k,) + v in t and not region[w]:
                links[(k,) + v] = field.mmul(t[(k,) + v],
                                             top[:1, :_G_DIMS[g]], p)
    out = _splice(Aref, region, [G], [links])
    region = TrivialRegion([[(r[k], r[k] + 4 * q) for k in range(n)]])
    cert = local_change_certificate(Aref, out, region, eps, verify=False)
    tip = (r[0], r[1] + 3 * q) + tuple(r[2:])
    if has_antenna(out, 0, eps=q) != tip:
        raise RuntimeError("antenna construction failed its own check")
    return out, cert, tip


# -- antenna relocation ------------------------------------------------------------

def move_antenna(A: GridModule, eps, s):
    """Relocate an axis-0 antenna at r to the vertex s by laying a constant-k
    staircase, one axis at a time.

    Requires s_k < r_k on even axes (0-indexed), s_k > r_k on odd axes, and
    A zero wherever the axis-0 coordinate is <= s_0.  A2 is the splice of
    A, refined at s, s + eps, r and r + eps, with a constant
    one-dimensional run on the staircase T that feeds the old antenna at r
    by the identity; support of A right below T makes that splice, and so
    this function, raise ValueError.  Returns (A2, certificate at eps, new
    antenna axis): the antenna ends up on axis 0 when n is even and on axis
    n-1 when n is odd.  Neither the certificate nor the indecomposability
    of A2 is checked here.
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
    if A.dims[:sum(c <= s[0] for c in A.grid.axes[0])].any():
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
    Aref = restriction_extension(A, union_grid(A.grid, extra))
    grid = Aref.grid
    in_T = region.mask(grid)
    run, links = _run(grid, in_T, {grid.index_of(r): field.eye(1)}, A.p)
    out = _splice(Aref, in_T, [run], [links])
    cert = local_change_certificate(Aref, out, region, eps, verify=False)
    new_axis = 0 if n % 2 == 0 else n - 1
    if has_antenna(out, new_axis, eps=eps) is None:
        raise RuntimeError("relocation failed its own antenna check")
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
    Returns (M, region): M is the splice of the sum of the Ys with the runs
    and the gadgets as pieces, and agrees with the sum of the Ys outside
    the union `region` of all runs and gadget boxes.
    """
    n = Ys[0].grid.n
    p = Ys[0].p
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
    Ys = [Y if Y.grid == gm else restriction_extension(Y, gm) for Y in Ys]
    base = sum_module(*Ys)
    below = np.cumsum([Y.dims for Y in Ys], axis=0)

    def into(i, v):
        """The inclusion of k as Ys[i](v) into the sum at v."""
        m = field.zeros(int(base.dims[v]), 1)
        m[below[i][v] - Ys[i].dims[v], 0] = 1
        return m

    region = np.zeros(gm.shape, dtype=bool)
    pieces, links = [], []
    tip_in = into(0, gm.index_of(plans[0][0]))
    for j, (t, tB, a, b, runA, runB) in enumerate(plans):
        corner = list(t)
        corner[ell], corner[ellp] = a - 5 * eta, b
        G, block = _place_G(gm, corner, (ell, ellp), p)
        # only G's support: the staircase of the next antenna may run
        # through the zero cells of its column x = 0
        region |= G.dims > 0
        pieces.append(G)
        # the two runs feed the two antennas and rise to the gadget's
        # bottom cells (4,0) and (3,0)
        tv, tBv = gm.index_of(t), gm.index_of(tB)
        for run, tip, m, g in ((runA, tv, tip_in, (4, 0)),
                               (runB, tBv, into(j + 1, tBv), (3, 0))):
            cells = TrivialRegion(run).mask(gm)
            cells[tip] = False
            piece, piece_links = _run(gm, cells,
                                      {tip: m, block[g]: field.eye(1)}, p)
            region |= cells
            pieces.append(piece)
            links.append(piece_links)
        tip_in = field.eye(1)   # the next join feeds this gadget's (0, 3)
    # from the second join on, the antenna of Ys[j + 1] sits at the zero
    # cell (0, 2) of the gadget before; its maps into that gadget vanish
    links.append({(k,) + v: field.zeros(1, int(base.dims[v]))
                  for v in (gm.index_of(tB) for _, tB, *_ in plans[1:])
                  for k in (ell, ellp)})
    return _splice(base, region, pieces, links), TrivialRegion(boxes)


def fold(parts, eps0):
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
    stage_certs are the per-summand certificates d(Y_i, X_i) <= 11/10 eps0
    (Y_i the relocated summand), followed by the join certificate
    d(M, sum Y_i) <= eps0/2.  None of them is verified here, and neither
    M nor any stage's module is tested for indecomposability: the caller
    verifies cert, or a composite that contains it, and tests M.
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
        X1, c1, _ = add_thin_corner(prune(X), eps0)
        X2, c2, alpha = add_antenna(X1, eps0 / 2)
        prepared.append((X2, c1, c2, alpha))

    def support_min(X, k):
        return X.grid.axes[k][np.argwhere(X.dims > 0)[:, k].min()]

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
        Y, c3, axis = move_antenna(X2, eta, target)
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
                                    verify=False).flip()
    cert = compose_chain([join, block], verify=False)
    assert cert.eps == Fraction(8, 5) * eps0
    return M, cert, preps + [join]


def infer_pitch(*modules) -> Fraction:
    """The coarsest tau with every grid coordinate on (tau Z)^n: g / L, L
    the lcm of the grids' denominators and g the gcd of all coordinates
    times L."""
    L = lcm(*(M.grid.den for M in modules))
    g = gcd(*(int(np.gcd.reduce(a)) * (L // M.grid.den)
              for M in modules for a in M.grid.nums))
    if g == 0:
        raise PreconditionError("cannot infer a pitch from an all-zero grid")
    return Fraction(g, L)


def fold_eps0(parts, delta) -> Fraction:
    """The fold scale for pruned `parts` within delta: eps0 = tau/m with tau
    the coarsest pitch of their grids and m minimal such that
    eps0 < delta/4."""
    tau = infer_pitch(*parts)
    return tau / (int(4 * tau / delta) + 1)


def tack(A: GridModule, B: GridModule, delta):
    """Replace two indecomposables A and B (ValueError otherwise) by a
    single indecomposable within delta of A + B.

    The fold of [A, B] (see `fold`) at eps0 = tau/m, with tau the coarsest
    pitch of both (pruned) grids and m minimal such that eps0 < delta/4:
    thin corners (eps0/2), antennas at pitch eps0/10 (eps0/2), relocation
    of both antennas to a common out-of-support corner (eps0/10) and the
    gadget join (eps0/2).  The returned certificate between M and A + B has
    eps = 1.6 eps0 < delta, and is verified here, the one verification of
    the whole fold; M is tested for indecomposability here too, the one
    such test of the fold (RuntimeError when it fails).
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
    eps0 = fold_eps0([A, B], delta)
    assert eps0 < delta / 4
    M, cert, _ = fold([A, B], eps0)
    cert.verify()
    if not is_indecomposable(M):
        raise RuntimeError("tacked module failed its indecomposability check")
    assert cert.eps == Fraction(8, 5) * eps0 < delta
    return M, cert


# -- the approximation pipeline ------------------------------------------------

class ApproxResult:
    """The approximation, its certificate to the input (verified by
    approximate_indecomposable), the snap certificate, and the stage
    certificates: for k >= 2 summands those of the fold (one per summand,
    then the join), for a zero snap the cube's certificate, otherwise none.
    The fold's stage certificates are never verified on their own, only as
    parts of `certificate`."""

    def __init__(self, module, certificate, snap_cert, stage_certs):
        self.module = module
        self.certificate = certificate
        self.snap_cert = snap_cert
        self.stage_certs = stage_certs


def iso_certificate(W: ModuleMorphism) -> InterleavingCertificate:
    """The verified 0-interleaving (W, W^-1) from an isomorphism W: A -> B.
    Its verification checks that W and W^-1 are natural and inverse to each
    other; a W that is not a natural isomorphism raises CertificateError."""
    try:
        inv = W.inverse()
    except ValueError as exc:   # a singular or non-square component
        raise CertificateError("witness is not an isomorphism") from exc
    # at eps 0 both map grids of two modules on one grid are that grid
    shape = W.source.grid.shape
    cert = InterleavingCertificate(
        W.source, W.target, 0, W.source.grid,
        Components.of(W.mats, shape, drop_zero=True),
        Components.of(inv.mats, shape, drop_zero=True))
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
        total = zero_certificate(M, N, eps / 2)
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
        total = compose_chain([cube_c, snap_c.flip()])   # verified
        if not is_indecomposable(M):
            raise RuntimeError("cube module failed indecomposability")
        return ApproxResult(M, total, snap_c, [cube_c])
    parts, W = decompose(L, seed)
    chain, stage_certs = [], []
    if len(parts) == 1:
        M = parts[0]
    else:
        M, fold_c, stage_certs = fold(parts, eps / 4)
        chain.append(fold_c)
    total = compose_chain(chain + [iso_certificate(W), snap_c.flip()],
                          verify=True)
    assert total.eps <= eps
    if not is_indecomposable(M):
        raise RuntimeError("folded module failed its indecomposability check")
    return ApproxResult(M, total, snap_c, stage_certs)
