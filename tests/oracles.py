"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written from first principles with plain
Python integers: no code from gridpersist's linear algebra or certificate
machinery is reused, so agreement between the two is meaningful.  The only
gridpersist objects consumed are the raw data of a module (grid axes, dims
array, step matrices), which are the ground truth being tested; the window
snap and regular grids are built as such raw data.
"""

import json
from bisect import bisect_right
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from gridpersist.core import Components, Grid, GridModule, ModuleMorphism
from gridpersist.interleave import InterleavingCertificate


# ---------------------------------------------------------------------------
# plain-int linear algebra mod p

def _gauss_jordan(rows, p, ncols):
    """(reduced rows, pivot columns): the reduced row echelon form mod p of
    a list of int rows, pivots taken among their first ncols columns."""
    rows = [[x % p for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows, pivots


def gauss_rank(rows, p):
    """Rank of a matrix given as a list of lists of ints, mod p."""
    return len(_gauss_jordan(rows, p, len(rows[0]) if rows else 0)[1])


def gauss_nullspace(rows, p):
    """Basis of the right nullspace, as a list of int vectors."""
    ncols = len(rows[0]) if rows else 0
    rows, pivots = _gauss_jordan(rows, p, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rows[r][f]) % p
        basis.append(v)
    return basis


def solve(a, b, p):
    """One solution x of a x = b mod p, or None if there is none: a is an
    int64 matrix, b a vector or a matrix (every column solved), and x an
    int64 array of b's kind."""
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    ncols, k = a.shape[1], b2.shape[1]
    rows, pivots = _gauss_jordan([ra + rb for ra, rb in zip(
        a.tolist(), b2.tolist())], p, ncols)
    if any(any(r[ncols:]) for r in rows[len(pivots):]):
        return None
    x = np.zeros((ncols, k), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = rows[r][ncols:]
    return x[:, 0] if b.ndim == 1 else x


def mat_mul(a, b, p, cols=0):
    """a b mod p; cols is b's column count, which a b with no rows loses."""
    return [[sum(x * y for x, y in zip(ra, cb)) % p
             for cb in zip(*b)] if b else [0] * cols for ra in a]


def mat_eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_zero(nr, nc):
    return [[0] * nc for _ in range(nr)]


def _algebra_mul(table, p):
    """The product of coordinate lists in the algebra whose structure table
    has table[i][j][k] = coefficient of b_k in b_i b_j, summed over the
    nonzero table entries."""
    terms = [(i, j, k, c) for i, row in enumerate(table)
             for j, col in enumerate(row) for k, c in enumerate(col) if c]

    def mul(a, b):
        out = [0] * len(table)
        for i, j, k, c in terms:
            out[k] += a[i] * b[j] * c
        return [v % p for v in out]
    return mul


def algebra_power(table, one, xs, e, p):
    """[x ** e for x in xs] by square-and-multiply on algebra products (see
    _algebra_mul), in the algebra with unit one."""
    mul = _algebra_mul(table, p)

    def pw(v):
        acc, v, n = [c % p for c in one], [c % p for c in v], e
        while n:
            if n & 1:
                acc = mul(acc, v)
            n >>= 1
            if n:
                v = mul(v, v)
        return acc
    return [pw(x) for x in xs]


def radical_bruteforce(A):
    """The Jacobson radical of the unital algebra with structure table
    A.table over F_{A.p} (see _algebra_mul), as the set of coordinate
    tuples a with a b nilpotent for every b: enumerates all pairs, so it
    is feasible only for p^(2 dim) <= 2^16."""
    table, p, D = A.table.tolist(), A.p, A.dim
    if p ** (2 * D) > 2 ** 16:
        raise ValueError(f"algebra too large: {p}^(2 {D})")
    mul = _algebra_mul(table, p)
    elems = [list(c) for c in product(range(p), repeat=D)]

    def nilpotent(x):
        y = x
        for _ in range(D):   # x^D = 0 for every nilpotent x
            if not any(y):
                return True
            y = mul(y, x)
        return not any(y)
    nil = {tuple(x) for x in elems if nilpotent(x)}
    return {a for a in nil
            if all(tuple(mul(list(a), b)) in nil for b in elems)}


def corner_map(table, f, p):
    """The matrix of x -> f x f (see _algebra_mul), by two algebra products
    per basis element: column i holds the coordinates of (f b_i) f."""
    mul, D = _algebra_mul(table, p), len(f)
    cols = [mul(mul(f, [int(i == j) for j in range(D)]), f) for i in range(D)]
    return [list(r) for r in zip(*cols)]


# ---------------------------------------------------------------------------
# module structure from raw data

def _axes(M):
    return [list(ax) for ax in M.grid.axes]


def step_dict(M):
    """M's steps as a {(vertex, axis): matrix} dict, read off its step table
    (a mapping keyed (axis,) + vertex)."""
    return {(v[1:], v[0]): m for v, m in M.step_table().items()}


def path_map(M, v, w):
    """Structure map M(v) -> M(w) composed step by step from M's steps.

    v, w are grid index tuples with v <= w.  Walks one axis at a time in
    axis order; any missing step between positive-dimensional endpoints is
    taken as zero (validate() forbids that case, so it only covers zeros).
    """
    p = M.p
    dims = M.dims
    steps = M.step_table()   # keyed (axis,) + vertex
    cur = list(v)
    cols = int(dims[tuple(v)])
    m = mat_eye(cols)
    for k in range(len(v)):
        while cur[k] < w[k]:
            src = tuple(cur)
            cur[k] += 1
            tgt = tuple(cur)
            ds, dt = int(dims[src]), int(dims[tgt])
            step = steps.get((k,) + src)
            if step is None:
                sm = mat_zero(dt, ds)
            else:
                sm = [[int(x) % p for x in row] for row in step.tolist()]
            m = mat_mul(sm, m, p, cols)
    return m


def module_is_valid(M):
    """Do M's steps have entries in [0, p), is a step stored on every edge
    between positive-dimensional vertices, and does every square commute?
    The squares are composed with plain ints from M's steps, a missing step
    taken as zero (prime, shapes and keys are not checked here)."""
    p, dims, shape = M.p, M.dims, M.grid.shape
    steps = step_dict(M)
    if any(not 0 <= x < p
           for m in steps.values() for x in m.ravel().tolist()):
        return False

    def succ(v, k):
        return v[:k] + (v[k] + 1,) + v[k + 1:]

    def step(v, k):
        m = steps.get((v, k))
        if m is None:
            return mat_zero(int(dims[succ(v, k)]), int(dims[v]))
        return m.tolist()

    for v in product(*map(range, shape)):
        for k in range(len(shape)):
            if v[k] + 1 >= shape[k]:
                continue
            if dims[v] and dims[succ(v, k)] and (v, k) not in steps:
                return False
            for l in range(k + 1, len(shape)):
                if v[l] + 1 >= shape[l]:
                    continue
                d = int(dims[v])
                if (mat_mul(step(succ(v, k), l), step(v, k), p, d)
                        != mat_mul(step(succ(v, l), k), step(v, l), p, d)):
                    return False
    return True


def ext_floor(M, point):
    """Grid index of the largest vertex <= point, or None if below the grid."""
    idx = []
    for k, ax in enumerate(_axes(M)):
        i = bisect_right(ax, point[k]) - 1
        if i < 0:
            return None
        idx.append(i)
    return tuple(idx)


# ---------------------------------------------------------------------------
# hom spaces by dense naturality solve

def hom_dim(M, N):
    """dim Hom(M, N) for modules on the same grid, by a dense solve.

    Unknowns: one f_v per grid vertex; equations: f_w . M-step = N-step . f_v
    for every grid edge.  Assembled as one big integer matrix and reduced
    with gauss_nullspace.
    """
    basis = hom_basis(M, N)
    return len(basis)


def hom_basis(M, N):
    if tuple(map(tuple, _axes(M))) != tuple(map(tuple, _axes(N))):
        raise ValueError("same grid required")
    p = M.p
    shape = M.dims.shape
    verts = list(product(*(range(s) for s in shape)))
    offs = {}
    nunk = 0
    for v in verts:
        dm, dn = int(M.dims[v]), int(N.dims[v])
        offs[v] = (nunk, dm, dn)
        nunk += dm * dn
    rows = []
    for v in verts:
        for k in range(len(shape)):
            if v[k] + 1 >= shape[k]:
                continue
            w = v[:k] + (v[k] + 1,) + v[k + 1:]
            a = path_map(M, v, w)      # M(v) -> M(w)
            b = path_map(N, v, w)      # N(v) -> N(w)
            ov, dmv, dnv = offs[v]
            ow, dmw, dnw = offs[w]
            # equation: f_w a - b f_v = 0, entries indexed (i in N(w), j in M(v))
            for i in range(dnw):
                for j in range(dmv):
                    row = [0] * nunk
                    for t in range(dmw):       # f_w[i][t] * a[t][j]
                        row[ow + i * dmw + t] = (row[ow + i * dmw + t]
                                                 + a[t][j]) % p
                    for s in range(dnv):       # - b[i][s] * f_v[s][j]
                        row[ov + s * dmv + j] = (row[ov + s * dmv + j]
                                                 - b[i][s]) % p
                    if any(row):
                        rows.append(row)
    if not rows:
        return [[0] * nunk] if nunk == 0 else [
            [1 if i == j else 0 for j in range(nunk)] for i in range(nunk)]
    return gauss_nullspace(rows, p)


# ---------------------------------------------------------------------------
# exhaustive isomorphism search (tiny corpora only)

def is_isomorphic_bruteforce(M, N):
    """Is some element of Hom(M, N) invertible at every vertex?

    Enumerates all p^d elements of Hom(M, N), d its dimension; feasible
    only for p^d <= 4096 (ValueError otherwise).  Modules with different
    dimension vectors are not isomorphic.
    """
    if M.dims.shape != N.dims.shape or (M.dims != N.dims).any():
        return False
    p = M.p
    basis = hom_basis(M, N)
    if p ** len(basis) > 4096:
        raise ValueError(f"corpus too large: {p}^{len(basis)}")
    offs, n = [], 0
    for v in product(*(range(s) for s in M.dims.shape)):
        d = int(M.dims[v])
        if d:
            offs.append((n, d))
        n += d * d
    for coeffs in product(range(p), repeat=len(basis)):
        vec = [sum(c * b[i] for c, b in zip(coeffs, basis)) % p
               for i in range(n)]
        if all(gauss_rank([vec[o + i * d:o + (i + 1) * d] for i in range(d)],
                          p) == d for o, d in offs):
            return True
    return False


# ---------------------------------------------------------------------------
# exhaustive idempotent search (tiny corpora only)

def find_idempotent_bruteforce(M):
    """A nontrivial idempotent endomorphism of M, or None.

    Enumerates all p^d elements of End(M); feasible only for p and d tiny.
    Returns a dict vertex -> matrix (list of lists) or None.  M is
    indecomposable iff the return is None and M is nonzero.
    """
    p = M.p
    basis = hom_basis(M, M)
    d = len(basis)
    if p ** d > 2 ** 20:
        raise ValueError(f"corpus too large: {p}^{d}")
    shape = M.dims.shape
    verts = [v for v in product(*(range(s) for s in shape)) if M.dims[v]]
    offs = {}
    n = 0
    for v in product(*(range(s) for s in shape)):
        dm = int(M.dims[v])
        offs[v] = (n, dm)
        n += dm * dm
    ident = [0] * n
    for v in verts:
        o, dm = offs[v]
        for i in range(dm):
            ident[o + i * dm + i] = 1

    def unpack(vec, v):
        o, dm = offs[v]
        return [[vec[o + i * dm + j] for j in range(dm)] for i in range(dm)]

    for coeffs in product(range(p), repeat=d):
        vec = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                vec = [(x + c * y) % p for x, y in zip(vec, b)]
        if not any(vec) or vec == ident:
            continue
        ok = True
        for v in verts:
            e = unpack(vec, v)
            if mat_mul(e, e, p) != e:
                ok = False
                break
        if ok:
            return {v: unpack(vec, v) for v in verts}
    return None


# ---------------------------------------------------------------------------
# triviality radius by exhaustive sweep

def is_trivial_at(M, eps):
    """Whether every structure map x -> x + eps*(1,..,1) of the extension
    vanishes, checked exhaustively at grid vertices (the worst case per cell)."""
    axes = _axes(M)
    shape = M.dims.shape
    for v in product(*(range(s) for s in shape)):
        if not M.dims[v]:
            continue
        point = [axes[k][v[k]] + eps for k in range(len(shape))]
        w = ext_floor(M, point)
        if w is None:
            continue
        if any(w[k] >= shape[k] for k in range(len(shape))):
            continue
        m = path_map(M, v, w)
        if any(any(row) for row in m):
            return False
    return True


def triviality_radius_bruteforce(M):
    """Infimum eps over which M is eps-trivial, by sweeping breakpoints.

    Candidate radii are the pairwise coordinate differences on each axis;
    the radius is the smallest candidate r such that being (r + tiny)
    -trivial holds for all tiny > 0, i.e. such that the strict sweep at r
    finds no surviving map.  Returns None when no candidate works: the
    floor extension then carries a map that survives arbitrarily far, so
    the module is not eps-trivial for any eps."""
    axes = _axes(M)
    cands = {Fraction(0)}
    for ax in axes:
        for a in ax:
            for b in ax:
                if b > a:
                    cands.add(b - a)
    cands = sorted(cands)
    # M is eps-trivial for every eps > r iff at eps slightly above r all
    # floors already vanish; between consecutive breakpoints floors are
    # constant, so testing midpoints of consecutive candidates suffices.
    for i, r in enumerate(cands):
        nxt = cands[i + 1] if i + 1 < len(cands) else r + 1
        probe = (r + nxt) / 2
        if is_trivial_at(M, probe):
            return r
    return None


# ---------------------------------------------------------------------------
# rank windows, thin corners and antennas, vertex by vertex

def _vertices(M):
    return product(*(range(s) for s in M.dims.shape))


def _is_zero(m):
    return not any(any(row) for row in m)


def rank_violation(M, N, eps):
    """Is there a support vertex a of M with rk M(a -> b) > rk N(a + eps ->
    t)?  b is the floor of a + 2 eps; t is the floor in N of the largest
    point strictly below sup - eps on each axis (sup the coordinate after b,
    N's top where there is none), but never below the floor of a + eps."""
    p = M.p
    am, an = _axes(M), _axes(N)
    for v in _vertices(M):
        if not M.dims[v]:
            continue
        a = [am[k][i] for k, i in enumerate(v)]
        b = ext_floor(M, [x + 2 * eps for x in a])
        r_m = gauss_rank(path_map(M, v, b), p)
        if r_m == 0:
            continue
        src = ext_floor(N, [x + eps for x in a])
        r_n = 0
        if src is not None:
            tgt = []
            for k, ax in enumerate(an):
                if b[k] + 1 == len(am[k]):
                    tgt.append(len(ax) - 1)
                else:
                    limit = am[k][b[k] + 1] - eps
                    tgt.append(max(len([c for c in ax if c < limit]) - 1,
                                   src[k]))
            r_n = gauss_rank(path_map(N, src, tuple(tgt)), p)
        if r_n < r_m:
            return True
    return False


def rank_lower_bound(M, N, max_candidates=96):
    """The largest candidate eps (half-differences of coordinates and their
    9/10 multiples, the 2 max_candidates largest) with a rank violation
    either way, or 0."""
    cands = set()
    for A in (M, N):
        coords = sorted({c for ax in _axes(A) for c in ax})
        for i, c1 in enumerate(coords):
            for c2 in coords[i + 1:]:
                cands |= {(c2 - c1) / 2, (c2 - c1) / 2 * Fraction(9, 10)}
    for eps in sorted(cands, reverse=True)[:2 * max_candidates]:
        if rank_violation(M, N, eps) or rank_violation(N, M, eps):
            return eps
    return Fraction(0)


def perfect_matching(n_left, n_right, edges):
    """Some right partner list using only the given (i, j) edges that
    matches every left node to a distinct right node, or None: every
    injection of the left nodes into the right ones, tried in turn."""
    edges = set(edges)
    return next((list(t) for t in permutations(range(n_right), n_left)
                 if all((i, j) in edges for i, j in enumerate(t))), None)


def has_thin_corner(A):
    """The coordinates of the first vertex r (in C order) with A(r)
    one-dimensional and A zero at every other vertex <= r, or None."""
    axes = _axes(A)
    for v in _vertices(A):
        if A.dims[v] == 1 and A.dims[tuple(slice(0, i + 1) for i in v)
                                     ].sum() == 1:
            return tuple(axes[k][i] for k, i in enumerate(v))
    return None


def has_antenna(A, axis, eps):
    """The coordinates of the first vertex r (in C order) with A(r)
    one-dimensional, A zero on the ray below r along `axis`, and a zero map
    from r to r + eps e_j for every other axis j, or None."""
    axes = _axes(A)
    shape = A.dims.shape
    for v in _vertices(A):
        if A.dims[v] != 1 or any(A.dims[v[:axis] + (i,) + v[axis + 1:]]
                                 for i in range(v[axis])):
            continue
        r = [axes[k][i] for k, i in enumerate(v)]
        ok = True
        for j in range(len(shape)):
            if j == axis:
                continue
            ok = _is_zero(path_map(A, v, ext_floor(
                A, r[:j] + [r[j] + eps] + r[j + 1:])))
            if not ok:
                break
        if ok:
            return tuple(r)
    return None


# ---------------------------------------------------------------------------
# interleaving certificates, vertex by vertex

def _grid_floor(axes, point):
    """Index of the largest vertex of the grid with these axes <= point, or
    None if below the grid."""
    idx = tuple(bisect_right(ax, x) - 1 for ax, x in zip(axes, point))
    return None if min(idx) < 0 else idx


def _map_grids_held(c):
    """Does c.grid hold every coordinate c of M and c - eps of N, and
    c.g_grid every coordinate of N and c - eps of M?"""
    M, N, eps = c.m_module, c.n_module, c.eps
    return all(set(a) | {y - eps for y in b} <= set(held)
               for P, X, Y in ((c.grid, M, N), (c.g_grid, N, M))
               for held, a, b in zip(P.axes, _axes(X), _axes(Y)))


def certificate_failures(c):
    """Check every naturality square and both triangle identities of an
    interleaving certificate at every vertex of c.grid, with structure maps
    composed step by step from the raw module data; f is read at the floor
    of a point in c.grid and g at its floor in c.g_grid.  Yields each
    failure as (check, v), vertex by vertex in C order: check is "grid"
    (v None) when c.grid lacks a coordinate c of M or c - eps of N, or
    c.g_grid one of N or c - eps of M (a grid that coarse does not fix its
    map), "shape" for a component at v of the wrong shape, ("f", k) or
    ("g", k) for the naturality square of f or g along the edge from v on
    axis k, and "g.f" or "f.g" for a triangle identity at v.  The checks
    at vertices cover R^n when c.grid holds every coordinate of M and N
    shifted by 0, -eps and -2 eps (see widened)."""
    M, N, eps, p = c.m_module, c.n_module, c.eps, c.m_module.p
    if not _map_grids_held(c):
        yield "grid", None
        return
    axes = [list(ax) for ax in c.grid.axes]
    g_axes = [list(ax) for ax in c.g_grid.axes]

    def at(v):
        return tuple(ax[i] for ax, i in zip(axes, v))

    def up(x, s):
        return tuple(t + s for t in x)

    def dim(X, x):
        fl = ext_floor(X, x)
        return 0 if fl is None else int(X.dims[fl])

    def smap(X, x, y):
        fx, fy = ext_floor(X, x), ext_floor(X, y)
        if fx is None:
            return mat_zero(dim(X, y), 0)
        return path_map(X, fx, fy)

    def comp(d, grid_axes, X, Y, x):
        # the component at the floor of x, as a map X(x) -> Y(x + eps)
        rows, cols = dim(Y, up(x, eps)), dim(X, x)
        fl = _grid_floor(grid_axes, x)
        m = None if fl is None else d.get(fl)
        if m is None:
            return mat_zero(rows, cols), cols
        if tuple(m.shape) != (rows, cols):
            return None, cols
        return [[int(t) % p for t in row] for row in m.tolist()], cols

    for v in product(*(range(len(ax)) for ax in axes)):
        x = at(v)
        f, fc = comp(c.f, axes, M, N, x)
        g, gc = comp(c.g, g_axes, N, M, x)
        if f is None or g is None:
            yield "shape", v
            continue
        for k in range(len(axes)):
            if v[k] + 1 >= len(axes[k]):
                continue
            y = at(v[:k] + (v[k] + 1,) + v[k + 1:])
            fw, _ = comp(c.f, axes, M, N, y)
            gw, _ = comp(c.g, g_axes, N, M, y)
            if fw is None or gw is None:
                continue   # the shape failure is yielded at y's vertex
            if mat_mul(fw, smap(M, x, y), p, fc) != \
                    mat_mul(smap(N, up(x, eps), up(y, eps)), f, p, fc):
                yield ("f", k), v
            if mat_mul(gw, smap(N, x, y), p, gc) != \
                    mat_mul(smap(M, up(x, eps), up(y, eps)), g, p, gc):
                yield ("g", k), v
        fe, _ = comp(c.f, axes, M, N, up(x, eps))
        ge, _ = comp(c.g, g_axes, N, M, up(x, eps))
        if fe is None or ge is None:
            continue   # the shape failure is yielded at the floor
        if mat_mul(ge, f, p, fc) != smap(M, x, up(x, 2 * eps)):
            yield "g.f", v
        if mat_mul(fe, g, p, gc) != smap(N, x, up(x, 2 * eps)):
            yield "f.g", v


def certificate_holds(c):
    """Does every check of certificate_failures pass?"""
    return next(certificate_failures(c), None) is None


def one_grid(M, N, eps, *grids):
    """The evaluation grid of the one-grid layout: on every axis each
    coordinate c of M and N, c - eps and c - 2 eps, with the coordinates of
    any further grids."""
    return Grid([sorted(set(a).union(*(g.axes[k] for g in grids)))
                 for k, a in enumerate(union_of_axes(
                     [_axes(M), _axes(N)], (0, eps, 2 * eps)))])


def widened(c):
    """c on the one-grid layout: f and g both on one_grid of its modules,
    eps and grids, each read at the floor of every vertex in its own grid.
    c itself when a grid lacks a coordinate of its map's grid: nothing
    fixes the map between the coordinates it has."""
    if not _map_grids_held(c):
        return c
    P = one_grid(c.m_module, c.n_module, c.eps, c.grid, c.g_grid)

    def read(d, grid):
        out = {}
        for v in product(*(range(len(ax)) for ax in P.axes)):
            fl = _grid_floor(grid.axes, P.coord(v))
            if fl is not None and d.get(fl) is not None:
                out[v] = d[fl]
        return out

    return InterleavingCertificate(c.m_module, c.n_module, c.eps, P,
                                   read(c.f, c.grid), read(c.g, c.g_grid))


# ---------------------------------------------------------------------------
# floors and unions of Fraction coordinates

def axis_floors(mod_axes, axes, shift=0):
    """Per axis: the index of the largest coordinate of mod_axes <= each
    coordinate of axes plus shift, or -1, by exact Fraction comparison."""
    return [[bisect_right(list(m), Fraction(c) + shift) - 1 for c in ax]
            for m, ax in zip(mod_axes, axes)]


def union_of_axes(axes_list, shifts=(0,)):
    """Per axis: the sorted set of c - s over coordinates c and shifts s."""
    return [sorted({Fraction(c) - s for axes in axes_list for c in axes[k]
                    for s in shifts})
            for k in range(len(axes_list[0]))]


def regular_grid(n, pitch, lo, hi):
    """The Grid whose axis i holds lo_i, lo_i + pitch, ... up to the first
    coordinate >= hi_i (just lo_i when hi_i <= lo_i)."""
    pitch = Fraction(pitch)
    axes = []
    for a, b in zip(lo[:n], hi):
        ax = [Fraction(a)]
        while ax[-1] < b:
            ax.append(ax[-1] + pitch)
        axes.append(ax)
    return Grid(axes)


# ---------------------------------------------------------------------------
# lattice snapping on a regular window

def window_snap(M, pitch, margin_cells=6):
    """The snap x -> M(floor of x in (pitch Z)^n) on a regular window: per
    axis the lattice points from margin_cells below the lattice floor of M's
    least coordinate to margin_cells above the lattice ceiling of its
    largest.  Dims and steps come from M's raw data by ext_floor and
    path_map."""
    pitch = Fraction(pitch)
    lo, hi = [], []
    for ax in _axes(M):
        lo.append(((ax[0] / pitch).__floor__() - margin_cells) * pitch)
        hi.append(((ax[-1] / pitch).__ceil__() + margin_cells) * pitch)
    grid = regular_grid(M.grid.n, pitch, lo, hi)
    axes = [list(ax) for ax in grid.axes]
    fl = {v: ext_floor(M, tuple(ax[i] for ax, i in zip(axes, v)))
          for v in product(*(range(len(ax)) for ax in axes))}
    dims = np.zeros(grid.shape, dtype=np.int64)
    steps = {}
    for v, f in fl.items():
        dims[v] = 0 if f is None else int(M.dims[f])
    for v, f in fl.items():
        for k in range(M.grid.n):
            w = v[:k] + (v[k] + 1,) + v[k + 1:]
            if w in fl and dims[v] and dims[w]:
                steps[(v, k)] = np.array(path_map(M, f, fl[w]),
                                         dtype=np.int64).reshape(
                    int(dims[w]), int(dims[v]))
    return GridModule(grid, dims, steps, M.p)


def same_extension(A, B):
    """Do A and B have equal extensions?  Compares the dims at every vertex
    of the union of both grids and the structure map along every edge of
    it, each taken from the raw data at the floors in A's and B's grids."""
    axes = union_of_axes([_axes(A), _axes(B)])

    def value(X, v):
        fl = ext_floor(X, tuple(ax[i] for ax, i in zip(axes, v)))
        return fl, 0 if fl is None else int(X.dims[fl])

    for v in product(*(range(len(ax)) for ax in axes)):
        (fa, da), (fb, db) = value(A, v), value(B, v)
        if da != db:
            return False
        for k in range(len(axes)):
            if v[k] + 1 == len(axes[k]) or not da:
                continue
            w = v[:k] + (v[k] + 1,) + v[k + 1:]
            (ga, ea), (gb, _) = value(A, w), value(B, w)
            if ea and path_map(A, fa, ga) != path_map(B, fb, gb):
                return False
    return True


# ---------------------------------------------------------------------------
# coordinate dropping, staged

def staged_kept_coords(M, invertible):
    """The coordinates kept by dropping them axis after axis until nothing
    changes, each pass working on the module restricted so far: on an axis,
    the initial coordinate goes when its slice is zero, and another when its
    slice has the previous kept slice's dimensions and every step into it
    (the path map from the previous kept coordinate) is an identity, or with
    invertible of full rank.  Returns per axis the kept indices of M's
    grid."""
    p, dims = M.p, M.dims
    n = dims.ndim
    keep = [list(range(s)) for s in dims.shape]

    def slice_at(k, i):
        return [v for v in product(*keep[:k], [i], *keep[k + 1:])]

    def passes(m, d):
        if invertible:
            return gauss_rank(m, p) == d
        return m == mat_eye(d)

    changed = True
    while changed:
        changed = False
        for k in range(n):
            kept = []
            for j, i in enumerate(keep[k]):
                here = slice_at(k, i)
                if j == 0:
                    if any(dims[v] for v in here):
                        kept.append(i)
                    continue
                prev = slice_at(k, keep[k][j - 1])
                if [int(dims[v]) for v in prev] != [int(dims[v]) for v in here]:
                    kept.append(i)
                    continue
                if not all(passes(path_map(M, u, v), int(dims[u]))
                           for u, v in zip(prev, here) if dims[u]):
                    kept.append(i)
            kept = kept or keep[k][:1]
            if kept != keep[k]:
                keep[k] = kept
                changed = True
    return keep


# ---------------------------------------------------------------------------
# module JSON in both formats, in plain Python

def module_obj_v1(M):
    """M as a format-1 module object, the reference writer of the format
    the loader still reads: nested dims and one {"vertex", "axis",
    "matrix"} entry per stored step, sorted by vertex, then axis; a step
    with no entries is left out (one end is zero-dimensional)."""
    t, n, p = M.step_table(), M.grid.n, M.p
    rows = [[[int(x) % p for x in row] for row in m.tolist()] for m in t.mats]
    # the table runs over (axis, vertex); read it vertex by vertex
    ids = t.ids.reshape(n, -1).T.ravel()
    at = np.flatnonzero(np.array([m.size > 0 for m in t.mats] + [False])[ids])
    vs = np.stack(np.unravel_index(at // n, M.grid.shape), axis=1).tolist()
    steps = [{"vertex": v, "axis": k, "matrix": [r[:] for r in rows[i]]}
             for v, k, i in zip(vs, (at % n).tolist(), ids[at].tolist())]
    return {"type": "module", "p": p,
            "axes": [[f"{c.numerator}/{c.denominator}" for c in ax]
                     for ax in M.grid.axes],
            "dims": M.dims.tolist(), "steps": steps}


def runs(values):
    """[value, length, ...] of the runs of equal values in a list."""
    out = []
    for v in values:
        if out and out[-2] == v:
            out[-1] += 1
        else:
            out += [v, 1]
    return out


def unruns(rs):
    """The list a [value, length, ...] run list stands for."""
    return [v for v, k in zip(rs[::2], rs[1::2]) for _ in range(k)]


def _flat(x):
    return [y for z in x for y in _flat(z)] if isinstance(x, list) else [x]


def module_v1_of(obj):
    """The format-1 object of a format-2 module object."""
    shape = [len(ax) for ax in obj["axes"]]
    V = int(np.prod(shape))
    dims, ids = unruns(obj["dims"]), unruns(obj["steps"])
    for k in reversed(shape[1:]):
        dims = [dims[i:i + k] for i in range(0, len(dims), k)]
    steps = [{"vertex": list(v), "axis": k,
              "matrix": [list(r) for r in obj["mats"][ids[k * V + i]]]}
             for i, v in enumerate(product(*map(range, shape)))
             for k in range(len(shape)) if ids[k * V + i] >= 0]
    return {"type": "module", "p": obj["p"],
            "axes": [list(a) for a in obj["axes"]], "dims": dims,
            "steps": steps}


def module_v2_of(obj):
    """The format-2 object of a format-1 module object: its matrices as
    written (bools, floats and rows of no entries too), numbered by first
    use in C order over (axis, vertex); of steps at one place, the last."""
    shape = [len(ax) for ax in obj["axes"]]
    V = int(np.prod(shape))
    at = {}
    for e in obj["steps"]:
        i = 0
        for x, size in zip(e["vertex"], shape):
            i = i * size + x
        at[e["axis"] * V + i] = e["matrix"]
    pool = {}   # JSON tells 1 from true and 1.0
    ids = [pool.setdefault(json.dumps(at[i]), len(pool)) if i in at else -1
           for i in range(len(shape) * V)]
    return {"type": "module", "format": 2, "p": obj["p"],
            "axes": [list(a) for a in obj["axes"]],
            "dims": runs(_flat(obj["dims"])),
            "mats": [json.loads(m) for m in pool], "steps": runs(ids)}


def as_format1(x):
    """x with every format-2 module object in it rendered in format 1."""
    if isinstance(x, dict):
        if x.get("type") == "module" and x.get("format") == 2:
            return module_v1_of(x)
        return {k: as_format1(v) for k, v in x.items()}
    return [as_format1(v) for v in x] if isinstance(x, list) else x


def format1_dumps(x):
    """JSON text of a JSON value x with its modules in format 1, in the
    layout io.dumps and the CLI write (sorted keys, no spaces)."""
    return json.dumps(as_format1(x), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the loader's tables, by the dict route

def _dict_grid(axes):
    return Grid([[Fraction(c) for c in ax] for ax in axes])


def _dict_matrix(rows):
    # "[]" stands for a 0 x 1 matrix, as the loader reads it
    a = np.array(rows, dtype=np.int64)
    return a.reshape(len(rows), -1) if len(rows) else a.reshape(0, 1)


def _dict_module(obj):
    """GridModule(grid, dims, {(vertex, axis): matrix}) of a module object
    in either format."""
    if obj.get("format") == 2:
        obj = module_v1_of(obj)
    return GridModule(_dict_grid(obj["axes"]), obj["dims"], {
        (tuple(e["vertex"]), e["axis"]): _dict_matrix(e["matrix"])
        for e in obj["steps"]}, obj["p"])


def _dict_table(entries, grid):
    """Components.of a {vertex: matrix} dict of the entries, keyed in C
    (sorted) order, as the loader numbers its tables."""
    return Components.of({tuple(e["vertex"]): _dict_matrix(e["matrix"])
                          for e in sorted(entries, key=lambda e: e["vertex"])},
                         grid.shape)


def _assert_same_table(a, b):
    assert a.shape == b.shape and np.array_equal(a.ids, b.ids)
    assert [(m.shape, m.dtype) for m in a.mats] == \
        [(m.shape, m.dtype) for m in b.mats]
    assert all(np.array_equal(x, y) for x, y in zip(a.mats, b.mats))


def _assert_same_module(X, Y):
    assert X.grid == Y.grid and X.p == Y.p
    assert np.array_equal(X.dims, Y.dims) and X.dims.dtype == Y.dims.dtype
    _assert_same_table(X.step_table(), Y.step_table())


def assert_loaded_as_by_dicts(x, obj):
    """x, loaded from obj, holds the grids, eps and tables (ids and
    matrices) that the dict route builds from obj's entries."""
    if isinstance(x, GridModule):
        _assert_same_module(x, _dict_module(obj))
    elif isinstance(x, ModuleMorphism):
        _assert_same_module(x.source, _dict_module(obj["source"]))
        _assert_same_module(x.target, _dict_module(obj["target"]))
        _assert_same_table(x.mats, _dict_table(obj["components"],
                                               x.source.grid))
    else:
        assert isinstance(x, InterleavingCertificate)
        _assert_same_module(x.m_module, _dict_module(obj["m_module"]))
        _assert_same_module(x.n_module, _dict_module(obj["n_module"]))
        grid = _dict_grid(obj["grid"])
        g_grid = _dict_grid(obj["g_grid"]) if "g_grid" in obj else grid
        assert x.eps == Fraction(obj["eps"])
        assert x.grid == grid and x.g_grid == g_grid
        _assert_same_table(x.f, _dict_table(obj["f"], grid))
        _assert_same_table(x.g, _dict_table(obj["g"], g_grid))
