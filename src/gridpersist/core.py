"""Persistence modules over finite grids in Q^n, with exact arithmetic.

A module assigns a finite-dimensional F_p vector space to each vertex of a
finite grid (a product of finite sets of rational coordinates) and a matrix
to each edge between consecutive vertices, with all squares commuting.

Semantics: a module always stands for its extension to all of R^n, where the
value at a point x is the value at the largest grid vertex <= x (and 0 when
no vertex lies below x).  All operations in this package respect that
convention, so refining a grid never changes the meaning of a module.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from . import field
from .field import DEFAULT_PRIME, rref


def as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**9)
    return Fraction(x)


def pt_shift(point, r):
    """Translate every coordinate by the scalar r (diagonal shift)."""
    r = as_frac(r)
    return tuple(c + r for c in point)


def pt_leq(x, y):
    return all(a <= b for a, b in zip(x, y))


# below this magnitude the difference of any two values is exact in int64
_INT64_SAFE = 2 ** 62


def _exact(arrays):
    """Integer sequences as numpy arrays: all int64 when every magnitude is
    below 2**62, otherwise all object arrays of Python ints.  Both dtypes
    run the same numpy expressions exactly."""
    def magnitude(a):
        if not len(a):
            return 0
        if isinstance(a, np.ndarray):
            return max(-int(a.min()), int(a.max()))
        return max(-min(a), max(a))

    small = all(magnitude(a) < _INT64_SAFE for a in arrays)
    return [np.array(a, dtype=np.int64 if small else object) for a in arrays]


def _affine(a: np.ndarray, f: int, s: int) -> np.ndarray:
    """a * f + s, exactly, for an ascending integer array a and f >= 1: in
    int64 when no value can reach 2**62, else in Python ints."""
    if f == 1 and s == 0:
        return a
    if (a.dtype == np.int64 and f < _INT64_SAFE and abs(s) < _INT64_SAFE and
            (not len(a) or max(-int(a[0]), int(a[-1])) * f + abs(s)
             < _INT64_SAFE)):
        return a * f + s
    return a.astype(object) * f + s


def _over_den(axes):
    """(den, nums) for axes of Fractions: the least common denominator of
    all coordinates, and per axis the list of coordinates times den."""
    den = lcm(*(c.denominator for ax in axes for c in ax))
    return den, [[c.numerator * (den // c.denominator) for c in ax]
                 for ax in axes]


class Grid:
    """A finite grid: the product of strictly increasing coordinate lists.

    The coordinates are held as integers over one common denominator: den
    is the least common multiple of their denominators, and nums[k] holds
    axis k's coordinates times den (see _exact for the dtype).  Every floor
    and comparison runs on these integers; the Fraction coordinates, axes,
    are built on first use.
    """

    def __init__(self, axes):
        axes = tuple(tuple(as_frac(c) for c in ax) for ax in axes)
        self._set(*_over_den(axes))
        self._axes = axes

    @classmethod
    def from_ints(cls, den: int, nums) -> "Grid":
        """The grid whose axis k holds the coordinates nums[k] / den (nums
        numpy integer arrays, int64 or object)."""
        c = gcd(den, *(int(np.gcd.reduce(a)) for a in nums if len(a)))
        g = cls.__new__(cls)
        g._set(den // c, [a // c for a in nums] if c > 1 else nums)
        g._axes = None
        return g

    def _set(self, den, nums):
        self.den = den
        self.nums = tuple(_exact(nums))
        for a in self.nums:
            if len(a) == 0:
                raise ValueError("empty axis")
            if not (a[1:] > a[:-1]).all():
                raise ValueError("axis coordinates must be strictly increasing")
        self.n = len(self.nums)
        self.shape = tuple(len(a) for a in self.nums)

    @property
    def axes(self):
        if self._axes is None:
            self._axes = tuple(tuple(Fraction(x, self.den) for x in a.tolist())
                               for a in self.nums)
        return self._axes

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Grid) and self.den == other.den
            and self.shape == other.shape
            and all(np.array_equal(a, b) for a, b in zip(self.nums, other.nums)))

    def __hash__(self):
        return hash((self.den, tuple(tuple(a.tolist()) for a in self.nums)))

    def __repr__(self):
        return f"Grid({list(self.shape)} coords/axis, n={self.n})"

    def vertices(self):
        return np.ndindex(self.shape)

    def coord(self, vidx):
        return tuple(self.axes[k][i] for k, i in enumerate(vidx))

    def _axis_floor(self, k, x):
        """Largest i with axes[k][i] <= x, or -1."""
        x = as_frac(x)
        return bisect_right(self.nums[k],
                            x.numerator * self.den // x.denominator) - 1

    def floor_index(self, point):
        """Index of the largest vertex <= point, or None if there is none."""
        idx = []
        for k, x in enumerate(point):
            i = self._axis_floor(k, x)
            if i < 0:
                return None
            idx.append(i)
        return tuple(idx)

    def index_of(self, point):
        idx = self.floor_index(point)
        if idx is None or any(
                int(self.nums[k][i]) * x.denominator != x.numerator * self.den
                for k, (i, x) in enumerate(zip(idx, map(as_frac, point)))):
            raise ValueError(f"{point} is not a grid vertex")
        return idx


def _strides(shape) -> np.ndarray:
    """Flat-index strides of a C-ordered grid of the given shape."""
    return np.cumprod((1,) + tuple(shape[:0:-1]), dtype=np.int64)[::-1]


def _vertex(flat: int, shape):
    """The index tuple of the flat index of a vertex of a grid of shape."""
    return tuple(int(i) for i in np.unravel_index(int(flat), shape))


class Components(Mapping):
    """A read-only {vertex: matrix} table over a grid of the given shape.

    ids is a flat int64 array over the grid in C order: -1 where there is
    no component, else an index into mats, which holds each distinct
    matrix once by content, in order of first appearance.  The builders of
    certificates and morphisms return tables; their consumers read any
    vertex -> matrix mapping through Components.of.
    """

    def __init__(self, shape, ids, mats, drop_zero: bool = False):
        """The table of mats[ids[v]] at each vertex v with ids[v] >= 0, for
        ids over the grid in C order and mats that may repeat a matrix;
        with drop_zero, zero and empty matrices count as absent."""
        canon = {}   # content -> (index, first matrix with it)
        kind = np.array([-1 if drop_zero and not (m.size and m.any()) else
                         canon.setdefault((m.shape, m.dtype.str, m.tobytes()),
                                          (len(canon), m))[0]
                         for m in mats], dtype=np.int64)
        reps = [m for _, m in canon.values()]
        ids = np.array(ids, dtype=np.int64).ravel()
        ids[ids >= 0] = kind[ids[ids >= 0]]
        live = np.flatnonzero(ids >= 0)
        # number the distinct matrices in order of first appearance
        used, first, inv = np.unique(ids[live], return_index=True,
                                     return_inverse=True)
        order = np.argsort(first)
        ids[live] = np.argsort(order)[inv.reshape(-1)]
        self.shape, self.ids = tuple(shape), ids
        self.mats = [reps[c] for c in used[order].tolist()]

    @classmethod
    def shared(cls, shape, at, mats) -> "Components":
        """The table of mats[i] at the distinct flat vertices at[i], numbered
        by id() first (equal matrices often share one array), then content."""
        _, first, kind = np.unique(
            np.fromiter(map(id, mats), np.uint64, len(mats)),
            return_index=True, return_inverse=True)
        ids = np.full(prod(shape), -1, dtype=np.int64)
        ids[at] = kind.reshape(-1)
        return cls(shape, ids, [mats[i] for i in first.tolist()])

    @classmethod
    def of(cls, comp, shape, drop_zero: bool = False) -> "Components":
        """comp as a table over a grid of the given shape: a table of that
        shape as it is (unless drop_zero finds a zero matrix in it); any
        other mapping with its entries at keys outside the grid ignored,
        equal matrices numbered in order of first appearance in comp.  With
        drop_zero, zero and empty matrices count as absent."""
        shape = tuple(shape)
        if isinstance(comp, Components) and comp.shape == shape and (
                not drop_zero or all(m.size and m.any() for m in comp.mats)):
            return comp
        keys = [v for v in comp if len(v) == len(shape)]
        vs = np.array(keys, dtype=np.int64).reshape(len(keys), len(shape))
        at = np.flatnonzero(((vs >= 0) & (vs < shape)).all(axis=1)).tolist()
        # the entries in comp's order, as a table along one axis
        line = cls((len(at),), np.arange(len(at)),
                   [comp[keys[i]] for i in at], drop_zero)
        t = cls.__new__(cls)
        t.shape, t.mats = shape, line.mats
        t.ids = np.full(prod(shape), -1, dtype=np.int64)
        t.ids[vs[at] @ _strides(shape)] = line.ids
        return t

    def misfits(self, rows, cols) -> np.ndarray:
        """The flat vertices v whose component is not rows[v] x cols[v]."""
        shapes = [m.shape if m.ndim == 2 else (-1, -1) for m in self.mats]
        got = np.array(shapes + [(-1, -1)], dtype=np.int64)[self.ids]
        return np.flatnonzero((self.ids >= 0) & ((got[:, 0] != rows)
                                                 | (got[:, 1] != cols)))

    def __getitem__(self, vidx):
        try:
            i = self.ids[np.ravel_multi_index(vidx, self.shape)]
        except (ValueError, TypeError):
            raise KeyError(vidx) from None
        if i < 0:
            raise KeyError(vidx)
        return self.mats[i]

    def __iter__(self):
        """The vertices carrying a component, in C (sorted) order."""
        return map(tuple, np.argwhere(self.ids.reshape(self.shape) >= 0
                                      ).tolist())

    def __len__(self):
        return int(np.count_nonzero(self.ids >= 0))


def _padded(mats, rows: int, cols: int) -> np.ndarray:
    """The matrices zero-padded to rows x cols and stacked, followed by one
    zero matrix, so that index -1 (no component) reads as zero."""
    out = np.zeros((len(mats) + 1, rows, cols), dtype=np.int64)
    for j, m in enumerate(mats):
        out[j, :m.shape[0], :m.shape[1]] = m
    return out


def _unique_rows(sig: np.ndarray):
    """(rows, first, inverse): the distinct rows of an integer matrix with
    entries >= -1, the index of a row holding each, and the distinct-row
    index of every row."""
    if not sig.size:
        # no rows, or no columns and so a single distinct row
        k = min(len(sig), 1)
        return sig[:k], np.zeros(k, dtype=np.int64), np.zeros(len(sig),
                                                              dtype=np.int64)
    # pack each row into one integer when the ranges allow: a 1-d unique is
    # much faster than a row-wise one
    span = sig.max(axis=0) + 2
    if prod(span.tolist()) < 2 ** 62:
        weights = np.cumprod(np.concatenate([[1], span[:0:-1]]))[::-1]
        _, first, inv = np.unique((sig + 1) @ weights, return_index=True,
                                  return_inverse=True)
        return sig[first], first, inv.reshape(-1)
    # else unique over each row's bytes, then the few distinct rows sorted
    # by value, as a row-wise unique would return them
    sig = np.ascontiguousarray(sig)
    _, first, inv = np.unique(
        sig.view(np.dtype((np.void, sig.itemsize * sig.shape[1]))).ravel(),
        return_index=True, return_inverse=True)
    order = np.lexsort(sig[first].T[::-1])
    return sig[first[order]], first[order], np.argsort(order)[inv.reshape(-1)]


def _failing_squares(sig: np.ndarray, p: int, F, A, B) -> np.ndarray:
    """Check F[j] A[a] = B[b] F[i] (mod p) once per distinct row (i, j, a, b)
    of the id array sig, on stacks made by _padded (id -1 reads as zero);
    return the index in sig of the first row holding each failing distinct
    row, in the order of _unique_rows."""
    rows, first, _ = _unique_rows(sig)
    i, j, a, b = rows.T
    bad = (np.matmul(F[j], A[a]) % p != np.matmul(B[b], F[i]) % p
           ).any(axis=(1, 2))
    return first[bad]


class GridModule:
    """dims: array over grid.shape; steps[(vidx, k)]: matrix for the edge
    from vidx to its successor along axis k.

    A step entry must be present for every edge whose endpoints both have
    positive dimension; zero maps are stored explicitly.  Modules are treated
    as immutable once built; step_table(), built once, is the one step store.
    """

    def __init__(self, grid: Grid, dims, steps, p: int = DEFAULT_PRIME):
        self.grid = grid
        self.p = p
        self.dims = np.asarray(dims, dtype=np.int64).reshape(grid.shape)
        self.steps = steps
        self._table = None

    # -- basic accessors ---------------------------------------------------

    def dim(self, vidx) -> int:
        return int(self.dims[tuple(vidx)])

    def succ(self, vidx, k):
        w = list(vidx)
        w[k] += 1
        return tuple(w)

    def has_succ(self, vidx, k) -> bool:
        return vidx[k] + 1 < self.grid.shape[k]

    def step(self, vidx, k) -> np.ndarray:
        """Matrix of the edge vidx -> vidx + e_k."""
        key = (tuple(vidx), k)
        if key in self.steps:
            return self.steps[key]
        return field.zeros(self.dim(self.succ(vidx, k)), self.dim(vidx))

    def dim_at(self, point) -> int:
        """Dimension of the extension at an arbitrary point of R^n."""
        idx = self.grid.floor_index(point)
        return 0 if idx is None else self.dim(idx)

    def total_dim(self) -> int:
        return int(self.dims.sum())

    def max_pointwise_dim(self) -> int:
        """Largest dimension the extension attains at any point of Q^n (it
        takes its values at grid vertices, and 0 off-support)."""
        return int(self.dims.max()) if self.dims.size else 0

    def support_vertices(self):
        return [tuple(v) for v in np.argwhere(self.dims > 0)]

    # -- structure maps ----------------------------------------------------

    def structure_map(self, vidx, widx) -> np.ndarray:
        """The structure map M(vidx) -> M(widx), vidx <= widx: the one-pair
        case of structure_maps."""
        v, w = (int(np.ravel_multi_index(tuple(x), self.grid.shape))
                for x in (vidx, widx))
        m = self.structure_maps([v], [w])[0]
        return m[:self.dim(widx), :self.dim(vidx)].copy()

    def step_table(self) -> Components:
        """The stored steps as a Components table over (n,) + grid.shape,
        entry (k, v) holding step(v, k) where stored, each distinct matrix
        once.  Built on first use, after checking that every key is a
        vertex with a successor and every matrix has the shape the dims
        demand (ValueError)."""
        if self._table is not None:
            return self._table
        n, shape = self.grid.n, self.grid.shape
        keys, mats = list(self.steps), list(self.steps.values())
        at = np.zeros(0, dtype=np.int64)
        if keys:
            try:
                vs = np.array([v for v, _ in keys]).reshape(len(keys), -1)
                ks = np.array([k for _, k in keys])
            except (TypeError, ValueError):
                raise ValueError("malformed step keys") from None
            if vs.dtype.kind not in "iu" or ks.dtype.kind not in "iu":
                raise ValueError("step keys must be integers")
            if vs.shape[1] != n or ((ks < 0) | (ks >= n)).any():
                raise ValueError("step key is not (vertex, axis) of the grid")
            flat = np.ravel_multi_index(vs.T, shape)  # ValueError off the grid
            last = vs[np.arange(len(ks)), ks] + 1 >= np.array(shape)[ks]
            if last.any():
                i = int(np.flatnonzero(last)[0])
                raise ValueError(f"step at {keys[i][0]} axis {keys[i][1]}: "
                                 "no successor")
            dims = self.dims.ravel()
            want = np.stack([dims[flat + _strides(shape)[ks]], dims[flat]], 1)
            shp = np.array([m.shape for m in mats], dtype=np.int64)
            bad = (shp.reshape(-1, 2) != want).any(axis=1)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ValueError(f"step at {keys[i][0]} axis {keys[i][1]}: "
                                 f"shape {mats[i].shape}, want "
                                 f"{tuple(want[i].tolist())}")
            at = ks * dims.size + flat
        self._table = Components.shared((n,) + shape, at, mats)
        return self._table

    def structure_maps(self, src, dst) -> np.ndarray:
        """Structure maps between arrays of flat vertex indices src <= dst.

        Returns an int64 array of shape (len(src), D, D) whose entry i holds
        the map M(src[i]) -> M(dst[i]) in its top-left dims[dst[i]] x
        dims[src[i]] block and zeros elsewhere.  The maps compose along
        axis 0, then axis 1, and so on, with one batched product per step
        of the longest path, reduced mod p after every step (the inner
        dimension is D, which validate bounds; see the field module), each
        step gathered by id from the step table padded to D x D.
        """
        t = self.step_table()
        D = self.max_pointwise_dim()
        S = _padded(t.mats, D, D)
        ids = t.ids.reshape(self.grid.n, -1)
        shape = self.grid.shape
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        gaps = (np.stack(np.unravel_index(dst, shape))
                - np.stack(np.unravel_index(src, shape)))
        if (gaps < 0).any():
            raise ValueError("structure maps need src <= dst")
        live = np.arange(D) < self.dims.ravel()[src][:, None]
        R = np.eye(D, dtype=np.int64) * live[:, None, :]
        at = src.copy()
        order = np.arange(len(src))
        for k, stride in enumerate(_strides(shape).tolist()):
            if not gaps[k].any():
                continue
            # longest walks first, so the walks still going are a prefix
            o = np.argsort(-gaps[k], kind="stable")
            R, at, order, gap = R[o], at[o], order[o], gaps[k][o]
            gaps = gaps[:, o]
            for t in range(int(gap[0])):
                m = int(np.count_nonzero(gap > t))
                R[:m] = np.matmul(S[ids[k, at[:m]]], R[:m]) % self.p
                at[:m] += stride
        out = np.empty_like(R)
        out[order] = R
        return out

    def structure_map_points(self, x, y) -> np.ndarray:
        """Structure map of the extension between arbitrary points x <= y."""
        if not pt_leq(x, y):
            raise ValueError(f"{x} !<= {y}")
        vi = self.grid.floor_index(x)
        wi = self.grid.floor_index(y)
        if vi is None:
            return field.zeros(0 if wi is None else self.dim(wi), 0)
        return self.structure_map(vi, wi)

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check the prime, shapes, entry ranges, presence of steps, and
        commutativity on the step table: entries once per distinct step
        matrix, squares once per distinct quadruple of step ids (a missing
        step reads as zero).  The prime must keep products of D x D
        matrices exact in int64 ((p-1)**2 * max(D, 1) < 2**63, D =
        max_pointwise_dim()).  Raises ValueError at the first vertex in C
        order of the first failing check: per axis k, entry ranges,
        presence, then the squares (k, l) for l > k.
        """
        p = self.p
        if not field.is_probable_prime(p):
            raise ValueError(f"p={p} is not prime")
        D = self.max_pointwise_dim()
        if (p - 1) ** 2 * max(D, 1) >= 2 ** 63:
            raise ValueError(f"p={p} is too large for exact int64 products "
                             f"at pointwise dimension {D}")
        if (self.dims < 0).any():
            raise ValueError("negative dimension")
        shape, n = self.grid.shape, self.grid.n
        t = self.step_table()
        ids = t.ids.reshape(n, -1)
        S = _padded(t.mats, D, D)
        # per step id (and -1 last): does the matrix leave [0, p)?
        wild = np.array([bool(((m < 0) | (m >= p)).any()) for m in t.mats]
                        + [False])
        pos = self.dims.ravel() > 0
        idx = np.arange(self.dims.size).reshape(shape)
        # flat vertices with a successor along axis k, kept grid-shaped
        lo = [np.take(idx, range(shape[k] - 1), axis=k) for k in range(n)]
        stride = _strides(shape)
        for k in range(n):
            v = lo[k].ravel()
            bad = wild[ids[k, v]]
            if bad.any():
                raise ValueError(f"step at {_vertex(v[bad][0], shape)} axis "
                                 f"{k}: entries out of [0,p)")
            bad = pos[v] & pos[v + stride[k]] & (ids[k, v] < 0)
            if bad.any():
                raise ValueError(f"missing step at "
                                 f"{_vertex(v[bad][0], shape)} axis {k}")
            for l in range(k + 1, n):
                u = np.take(lo[k], range(shape[l] - 1), axis=l).ravel()
                # the square at u: the axis-l steps natural along axis k
                bad = _failing_squares(np.stack(
                    [ids[l, u], ids[l, u + stride[k]], ids[k, u],
                     ids[k, u + stride[l]]], axis=1), p, S, S, S)
                if len(bad):
                    raise ValueError(f"square at {_vertex(u[min(bad)], shape)}"
                                     f" axes ({k},{l}) does not commute")
        return True

    def is_valid(self) -> bool:
        try:
            self.validate()
            return True
        except ValueError:
            return False

    def __repr__(self):
        return (f"GridModule(n={self.grid.n}, shape={self.grid.shape}, "
                f"total_dim={self.total_dim()}, p={self.p})")


class ModuleMorphism:
    """A natural transformation between two modules on the same grid.

    mats is any vertex -> matrix mapping (the builders return a Components
    table): mats[vidx] is the component at vidx, of shape (target.dim,
    source.dim); missing entries stand for the zero (or empty) matrix.
    """

    def __init__(self, source: GridModule, target: GridModule, mats):
        if source.grid != target.grid:
            raise ValueError("morphism endpoints live on different grids")
        if source.p != target.p:
            raise ValueError("mixed primes")
        self.source = source
        self.target = target
        self.p = source.p
        self.mats = mats

    def at(self, vidx) -> np.ndarray:
        vidx = tuple(vidx)
        m = self.mats.get(vidx)
        if m is None:
            return field.zeros(self.target.dim(vidx), self.source.dim(vidx))
        return m

    def validate(self):
        """Check the shape of every component and naturality along every
        edge on the step tables, once per distinct (component at v, at
        v + e_k, M-step, N-step); raises ValueError at the first vertex in
        C order of the first failing axis."""
        M, N, p = self.source, self.target, self.p
        shape = M.grid.shape
        t = Components.of(self.mats, shape)
        rows, cols = N.dims.ravel(), M.dims.ravel()
        bad = t.misfits(rows, cols)
        if len(bad):
            v = bad[0]
            raise ValueError(f"component at {_vertex(v, shape)}: shape "
                             f"{t.mats[t.ids[v]].shape}, want "
                             f"{(int(rows[v]), int(cols[v]))}")
        # components and steps zero-padded to the largest dimensions
        DM, DN = M.max_pointwise_dim(), N.max_pointwise_dim()
        tm, tn = M.step_table(), N.step_table()
        C = _padded(t.mats, DN, DM)
        SM, SN = _padded(tm.mats, DM, DM), _padded(tn.mats, DN, DN)
        idx = np.arange(t.ids.size).reshape(shape)
        for k, stride in enumerate(_strides(shape).tolist()):
            v = np.take(idx, range(shape[k] - 1), axis=k).ravel()
            bad = _failing_squares(np.stack(
                [t.ids[v], t.ids[v + stride], tm.ids[k * idx.size + v],
                 tn.ids[k * idx.size + v]], axis=1), p, C, SM, SN)
            if len(bad):
                raise ValueError(f"naturality fails at "
                                 f"{_vertex(v[bad.min()], shape)} axis {k}")
        return True

    def is_valid(self) -> bool:
        try:
            self.validate()
            return True
        except ValueError:
            return False

    def compose(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """self o other; each distinct pair of components is multiplied
        once, and zero products are left out."""
        if other.target is not self.source and other.target.dims.shape != self.source.dims.shape:
            raise ValueError("composition mismatch")
        shape = self.source.grid.shape
        a, b = (Components.of(x.mats, shape) for x in (self, other))
        live = (a.ids >= 0) & (b.ids >= 0)
        pairs, at = np.unique(a.ids[live] * len(b.mats) + b.ids[live],
                              return_inverse=True)
        prods = [field.mmul(a.mats[u // len(b.mats)], b.mats[u % len(b.mats)],
                            self.p) for u in pairs.tolist()]
        ids = np.full(live.size, -1, dtype=np.int64)
        ids[live] = at.reshape(-1)
        return ModuleMorphism(other.source, self.target,
                              Components(shape, ids, prods, drop_zero=True))

    def is_isomorphism(self) -> bool:
        """Is the component at every vertex of the support invertible?  Each
        distinct component is tested once, all in one batch."""
        if not np.array_equal(self.source.dims, self.target.dims):
            return False
        t = Components.of(self.mats, self.source.grid.shape)
        ids = t.ids[self.source.dims.ravel() > 0]
        return bool((ids >= 0).all()) and bool(field.invertible(
            [t.mats[i] for i in np.unique(ids).tolist()], self.p).all())

    def inverse(self) -> "ModuleMorphism":
        """The componentwise inverse on the target's support (ValueError
        where a component there is missing or singular); each distinct
        component is inverted once, all in one batch."""
        t = Components.of(self.mats, self.source.grid.shape)
        live = self.target.dims.ravel() > 0
        gaps = np.flatnonzero(live & (t.ids < 0))
        if len(gaps):
            raise ValueError(f"no component at {_vertex(gaps[0], t.shape)}")
        used = np.unique(t.ids[live])
        return ModuleMorphism(self.target, self.source, Components(
            t.shape, np.where(live, np.searchsorted(used, t.ids), -1),
            field.inverses([t.mats[i] for i in used.tolist()], self.p)))

    @staticmethod
    def identity(M: GridModule) -> "ModuleMorphism":
        """The identity of M, one identity matrix per positive dimension."""
        sizes, at = np.unique(M.dims, return_inverse=True)
        return ModuleMorphism(M, M, Components(M.grid.shape, at, [
            field.eye(s) for s in sizes.tolist()], drop_zero=True))

    @staticmethod
    def linear_combination(basis, coeffs, p):
        """sum_i coeffs[i] * basis[i] for morphisms with common endpoints."""
        if not basis:
            raise ValueError("empty basis")
        src, tgt = basis[0].source, basis[0].target
        mats = {}
        for f, c in zip(basis, coeffs):
            c = int(c) % p
            if c == 0:
                continue
            for vidx, m in f.mats.items():
                acc = mats.get(vidx)
                cm = (m * c) % p
                mats[vidx] = cm if acc is None else (acc + cm) % p
        return ModuleMorphism(src, tgt, mats)


# -- constructions ----------------------------------------------------------

def zero_module(n: int, p: int = DEFAULT_PRIME) -> GridModule:
    grid = Grid([[Fraction(0)]] * n)
    return GridModule(grid, np.zeros((1,) * n, dtype=np.int64), {}, p)


def interval_module(a, b, p: int = DEFAULT_PRIME) -> GridModule:
    """The module k on the half-open hyper-rectangle [a, b)."""
    a = tuple(as_frac(x) for x in a)
    b = tuple(as_frac(x) for x in b)
    if not all(x < y for x, y in zip(a, b)):
        raise ValueError("need a < b coordinatewise")
    grid = Grid([[x, y] for x, y in zip(a, b)])
    # only the all-a corner lies inside [a, b): any vertex with some
    # coordinate at b is already outside the box
    dims = np.zeros(grid.shape, dtype=np.int64)
    dims[(0,) * grid.n] = 1
    return GridModule(grid, dims, {}, p)


def sum_module(*modules) -> GridModule:
    """The direct sum of modules on one common grid, without witnesses.

    Blocks are stacked in argument order at every vertex.  A step that only
    one summand carries (all others vanish at both ends) is shared with that
    summand rather than copied; modules are immutable once built.
    """
    if not modules:
        raise ValueError("empty direct sum")
    grid = modules[0].grid
    p = modules[0].p
    for M in modules:
        if M.grid != grid or M.p != p:
            raise ValueError("direct_sum requires a common grid and prime; "
                             "refine with common_refinement first")
    stacked = np.stack([M.dims for M in modules])
    dims = stacked.sum(axis=0)
    offs = np.cumsum(stacked, axis=0) - stacked
    steps = {}
    for off, M in zip(offs, modules):
        for (v, k), m in M.steps.items():
            if not m.size:
                continue
            v = tuple(v)
            w = v[:k] + (v[k] + 1,) + v[k + 1:]
            key = (v, k)
            blk = steps.get(key)
            if blk is None:
                if m.shape == (dims[w], dims[v]):
                    steps[key] = m
                    continue
                blk = steps[key] = field.zeros(int(dims[w]), int(dims[v]))
            r, c = int(off[w]), int(off[v])
            blk[r:r + m.shape[0], c:c + m.shape[1]] = m
    # explicit zero steps on the other edges between nonzero vertices
    pos = dims > 0
    for k in range(grid.n):
        both = (np.take(pos, range(grid.shape[k] - 1), axis=k)
                & np.take(pos, range(1, grid.shape[k]), axis=k))
        for v in map(tuple, np.argwhere(both).tolist()):
            if (v, k) not in steps:
                w = v[:k] + (v[k] + 1,) + v[k + 1:]
                steps[(v, k)] = field.zeros(int(dims[w]), int(dims[v]))
    return GridModule(grid, dims, steps, p)


def direct_sum(*modules):
    """Direct sum of modules on one common grid.

    Returns (S, inclusions, projections) with witness morphisms.
    """
    S = sum_module(*modules)
    dims = np.stack([M.dims.ravel() for M in modules])
    inclusions, projections = [], []
    for M, d, off in zip(modules, dims, np.cumsum(dims, axis=0) - dims):
        # one inclusion per distinct (dimension, offset, total dimension)
        blocks, at = np.unique(np.stack([d, off, S.dims.ravel()], axis=1),
                               axis=0, return_inverse=True)
        inc = [field.eye(t)[:, o:o + k] for k, o, t in blocks.tolist()]
        ids = np.where(d > 0, at.reshape(-1), -1)
        inclusions.append(ModuleMorphism(M, S, Components(S.grid.shape, ids,
                                                          inc)))
        projections.append(ModuleMorphism(S, M, Components(
            S.grid.shape, ids, [m.T.copy() for m in inc])))
    return S, inclusions, projections


def random_basis_change(M: GridModule, seed: int) -> GridModule:
    """Conjugate M by random invertible matrices at every vertex."""
    rng = np.random.RandomState(seed)
    g = {}
    for vidx in M.grid.vertices():
        vidx = tuple(vidx)
        d = M.dim(vidx)
        if d == 0:
            continue
        while True:
            a = rng.randint(0, M.p, size=(d, d)).astype(np.int64)
            if field.is_invertible(a, M.p):
                g[vidx] = a
                break
    steps = {}
    for (vidx, k), m in M.steps.items():
        w = M.succ(vidx, k)
        a = g.get(tuple(w))
        b = g.get(tuple(vidx))
        if a is None or b is None:
            continue
        steps[(vidx, k)] = field.mmul(field.mmul(a, m, M.p), field.minv(b, M.p), M.p)
    return GridModule(M.grid, M.dims.copy(), steps, M.p)


# -- hom spaces --------------------------------------------------------------

def _kron_eye(d: int, a: np.ndarray, left: bool) -> np.ndarray:
    """kron(eye(d), a) if left else kron(a, eye(d)), without np.kron's
    overhead (these run once per edge of a hom-space sweep)."""
    e = np.eye(d, dtype=np.int64)
    if left:
        out = e[:, None, :, None] * a[None, :, None, :]
        return out.reshape(d * a.shape[0], d * a.shape[1])
    out = a[:, None, :, None] * e[None, :, None, :]
    return out.reshape(a.shape[0] * d, a.shape[1] * d)


def hom_space(M: GridModule, N: GridModule):
    """A basis of the space of natural transformations M -> N.

    Requires M and N on the same grid (use common_refinement otherwise).
    Sweeps the grid in lexicographic order keeping a parametric description
    of all partial solutions, so the cost stays local even on large grids.
    """
    if M.grid != N.grid:
        raise ValueError("hom_space requires a common grid")
    if M.p != N.p:
        raise ValueError("mixed primes")
    p = M.p
    shape = M.grid.shape
    n = M.grid.n

    D = 0                 # current number of free parameters
    B = {}                # vidx -> matrix (dN*dM x D) in current parameters
    keep = {}             # vidx -> matrix kept for final reconstruction
    events = []           # (transform old_params x new_params) applied so far
    epoch_of = {}         # vidx -> epoch index at which keep[vidx] was stored

    def apply_event(T):
        nonlocal D
        for u in B:
            B[u] = field.mmul(B[u], T, p) if B[u].size else field.zeros(B[u].shape[0], T.shape[1])
        events.append(T)
        D = T.shape[1]

    Md, Nd = M.dims, N.dims
    for vidx in np.ndindex(shape):
        dm, dn = int(Md[vidx]), int(Nd[vidx])
        m = dm * dn
        # assemble equations  E x = C t  from all incoming edges
        E_rows, C_rows, ident = [], [], []
        for k in range(n):
            if vidx[k] == 0:
                continue
            u = list(vidx)
            u[k] -= 1
            u = tuple(u)
            du_m, du_n = int(Md[u]), int(Nd[u])
            rows = dn * du_m
            if rows == 0:
                continue
            stepM = M.step(u, k)      # dm x du_m
            stepN = N.step(u, k)      # dn x du_n
            E = _kron_eye(dn, stepM.T, left=True) if m else field.zeros(rows, 0)
            Bu = B.get(u)
            if Bu is None or du_n == 0:
                C = field.zeros(rows, D)
            else:
                C = field.mmul(_kron_eye(du_m, stepN, left=False), Bu, p)
            E_rows.append(E)
            C_rows.append(C)
            ident.append(m > 0 and du_m == dm and
                         np.array_equal(stepM, field.eye(dm)))
        if any(ident):
            # an identity step of M fixes x = C_j t outright; the other
            # edges only constrain the parameters
            j0 = ident.index(True)
            x = C_rows[j0]
            cons = [r for i, (E, C) in enumerate(zip(E_rows, C_rows))
                    if i != j0
                    for r in (field.mmul(E, x, p) - C) % p if r.any()]
            if cons:
                K = field.nullspace(np.stack(cons), p)
                apply_event(K)
                X = field.mmul(x, K, p)
            else:
                X = x
        elif m == 1 and E_rows and all(E.shape == (1, 1) for E in E_rows):
            # one-dimensional vertex fed by one-dimensional vertices:
            # x s_j = c_j t for every incoming edge j, solved without rref
            s = [int(E[0, 0]) for E in E_rows]
            c = [C[0] for C in C_rows]
            j0 = next((j for j, sj in enumerate(s) if sj), None)
            if j0 is None:
                x = None
                cons = [cj for cj in c if cj.any()]
            else:
                x = c[j0] * field.minv_scalar(s[j0], p) % p
                cons = [r for r in ((sj * x - cj) % p for sj, cj
                                    in zip(s, c)) if r.any()]
            K = field.nullspace(np.stack(cons), p) if cons else None
            if x is None:
                Kc = D if K is None else K.shape[1]
                T = field.zeros(D, Kc + 1)
                T[:, :Kc] = field.eye(D) if K is None else K
                apply_event(T)
                X = field.zeros(1, D)
                X[0, D - 1] = 1
            elif K is None:
                X = x.reshape(1, D)
            else:
                apply_event(K)
                X = field.mmul(x.reshape(1, -1), K, p)
        elif E_rows:
            E = np.concatenate(E_rows, axis=0)
            C = np.concatenate(C_rows, axis=0)
            aug = np.concatenate([E, C], axis=1)
            R, piv = rref(aug, p)
            x_piv = [c for c in piv if c < m]
            # consistency constraints: reduced rows whose x-part vanished
            cons = R[len(x_piv):, m:]
            if cons.size and cons.any():
                K = field.nullspace(cons, p)
            else:
                K = field.eye(D)
            free_cols = [j for j in range(m) if j not in x_piv]
            nf = len(free_cols)
            Dnew = K.shape[1] + nf
            if K.shape != (D, D) or not np.array_equal(K, field.eye(D)) or nf:
                T = field.zeros(D, Dnew)
                T[:, :K.shape[1]] = K
                apply_event(T)
                newD = Dnew
            else:
                newD = D
            # express x in the new parameters (restricted t', then fresh s)
            X = field.zeros(m, newD)
            for j, col in enumerate(free_cols):
                X[col, K.shape[1] + j] = 1
            for i, pc in enumerate(x_piv):
                # x_pc = R[i, m:] t  -  sum_free R[i, j] x_j,  with t = K t'
                X[pc, :K.shape[1]] = field.mmul(R[i:i + 1, m:], K, p)[0]
                for j, col in enumerate(free_cols):
                    X[pc, K.shape[1] + j] = (-R[i, col]) % p
        else:
            # no incoming constraints: every entry is a fresh parameter
            if m:
                T = field.zeros(D, D + m)
                T[:, :D] = field.eye(D)
                apply_event(T)
                X = field.zeros(m, D)
                X[:, D - m:] = field.eye(m)
            else:
                X = field.zeros(0, D)
        B[vidx] = X
        keep[vidx] = X
        epoch_of[vidx] = len(events)
        # B[u] is last read by u's last successor in sweep order, which is
        # u + e_a for the first axis a with room at u
        for k in range(n):
            if vidx[k] and all(vidx[a] + 1 >= shape[a] for a in range(k)):
                del B[vidx[:k] + (vidx[k] - 1,) + vidx[k + 1:]]
        if all(vidx[a] + 1 >= shape[a] for a in range(n)):
            del B[vidx]

    # pull every kept matrix into the final parameter space
    suffix = [None] * (len(events) + 1)
    suffix[len(events)] = field.eye(D)
    for e in range(len(events) - 1, -1, -1):
        suffix[e] = field.mmul(events[e], suffix[e + 1], p)

    if D == 0:
        return []
    # components of every basis element, one product per parameter epoch
    mats = [{} for _ in range(D)]
    by_epoch = {}
    for vidx, X in keep.items():
        if X.size:
            by_epoch.setdefault(epoch_of[vidx], []).append(vidx)
    for e, verts in by_epoch.items():
        Xf = field.mmul(np.concatenate([keep[v] for v in verts]), suffix[e], p)
        r = 0
        for vidx in verts:
            dm, dn = int(Md[vidx]), int(Nd[vidx])
            comps = Xf[r:r + dm * dn].T.reshape(D, dn, dm)
            r += dm * dn
            for j in np.flatnonzero(comps.reshape(D, -1).any(axis=1)).tolist():
                mats[j][vidx] = comps[j].copy()
    return [ModuleMorphism(M, N, m) for m in mats]

