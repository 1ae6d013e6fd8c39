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

import heapq
from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from . import field
from .field import DEFAULT_PRIME


def as_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**9)
    return Fraction(x)


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


def _read_only(arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


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
        self.nums = _read_only(_exact(nums))
        for a in self.nums:
            if len(a) == 0:
                raise ValueError("empty axis")
            if not (a[1:] > a[:-1]).all():
                raise ValueError("axis coordinates must be strictly increasing")
        self.n = len(self.nums)
        self.shape = tuple(len(a) for a in self.nums)
        self._edges, self._ints = None, {}

    @property
    def axes(self):
        if self._axes is None:
            self._axes = tuple(tuple(Fraction(x, self.den) for x in a.tolist())
                               for a in self.nums)
        return self._axes

    def edge_ends(self):
        """_edge_ends(self.shape), built once and read-only, as the grid is
        immutable: 2 n V int64 values (V vertices)."""
        if self._edges is None:
            self._edges = _read_only(_edge_ends(self.shape))
        return self._edges

    def ints(self, L: int):
        """Per axis, the coordinates times L (a multiple of den; dtype as
        _affine makes it), built once per L and read-only: O(sum of the
        axis lengths) values per L (rank_lower_bound asks for <= 192 L)."""
        if L not in self._ints:
            self._ints[L] = _read_only([_affine(a, L // self.den, 0)
                                        for a in self.nums])
        return self._ints[L]

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

    def index_of(self, point):
        """The index of the vertex at point; ValueError if it is none."""
        idx = []
        for a, x in zip(self.nums, map(as_frac, point)):
            num, rem = divmod(x.numerator * self.den, x.denominator)
            i = bisect_left(a, num)
            if rem or i == len(a) or a[i] != num:
                raise ValueError(f"{point} is not a grid vertex")
            idx.append(i)
        return tuple(idx)


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

        def kind_of(m):
            b = m.tobytes()
            # an integer matrix is zero when its bytes are (a float's -0.0
            # is not, and an object array's bytes are pointers)
            if drop_zero and (b.count(0) == len(b) if m.dtype.kind in "biu"
                              else not (m.size and m.any())):
                return -1
            return canon.setdefault((m.shape, m.dtype.str, b),
                                    (len(canon), m))[0]

        kind = np.array([kind_of(m) for m in mats], dtype=np.int64)
        reps = [m for _, m in canon.values()]
        ids = np.array(ids, dtype=np.int64).ravel()
        ids[ids >= 0] = kind[ids[ids >= 0]]
        live = np.flatnonzero(ids >= 0)
        # number the distinct matrices in order of first appearance: one
        # pass finds each kind's first position, then the used kinds are
        # ordered by it (no sort over the grid)
        k = ids[live]
        first = np.full(len(reps), len(k))
        np.minimum.at(first, k, np.arange(len(k)))
        order = k[np.sort(first[first < len(k)])]
        new = np.empty(len(reps), dtype=np.int64)
        new[order] = np.arange(len(order))
        ids[live] = new[k]
        self.shape, self.ids = tuple(shape), ids
        self.mats = [reps[c] for c in order.tolist()]

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


def _products(a: Components, b: Components, p: int) -> Components:
    """The table of a[v] b[v] (mod p) wherever both tables have one: each
    distinct pair of ids is multiplied once, zero products left out."""
    live = (a.ids >= 0) & (b.ids >= 0)
    pairs, at = np.unique(a.ids[live] * len(b.mats) + b.ids[live],
                          return_inverse=True)
    prods = [field.mmul(a.mats[u // len(b.mats)], b.mats[u % len(b.mats)], p)
             for u in pairs.tolist()]
    ids = np.full(live.size, -1, dtype=np.int64)
    ids[live] = at.reshape(-1)
    return Components(a.shape, ids, prods, drop_zero=True)


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
    return the index of the first row of sig that fails, or None."""
    rows, first, _ = _unique_rows(sig)
    i, j, a, b = rows.T
    bad = (np.matmul(F[j], A[a]) % p != np.matmul(B[b], F[i]) % p
           ).any(axis=(1, 2))
    return int(first[bad].min()) if bad.any() else None


def _wild(mats, p: int) -> np.ndarray:
    """Per matrix, then False for id -1: is it not an integer array with
    entries in [0, p)?  The entries of all integer ones are compared in one
    pass (misfits checks that each is 2-D)."""
    ints = [m.dtype.kind in "iu" for m in mats]
    flat = np.concatenate([np.zeros(0, np.int64)] + [
        m.ravel() if i else np.zeros(m.size, np.int64)
        for m, i in zip(mats, ints)])
    wild = np.array([not i for i in ints] + [False])
    wild[np.repeat(np.arange(len(mats)), [m.size for m in mats])[
        (flat < 0) | (flat >= p)]] = True
    return wild


def _field_table(comp, shape, p: int, rows, cols, what: str,
                 error=ValueError) -> Components:
    """Components.of(comp, shape), or error at the first vertex v in C order
    (of shapes first) whose component is not an array (a list, say) of
    rows[v] x cols[v] integers in [0, p); each distinct matrix once."""
    try:
        t = Components.of(comp, shape)
    except (AttributeError, TypeError):
        raise error(f"{what}: not an array") from None
    bad = t.misfits(rows, cols)
    if len(bad):
        v = bad[0]
        raise error(f"{what} at {_vertex(v, shape)}: shape "
                    f"{t.mats[t.ids[v]].shape}, want "
                    f"{(int(rows[v]), int(cols[v]))}")
    bad = np.flatnonzero(_wild(t.mats, p)[t.ids])
    if len(bad):
        raise error(f"{what} at {_vertex(bad[0], shape)}: entries out of "
                    f"[0,p)")
    return t


def _edge_ends(shape):
    """(v, w): for every entry (k, v) of a step table over (n,) + shape, in
    C order, the flat vertex v and its successor along axis k (-1 where
    there is none)."""
    n, v = len(shape), np.arange(prod(shape))
    w = (v + _strides(shape)[:, None]).reshape((n,) + tuple(shape))
    # the last slice along axis k has no successor
    for k, s in enumerate(shape):
        w[k].swapaxes(0, k)[s - 1:] = -1
    return np.tile(v, n), w.ravel()


def _step_table(steps, shape) -> Components:
    """The step table over (n,) + shape of a {(vidx, k): matrix} mapping;
    ValueError unless every key is a vertex of the grid and an axis."""
    keys, n = list(steps), len(shape)
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
        # ValueError off the grid
        at = ks * prod(shape) + np.ravel_multi_index(vs.T, shape)
    return Components.shared((n,) + tuple(shape), at, list(steps.values()))


class GridModule:
    """dims: array over grid.shape; steps: the step table, a Components
    table over (n,) + grid.shape whose entry (k, vidx) is the matrix of the
    edge from vidx to its successor along axis k, or a {(vidx, k): matrix}
    mapping, converted to that table once, on first use.

    A step entry must be present for every edge whose endpoints both have
    positive dimension; zero maps are stored explicitly.  Modules are treated
    as immutable once built; step_table() is the one step store, and the
    library's builders hand theirs over directly.
    """

    def __init__(self, grid: Grid, dims, steps, p: int = DEFAULT_PRIME):
        self.grid = grid
        self.p = p
        self.dims = np.asarray(dims, dtype=np.int64).reshape(grid.shape)
        self._table = steps   # a mapping until step_table() converts it
        self._pad = None

    # -- basic accessors ---------------------------------------------------

    def dim(self, vidx) -> int:
        return int(self.dims[tuple(vidx)])

    def total_dim(self) -> int:
        return int(self.dims.sum())

    def max_pointwise_dim(self) -> int:
        """Largest dimension the extension attains at any point of Q^n (it
        takes its values at grid vertices, and 0 off-support)."""
        return int(self.dims.max()) if self.dims.size else 0

    # -- structure maps ----------------------------------------------------

    def step_table(self) -> Components:
        """The steps as a Components table over (n,) + grid.shape, entry
        (k, v) holding the step from v along axis k where stored, each
        distinct matrix once: a mapping of steps is converted on first use
        (_step_table)."""
        if not isinstance(self._table, Components):
            self._table = _step_table(self._table, self.grid.shape)
        return self._table

    def _padded_steps(self) -> np.ndarray:
        """The step table's matrices zero-padded to D x D (D =
        max_pointwise_dim()) and stacked, then a zero matrix for id -1:
        built once, like the table."""
        if self._pad is None:
            D = self.max_pointwise_dim()
            self._pad = _padded(self.step_table().mats, D, D)
        return self._pad

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
        S = self._padded_steps()
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
        at = src
        order = np.arange(len(src))
        for k, stride in enumerate(_strides(shape).tolist()):
            if not gaps[k].any():
                continue
            # longest walks first, so the walks still going are a prefix,
            # of length going[t] at step t
            o = np.argsort(-gaps[k], kind="stable")
            R, at, order, gap = R[o], at[o], order[o], gaps[k][o]
            gaps = gaps[:, o]
            going = np.searchsorted(-gap, -np.arange(gap[0]))
            row = ids[k]
            for t, m in enumerate(going.tolist()):
                R[:m] = np.matmul(S[row[at[:m] + t * stride]], R[:m]) % self.p
            at = at + gap * stride
        out = np.empty_like(R)
        out[order] = R
        return out

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check the prime, shapes, entry ranges, presence of steps, and
        commutativity on the step table: entries once per distinct step
        matrix, squares once per distinct quadruple of step ids (a missing
        step reads as zero).  The prime must keep products of D x D
        matrices exact in int64 ((p-1)**2 * max(D, 1) < 2**63, D =
        max_pointwise_dim()).  Raises ValueError at the first vertex in C
        order of the first failing check: the step shapes (a step needs a
        successor), then per axis k, entry ranges, presence, then the
        squares (k, l) for l > k.
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
        v, w = self.grid.edge_ends()
        dims = self.dims.ravel()
        bad = t.misfits(np.append(dims, -1)[w], dims[v])
        if len(bad):
            e = int(bad[0])
            at = f"step at {_vertex(v[e], shape)} axis {e // dims.size}"
            if w[e] < 0:
                raise ValueError(f"{at}: no successor")
            raise ValueError(f"{at}: shape {t.mats[t.ids[e]].shape}, want "
                             f"{(int(dims[w[e]]), int(dims[v[e]]))}")
        ids = t.ids.reshape(n, -1)
        S = self._padded_steps()
        wild = _wild(t.mats, p)
        pos = np.append(dims > 0, False)
        # per axis k, the successor of every vertex (-1 for none)
        succ = w.reshape(n, -1)
        for k in range(n):
            bad = np.flatnonzero(wild[ids[k]])
            if len(bad):
                raise ValueError(f"step at {_vertex(bad[0], shape)} axis "
                                 f"{k}: entries out of [0,p)")
            bad = np.flatnonzero(pos[:-1] & pos[succ[k]] & (ids[k] < 0))
            if len(bad):
                raise ValueError(f"missing step at "
                                 f"{_vertex(bad[0], shape)} axis {k}")
            for l in range(k + 1, n):
                u = np.flatnonzero((succ[k] >= 0) & (succ[l] >= 0))
                # the square at u: the axis-l steps natural along axis k
                bad = _failing_squares(np.stack(
                    [ids[l, u], ids[l, succ[k, u]], ids[k, u],
                     ids[k, succ[l, u]]], axis=1), p, S, S, S)
                if bad is not None:
                    raise ValueError(f"square at {_vertex(u[bad], shape)}"
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
        """Check every component (_field_table) and naturality along every
        edge on the step tables, once per distinct (component at v, at
        v + e_k, M-step, N-step); raises ValueError at the first vertex in
        C order of the first failing check (for naturality, axis)."""
        M, N, p = self.source, self.target, self.p
        shape = M.grid.shape
        t = _field_table(self.mats, shape, p, N.dims.ravel(), M.dims.ravel(),
                         "component")
        # components and steps zero-padded to the largest dimensions
        DM, DN = M.max_pointwise_dim(), N.max_pointwise_dim()
        tm, tn = M.step_table(), N.step_table()
        C = _padded(t.mats, DN, DM)
        SM, SN = M._padded_steps(), N._padded_steps()
        # every edge v -> w, axis by axis
        v, w = M.grid.edge_ends()
        e = np.flatnonzero(w >= 0)
        bad = _failing_squares(np.stack([t.ids[v[e]], t.ids[w[e]], tm.ids[e],
                                         tn.ids[e]], axis=1), p, C, SM, SN)
        if bad is not None:
            raise ValueError(f"naturality fails at {_vertex(v[e[bad]], shape)}"
                             f" axis {e[bad] // t.ids.size}")
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
        return ModuleMorphism(other.source, self.target, _products(
            *(Components.of(x.mats, shape) for x in (self, other)), self.p))

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


def _block_table(shape, parts, drop_zero: bool = False) -> Components:
    """Block-diagonal matrices over a grid of the given shape, one block per
    part (ids, mats, rows, cols): a flat id table (-1 reads as a zero
    block), its matrices, and the block's row and column count at every
    vertex.  One matrix per distinct row of ids and counts, wherever both
    totals are positive; with drop_zero, zero matrices count as absent."""
    sig = np.stack([a for ids, _, rows, cols in parts
                    for a in (ids, rows, cols)], axis=1)
    live = np.flatnonzero((sig[:, 1::3].sum(axis=1) > 0)
                          & (sig[:, 2::3].sum(axis=1) > 0))
    out = np.full(len(sig), -1, dtype=np.int64)
    rows, _, out[live] = _unique_rows(sig[live])
    blocks = []
    for row in rows.tolist():
        m = field.zeros(sum(row[1::3]), sum(row[2::3]))
        r = c = 0
        for (_, mats, _, _), i, dr, dc in zip(parts, row[0::3], row[1::3],
                                              row[2::3]):
            if i >= 0:
                m[r:r + dr, c:c + dc] = mats[i]
            r += dr
            c += dc
        blocks.append(m)
    return Components(shape, out, blocks, drop_zero)


def sum_module(*modules) -> GridModule:
    """The direct sum of modules on one common grid, without witnesses:
    blocks stacked in argument order at every vertex, with a step (zero
    where no summand carries one) on every edge between nonzero vertices."""
    if not modules:
        raise ValueError("empty direct sum")
    grid, p = modules[0].grid, modules[0].p
    for M in modules:
        if M.grid != grid or M.p != p:
            raise ValueError("direct_sum requires a common grid and prime; "
                             "refine with common_refinement first")
    v, w = grid.edge_ends()
    parts = []
    for M in modules:
        t, d = M.step_table(), np.append(M.dims.ravel(), 0)
        parts.append((t.ids, t.mats, d[w], d[v]))
    return GridModule(grid, sum(M.dims for M in modules),
                      _block_table((grid.n,) + grid.shape, parts), p)


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
    for u, d in enumerate(M.dims.ravel().tolist()):
        while d:
            a = rng.randint(0, M.p, size=(d, d)).astype(np.int64)
            if field.is_invertible(a, M.p):
                g[u] = a
                break
    t = M.step_table()
    v, w = (a.tolist() for a in M.grid.edge_ends())
    # the steps between nonzero vertices, each conjugated on its own
    at = [e for e in np.flatnonzero(t.ids >= 0).tolist()
          if v[e] in g and w[e] in g]
    ids = np.full(t.ids.size, -1, dtype=np.int64)
    ids[at] = np.arange(len(at))
    return GridModule(M.grid, M.dims.copy(), Components(t.shape, ids, [
        field.mmul(field.mmul(g[w[e]], t.mats[t.ids[e]], M.p),
                   field.minv(g[v[e]], M.p), M.p) for e in at]), M.p)


# -- hom spaces --------------------------------------------------------------

def _eye_flags(mats) -> list:
    """For each matrix of a step table, then for id -1 (no step, last):
    is it an identity matrix?"""
    return [m.shape[0] == m.shape[1] and np.array_equal(m, field.eye(len(m)))
            for m in mats] + [False]


def _edge_systems(keys, mats, p) -> dict:
    """The systems x A = C t of hom_space's sweep, reduced in one batch.

    A key (b, a, ((du, i), ...)) stands for b x a unknowns x at a vertex
    whose incoming edges carry the steps mats[i] (zero for i = -1) from
    du-dimensional spaces; A is those steps side by side.  Its value is
    (xp, Q, R, Y): Q A^T = [R0; 0] with R0 in reduced row echelon form (Q
    None when a = 0), xp the pivot columns of R0, R the columns of A, and
    Y (b, a, b f) the part of x in fresh parameters, one per row of x and
    free column of R0 (1 there, minus R0's entries in the pivot rows)."""
    keys = list(keys)
    As = [np.concatenate([mats[i] if i >= 0 else field.zeros(a, du)
                          for du, i in es] or [field.zeros(a, 0)], axis=1)
          for _, a, es in keys]
    ra = max((a for _, a, _ in keys), default=0)
    rr = max((A.shape[1] for A in As), default=0)
    # [A^T 0 I]: zero padding keeps the reduced form, and the identity's
    # extra rows only add pivots of their own below it
    S = np.zeros((len(keys), rr, ra + rr), dtype=np.int64)
    S[:, :, ra:] = field.eye(rr)
    for t, A in enumerate(As):
        S[t, :A.shape[1], :A.shape[0]] = A.T
    red, piv = field.rref_stack(S, p)
    out = {}
    for t, (key, A, pv) in enumerate(zip(keys, As, piv[:, :ra].tolist())):
        b, a, R = key[0], key[1], A.shape[1]
        xp = [c for c in range(a) if pv[c]]
        free = [c for c in range(a) if not pv[c]]
        Y = np.zeros((b, a, b * len(free)), dtype=np.int64)
        if free:
            rows = np.arange(b)[:, None]
            cols = np.arange(b * len(free)).reshape(b, len(free))
            Y[rows, free, cols] = 1
            if xp:
                Y[rows[:, :, None], np.array(xp)[:, None], cols[:, None]] = (
                    -red[t][:len(xp), free]) % p
        out[key] = (xp, red[t, :R, ra:ra + R] if a else None, R, Y)
    return out


def hom_space(M: GridModule, N: GridModule):
    """A basis of the space of natural transformations M -> N, as Components
    morphisms: the columns of hom_matrix(M, N).

    Requires M and N on the same grid (use common_refinement otherwise).
    The grid is swept in C order, keeping the unknowns of every vertex
    still to be read in terms of the free parameters found so far; the
    final basis element j sets parameter j to 1.  Only vertices with work
    are visited: dim N(v) > 0 and either an unknown at v (dim M(v) > 0) or
    a constraint from a predecessor u with unknowns (dim M(u) dim N(u) >
    0).  Every other vertex adds neither parameters nor constraints; for
    End(M) the visited vertices are the support.

    At each vertex the parameters are cut down to the nullspace K of the
    consistency conditions of its incoming edges, and the unknowns become a
    particular solution on K plus one fresh parameter per free column of
    the reduced system.  Both are canonical, as the reduced row echelon
    form is unique and K is read off it, and the arithmetic is exact mod p;
    so the basis does not depend on how the conditions are found.  An edge
    that is the identity in M fixes the unknowns outright (one that is the
    identity in N too copies them from u), other edges are contracted with
    their step matrices, and the rest reduces one small system in M's
    steps.
    """
    return _hom_morphisms(M, N, hom_matrix(M, N))


def hom_matrix(M: GridModule, N: GridModule) -> np.ndarray:
    """The hom_space basis as the columns of one matrix: its rows are the
    vertices v with dim M(v) dim N(v) > 0 in C order, each holding its
    dim N(v) x dim M(v) component row by row."""
    if M.grid != N.grid:
        raise ValueError("hom_space requires a common grid")
    if M.p != N.p:
        raise ValueError("mixed primes")
    p, shape, n = M.p, M.grid.shape, M.grid.n
    dm, dn = M.dims.ravel(), N.dims.ravel()
    unk = dm * dn
    size = dm.size
    flat = np.arange(size)
    coord = np.indices(shape).reshape(n, size)
    stride = _strides(shape)
    # the edge u = v - e_k -> v along each axis k, where dim M(u) > 0 (an
    # edge without rows of conditions otherwise), else -1
    pred = np.where(coord > 0, flat - stride[:, None], -1)
    pred[dm[np.maximum(pred, 0)] == 0] = -1
    fed = (pred >= 0) & (unk[np.maximum(pred, 0)] > 0)
    visit = np.flatnonzero((dn > 0) & ((dm > 0) | fed.any(axis=0)))
    tm, tn = M.step_table(), N.step_table()
    e = pred[:, visit]
    axis = np.arange(n)[:, None]
    sid = [np.where(e >= 0, t.ids.reshape(n, size)[axis, np.maximum(e, 0)],
                    -1) for t in (tm, tn)]
    # u's unknowns are last read by u + e_a for the first axis a with room
    room = coord + 1 < np.array(shape)[:, None]
    last = np.where(room.any(axis=0), flat + stride[room.argmax(axis=0)],
                    flat).tolist()
    mM, mN = tm.mats, tn.mats
    eyeM, eyeN = _eye_flags(mM), _eye_flags(mN)
    dml, unkl = dm.tolist(), unk.tolist()

    # the frontier's unknowns, one row each, in the current D parameters;
    # the columns of F from D on are zero, so new parameters cost nothing
    D = rows = live = 0   # parameters, rows of F in use, rows still read
    F = np.zeros((64, 16), dtype=np.int64)
    row_of = {}       # vertex -> first row of its unknowns in F
    held = {}         # first row -> [vertices holding it, rows]
    ends = []         # heap of (last reader, vertex) over row_of
    order = []        # rows of the vertices fixed in this epoch, in C order
    runs, cuts = [], []   # per past epoch its rows, and the K that ended it

    def restrict(K):
        """Cut the parameters down to the span of K's columns: one product
        for the whole frontier, after saving the epoch's rows; rows no
        vertex reads any more are dropped once they outnumber the rest."""
        nonlocal F, rows, D, row_of, held
        runs.append(F[order, :D])
        order.clear()
        cuts.append(K)
        src = F[:rows, :D]
        if rows > 2 * live + 32:
            new, sel = {}, []
            for s in sorted(held):
                new[s] = len(sel)
                sel.extend(range(s, s + held[s][1]))
            row_of = {u: new[s] for u, s in row_of.items()}
            held = {new[s]: h for s, h in held.items()}
            src, rows = F[sel, :D], len(sel)
        F = np.zeros(F.shape, dtype=np.int64)
        D = K.shape[1]
        F[:rows, :D] = field.mmul(src, K, p)

    def grow(k):
        """k fresh parameters."""
        nonlocal F, D
        D += k
        if D > F.shape[1]:
            G = np.zeros((len(F), max(2 * F.shape[1], D)), dtype=np.int64)
            G[:rows, :F.shape[1]] = F[:rows]
            F = G

    def add(v, x, s=None):
        """Fix the unknowns x of v, or those in the rows from s on."""
        nonlocal F, rows, live
        if s is None:
            s, c = rows, len(x)
            if rows + c > len(F):
                G = np.zeros((2 * (rows + c), F.shape[1]), dtype=np.int64)
                G[:rows] = F[:rows]
                F = G
            F[rows:rows + c, :D] = x
            rows += c
            live += c
            held[s] = [0, c]
        held[s][0] += 1
        row_of[v] = s
        order.extend(range(s, s + unkl[v]))
        heapq.heappush(ends, (last[v], v))

    def pull(b, u, du, i):
        """N's step u -> v applied to the unknowns at u: dim N(v) dim M(u)
        rows."""
        s = row_of.get(u)
        if s is None or i < 0:
            return field.zeros(b * du, D)
        X = F[s:s + unkl[u], :D]
        if eyeN[i]:
            return X
        st = mN[i]
        return field.mmul(st, X.reshape(st.shape[1], du * D), p
                          ).reshape(b * du, D)

    def push(x, a, b, du, i):
        """The unknowns x at v times M's step u -> v: dim N(v) dim M(u)
        rows."""
        if i < 0:
            return field.zeros(b * du, D)
        if eyeM[i]:
            return x
        return field.mmul(mM[i].T, x.reshape(b, a, D), p).reshape(b * du, D)

    # per visited vertex its edges (u, dim M(u), M step id, N step id), and
    # the edge that fixes x (an identity of M, also of N where there is
    # one) or else the key of its system
    work = []
    for v, a, b, us, ims, ins in zip(visit.tolist(), dm[visit].tolist(),
                                     dn[visit].tolist(), zip(*e.tolist()),
                                     zip(*sid[0].tolist()),
                                     zip(*sid[1].tolist())):
        edges = [(u, dml[u], i, j) for u, i, j in zip(us, ims, ins) if u >= 0]
        ident = [ed for ed in edges if eyeM[ed[2]]] if a * b else []
        work.append((v, a, b, edges, next(
            (ed for ed in ident if eyeN[ed[3]]), ident[0]) if ident else
            (b, a, tuple(ed[1:3] for ed in edges))))
    systems = _edge_systems({w[4] for w in work if len(w[4]) == 3}, mM, p)

    for v, a, b, edges, e0 in work:
        while ends and ends[0][0] < v:
            s = row_of.pop(heapq.heappop(ends)[1])
            held[s][0] -= 1
            if not held[s][0]:
                live -= held.pop(s)[1]
        m = a * b
        if len(e0) == 4:
            # an identity step of M fixes x outright (a copy of u's rows
            # when it is one of N too); the other edges only constrain the
            # parameters
            x = pull(b, e0[0], e0[1], e0[3])
            s0 = row_of[e0[0]] if eyeN[e0[3]] else None
            cons = []
            for ed in edges:
                if ed is e0 or (s0 is not None and eyeM[ed[2]] and
                                eyeN[ed[3]] and row_of.get(ed[0]) == s0):
                    continue
                d = push(x, a, b, ed[1], ed[2]) - pull(b, ed[0], ed[1], ed[3])
                if d.any():
                    cons.append(d % p)
            if cons:
                K = field.nullspace(np.concatenate(cons), p)
                restrict(K)
                add(v, field.mmul(x, K, p))
            else:
                add(v, x, s0)
        else:
            xp, Q, R, Y = systems[e0]
            k = D
            if R:
                C = np.concatenate([pull(b, u, du, j).reshape(b, du, D)
                                    for u, du, _, j in edges], axis=1)
                if Q is not None:
                    C = field.mmul(Q, C, p)
                part = C[:, :len(xp)]
                cons = C[:, len(xp):].reshape(b * (R - len(xp)), D)
                if cons.any():
                    K = field.nullspace(cons, p)
                    part = field.mmul(part, K, p)
                    restrict(K)
                    k = D
            grow(Y.shape[2])
            if m:
                x = np.zeros((b, a, D), dtype=np.int64)
                if xp:
                    x[:, xp, :k] = part
                x[:, :, k:] = Y
                add(v, x.reshape(m, D))

    if not D:
        return field.zeros(int(unk.sum()), 0)
    runs.append(F[order, :D])
    # each epoch's unknowns in the final parameters, one product per epoch
    lift, out = field.eye(D), []
    for ep in range(len(runs) - 1, -1, -1):
        if len(runs[ep]):
            out.append(field.mmul(runs[ep], lift, p))
        if ep:
            K = cuts[ep - 1]
            T = field.zeros(K.shape[0], len(lift))
            T[:, :K.shape[1]] = K
            lift = field.mmul(T, lift, p)
    return np.concatenate(out[::-1])


def _hom_morphisms(M: GridModule, N: GridModule, V: np.ndarray) -> list:
    """The morphisms M -> N whose components the columns of V hold, in the
    layout of hom_matrix, as Components tables without zero components:
    the distinct components of each shape are found in one batch."""
    shape, D = M.grid.shape, V.shape[1]
    if not D:
        return []
    dm, dn = M.dims.ravel(), N.dims.ravel()
    at = np.flatnonzero(dm * dn)
    start = np.cumsum(dm * dn)[at] - (dm * dn)[at]
    ids = np.full((D, dm.size), -1, dtype=np.int64)
    mats = []
    kinds, kind = np.unique(np.stack([dn[at], dm[at]], axis=1), axis=0,
                            return_inverse=True)
    for g, (r, c) in enumerate(kinds.tolist()):
        sel = np.flatnonzero(kind.reshape(-1) == g)
        comps = V[start[sel][:, None] + np.arange(r * c)]  # vertex, entry, j
        rows, _, inv = _unique_rows(
            comps.transpose(2, 0, 1).reshape(-1, r * c))
        num = np.where(rows.any(axis=1), len(mats) + np.arange(len(rows)), -1)
        ids[:, at[sel]] = num[inv].reshape(D, len(sel))
        mats += [x.reshape(r, c) for x in rows]
    # renumber each element's components in order of first appearance
    flat = ids.ravel()
    live = np.flatnonzero(flat >= 0)
    key = live // dm.size * len(mats) + flat[live]      # (element, matrix)
    pairs, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)                 # by element, then vertex
    owner = pairs[order] // len(mats)
    count = np.bincount(owner, minlength=D)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.repeat(np.cumsum(count) - count,
                                                    count)
    flat[live] = rank[inv.reshape(-1)]
    used = np.split(pairs[order] % len(mats), np.cumsum(count)[:-1])
    out = []
    for j, u in enumerate(used):
        t = Components.__new__(Components)
        t.shape, t.ids, t.mats = shape, ids[j], [mats[i] for i in u.tolist()]
        out.append(ModuleMorphism(M, N, t))
    return out
