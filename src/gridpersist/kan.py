"""Moving modules between grids without changing their meaning on R^n.

The central operation is restriction_extension: evaluate the R^n extension of
a module on a new grid.  When the new grid refines the old one this is an
equality of extensions; in general it snaps the module to the new grid.
"""

from __future__ import annotations

from math import lcm, prod

import numpy as np

from . import field
from .core import (Components, Grid, GridModule, ModuleMorphism, _affine,
                   _exact, _over_den, _strides, _unique_rows, as_frac)


# -- evaluation-grid signatures ------------------------------------------------
#
# Certificate routines evaluate natural maps at every vertex of an evaluation
# grid.  A natural map is constant on cells of the common refinement, so each
# vertex is described by its floors in the grids involved, all read through
# one routine (_floors: flat floor indices, optionally after a shift or by
# way of a third grid, on each grid's kept integer axes, Grid.ints, the
# axes combined by _flat's one broadcast sum), and by the components it
# carries (their ids in a core.Components table, read from any vertex ->
# matrix mapping by Components.of); vertices with equal descriptions share
# one evaluation, and the builders hand their id tables over as
# Components.  Where f and g have one map grid (a local change of a module
# on its own grid) it is evaluated once, for both.  The two ends of a
# grid edge (Grid.edge_ends) mostly have floors equal or one step apart, so
# verify (one naturality batch per map) and restriction_extension read its
# map off GridModule.step_table, the one step store (_edge_ids); structure
# maps are walked (_unique_maps), between nonzero ends only, for verify's
# triangles and for coarsenings (snap_to_lattice, prune, compress).

def _on(grid: Grid, L: int, shift=0):
    """Per-axis integer arrays: grid's coordinates plus shift, times L (a
    multiple of grid.den and of shift's denominator), off grid.ints(L)."""
    s = shift.numerator * (L // shift.denominator)
    return [_affine(a, 1, s) for a in grid.ints(L)]


def _axis_floors(mod_grid: Grid, grid: Grid, shift=0):
    """Per-axis arrays: floor index in mod_grid of every coordinate of grid,
    shifted by `shift`, or -1 when no coordinate of mod_grid lies below."""
    shift = as_frac(shift)
    L = lcm(mod_grid.den, grid.den, shift.denominator)
    return [np.searchsorted(a, b, side="right") - 1
            for a, b in zip(_on(mod_grid, L), _on(grid, L, shift))]


def _floors(mod_grid: Grid, grid: Grid, shift=0, via: Grid = None):
    """Flat array over grid's vertices in C order: the flat index in
    mod_grid of the floor of each vertex plus shift, -1 where there is
    none.  With via, the floor is taken in via first, and the entry is the
    floor in mod_grid of that floor."""
    tabs = _axis_floors(mod_grid if via is None else via, grid, shift)
    if via is not None:
        tabs = [np.where(t >= 0, f[np.maximum(t, 0)], -1)
                for f, t in zip(_axis_floors(mod_grid, via), tabs)]
    return _flat(tabs, mod_grid.shape)


def _flat(tabs, shape) -> np.ndarray:
    """Combine per-axis index arrays (-1 for none) into flat indices over a
    grid of the given shape, -1 where any axis has none: a flat array over
    the product of the tables' lengths, in C order.  One broadcast sum, in
    which a missing index adds -prod(shape) (less than any sum of the other
    axes can make up), clamped to -1."""
    size, n = prod(shape), len(tabs)
    out, stride = 0, 1
    for k in reversed(range(n)):
        t = tabs[k]
        out = out + np.where(t >= 0, t * stride, -size).reshape(
            (-1,) + (1,) * (n - 1 - k))
        stride *= shape[k]
    return np.maximum(out, -1).ravel()


def _pair_maps(mod: GridModule, src: np.ndarray, dst: np.ndarray):
    """(maps, rows, cols, inv) for the distinct pairs of flat floors
    src <= dst: their structure maps, zero-padded as
    GridModule.structure_maps returns them, the row and column count of
    each, and the distinct-pair index of every pair.  Only the pairs whose
    ends both have positive dimension are walked; any other has the empty
    map, dims[dst] x dims[src] (src -1, no floor, and dst -1 read as 0)."""
    pairs, _, inv = _unique_rows(np.stack([src, dst], axis=1))
    dims = np.append(mod.dims.ravel(), 0)
    rows, cols = dims[pairs[:, 1]], dims[pairs[:, 0]]
    live = (rows > 0) & (cols > 0)
    D = mod.max_pointwise_dim()
    maps = np.zeros((len(pairs), D, D), dtype=np.int64)
    if live.any():
        maps[live] = mod.structure_maps(pairs[live, 0], pairs[live, 1])
    return maps, rows, cols, inv


def _unique_maps(mod: GridModule, src: np.ndarray, dst: np.ndarray):
    """(ids, mats): the distinct structure maps of mod between the flat
    floors src <= dst (see _pair_maps), each once by content, and the index
    into mats of the map of every pair."""
    maps, rows, cols, inv = _pair_maps(mod, src, dst)
    # padding is zero, so rows, cols and entries decide a map
    _, first, same = _unique_rows(np.concatenate(
        [rows[:, None], cols[:, None], maps.reshape(len(maps), maps.shape[1] ** 2)], axis=1))
    mats = [maps[j, :r, :c].copy()
            for j, r, c in zip(first.tolist(), rows[first].tolist(),
                               cols[first].tolist())]
    return same[inv], mats


def _edge_ids(mod: GridModule, a: np.ndarray, b: np.ndarray, k):
    """Ids of mod's maps between the flat floors a <= b of the ends of edges
    along axis k (an int or one per edge): -1 where a is -1 or no step is
    stored, len(step_table().mats) for the identity (a == b), the step at a
    where b is its successor along k, else -2 (the map needs a walk)."""
    t = mod.step_table()
    step = (a >= 0) & (b == a + _strides(mod.grid.shape)[k])
    sid = t.ids[k * mod.dims.size + np.maximum(a, 0)]
    return np.where(a < 0, -1, np.where(a == b, len(t.mats),
                                        np.where(step, sid, -2)))


def restriction_extension(M: GridModule, grid: Grid) -> GridModule:
    """Evaluate the extension of M at the vertices of `grid`.

    The value at a vertex q is M at the largest M-grid vertex <= q (zero when
    none exists); steps are the corresponding structure maps of M, walked
    only where the floors are two or more steps apart (_edge_ids).  On M's
    own grid that is M itself, unless M stores a step on an edge touching
    a zero-dimensional vertex (a loader accepts one; the rebuild drops it).
    """
    if grid.n != M.grid.n:
        raise ValueError("dimension mismatch")
    d = np.append(M.dims.ravel(), 0)
    # every edge between nonzero vertices, all axes in one batch
    v, w = grid.edge_ends()
    if grid == M.grid and not (
            M.step_table().ids[(d[v] == 0) | (d[w] == 0)] >= 0).any():
        return M
    src = _floors(M.grid, grid)
    lo, hi = src[v], np.append(src, -1)[w]
    at = np.flatnonzero((d[lo] > 0) & (d[hi] > 0))
    lo, hi = lo[at], hi[at]
    e = _edge_ids(M, lo, hi, at // len(src))
    # ids past M's steps: one identity per dimension met, then the walks
    mats = list(M.step_table().mats)
    eye = e == len(mats)
    dims = np.flatnonzero(np.bincount(d[lo[eye]]))
    e[eye] = len(mats) + np.searchsorted(dims, d[lo[eye]])
    mats += [field.eye(x) for x in dims.tolist()]
    walk = e < 0
    wid, walks = _unique_maps(M, lo[walk], hi[walk])
    e[walk] = len(mats) + wid
    mats += walks
    ids = np.full(len(v), -1, dtype=np.int64)
    ids[at] = e
    return GridModule(grid, d[src], Components((grid.n,) + grid.shape, ids,
                                               mats), M.p)


def restrict(M: GridModule, grid: Grid) -> GridModule:
    """Restriction to a subgrid (every axis a subset of M's axis)."""
    L = lcm(grid.den, M.grid.den)
    if grid.n != M.grid.n or not all(np.isin(a, b).all() for a, b in
                                     zip(_on(grid, L), _on(M.grid, L))):
        raise ValueError("restrict requires a subgrid; "
                         "use restriction_extension to snap")
    return restriction_extension(M, grid)


def morphism_restriction_extension(f: ModuleMorphism, grid: Grid) -> ModuleMorphism:
    """The induced morphism between the restriction-extensions on `grid`."""
    Mg = restriction_extension(f.source, grid)
    Ng = restriction_extension(f.target, grid)
    t = Components.of(f.mats, f.source.grid.shape, drop_zero=True)
    at = np.append(t.ids, -1)[_floors(f.source.grid, grid)]
    return ModuleMorphism(Mg, Ng, Components(grid.shape, at, t.mats))


def union_grid(*grids_or_axes, shifts=(0,)) -> Grid:
    """The grid whose axis k holds c - s for every coordinate c on axis k of
    one of the arguments (grids or per-axis coordinate collections) and
    every s in shifts."""
    def ints(g):
        if isinstance(g, Grid):
            return g.den, g.nums
        # a coordinate collection may be empty on some axes
        den, nums = _over_den([sorted(map(as_frac, ax)) for ax in g])
        return den, _exact(nums)

    parts = [ints(g) for g in grids_or_axes]
    shifts = [as_frac(s) for s in shifts]
    L = lcm(*(d for d, _ in parts), *(s.denominator for s in shifts))
    return Grid.from_ints(L, [
        np.unique(np.concatenate([_affine(ax[k], L // d, -int(s * L))
                                  for d, ax in parts for s in shifts]))
        for k in range(len(parts[0][1]))])


def union_axes(*grids_or_axes):
    """Per-axis union of coordinate sets."""
    return [list(ax) for ax in union_grid(*grids_or_axes).axes]


def common_refinement(M: GridModule, N: GridModule):
    """Both modules re-expressed on the union grid. Returns (M', N', grid)."""
    grid = union_grid(M.grid, N.grid)
    return restriction_extension(M, grid), restriction_extension(N, grid), grid


def shift(M: GridModule, r) -> GridModule:
    """The shifted module M[r], with M[r](x) = M(x + r); its grid is M's
    grid translated by -r."""
    grid = union_grid(M.grid, shifts=(r,))
    return GridModule(grid, M.dims.copy(), M.step_table(), M.p)


def snap_to_lattice(M: GridModule, pitch) -> GridModule:
    """Snap M onto the lattice (pitch Z)^n: x -> M(lattice floor of x),
    pitch-interleaved with M.  It changes only at the lattice ceilings of
    M's coordinates (every c <= floor(x) has its ceiling between the two),
    so it is M's restriction-extension onto the grid of those ceilings."""
    pitch = as_frac(pitch)
    if pitch <= 0:
        raise ValueError("the lattice pitch must be positive")
    a, b = pitch.numerator, pitch.denominator
    q = M.grid.den * a
    # c = m / den has ceiling ceil(m b / q) * a / b
    return restriction_extension(M, Grid.from_ints(b, [
        _affine(np.unique(-(_affine(-m[::-1], b, 0) // q)), a, 0)
        for m in M.grid.nums]))


def prune(M: GridModule) -> GridModule:
    """Drop grid coordinates that repeat the previous slice verbatim.

    A non-initial coordinate on an axis is dropped when every step into its
    slice along that axis is an identity matrix; the initial coordinate is
    dropped when its slice is zero.  Unlike compress, the result has exactly
    the same extension as M (not merely an isomorphic one), so pruned
    modules stay interchangeable inside certificate chains.
    """
    return _drop_coords(M, invertible=False)


def compress(M: GridModule) -> GridModule:
    """Drop grid coordinates that carry no information.

    A non-initial coordinate on an axis is dropped when every step into its
    slice along that axis is an isomorphism; the initial coordinate is
    dropped when its slice is zero.  The result is isomorphic to M (same
    extension up to natural isomorphism), usually on a much smaller grid.
    """
    return _drop_coords(M, invertible=True)


def _drop_coords(M: GridModule, invertible: bool) -> GridModule:
    """Restrict M once to the coordinates _kept_coords keeps on each axis.

    Deciding every axis on M itself drops what dropping axis after axis
    until nothing changes would: by commutativity, a step beside a dropped
    coordinate of another axis equals (or, for invertible steps, is
    conjugate to) the step next to it on the kept side, so dropping never
    changes another coordinate's test.  For the same reason the
    invertibility tests of an axis need only the rows at coordinates the
    axes before it keep.
    """
    keep = []
    for k in range(M.grid.n):
        keep.append(_kept_coords(M, k, invertible, keep))
    if all(len(kp) == s for kp, s in zip(keep, M.grid.shape)):
        return M
    return restriction_extension(M, Grid.from_ints(
        M.grid.den, [a[kp] for a, kp in zip(M.grid.nums, keep)]))


def _kept_coords(M: GridModule, k: int, invertible: bool, kept_before=()):
    """Indices along axis k that carry information: the initial one unless
    its slice is zero, and every other one unless its slice has the
    previous slice's dimensions and each step into it is an identity (or,
    with invertible, an invertible matrix; those are tested only at the
    indices kept_before[a] on each axis a < k)."""
    shape, s = M.grid.shape, M.grid.shape[k]
    dims = np.moveaxis(M.dims, k, 0).reshape(s, -1)
    rows = np.zeros(shape[:k] + shape[k + 1:], dtype=bool)
    rows[np.ix_(*kept_before, *(range(m) for m in shape[k + 1:]))] = True
    rows = rows.ravel()
    t = M.step_table()
    # ids of the steps from slice j - 1 into slice j, for j = 1 .. s - 1
    ids = np.moveaxis(t.ids.reshape((M.grid.n,) + shape)[k], k, 0)[:-1]
    ids = ids.reshape(s - 1, dims.shape[1])
    same = (dims[1:] == dims[:-1]).all(axis=1)
    # each distinct step matrix where it matters is tested once: is it an
    # identity (with invertible: invertible, at the rows kept before)?
    where = same[:, None] & (rows if invertible else True)
    good = np.zeros(len(t.mats) + 1, dtype=bool)
    test = np.unique(ids[where & (ids >= 0)])
    mats = [t.mats[i] for i in test.tolist()]
    good[test] = (field.invertible(mats, M.p) if invertible else
                  [np.array_equal(m, field.eye(len(m))) for m in mats])
    # a missing step passes only between zero spaces
    ok = same & (np.where(ids >= 0, good[ids], dims[:-1] == 0)
                 | ~where).all(axis=1)
    keep = ([0] if dims[0].any() else []) + (np.flatnonzero(~ok) + 1).tolist()
    return keep or [0]


def compression_witness(M: GridModule, C: GridModule) -> ModuleMorphism:
    """The natural isomorphism (C extended onto M's grid) -> M, for C a
    compression of M, with _compression_table as its components."""
    return ModuleMorphism(restriction_extension(C, M.grid), M,
                          _compression_table(M, C))


def _compression_table(M: GridModule, C: GridModule) -> Components:
    """The table over M's grid of M's structure maps from each vertex's
    floor in C's grid (a coarsening of M's) up to the vertex."""
    ids, mats = _unique_maps(M, _floors(M.grid, M.grid, via=C.grid),
                             np.arange(M.dims.size))
    return Components(M.grid.shape, ids, mats, drop_zero=True)
