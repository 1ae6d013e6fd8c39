"""Moving modules between grids without changing their meaning on R^n.

The central operation is restriction_extension: evaluate the R^n extension of
a module on a new grid.  When the new grid refines the old one this is an
equality of extensions; in general it snaps the module to the new grid.
"""

from __future__ import annotations

import numpy as np

from . import field
from .core import Grid, GridModule, ModuleMorphism, _strides, as_frac


# -- evaluation-grid signatures ------------------------------------------------
#
# Certificate routines evaluate natural maps at every vertex of an evaluation
# grid.  A natural map is constant on cells of the common refinement, so each
# vertex is described by its floors in the grids involved (per-axis tables,
# combined into flat indices) and by the components it carries; vertices with
# equal descriptions share one evaluation.

def _axis_floors(mod_grid: Grid, grid: Grid, shift=0):
    """Per-axis arrays: floor index in mod_grid of every coordinate of grid,
    shifted by `shift`, or -1 when no coordinate of mod_grid lies below."""
    return [np.array([mod_grid._axis_floor(k, c + shift) for c in ax],
                     dtype=np.int64) for k, ax in enumerate(grid.axes)]


def _floors_via(mod_grid: Grid, via: Grid, tabs):
    """Per-axis arrays: floor index in mod_grid of the coordinate of `via`
    at each index of the per-axis index arrays tabs (-1 stays -1)."""
    return [np.array([mod_grid._axis_floor(k, via.axes[k][i]) if i >= 0
                      else -1 for i in t], dtype=np.int64)
            for k, t in enumerate(tabs)]


def _flat_floors(mod_grid: Grid, grid: Grid, shift=0) -> np.ndarray:
    """Array over grid.shape: flat index (in mod_grid) of the floor of each
    vertex shifted by `shift`, or -1 where there is none."""
    return _flat(_axis_floors(mod_grid, grid, shift), mod_grid.shape)


def _flat(tabs, shape) -> np.ndarray:
    """Combine per-axis index arrays (-1 for none) into flat indices over a
    grid of the given shape, -1 where any axis has none; the result spans
    the product of the tables' lengths."""
    n = len(tabs)
    out = np.zeros([len(t) for t in tabs], dtype=np.int64)
    none = np.zeros(out.shape, dtype=bool)
    stride = 1
    for k in reversed(range(n)):
        t = tabs[k]
        view = [1] * n
        view[k] = len(t)
        out += (np.maximum(t, 0) * stride).reshape(view)
        none |= (t < 0).reshape(view)
        stride *= shape[k]
    out[none] = -1
    return out


def _component_ids(comp, shape, drop_zero: bool = False):
    """(ids, mats): ids is a flat array over a grid of the given shape with
    ids[v] indexing mats for each vertex carrying an entry of comp, and -1
    elsewhere; equal matrices share one index.  Entries at keys outside the
    grid are ignored.  With drop_zero, zero and empty matrices count as
    absent."""
    n = len(shape)
    size = int(np.prod(shape))
    ids = np.full(size, -1, dtype=np.int64)
    mats, canon, by_obj = [], {}, {}
    keys, vals = [], []
    for v, m in comp.items():
        if len(v) == n and all(0 <= i < s for i, s in zip(v, shape)):
            keys.append(v)
            vals.append(m)
    if not keys:
        return ids, mats
    flat = np.asarray(keys, dtype=np.int64) @ _strides(shape)
    cids = []
    for m in vals:
        c = by_obj.get(id(m))
        if c is None:
            if drop_zero and not (m.size and m.any()):
                c = -1
            else:
                key = (m.shape, m.dtype.str, m.tobytes())
                c = canon.get(key)
                if c is None:
                    c = canon[key] = len(mats)
                    mats.append(m)
            by_obj[id(m)] = c
        cids.append(c)
    ids[flat] = cids
    return ids, mats


def _unique_rows(sig: np.ndarray):
    """(rows, first, inverse): the distinct rows of an integer matrix with
    entries >= -1, the index of a row holding each, and the distinct-row
    index of every row."""
    if not sig.size:
        rows, first, inv = np.unique(sig, axis=0, return_index=True,
                                     return_inverse=True)
        return rows, first, inv.reshape(-1)
    # pack each row into one integer when the ranges allow: a 1-d unique is
    # much faster than a row-wise one
    span = sig.max(axis=0) + 2
    if float(np.prod(span.astype(float))) < 2.0 ** 62:
        weights = np.cumprod(np.concatenate([[1], span[:0:-1]]))[::-1]
        _, first, inv = np.unique((sig + 1) @ weights, return_index=True,
                                  return_inverse=True)
        return sig[first], first, inv.reshape(-1)
    rows, first, inv = np.unique(sig, axis=0, return_index=True,
                                 return_inverse=True)
    return rows, first, inv.reshape(-1)


def _dict_from_ids(ids: np.ndarray, mats):
    """{vertex: mats[ids[vertex]]} over the vertices with ids >= 0."""
    where = np.argwhere(ids >= 0)
    return dict(zip(map(tuple, where.tolist()),
                    [mats[i] for i in ids[ids >= 0].tolist()]))


def _pair_maps(mod: GridModule, src: np.ndarray, dst: np.ndarray):
    """(maps, rows, cols, inv) for the distinct pairs of flat floors
    src <= dst: their structure maps, zero-padded as
    GridModule.structure_maps returns them, the row and column count of
    each, and the distinct-pair index of every pair.  A pair with src -1
    (no floor) has the empty map, with no columns and dims[dst] rows (none
    when dst is -1 too)."""
    pairs, _, inv = _unique_rows(np.stack([src, dst], axis=1))
    live = pairs[:, 0] >= 0
    D = mod.max_pointwise_dim()
    maps = np.zeros((len(pairs), D, D), dtype=np.int64)
    maps[live] = mod.structure_maps(pairs[live, 0], pairs[live, 1])
    dims = np.append(mod.dims.ravel(), 0)
    return maps, dims[pairs[:, 1]], dims[pairs[:, 0]], inv


def _unique_maps(mod: GridModule, src: np.ndarray, dst: np.ndarray):
    """(mats, inv): the distinct structure maps of mod between the flat
    floors src <= dst (see _pair_maps), each once by content, and the index
    into mats of the map of every pair."""
    maps, rows, cols, inv = _pair_maps(mod, src, dst)
    # padding is zero, so rows, cols and entries decide a map
    _, first, same = _unique_rows(np.concatenate(
        [rows[:, None], cols[:, None], maps.reshape(len(maps), maps.shape[1] ** 2)], axis=1))
    mats = [maps[j, :r, :c].copy()
            for j, r, c in zip(first.tolist(), rows[first].tolist(),
                               cols[first].tolist())]
    return mats, same[inv]


def _map_ids(mod: GridModule, src: np.ndarray, dst: np.ndarray):
    """(ids, mats) for the structure maps of mod between the flat floors
    src <= dst, one matrix per distinct pair; ids is -1 where the map is
    zero (or src is -1, no floor)."""
    ids = np.full(len(src), -1, dtype=np.int64)
    live = src >= 0
    if not live.any():
        return ids, []
    maps, rows, cols, inv = _pair_maps(mod, src[live], dst[live])
    nonzero = maps.any(axis=(1, 2))
    ids[live] = np.where(nonzero, np.cumsum(nonzero) - 1, -1)[inv]
    return ids, [maps[j, :r, :c].copy() for j, r, c in
                 zip(*(x[nonzero].tolist() for x in
                       (np.arange(len(maps)), rows, cols)))]


def restriction_extension(M: GridModule, grid: Grid) -> GridModule:
    """Evaluate the extension of M at the vertices of `grid`.

    The value at a vertex q is M at the largest M-grid vertex <= q (zero when
    none exists); steps are the corresponding structure maps of M.
    """
    if grid.n != M.grid.n:
        raise ValueError("dimension mismatch")
    src = _flat_floors(M.grid, grid)
    dims = np.append(M.dims.ravel(), 0)[src]
    steps = {}
    for k in range(grid.n):
        lo = tuple(slice(None, -1) if a == k else slice(None)
                   for a in range(grid.n))
        hi = tuple(slice(1, None) if a == k else slice(None)
                   for a in range(grid.n))
        live = (dims[lo] > 0) & (dims[hi] > 0)
        ids, mats = _map_ids(M, src[lo][live], src[hi][live])
        for v, i, dv, dw in zip(map(tuple, np.argwhere(live).tolist()),
                                ids.tolist(), dims[lo][live].tolist(),
                                dims[hi][live].tolist()):
            steps[(v, k)] = mats[i] if i >= 0 else field.zeros(dw, dv)
    return GridModule(grid, dims, steps, M.p)


def restrict(M: GridModule, grid: Grid) -> GridModule:
    """Restriction to a subgrid (every axis a subset of M's axis)."""
    for ax_new, ax_old in zip(grid.axes, M.grid.axes):
        if not set(ax_new) <= set(ax_old):
            raise ValueError("restrict requires a subgrid; "
                             "use restriction_extension to snap")
    return restriction_extension(M, grid)


def morphism_restriction_extension(f: ModuleMorphism, grid: Grid) -> ModuleMorphism:
    """The induced morphism between the restriction-extensions on `grid`."""
    Mg = restriction_extension(f.source, grid)
    Ng = restriction_extension(f.target, grid)
    ids, mats = _component_ids(f.mats, f.source.grid.shape, drop_zero=True)
    at = np.append(ids, -1)[_flat_floors(f.source.grid, grid)]
    return ModuleMorphism(Mg, Ng, _dict_from_ids(at, mats))


def union_axes(*grids_or_axes):
    """Per-axis union of coordinate sets."""
    axes_list = []
    for g in grids_or_axes:
        axes_list.append(g.axes if isinstance(g, Grid) else g)
    n = len(axes_list[0])
    out = []
    for k in range(n):
        s = set()
        for axes in axes_list:
            s.update(as_frac(c) for c in axes[k])
        out.append(sorted(s))
    return out


def common_refinement(M: GridModule, N: GridModule):
    """Both modules re-expressed on the union grid. Returns (M', N', grid)."""
    grid = Grid(union_axes(M.grid, N.grid))
    return restriction_extension(M, grid), restriction_extension(N, grid), grid


def shift(M: GridModule, r) -> GridModule:
    """The shifted module M[r], with M[r](x) = M(x + r); its grid is M's
    grid translated by -r."""
    r = as_frac(r)
    grid = Grid([[c - r for c in ax] for ax in M.grid.axes])
    return GridModule(grid, M.dims.copy(), dict(M.steps), M.p)


def shift_unit(M: GridModule, r) -> ModuleMorphism:
    """The canonical morphism M -> M[r] (r >= 0) with components the
    structure maps x -> x + r, expressed on the union of both grids."""
    r = as_frac(r)
    if r < 0:
        raise ValueError("shift unit needs r >= 0")
    Mr = shift(M, r)
    grid = Grid(union_axes(M.grid, Mr.grid))
    ids, mats = _map_ids(M, _flat_floors(M.grid, grid).ravel(),
                         _flat_floors(M.grid, grid, r).ravel())
    return ModuleMorphism(restriction_extension(M, grid),
                          restriction_extension(Mr, grid),
                          _dict_from_ids(ids.reshape(grid.shape), mats))


def regular_grid(n: int, pitch, lo, hi) -> Grid:
    """The grid with axis coordinates lo_i, lo_i+pitch, ..., >= hi_i."""
    pitch = as_frac(pitch)
    axes = []
    for k in range(n):
        a, b = as_frac(lo[k]), as_frac(hi[k])
        count = int((b - a) / pitch)
        if a + count * pitch < b:
            count += 1
        axes.append([a + i * pitch for i in range(count + 1)])
    return Grid(axes)


def snap_to_lattice(M: GridModule, pitch, margin_cells: int = 2) -> GridModule:
    """Snap M onto the lattice (pitch * Z)^n, windowed to cover M's grid
    plus a margin.  The result is pitch-interleaved with M."""
    pitch = as_frac(pitch)
    lo, hi = [], []
    for ax in M.grid.axes:
        a = (ax[0] / pitch).__floor__() - margin_cells
        b = (ax[-1] / pitch).__ceil__() + margin_cells
        lo.append(a * pitch)
        hi.append(b * pitch)
    grid = regular_grid(M.grid.n, pitch, lo, hi)
    return restriction_extension(M, grid)


def prune(M: GridModule) -> GridModule:
    """Drop grid coordinates that repeat the previous slice verbatim.

    A non-initial coordinate on an axis is dropped when every step into its
    slice along that axis is an identity matrix; the initial coordinate is
    dropped when its slice is zero.  Unlike compress, the result has exactly
    the same extension as M (not merely an isomorphic one), so pruned
    modules stay interchangeable inside certificate chains.
    """
    return _drop_coords(M, lambda m: np.array_equal(m, field.eye(m.shape[0])))


def compress(M: GridModule) -> GridModule:
    """Drop grid coordinates that carry no information.

    A non-initial coordinate on an axis is dropped when every step into its
    slice along that axis is an isomorphism; the initial coordinate is
    dropped when its slice is zero.  The result is isomorphic to M (same
    extension up to natural isomorphism), usually on a much smaller grid.
    """
    return _drop_coords(M, lambda m: np.array_equal(m, field.eye(m.shape[0]))
                        or field.is_invertible(m, M.p))


def _drop_coords(M: GridModule, step_ok) -> GridModule:
    """Restrict M, axis after axis until nothing changes, to the
    coordinates _kept_coords keeps."""
    cur = M
    changed = True
    while changed:
        changed = False
        for k in range(cur.grid.n):
            keep = _kept_coords(cur, k, step_ok)
            if len(keep) < cur.grid.shape[k]:
                axes = [list(ax) for ax in cur.grid.axes]
                axes[k] = [axes[k][i] for i in keep]
                cur = restrict(cur, Grid(axes))
                changed = True
    return cur


def _kept_coords(M: GridModule, k: int, step_ok):
    """Indices along axis k that carry information: the initial one unless
    its slice is zero, and every other one unless its slice has the
    previous slice's dimensions and each step into it passes step_ok (a
    square matrix)."""
    keep = []
    for j in range(M.grid.shape[k]):
        if j == 0:
            if np.take(M.dims, 0, axis=k).any():
                keep.append(0)
            continue
        prev = np.take(M.dims, j - 1, axis=k)
        if not np.array_equal(prev, np.take(M.dims, j, axis=k)):
            keep.append(j)
            continue
        for ridx in np.argwhere(prev > 0).tolist():
            vidx = tuple(ridx[:k]) + (j - 1,) + tuple(ridx[k:])
            if not step_ok(M.step(vidx, k)):
                keep.append(j)
                break
    return keep or [0]


def compression_witness(M: GridModule, C: GridModule) -> ModuleMorphism:
    """The natural isomorphism (C extended onto M's grid) -> M, for C a
    compression of M.  Components are structure maps of M from the floor in
    C's grid up to each vertex."""
    src = _floors_via(M.grid, C.grid, _axis_floors(C.grid, M.grid))
    ids, mats = _map_ids(M, _flat(src, M.grid.shape).ravel(),
                         np.arange(M.dims.size))
    return ModuleMorphism(restriction_extension(C, M.grid), M,
                          _dict_from_ids(ids.reshape(M.grid.shape), mats))
