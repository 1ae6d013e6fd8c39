"""Grid refinement, restriction, extension, shifting, snapping, pruning."""

from fractions import Fraction

import numpy as np

from gridpersist import field
from gridpersist.cli import random_module
from gridpersist.core import Grid, hom_space, interval_module, is_isomorphic
from gridpersist.kan import (common_refinement, compress, compression_witness,
                             morphism_restriction_extension, prune,
                             regular_grid, restrict,
                             restriction_extension, shift, shift_unit,
                             snap_to_lattice, union_axes)

import oracles as O
from oracles import hom_dim


def _finer(grid):
    axes = []
    for ax in grid.axes:
        out = list(ax)
        for a, b in zip(ax, ax[1:]):
            out.append((a + b) / 2)
        out.append(ax[-1] + 1)
        axes.append(sorted(out))
    return Grid(axes)


def test_refine_then_restrict_round_trips():
    for s in range(6):
        M = random_module(2, 3, 2, seed=s)
        R = restriction_extension(M, _finer(M.grid))
        assert R.validate()
        back = restrict(R, M.grid)
        assert np.array_equal(back.dims, M.dims)
        keys = set(M.steps) | set(back.steps)
        for k in keys:
            a = M.steps.get(k)
            b = back.steps.get(k)
            assert a is not None and b is not None and np.array_equal(a, b)


def test_extension_constant_on_cells():
    M = random_module(2, 3, 2, seed=3)
    R = restriction_extension(M, _finer(M.grid))
    for v in M.grid.vertices():
        v = tuple(v)
        x = M.grid.coord(v)
        assert R.dim_at(x) == M.dim(v)


def test_hom_dimension_is_refinement_invariant():
    for s in range(4):
        M = random_module(2, 3, 2, seed=s)
        N = random_module(2, 3, 2, seed=40 + s)
        M, N, _ = common_refinement(M, N)
        d0 = len(hom_space(M, N))
        g = _finer(M.grid)
        Mr, Nr = restriction_extension(M, g), restriction_extension(N, g)
        assert len(hom_space(Mr, Nr)) == d0 == hom_dim(Mr, Nr)


def test_shift_unit_law_two_eps():
    # the diagonal-shift unit at 2e agrees with the composite of two e-units:
    # componentwise, the map x -> x+2e factors as (x+e -> x+2e) o (x -> x+e)
    M = random_module(2, 3, 2, seed=8)
    e = Fraction(1, 2)
    u = shift_unit(M, 2 * e)
    assert u.is_valid()
    for v in M.grid.vertices():
        x = M.grid.coord(tuple(v))
        xe = tuple(c + e for c in x)
        x2e = tuple(c + 2 * e for c in x)
        lhs = M.structure_map_points(x, x2e)
        rhs = field.mmul(M.structure_map_points(xe, x2e),
                         M.structure_map_points(x, xe), M.p)
        assert np.array_equal(lhs, rhs)


def test_shift_moves_support():
    M = interval_module((0, 0), (1, 1))
    S = shift(M, Fraction(1))
    assert S.dim_at((Fraction(-1, 2), Fraction(-1, 2))) == 1
    assert S.dim_at((Fraction(1, 2), Fraction(1, 2))) == 0
    assert M.dim_at((Fraction(1, 2), Fraction(1, 2))) == 1


def test_snap_of_on_lattice_module_is_unchanged():
    M = interval_module((0, 0), (1, 1))
    S = snap_to_lattice(M, Fraction(1, 2))
    g = Grid(union_axes(M.grid, S.grid))
    a = restriction_extension(M, g)
    b = restriction_extension(S, g)
    assert np.array_equal(a.dims, b.dims)
    for k in set(a.steps) | set(b.steps):
        assert np.array_equal(a.steps.get(k, 0 * b.steps[k]),
                              b.steps.get(k, 0 * a.steps[k]))


def test_regular_grid_pitch():
    g = regular_grid(2, Fraction(1, 2), (0, 0), (2, 2))
    assert all(len(ax) == 5 for ax in g.axes)
    assert g.axes[0][1] - g.axes[0][0] == Fraction(1, 2)


def test_prune_preserves_extension_exactly():
    for s in range(5):
        M = random_module(2, 4, 2, seed=s)
        R = restriction_extension(M, _finer(M.grid))
        P = prune(R)
        assert P.validate()
        assert len(P.grid.axes[0]) <= len(R.grid.axes[0])
        g = Grid(union_axes(R.grid, P.grid))
        a = restriction_extension(R, g)
        b = restriction_extension(P, g)
        assert np.array_equal(a.dims, b.dims)
        for k in set(a.steps) | set(b.steps):
            x = a.steps.get(k)
            y = b.steps.get(k)
            assert x is not None and y is not None and np.array_equal(x, y)


def test_compress_preserves_iso_class():
    M = random_module(2, 4, 2, seed=2)
    R = restriction_extension(M, _finer(M.grid))
    C = compress(R)
    assert C.validate()
    w = compression_witness(R, C)
    assert w.is_valid()
    g = Grid(union_axes(R.grid, C.grid))
    assert is_isomorphic(restriction_extension(R, g),
                         restriction_extension(C, g))


def _as_mat(m, rows, cols):
    return np.array(m, dtype=np.int64).reshape(rows, cols)


def test_floor_table_maps_match_vertexwise_oracle():
    # restriction_extension, morphism_restriction_extension and
    # compression_witness read floors from per-axis tables; pin them to
    # floors and paths taken vertex by vertex on the raw data
    for s in range(4):
        M = random_module(2, 3, 2, seed=s)
        grid = Grid([[Fraction(k, 3) - 1 for k in range(14)]] * 2)
        R = restriction_extension(M, grid)
        f = hom_space(M, M)[-1]
        fR = morphism_restriction_extension(f, grid)
        for v in map(tuple, grid.vertices()):
            fv = O.ext_floor(M, grid.coord(v))
            assert R.dim(v) == (0 if fv is None else M.dim(fv))
            assert np.array_equal(fR.at(v), f.at(fv) if fv is not None else
                                  np.zeros((0, 0), dtype=np.int64))
            for k in range(2):
                if v[k] + 1 == grid.shape[k]:
                    continue
                w = v[:k] + (v[k] + 1,) + v[k + 1:]
                if R.dim(v) and R.dim(w):
                    fw = O.ext_floor(M, grid.coord(w))
                    assert np.array_equal(R.steps[(v, k)], _as_mat(
                        O.path_map(M, fv, fw), R.dim(w), R.dim(v)))
        Rf = restriction_extension(M, _finer(M.grid))
        C = compress(Rf)
        wit = compression_witness(Rf, C)
        for v in map(tuple, Rf.grid.vertices()):
            fc = O.ext_floor(C, Rf.grid.coord(v))
            if fc is None:
                assert not wit.at(v).any()
                continue
            src = O.ext_floor(Rf, C.grid.coord(fc))
            assert np.array_equal(wit.at(v), _as_mat(
                O.path_map(Rf, src, v), Rf.dim(v), C.dim(fc)))
