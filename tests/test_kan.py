"""Grid refinement, restriction, extension, shifting, snapping, pruning."""

from fractions import Fraction

import numpy as np

import pytest

from gridpersist import field
from gridpersist.cli import random_module
from gridpersist.construct import approximate_indecomposable, tack
from gridpersist.core import (Components, Grid, GridModule, hom_space,
                              interval_module, random_basis_change,
                              zero_module)
from gridpersist.decomp import is_isomorphic
from gridpersist.interleave import certificate_grid
from gridpersist.kan import (_axis_floors, _floors_via, _unique_rows,
                             common_refinement, compress, compression_witness,
                             morphism_restriction_extension, prune,
                             restrict, restriction_extension, shift,
                             shift_unit, snap_to_lattice, union_axes)

from conftest import free_module
import oracles as O
from oracles import hom_dim, regular_grid


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


def _snap_cases():
    for s in range(2):
        M = random_module(2, 3, 2, seed=40 + s)
        yield M
        yield restriction_extension(M, _finer(M.grid))
        yield shift(M, Fraction(5, 3))      # negative coordinates
        yield shift(M, Fraction(-1, 7))
    # coordinates held as Python ints, each just below an integer
    yield shift(random_module(2, 4, 2, seed=42), Fraction(1, 2 ** 61 - 1))
    yield interval_module((0, 0), (1, 1))   # on every lattice used here
    yield interval_module((Fraction(-3, 2), -1), (Fraction(1, 2), 2))


@pytest.mark.parametrize("pitch", [Fraction(1, 2), Fraction(1, 3),
                                   Fraction(1, 8)])
def test_snap_matches_window_oracle(pitch):
    # the snap on the lattice ceilings of M's coordinates has the extension
    # of the snap on a regular window with a margin, and is never larger
    # than M on any axis
    for M in _snap_cases():
        L = snap_to_lattice(M, pitch)
        assert L.validate()
        assert all(a <= b for a, b in zip(L.grid.shape, M.grid.shape))
        assert all((c / pitch).denominator == 1
                   for ax in L.grid.axes for c in ax)
        assert O.same_extension(L, O.window_snap(M, pitch))


def test_snap_refuses_a_pitch_that_is_not_positive():
    M = random_module(2, 3, 2, seed=40)
    for pitch in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="positive"):
            snap_to_lattice(M, pitch)


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


# -- integer coordinates against Fraction oracles ------------------------------

F = Fraction
BIG = (10 ** 12 + 39, 10 ** 13 + 37, 2 ** 61 - 1)


def _grid_pairs():
    """(A, B, shifts): pairs of grids with their shifts, from small lattices
    (int64 arithmetic) to coprime denominators whose common denominator
    exceeds 2**62 (Python ints), with exact ties and near-ties."""
    lat = Grid([[F(i, 8) for i in range(-4, 13)], [F(i, 6) for i in range(9)]])
    off = Grid([[F(2 * i + 1, 16) for i in range(-3, 9)],
                [F(i, 4) - F(1, 12) for i in range(6)]])
    third = F(1, 3)
    near = Grid([[third - F(1, 10 ** 30), third, third + F(1, 10 ** 30)],
                 [F(0), third + F(1, 10 ** 30), 1]])
    thirds = Grid([[F(i, 3) for i in range(-2, 5)], [F(i, 3) for i in range(4)]])
    big = [Grid([[F(i, q) + F(j, 7) for i in range(-3, 4) for j in (0,)],
                 [F(i * i, q) for i in range(5)]]) for q in BIG]
    mixed = Grid([[F(1, BIG[0]), F(1, BIG[1]) + F(1, 2), F(1, BIG[2]) + 1],
                  [F(-1, BIG[2]), F(0), F(1, BIG[0])]])
    shifts = (0, F(1, 16), -F(1, 16), F(1, 8), -F(3, 8), F(1, 10 ** 30),
              -F(1, 10 ** 30), F(1, BIG[1]), -F(2, BIG[2]))
    return [(lat, off, shifts), (off, lat, shifts), (lat, lat, shifts),
            (thirds, near, shifts), (near, thirds, shifts),
            (big[0], big[1], shifts), (big[1], big[2], shifts),
            (big[2], mixed, shifts), (mixed, lat, shifts), (lat, mixed, shifts)]


def test_grid_integers_take_int64_or_python_ints_by_size():
    lat = Grid([[F(i, 8) for i in range(-4, 13)], [F(i, 6) for i in range(9)]])
    assert lat.den == 24 and lat.nums[0].dtype == np.int64
    wide = Grid([[F(1, BIG[1]), F(1, BIG[0]) + 1]])
    assert wide.den == BIG[0] * BIG[1] and wide.nums[0].dtype == object
    for g in [lat, wide] + [A for A, _, _ in _grid_pairs()]:
        assert [[F(int(x), g.den) for x in a] for a in g.nums] == \
            [list(ax) for ax in g.axes]
        assert Grid.from_ints(g.den * 6, [a * 6 for a in g.nums]) == g
    with pytest.raises(ValueError, match="strictly increasing"):
        Grid([[F(1, BIG[0]) + 1, F(1, BIG[1]) + 1]])


def test_floors_match_fraction_oracle():
    for A, B, shifts in _grid_pairs():
        for s in shifts:
            want = O.axis_floors(A.axes, B.axes, s)
            assert [t.tolist() for t in _axis_floors(A, B, s)] == want
            for v in map(tuple, B.vertices()):
                x = tuple(c + s for c in B.coord(v))
                fl = tuple(want[k][i] for k, i in enumerate(v))
                assert A.floor_index(x) == (None if min(fl) < 0 else fl)
        tabs = [np.array([-1, 0, len(ax) - 1, len(ax) // 2]) for ax in B.axes]
        via = O.axis_floors(A.axes, B.axes)
        assert [t.tolist() for t in _floors_via(A, B, tabs)] == \
            [[f[i] if i >= 0 else -1 for i in t.tolist()]
             for f, t in zip(via, tabs)]


def test_unions_and_certificate_grids_match_fraction_oracle():
    for A, B, shifts in _grid_pairs():
        assert union_axes(A, B) == O.union_of_axes([A.axes, B.axes])
        for eps in (F(0), F(1, 16), F(1, 10 ** 30), F(1, BIG[2])):
            M = interval_module(A.coord((0, 0)), A.coord((1, 1)))
            N = interval_module(B.coord((0, 0)), B.coord((1, 1)))
            M = restriction_extension(M, A)
            N = restriction_extension(N, B)
            P = certificate_grid(M, N, eps)
            assert [list(ax) for ax in P.axes] == O.union_of_axes(
                [A.axes, B.axes], (0, eps, 2 * eps))


def test_component_ids_share_objects_and_equal_content():
    shape = (3, 4)
    a = np.array([[1, 2]], dtype=np.int64)
    b = a.copy()
    z = np.zeros((1, 2), dtype=np.int64)
    c = np.array([[5, 0]], dtype=np.int64)
    comp = {(2, 3): c, (0, 0): a, (1, 1): z, (0, 1): b, (5, 0): c,
            (-1, 2): a, (1, 2, 0): a, (2, 0): a, (1, 3): z}
    t = Components.of(comp, shape)
    ids, mats = t.ids, t.mats
    # first appearance among in-grid keys: c, then a (b equals it), then z
    assert [m is x for m, x in zip(mats, (c, a, z))] == [True] * 3
    want = np.full(shape, -1)
    want[2, 3], want[0, 0], want[0, 1], want[2, 0] = 0, 1, 1, 1
    want[1, 1] = want[1, 3] = 2
    assert np.array_equal(ids.reshape(shape), want)
    t = Components.of(comp, shape, drop_zero=True)
    ids, mats = t.ids, t.mats
    want[1, 1] = want[1, 3] = -1
    assert len(mats) == 2 and np.array_equal(ids.reshape(shape), want)
    t = Components.of({(7, 7): a, (0,): a}, shape)
    ids, mats = t.ids, t.mats
    assert mats == [] and (ids == -1).all()


def _step_kinds_module():
    """Dimension 2 on a 4 x 2 grid; along axis 0 the steps are the identity,
    a unipotent non-identity and a singular map, the same on both rows;
    along axis 1 they are identities."""
    eye = np.eye(2, dtype=np.int64)
    along = [eye, np.array([[1, 1], [0, 1]]), np.array([[1, 0], [0, 0]])]
    steps = {((i, j), 0): along[i] for i in range(3) for j in range(2)}
    steps.update({((i, 0), 1): eye for i in range(4)})
    M = GridModule(Grid([range(4), range(2)]), np.full((4, 2), 2), steps)
    assert M.validate()
    return M


def _drop_corpus():
    out = [_step_kinds_module()]
    for s in range(4):
        M = random_module(2, 3, 2, seed=s)
        out.append(M)
        R = restriction_extension(M, _finer(_finer(M.grid)))
        out += [R, random_basis_change(R, s)]
    A, B = interval_module((0, 0), (2, 2)), interval_module((3, 3), (5, 5))
    out.append(tack(A, B, Fraction(1))[0])
    out.append(approximate_indecomposable(random_module(2, 3, 2, seed=4),
                                          Fraction(1, 2)).module)
    # a zero module, a one-coordinate axis, and a pruned free module (a
    # (1, 1) grid) that is pruned and compressed again
    out.append(zero_module(2))
    out.append(restriction_extension(zero_module(2), Grid([[0, 1, 2], [0]])))
    M = random_module(2, 3, 2, seed=5)
    out.append(restriction_extension(
        M, Grid([M.grid.axes[0], M.grid.axes[1][-1:]])))
    out.append(prune(free_module(Grid([[0, 1]] * 2), (0, 0))))
    return out


def test_prune_and_compress_match_staged_oracle():
    M = _step_kinds_module()
    assert prune(M).grid.shape == (3, 1) and compress(M).grid.shape == (2, 1)
    for M in _drop_corpus():
        for drop, invertible in ((prune, False), (compress, True)):
            keep = O.staged_kept_coords(M, invertible)
            C = drop(M)
            assert [list(ax) for ax in C.grid.axes] == \
                [[ax[i] for i in kp] for ax, kp in zip(M.grid.axes, keep)]
            assert np.array_equal(C.dims, M.dims[np.ix_(*keep)])
            for (v, k), m in C.steps.items():
                u = tuple(kp[i] for kp, i in zip(keep, v))
                w = list(u)
                w[k] = keep[k][v[k] + 1]
                assert m.tolist() == [list(r) for r in
                                      O.path_map(M, u, tuple(w))] or not m.size


def test_unique_rows_matches_rowwise_unique():
    # rows too wide to pack into one integer take the byte-view path; every
    # path must return np.unique(axis=0)'s rows, first indices and inverse
    rng = np.random.default_rng(3)
    cases = [rng.integers(-1, 4, size=(1, 40)),
             np.full((6, 30), -1), np.full((5, 70), 7)]
    for rows, width, hi in ((350, 18, 9), (2000, 18, 40), (500, 83, 3),
                            (40, 3, 2)):
        base = rng.integers(-1, hi, size=(max(rows // 8, 1), width))
        cases.append(base[rng.integers(0, len(base), size=rows)])
    wide = rng.integers(-1, 2 ** 40, size=(300, 5))
    cases.append(np.concatenate([wide, wide[::-1], wide[:7]]))
    for sig in cases:
        want = np.unique(sig, axis=0, return_index=True, return_inverse=True)
        got = _unique_rows(sig)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2].reshape(-1))
