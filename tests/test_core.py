"""Modules on grids: validation, sums, hom spaces, isomorphism."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gridpersist import field
from gridpersist.cli import random_module
from gridpersist.construct import module_G
from gridpersist.core import (Components, Grid, GridModule, ModuleMorphism,
                              _edge_ends, _strides, direct_sum, hom_space,
                              interval_module, random_basis_change,
                              sum_module, zero_module)
from gridpersist.decomp import decompose, is_isomorphic
from gridpersist.kan import common_refinement, restriction_extension

from conftest import free_module, matches_dict_route, rect
from oracles import ext_floor, hom_dim, module_is_valid, path_map, step_dict


def test_grid_floor_and_coord():
    g = Grid([[Fraction(0), Fraction(1), Fraction(3)],
              [Fraction(0), Fraction(2)]])
    assert g.shape == (3, 2)
    assert g.coord((2, 1)) == (Fraction(3), Fraction(2))
    assert g.index_of((Fraction(1), Fraction(2))) == (1, 1)
    for x in ((Fraction(2), Fraction(2)), (Fraction(-1), Fraction(0)),
              (Fraction(3), Fraction(5))):
        with pytest.raises(ValueError, match="not a grid vertex"):
            g.index_of(x)


def _path(M, v, w):
    """oracles.path_map(M, v, w) as an int64 array of dim M(w) x dim M(v)."""
    v, w = tuple(map(int, v)), tuple(map(int, w))
    return np.array(path_map(M, v, w), dtype=np.int64).reshape(M.dim(w),
                                                               M.dim(v))


def _identity(M):
    """The components of M's identity, as a dict over its support."""
    return {v: field.eye(M.dim(v))
            for v in map(tuple, np.argwhere(M.dims > 0).tolist())}


def test_validate_accepts_standard_constructions():
    for M in [zero_module(2), interval_module((0, 0), (2, 3)),
              module_G(), module_G(p=2),
              free_module(Grid([[Fraction(0), Fraction(1)]] * 2, ), (0, 0))]:
        assert M.validate()


def test_validate_rejects_scaled_step():
    # doubling one internal step of an otherwise commuting diagram breaks
    # commutativity of the square above it
    G = module_G()
    key = ((1, 3), 0)
    assert (0, 1, 3) in G.step_table()
    steps = step_dict(G)
    steps[key] = (2 * steps[key]) % G.p
    bad = GridModule(G.grid, G.dims.copy(), steps, G.p)
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_rejects_missing_step():
    M = module_G()
    steps = step_dict(M)
    del steps[next(iter(steps))]
    bad = GridModule(M.grid, M.dims.copy(), steps, M.p)
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_checks_builder_tables():
    # a table handed over by a builder gets the checks a step mapping gets:
    # every step has the shape the dims demand and a successor
    M = random_module(2, 3, 2, seed=1)
    t = M.step_table()
    e = int(np.flatnonzero(t.ids >= 0)[0])
    v = tuple(np.unravel_index(e, t.shape)[1:])
    want = t.mats[t.ids[e]].shape
    last = np.ravel_multi_index((0, 2) + v[1:], t.shape)   # (2, .) axis 0
    for at, m, msg in (
            (e, field.zeros(want[0] + 1, want[1]),
             f"step at {tuple(map(int, v))} axis 0: shape"),
            (last, field.eye(1), f"step at {(2,) + tuple(map(int, v[1:]))} "
                                 f"axis 0: no successor")):
        ids = t.ids.copy()
        ids[at] = len(t.mats)
        bad = GridModule(M.grid, M.dims.copy(),
                         Components(t.shape, ids, t.mats + [m]), M.p)
        with pytest.raises(ValueError, match=re.escape(msg)):
            bad.validate()


def test_sum_module_table_matches_the_dict_route():
    for s in range(4):
        A = random_module(2, 3, 2, seed=s)
        B, C, _ = common_refinement(random_module(2, 3, 2, seed=10 + s),
                                    rect((1, 0), (3, 2)))
        A = restriction_extension(A, B.grid)
        for S in (sum_module(A, B), sum_module(B, C, A), sum_module(C)):
            assert S.validate()
            assert matches_dict_route(S)
        # block by block: the steps of the sum hold the summands' steps
        S = sum_module(A, B)
        for (k, *v), m in S.step_table().items():
            w = np.add(v, np.eye(2, dtype=int)[k])
            a, b = _path(A, v, w), _path(B, v, w)
            assert np.array_equal(m[:a.shape[0], :a.shape[1]], a)
            assert np.array_equal(m[a.shape[0]:, a.shape[1]:], b)
            assert not m[:a.shape[0], a.shape[1]:].any()
            assert not m[a.shape[0]:, :a.shape[1]].any()


def test_direct_sum_of_random_modules_validates():
    for s in range(10):
        A = random_module(2, 3, 2, seed=s)
        B = random_module(2, 3, 2, seed=100 + s)
        A, B, _ = common_refinement(A, B)
        S, incs, projs = direct_sum(A, B)
        assert S.validate()
        assert S.total_dim() == A.total_dim() + B.total_dim()
        for f in incs + projs:
            assert f.is_valid()


def test_free_module_end_dimension_one():
    g = Grid([[Fraction(0), Fraction(1), Fraction(2)]] * 2)
    F = free_module(g, (0, 0))
    assert len(hom_space(F, F)) == 1 == hom_dim(F, F)


def test_hom_space_matches_dense_oracle():
    for s in range(8):
        M = random_module(2, 3, 2, seed=s)
        N = random_module(2, 3, 2, seed=50 + s)
        M, N, _ = common_refinement(M, N)
        basis = hom_space(M, N)
        assert len(basis) == hom_dim(M, N)
        for f in basis:
            assert f.is_valid()
        # the oracle's structure maps keep their shape through zero spaces
        verts = [tuple(v) for v in M.grid.vertices()]
        for v in verts:
            for w in verts:
                if not all(a <= b for a, b in zip(v, w)):
                    continue
                m = path_map(M, v, w)
                assert len(m) == M.dim(w)
                assert all(len(row) == M.dim(v) for row in m)
                got = M.structure_maps(
                    [np.ravel_multi_index(v, M.grid.shape)],
                    [np.ravel_multi_index(w, M.grid.shape)])[0]
                assert np.array_equal(_path(M, v, w),
                                      got[:M.dim(w), :M.dim(v)])


def test_end_of_G_is_one_dimensional():
    for p in (65521, 2):
        G = module_G(p=p)
        assert len(hom_space(G, G)) == 1 == hom_dim(G, G)


def test_max_pointwise_dim():
    G = module_G()
    assert G.max_pointwise_dim() == 2
    assert zero_module(2).max_pointwise_dim() == 0
    S, _, _ = direct_sum(G, G)
    assert S.max_pointwise_dim() == 4


def test_structure_map_composes_along_paths():
    M = random_module(2, 4, 3, seed=5)
    top = tuple(s - 1 for s in M.grid.shape)
    # one batch: (2,0) -> top, (0,0) -> (2,0), (0,2) -> top, (0,0) -> (0,2)
    # and (0,0) -> top, each cut to its dim M(w) x dim M(v) block
    pairs = [((2, 0), top), ((0, 0), (2, 0)), ((0, 2), top),
             ((0, 0), (0, 2)), ((0, 0), top)]
    src, dst = (np.ravel_multi_index(np.array(x).T, M.grid.shape)
                for x in zip(*pairs))
    m = [a[:M.dim(w), :M.dim(v)]
         for a, (v, w) in zip(M.structure_maps(src, dst), pairs)]
    via_x = field.mmul(m[0], m[1], M.p)
    via_y = field.mmul(m[2], m[3], M.p)
    assert np.array_equal(via_x, via_y)
    assert np.array_equal(via_x, m[4])


def test_extension_semantics_dim_at():
    # the extension's dimension at a point is that of its floor vertex, and
    # 0 below the grid
    M = interval_module((0, 0), (2, 2))
    for x, d in (((Fraction(1, 2), Fraction(3, 2)), 1),
                 ((Fraction(-1), Fraction(0)), 0),
                 ((Fraction(5), Fraction(5)), 0)):
        v = ext_floor(M, x)
        assert (0 if v is None else M.dim(v)) == d


def test_is_isomorphic_to_basis_change():
    G = module_G()
    H = random_basis_change(G, seed=9)
    W = is_isomorphic(G, H)
    assert W is not None
    W.validate()
    assert W.is_isomorphism()


def test_is_isomorphic_distinguishes():
    A = rect((0, 0), (2, 2))
    B = rect((0, 0), (3, 2))
    A, B, _ = common_refinement(A, B)
    assert not is_isomorphic(A, B)


def test_morphism_identity_and_compose():
    M = random_module(2, 3, 2, seed=1)
    i = ModuleMorphism(M, M, _identity(M))
    assert i.is_valid()
    assert i.compose(i).is_valid()
    basis = hom_space(M, M)
    f = ModuleMorphism.linear_combination(basis, [1] * len(basis), M.p)
    assert f.is_valid()
    g = ModuleMorphism.linear_combination(basis, range(len(basis)), M.p)
    fg = f.compose(g)
    assert fg.is_valid()
    for v in M.grid.vertices():
        assert np.array_equal(fg.at(v), field.mmul(f.at(v), g.at(v), M.p))


@pytest.mark.parametrize("kind", ["list", "object", "float", "too big",
                                  "negative"])
def test_morphism_validate_refuses_components_that_are_not_field_matrices(
        kind):
    M = random_module(2, 3, 2, seed=1)
    v = max(_identity(M), key=M.dim)
    mats = _identity(M)
    m = mats[v]
    mats[v] = {"list": m.tolist(), "float": m.astype(float),
               "object": m.astype(object) + 2 ** 70, "too big": m + 2 ** 32,
               "negative": m - M.p}[kind]
    f = ModuleMorphism(M, M, mats)
    with pytest.raises(ValueError, match="component: not an array" if kind == "list"
                       else re.escape(f"component at {v}: entries out of")):
        f.validate()
    assert f.is_valid() is False


def test_morphism_validate_names_the_failing_vertex():
    M = random_module(2, 3, 2, seed=1)
    v = max(_identity(M), key=M.dim)
    for m, msg in ((field.eye(M.dim(v) + 1), f"component at {v}: shape"),
                   (2 * field.eye(M.dim(v)), "naturality fails at")):
        mats = _identity(M)
        mats[v] = m
        with pytest.raises(ValueError, match=re.escape(msg)):
            ModuleMorphism(M, M, mats).validate()
    # doubled at the first and the last support vertex: the message names
    # the first failing edge source in C order, on the first failing axis
    mats = _identity(M)
    for w in (min(mats), max(mats)):
        mats[w] = 2 * mats[w] % M.p
    f = ModuleMorphism(M, M, mats)
    fails = [(k, u) for k in range(2) for u in map(tuple, M.grid.vertices())
             for w in [u[:k] + (u[k] + 1,) + u[k + 1:]]
             if w[k] < M.grid.shape[k] and not np.array_equal(
                 field.mmul(f.at(w), _path(M, u, w), M.p),
                 field.mmul(_path(M, u, w), f.at(u), M.p))]
    k, u = fails[0]
    assert len([x for x in fails if x[0] == k]) >= 2
    with pytest.raises(ValueError) as exc:
        f.validate()
    assert str(exc.value) == f"naturality fails at {u} axis {k}"


def _pairs_below(M):
    """Flat index arrays (src, dst) of every pair of vertices v <= w."""
    verts = [tuple(v) for v in M.grid.vertices()]
    pairs = [(np.ravel_multi_index(v, M.grid.shape),
              np.ravel_multi_index(w, M.grid.shape))
             for v in verts for w in verts
             if all(a <= b for a, b in zip(v, w))]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def test_structure_maps_match_path_oracle_and_point_query():
    # random modules have zero-dimensional vertices on many paths and
    # vertices of dimension below D, whose padding must stay zero
    for n, size, max_dim, seed in [(2, 4, 3, 0), (2, 4, 3, 5), (3, 3, 2, 1),
                                   (1, 6, 2, 2), (2, 3, 1, 3)]:
        M = random_module(n, size, max_dim, seed=seed)
        D = M.max_pointwise_dim()
        assert (M.dims == 0).any() and (M.dims < D).any()
        src, dst = _pairs_below(M)
        maps = M.structure_maps(src, dst)
        assert maps.shape == (len(src), D, D)
        for m, a, b in zip(maps, src.tolist(), dst.tolist()):
            v = tuple(np.unravel_index(a, M.grid.shape))
            w = tuple(np.unravel_index(b, M.grid.shape))
            r, c = M.dim(w), M.dim(v)
            assert not m[r:].any() and not m[:, c:].any()
            assert np.array_equal(m[:r, :c], _path(M, v, w))


def test_structure_maps_match_a_step_by_step_oracle_on_uneven_gaps():
    # walks whose gaps differ per axis, with zero gaps on some axes and
    # src == dst, so the walks still going differ from axis to axis
    rng = np.random.default_rng(7)
    for n, size, max_dim, seed in [(2, 6, 2, 0), (3, 4, 2, 4), (1, 7, 3, 1)]:
        M = random_module(n, size, max_dim, seed=seed)
        shape = M.grid.shape
        v = rng.integers(0, shape, (60, n))
        gap = rng.integers(0, shape, (60, n)) * (rng.random((60, n)) < 0.6)
        w = np.minimum(v + gap, np.array(shape) - 1)
        maps = M.structure_maps(np.ravel_multi_index(v.T, shape),
                                np.ravel_multi_index(w.T, shape))
        assert ((w - v) == 0).any() and len(set(map(tuple, w - v))) > 5
        for m, a, b in zip(maps, map(tuple, v.tolist()),
                           map(tuple, w.tolist())):
            r, c = M.dim(b), M.dim(a)
            assert not m[r:].any() and not m[:, c:].any()
            assert np.array_equal(m[:r, :c], _path(M, a, b))


def test_structure_maps_of_zero_module_and_empty_batch():
    Z = zero_module(2)
    assert Z.structure_maps([0], [0]).shape == (1, 0, 0)
    assert Z.structure_maps([], []).shape == (0, 0, 0)
    G = module_G()
    assert G.structure_maps([], []).shape == (0, 2, 2)
    with pytest.raises(ValueError):
        G.structure_maps([1], [0])


def test_validate_rejects_wrong_shape():
    G = module_G()
    steps = step_dict(G)
    key = next(k for k, m in steps.items() if m.size)
    steps[key] = field.zeros(steps[key].shape[0] + 1, steps[key].shape[1])
    with pytest.raises(ValueError, match="shape"):
        GridModule(G.grid, G.dims.copy(), steps, G.p).validate()


def test_validate_rejects_out_of_range_entry():
    G = module_G()
    steps = step_dict(G)
    key = next(k for k, m in steps.items() if m.size)
    steps[key] = steps[key].copy()
    steps[key][0, 0] = G.p
    with pytest.raises(ValueError, match="out of"):
        GridModule(G.grid, G.dims.copy(), steps, G.p).validate()


def test_validate_names_vertices_with_plain_ints():
    # the message is the CLI's exit-2 diagnostic, so it shows (0, 1), not
    # numpy scalar reprs
    M = random_module(2, 3, 2, seed=1)
    for key, want in ((((0, 2), 0), "square at (0, 1) axes (0,1) does not "
                                    "commute"),
                      (((0, 1), 1), "square at (0, 1) axes (0,1) does not "
                                    "commute")):
        steps = step_dict(M)
        steps[key] = steps[key].copy()
        steps[key][0, 0] = (steps[key][0, 0] + 1) % M.p
        with pytest.raises(ValueError) as exc:
            GridModule(M.grid, M.dims.copy(), steps, M.p).validate()
        assert str(exc.value) == want
    steps = step_dict(M)
    steps[((0, 1), 1)] = steps[((0, 1), 1)] + M.p
    with pytest.raises(ValueError) as exc:
        GridModule(M.grid, M.dims.copy(), steps, M.p).validate()
    assert str(exc.value) == "step at (0, 1) axis 1: entries out of [0,p)"


def _mutants(M):
    """M with one step deleted, and with each entry of each step moved
    by one mod p and by p."""
    given = step_dict(M)
    for key in given:
        yield GridModule(M.grid, M.dims.copy(),
                         {k: m for k, m in given.items() if k != key}, M.p)
        for i in np.ndindex(given[key].shape):
            for delta in (1, M.p):
                steps = dict(given)
                steps[key] = steps[key].copy()
                steps[key][i] += delta
                if delta == 1:
                    steps[key][i] %= M.p
                yield GridModule(M.grid, M.dims.copy(), steps, M.p)


def test_validate_agrees_with_plain_int_oracle():
    modules = [random_module(n, size, 2, seed=s) for n, size in
               ((1, 6), (2, 4), (3, 3)) for s in range(4)]
    assert all(M.validate() and module_is_valid(M) for M in modules)
    verdicts = [(X.is_valid(), module_is_valid(X))
                for X in _mutants(random_module(3, 3, 2, seed=1))]
    assert all(a == b for a, b in verdicts)
    assert {a for a, _ in verdicts} == {True, False}


def test_validate_reports_the_first_of_several_violations():
    # per axis k: ranges, presence, then the squares (k, l); so square
    # (0, 1) is reported before an axis-1 entry out of range
    M = random_module(2, 3, 2, seed=1)
    steps = step_dict(M)
    square, wild = ((0, 2), 0), ((0, 1), 1)
    for key in (square, wild):
        steps[key] = steps[key].copy()
    steps[square][0, 0] = (steps[square][0, 0] + 1) % M.p
    steps[wild][0, 0] += M.p
    with pytest.raises(ValueError) as exc:
        GridModule(M.grid, M.dims.copy(), steps, M.p).validate()
    assert str(exc.value) == "square at (0, 1) axes (0,1) does not commute"


def test_validate_memory_follows_the_distinct_steps():
    # 200 x 200 vertices of dimension 9 with one shared identity step on
    # every edge: a dense n x V x D x D step array alone would be 51.8 MB
    eye = field.eye(9)
    steps = {((i, j), k): eye for i in range(200) for j in range(200)
             for k in range(2) if (i, j)[k] < 199}
    M = GridModule(Grid([range(200)] * 2), np.full((200, 200), 9), steps)
    tracemalloc.start()
    try:
        assert M.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_validate_rejects_prime_too_large_for_int64_products():
    # (p-1)**2 * 3 >= 2**63: products of 3 x 3 matrices overflow int64,
    # so the commutativity checks could pass on wrapped-around values
    assert random_module(2, 3, 3, seed=1).validate()
    M = random_module(2, 3, 3, seed=1, p=2**31 - 1)
    assert M.max_pointwise_dim() == 3
    with pytest.raises(ValueError, match="too large"):
        M.validate()


def test_isomorphism_tests_each_distinct_component_once(monkeypatch):
    M = restriction_extension(random_module(2, 3, 2, seed=2),
                              Grid([[Fraction(i, 4) for i in range(10)]] * 2))
    _, W = decompose(M)
    distinct = len(Components.of(W.mats, M.grid.shape).mats)
    assert distinct < np.count_nonzero(M.dims)
    # the matrices handed to the batched elimination kernel
    handed = []
    rref_stack = field.rref_stack
    monkeypatch.setattr(field, "rref_stack", lambda a, p, **kw:
                        handed.append(len(a)) or rref_stack(a, p, **kw))
    assert W.is_isomorphism()
    assert 0 < sum(handed) <= distinct
    handed.clear()
    Winv = W.inverse()
    assert 0 < sum(handed) <= distinct
    handed.clear()
    assert Winv.is_isomorphism()
    assert 0 < sum(handed) <= distinct


def test_one_singular_component_among_shared_identities():
    M = random_module(2, 3, 2, seed=4)
    eye = {d: field.eye(d) for d in range(1, M.max_pointwise_dim() + 1)}
    mats = {v: eye[M.dim(v)] for v in _identity(M)}
    v = max(mats, key=M.dim)
    assert M.dim(v) == 2
    assert ModuleMorphism(M, M, mats).is_isomorphism()
    inv = ModuleMorphism(M, M, mats).inverse()
    assert all(np.array_equal(inv.at(w), eye[M.dim(w)]) for w in mats)
    singular = dict(mats)
    singular[v] = field.zeros(M.dim(v), M.dim(v))
    singular[v][0, 0] = 1
    missing = {w: m for w, m in mats.items() if w != v}
    for comps in (singular, missing):
        W = ModuleMorphism(M, M, comps)
        assert not W.is_isomorphism()
        with pytest.raises(ValueError):
            W.inverse()


# -- component tables against sort-based references ---------------------------

def _sorted_table(ids, mats, drop_zero=False):
    """(ids, mats) of Components(shape, ids, mats, drop_zero), renumbered by
    np.unique and two argsorts."""
    canon = {}
    kind = np.array([-1 if drop_zero and not (m.size and m.any()) else
                     canon.setdefault((m.shape, m.dtype.str, m.tobytes()),
                                      (len(canon), m))[0]
                     for m in mats], dtype=np.int64)
    reps = [m for _, m in canon.values()]
    ids = np.array(ids, dtype=np.int64).ravel()
    ids[ids >= 0] = kind[ids[ids >= 0]]
    live = np.flatnonzero(ids >= 0)
    used, first, inv = np.unique(ids[live], return_index=True,
                                 return_inverse=True)
    order = np.argsort(first)
    ids[live] = np.argsort(order)[inv.reshape(-1)]
    return ids, [reps[c] for c in used[order].tolist()]


def test_components_number_matrices_as_a_sort_would():
    rng = np.random.default_rng(5)
    pool = [np.array([[1, 2]]), np.array([[1, 2]]), np.zeros((1, 2), int),
            np.zeros((0, 3), int), np.array([[3]]), np.eye(2, dtype=int),
            np.array([[1], [2]]), np.zeros((2, 2), int), np.array([[3]]),
            np.array([[3]], dtype=np.int32)]
    cases = [((4, 5), rng.integers(-1, len(pool), 20)),
             ((3, 3, 2), rng.integers(-1, 3, 18)),
             ((60,), rng.integers(0, len(pool), 60)),
             ((2, 6), np.full(12, -1)),
             ((0,), np.zeros(0, int)), ((3, 0), np.zeros(0, int))]
    for size in (1, 7, 400):
        cases.append(((size,), rng.integers(-1, len(pool), size)))
    for shape, ids in cases:
        for drop_zero in (False, True):
            t = Components(shape, ids, pool, drop_zero)
            want_ids, want_mats = _sorted_table(ids, pool, drop_zero)
            assert np.array_equal(t.ids, want_ids)
            assert [m is x for m, x in zip(t.mats, want_mats)] == \
                [True] * len(want_mats) and len(t.mats) == len(want_mats)


def test_components_drop_exactly_the_zero_and_empty_matrices():
    # integer matrices are tested on their bytes, others by any(): -0.0
    # is zero but its bytes are not, and object arrays hold pointers
    pool = [np.zeros((2, 2), np.int64), np.array([[0, -1]]),
            np.zeros((1, 3), np.uint8), np.array([[0, 7]], np.uint8),
            np.zeros((2, 1), bool), np.array([[False], [True]]),
            np.array([[0.0, -0.0]]), np.array([[0.0, 0.5]]),
            np.array([[-0.0]]), np.array([[0, 0]], dtype=object),
            np.array([[0, 3]], dtype=object), np.zeros((0, 2), np.int64),
            np.zeros((2, 0), float), np.zeros((0, 0), dtype=object),
            np.eye(2, dtype=np.int32), np.array([[0], [2 ** 40]])]
    ids = np.arange(len(pool))
    t = Components((len(pool),), ids, pool, drop_zero=True)
    kept = [bool(m.size and m.any()) for m in pool]
    assert (t.ids >= 0).tolist() == kept
    assert [m is x for m, x in zip(t.mats, (m for m, k in zip(pool, kept)
                                            if k))] == [True] * sum(kept)
    assert Components((len(pool),), ids, pool).ids.tolist() == ids.tolist()


def test_edge_ends_match_index_arrays():
    for shape in ((3, 4), (1, 5), (4, 1, 2), (2, 0), (0,), (6,), (2, 3, 2, 2)):
        v, w = _edge_ends(shape)
        room = (np.indices(shape).reshape(len(shape), -1) + 1
                < np.array(shape)[:, None])
        flat = np.arange(int(np.prod(shape)))
        assert np.array_equal(v, np.tile(flat, len(shape)))
        assert np.array_equal(w, np.where(
            room, flat + _strides(shape)[:, None], -1).ravel())
