"""Modules on grids: validation, sums, hom spaces, isomorphism."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gridpersist import field
from gridpersist.cli import random_module
from gridpersist.construct import approximate_indecomposable, module_G
from gridpersist.core import (Components, Grid, GridModule, ModuleMorphism,
                              direct_sum, hom_space, interval_module,
                              random_basis_change, zero_module)
from gridpersist.decomp import decompose, is_isomorphic
from gridpersist.kan import common_refinement, restriction_extension

from conftest import free_module, rect
from oracles import hom_dim, module_is_valid, path_map


def test_grid_floor_and_coord():
    g = Grid([[Fraction(0), Fraction(1), Fraction(3)],
              [Fraction(0), Fraction(2)]])
    assert g.shape == (3, 2)
    assert g.coord((2, 1)) == (Fraction(3), Fraction(2))
    assert g.floor_index((Fraction(2), Fraction(5))) == (1, 1)
    assert g.floor_index((Fraction(-1), Fraction(0))) is None


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
    assert key in G.steps
    steps = dict(G.steps)
    steps[key] = (2 * steps[key]) % G.p
    bad = GridModule(G.grid, G.dims.copy(), steps, G.p)
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_rejects_missing_step():
    M = module_G()
    key = next(iter(M.steps))
    steps = {k: v for k, v in M.steps.items() if k != key}
    bad = GridModule(M.grid, M.dims.copy(), steps, M.p)
    with pytest.raises(ValueError):
        bad.validate()


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
                assert np.array_equal(
                    np.array(m, dtype=np.int64).reshape(M.dim(w), M.dim(v)),
                    M.structure_map(v, w))


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
    via_x = field.mmul(M.structure_map((2, 0), top),
                       M.structure_map((0, 0), (2, 0)), M.p)
    via_y = field.mmul(M.structure_map((0, 2), top),
                       M.structure_map((0, 0), (0, 2)), M.p)
    assert np.array_equal(via_x, via_y)
    assert np.array_equal(via_x, M.structure_map((0, 0), top))


def test_extension_semantics_dim_at():
    M = interval_module((0, 0), (2, 2))
    assert M.dim_at((Fraction(1, 2), Fraction(3, 2))) == 1
    assert M.dim_at((Fraction(-1), Fraction(0))) == 0
    assert M.dim_at((Fraction(5), Fraction(5))) == 0


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
    i = ModuleMorphism.identity(M)
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


def test_morphism_validate_names_the_failing_vertex():
    M = random_module(2, 3, 2, seed=1)
    v = tuple(map(int, max(M.support_vertices(), key=M.dim)))
    for m, msg in ((field.eye(M.dim(v) + 1), f"component at {v}: shape"),
                   (2 * field.eye(M.dim(v)), "naturality fails at")):
        mats = dict(ModuleMorphism.identity(M).mats)
        mats[v] = m
        with pytest.raises(ValueError, match=re.escape(msg)):
            ModuleMorphism(M, M, mats).validate()
    # doubled at the first and the last support vertex: the message names
    # the first failing edge source in C order, on the first failing axis
    mats = dict(ModuleMorphism.identity(M).mats)
    for w in (min(mats), max(mats)):
        mats[w] = 2 * mats[w] % M.p
    f = ModuleMorphism(M, M, mats)
    fails = [(k, u) for k in range(2) for u in map(tuple, M.grid.vertices())
             if M.has_succ(u, k) and not np.array_equal(
                 field.mmul(f.at(M.succ(u, k)), M.step(u, k), M.p),
                 field.mmul(M.step(u, k), f.at(u), M.p))]
    k, u = fails[0]
    assert len([x for x in fails if x[0] == k]) >= 2
    with pytest.raises(ValueError) as exc:
        f.validate()
    assert str(exc.value) == f"naturality fails at {u} axis {k}"


def test_identity_holds_one_matrix_per_positive_dimension():
    M = approximate_indecomposable(random_module(2, 4, 3, seed=0),
                                   Fraction(1, 2)).module
    ident = ModuleMorphism.identity(M)
    assert isinstance(ident.mats, Components)
    assert len(ident.mats.mats) == len(set(M.dims[M.dims > 0].tolist()))
    want = {v: field.eye(M.dim(v)) for v in M.grid.vertices() if M.dim(v)}
    got = dict(ident.mats)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[v], m) for v, m in want.items())


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
            assert np.array_equal(m[:r, :c], M.structure_map(v, w))
            want = np.array(path_map(M, v, w), dtype=np.int64).reshape(r, c)
            assert np.array_equal(m[:r, :c], want)


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
    key = next(k for k, m in G.steps.items() if m.size)
    steps = dict(G.steps)
    steps[key] = field.zeros(steps[key].shape[0] + 1, steps[key].shape[1])
    with pytest.raises(ValueError, match="shape"):
        GridModule(G.grid, G.dims.copy(), steps, G.p).validate()


def test_validate_rejects_out_of_range_entry():
    G = module_G()
    key = next(k for k, m in G.steps.items() if m.size)
    steps = dict(G.steps)
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
        steps = dict(M.steps)
        steps[key] = steps[key].copy()
        steps[key][0, 0] = (steps[key][0, 0] + 1) % M.p
        with pytest.raises(ValueError) as exc:
            GridModule(M.grid, M.dims.copy(), steps, M.p).validate()
        assert str(exc.value) == want
    steps = dict(M.steps)
    steps[((0, 1), 1)] = steps[((0, 1), 1)] + M.p
    with pytest.raises(ValueError) as exc:
        GridModule(M.grid, M.dims.copy(), steps, M.p).validate()
    assert str(exc.value) == "step at (0, 1) axis 1: entries out of [0,p)"


def _mutants(M):
    """M with one step deleted, and with each entry of each step moved
    by one mod p and by p."""
    for key in M.steps:
        yield GridModule(M.grid, M.dims.copy(),
                         {k: m for k, m in M.steps.items() if k != key}, M.p)
        for i in np.ndindex(M.steps[key].shape):
            for delta in (1, M.p):
                steps = dict(M.steps)
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
    steps = dict(M.steps)
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
    assert distinct < len(M.support_vertices())
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
    mats = {v: eye[M.dim(v)] for v in M.support_vertices()}
    v = max(M.support_vertices(), key=M.dim)
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
