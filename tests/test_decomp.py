"""Endomorphism algebras, idempotents, and full decomposition."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gridpersist import decomp, field, io, kan
from gridpersist.cli import random_module
from gridpersist.construct import (approximate_indecomposable, iso_certificate,
                                   module_G)
from gridpersist.core import (Components, GridModule, ModuleMorphism,
                              direct_sum, interval_module, random_basis_change,
                              sum_module, zero_module)
from gridpersist.decomp import (decompose, end_algebra, is_indecomposable,
                                is_isomorphic, radical)
from gridpersist.interleave import snap_certificate
from gridpersist.kan import (common_refinement, compress, compression_witness,
                             morphism_restriction_extension,
                             restriction_extension, shift, union_axes)
from gridpersist.core import Grid

from conftest import rect
import oracles as O


# -- splits along a given endomorphism, built on the library's split -----------

def find_idempotent(M: GridModule) -> ModuleMorphism:
    """A nontrivial idempotent endomorphism of a decomposable module."""
    A = end_algebra(M)
    e = decomp._idempotent(A) if A.dim else None
    if e is None:
        raise ValueError("module is zero or indecomposable")
    return ModuleMorphism.linear_combination(A.basis, e, A.p)


def _support(M: GridModule):
    return list(map(tuple, np.argwhere(M.dims > 0).tolist()))


def split_by_idempotent(M: GridModule, e: ModuleMorphism):
    """Split M as image(e) + kernel(e).  Returns (M_im, M_ker, witness) with
    witness a verified isomorphism direct_sum(M_im, M_ker) -> M."""
    for v in _support(M):
        ev = e.at(v)
        if not np.array_equal(field.mmul(ev, ev, M.p), ev):
            raise ValueError(f"not idempotent at {v}")
    return _image_kernel_split(M, {v: e.at(v) for v in _support(M)})


def fitting_split(M: GridModule, phi: ModuleMorphism):
    """Fitting decomposition along an endomorphism: M = im(phi^N) + ker(phi^N)
    for N large enough to stabilize.  Returns (M_im, M_ker, witness)."""
    powers = {}
    for v in _support(M):
        powers[v] = field.eye(M.dim(v))
        for _ in range(max(1, M.max_pointwise_dim())):
            powers[v] = field.mmul(powers[v], phi.at(v), M.p)
    return _image_kernel_split(M, powers)


def _side_by_side(M: GridModule, parts, bases) -> ModuleMorphism:
    """The morphism sum_module(*parts) -> M that includes each part by its
    basis (unchecked)."""
    return ModuleMorphism(sum_module(*parts), M, {
        v: np.concatenate([b[v] for b in bases], axis=1)
        for v in _support(M)})


def _image_kernel_split(M: GridModule, mats):
    """(M_im, M_ker, W) along the pointwise images and kernels of mats
    (support vertex -> endomorphism of M there), once W is checked."""
    bases = [dict(zip(mats, field.column_spaces(list(mats.values()), M.p))),
             {v: field.nullspace(a, M.p) for v, a in mats.items()}]
    parts = decomp._split_by_bases(M, bases)
    W = _side_by_side(M, parts, bases)
    W.validate()
    if not W.is_isomorphism():
        raise ValueError("split witness is not an isomorphism")
    return (*parts, W)


def _refine_all(*mods):
    g = Grid(union_axes(*(m.grid for m in mods)))
    return [restriction_extension(m, g) for m in mods]


def test_end_algebra_of_G_is_the_ground_field():
    for p in (65521, 2):
        A = end_algebra(module_G(p=p))
        assert A.dim == 1
        assert is_indecomposable(module_G(p=p))


def test_end_algebra_of_disjoint_sum_is_two_dimensional():
    X = rect((0, 0), (1, 1), p=3)
    Y = rect((10, 10), (11, 11), p=3)
    X, Y = _refine_all(X, Y)
    S, _, _ = direct_sum(X, Y)
    A = end_algebra(S)
    assert A.dim == 2 == O.hom_dim(S, S)


def test_radical_of_product_of_fields_is_zero():
    X = rect((0, 0), (1, 1))
    Y = rect((10, 10), (11, 11))
    X, Y = _refine_all(X, Y)
    S, _, _ = direct_sum(X, Y)
    A = end_algebra(S)
    assert radical(A).shape[1] == 0


def test_radical_detects_nilpotents():
    # overlapping intervals on a line admit a nonzero nilpotent map
    # k_[0,2) -> k_[1,3)
    X = interval_module((0,), (2,))
    Y = interval_module((1,), (3,))
    X, Y = _refine_all(X, Y)
    S, _, _ = direct_sum(X, Y)
    A = end_algebra(S)
    assert A.dim > 2
    assert radical(A).shape[1] > 0


def _span(cols, p):
    """Every F_p-combination of the columns, as coordinate tuples."""
    return {tuple(field.mmul(cols, np.array(c, dtype=np.int64)
                             .reshape(-1, 1), p)[:, 0].tolist())
            for c in product(range(p), repeat=cols.shape[1])}


@pytest.mark.parametrize("p", [2, 3])
def test_radical_matches_the_nilpotent_products_oracle(p):
    # End and its corner algebras at primes p <= dim End, where the trace
    # form alone is not enough, against {a : a b nilpotent for all b}
    mods = [random_module(2, 2, d, seed=s, p=p)
            for d, seeds in ((1, range(6)), (2, range(4))) for s in seeds]
    X, Y = _refine_all(interval_module((0,), (2,), p=p),
                       interval_module((1,), (3,), p=p))
    mods += [direct_sum(X, Y)[0], direct_sum(X, X)[0],
             GridModule(Grid([[0], [0]]), np.array([[2]]), {}, p)]
    algebras = []
    for M in mods:
        if M.total_dim():
            A = end_algebra(compress(M))
            algebras.append(A)
            g = decomp._idempotent(A) if A.dim else None
            if g is not None:
                algebras += [decomp._corner(A, f)
                             for f in (g, (A.one - g) % p)]
    # F_p[x] / (x^m) for m = p, p + 1: there Tr(L_1) = m, and at m = p
    # the trace-form kernel is all of A
    J = np.eye(p + 1, k=-1, dtype=np.int64)
    algebras += [_matrix_algebra([np.linalg.matrix_power(J[:m, :m], k)
                                  for k in range(m)], p, m)[0]
                 for m in (p, p + 1)]
    small = [A for A in algebras if p ** (2 * A.dim) <= 2 ** 16]
    assert len(small) >= 10 and any(A.dim >= p for A in small)
    assert any(len(O.radical_bruteforce(A)) > 1 for A in small)
    for A in small:
        assert _span(radical(A), p) == O.radical_bruteforce(A)


@pytest.mark.parametrize("p, d", [(2, 2), (3, 3), (2, 4)])
def test_full_matrix_algebras_split_below_their_dimension(p, d, monkeypatch):
    # End(k^d at one vertex) = M_d(F_p) with p | d: Tr(L_x L_y) = d tr(x y)
    # vanishes, so the trace-form kernel is all of A, and only the trace
    # functions find the radical 0
    M = GridModule(Grid([[0], [0]]), np.array([[d]]), {}, p)
    seen, refine = [], decomp._trace_refinement
    monkeypatch.setattr(decomp, "_trace_refinement", lambda A, rad, e: (
        seen.append((A.dim, rad.shape[1], e)) or refine(A, rad, e)))
    A = end_algebra(M)
    assert radical(A).shape[1] == 0
    assert seen[0] == (d * d, d * d, p)
    parts, w = decompose(M)
    assert [X.dims.tolist() for X in parts] == [[[1]]] * d
    w.validate()
    assert w.is_isomorphism()


def test_trace_refinement_never_runs_at_the_default_prime(monkeypatch):
    # p = 65521 > dim End on the decompose corpora: radical is the
    # trace-form kernel alone, as it was before the refinement existed
    def refuse(A, rad, e):
        raise AssertionError("trace refinement at p > dim")

    monkeypatch.setattr(decomp, "_trace_refinement", refuse)
    mods = _witness_corpus() + [M for M, _ in _idempotent_corpus(65521)]
    for M in mods + [_nested_intervals(65521)]:
        parts, w = decompose(M)
        assert sum(X.total_dim() for X in parts) == M.total_dim()


def test_end_of_G_plus_G_splits_evenly():
    G = module_G()
    S, _, _ = direct_sum(G, G)
    A = end_algebra(S)
    assert A.dim == 4   # 2x2 matrices over the field
    e = find_idempotent(S)
    e.validate()
    for v, m in e.mats.items():
        assert np.array_equal(field.mmul(m, m, S.p), m % S.p)
    M1, M2, w = split_by_idempotent(S, e)
    w.validate()
    assert M1.total_dim() == M2.total_dim() == 25


def test_fitting_split_along_nilpotent_plus_invertible():
    X = rect((0, 0), (2, 2))
    Y = rect((10, 10), (12, 12))
    X, Y = _refine_all(X, Y)
    S, incs, projs = direct_sum(X, Y)
    phi = incs[0].compose(projs[0])   # projection onto the X block
    M1, M2, w = fitting_split(S, phi)
    w.validate()
    assert {M1.total_dim(), M2.total_dim()} == {X.total_dim(), Y.total_dim()}


def test_decompose_recovers_summands_of_shuffled_sum():
    G = module_G()
    I = interval_module((0, 0), (1, 1))
    Gr, Ir = _refine_all(G, I)
    S, _, _ = direct_sum(Gr, Gr, Ir)
    M = random_basis_change(S, seed=21)
    parts, witness = decompose(M)
    witness.validate()
    assert witness.is_isomorphism()
    assert sorted(p.total_dim() for p in parts) == [1, 25, 25]
    matches = [sum(bool(is_isomorphic(p, q)) for q in (Gr, Ir))
               for p in parts]
    assert all(matches)


def test_decompose_zero_module():
    parts, w = decompose(zero_module(2))
    assert parts == []


def test_random_conjugated_triple_splits():
    pieces = [rect((0, 0), (2, 2)), rect((1, 1), (3, 3)), rect((0, 1), (2, 3))]
    pieces = _refine_all(*pieces)
    S, _, _ = direct_sum(*pieces)
    M = random_basis_change(S, seed=5)
    parts, w = decompose(M)
    assert len(parts) == 3
    assert all(p.total_dim() > 0 for p in parts)
    assert w.is_isomorphism()


def test_is_indecomposable_matches_bruteforce_on_tiny_corpus():
    # exhaustive idempotent enumeration is feasible for p in {2, 3} and
    # dim End <= 4; the library must agree exactly
    corpus = []
    for p in (2, 3):
        corpus.append(interval_module((0,), (2,), p=p))
        corpus.append(interval_module((0, 0), (2, 1), p=p))
        X = interval_module((0,), (2,), p=p)
        Y = interval_module((1,), (3,), p=p)
        Xr, Yr = _refine_all(X, Y)
        S, _, _ = direct_sum(Xr, Yr)
        corpus.append(S)
        A = interval_module((0, 0), (1, 1), p=p)
        B = interval_module((2, 2), (3, 3), p=p)
        Ar, Br = _refine_all(A, B)
        T, _, _ = direct_sum(Ar, Br)
        corpus.append(random_basis_change(T, seed=2))
        corpus.append(random_module(2, 2, 1, seed=4, p=p))
    for M in corpus:
        if M.total_dim() == 0:
            continue
        e = O.find_idempotent_bruteforce(M)
        assert is_indecomposable(M) == (e is None), M
        parts, w = decompose(M)
        assert (len(parts) == 1) == (e is None)
        assert sum(p.total_dim() for p in parts) == M.total_dim()


def test_decompose_dims_add_up_pointwise():
    for s in range(5):
        M = random_module(2, 3, 2, seed=s)
        if M.total_dim() == 0:
            continue
        parts, w = decompose(M)
        total = sum(p.dims for p in parts)
        assert np.array_equal(total, M.dims)


def test_structure_constants_match_composition():
    # the table is solved on pivot rows only; pin it to direct composition
    # of the basis endomorphisms at every vertex
    G = module_G()
    GG, _, _ = direct_sum(G, G)
    mods = [random_module(2, 3, 2, seed=s) for s in (0, 1, 3)]
    mods += [random_module(2, 4, 3, seed=5), GG,
             random_basis_change(GG, seed=3)]
    for M in mods:
        if M.total_dim() == 0:
            continue
        A = end_algebra(M)
        assert A.dim > 0
        unit = np.eye(A.dim, dtype=np.int64)
        for i in range(A.dim):
            for j in range(A.dim):
                prod = ModuleMorphism.linear_combination(
                    A.basis, A.mul(unit[i], unit[j]), M.p)
                comp = A.basis[i].compose(A.basis[j])
                for v in M.grid.vertices():
                    v = tuple(v)
                    assert np.array_equal(prod.at(v) % M.p,
                                          comp.at(v) % M.p), (M, i, j, v)


def _refined_shuffled(seed, ways=3):
    # as the decompose benchmark builds it: each grid cell split `ways`
    # ways, then a random basis change
    R = random_module(2, 4, 3, seed=seed)
    ax = sorted({Fraction(i) + Fraction(j, ways)
                 for i in range(3) for j in range(ways)} | {Fraction(3)})
    M = random_basis_change(restriction_extension(R, Grid([ax, ax])), seed)
    return R, M


def test_end_pivots_are_those_of_the_whole_basis():
    # the pivot rows are sought among the first copies of the distinct
    # rows of the stacked basis; they must be the pivots of the whole
    mods = [random_module(2, 3, 2, seed=s) for s in range(4)]
    mods += [random_module(2, 4, 3, seed=5), zero_module(2)]
    mods += [_refined_shuffled(s)[1] for s in (0, 1)]
    for s in (4, 11):
        F = approximate_indecomposable(random_module(2, 3, 2, seed=s),
                                       Fraction(1, 2)).module
        mods += [F, compress(F)]
    for M in mods:
        A = end_algebra(M)
        assert A._piv.tolist() == field.rref(A._vecmat.T, M.p)[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_builds_one_end_per_node_on_the_compressed_grid(
        seed, monkeypatch):
    # one End(C) for C = compress(M), split by its corner algebras, and
    # one split of C along all the idempotents; the only modules
    # restriction_extension rebuilds are C (inside compress) and each
    # summand on M's grid, and none when C is M
    _, M = _refined_shuffled(seed)
    shape = compress(M).grid.shape
    built, compressed, splits, rebuilt = [], [], [], []
    init = decomp.EndAlgebra.__init__
    split = decomp._split_by_bases
    rext = kan.restriction_extension

    def counting_rext(X, grid):
        out = rext(X, grid)
        if out is not X:
            rebuilt.append(out.grid.shape)
        return out

    def counting_init(self, X):
        built.append(X.grid.shape)
        init(self, X)

    def counting_compress(X):
        compressed.append(X)
        return compress(X)

    def counting_split(X, bases):
        splits.append(len(bases))
        return split(X, bases)

    monkeypatch.setattr(decomp.EndAlgebra, "__init__", counting_init)
    monkeypatch.setattr(decomp, "compress", counting_compress)
    monkeypatch.setattr(decomp, "_split_by_bases", counting_split)
    for mod in (kan, decomp):
        monkeypatch.setattr(mod, "restriction_extension", counting_rext)
    parts, w = decompose(M)
    assert len(parts) >= 2
    assert built == [shape]
    assert splits == [len(parts)]
    assert compressed == [M]
    assert w.target is M and w.is_isomorphism()
    assert shape != M.grid.shape
    assert rebuilt == [shape] + [M.grid.shape] * len(parts)
    C = compress(M)
    rebuilt.clear()
    assert compress(C) is C and len(decompose(C)[0]) == len(parts)
    assert rebuilt == []


def _count_validate(monkeypatch):
    calls = []
    check = ModuleMorphism.validate

    def counting_validate(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(ModuleMorphism, "validate", counting_validate)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_checks_one_witness(seed, monkeypatch):
    # the witness checked on M's grid implies every split on the way, so
    # the splits inside the recursion go unchecked
    _, M = _refined_shuffled(seed)
    calls = _count_validate(monkeypatch)
    parts, w = decompose(M)
    assert len(parts) >= 2
    assert calls == [w]


def _openness_shaped(r, seed):
    """As the openness benchmark builds it: a rectangle plus a 1/4-square,
    basis-changed, shifted by -r and snapped to the 1/8-lattice."""
    X = rect((0, 1), (3, 3))
    T = rect((Fraction(3, 8), Fraction(5, 8)), (Fraction(5, 8), Fraction(7, 8)))
    S = random_basis_change(direct_sum(*_refine_all(X, T))[0], seed)
    return snap_certificate(shift(S, -r), Fraction(1, 8))[0]


def _witness_corpus():
    """Random, refined (compress shrinks the grid), basis-changed,
    openness-shaped and fold-output modules."""
    mods = [random_module(2, 3, 2, seed=s) for s in (0, 4)]
    mods += [random_module(2, 4, 3, seed=1), _refined_shuffled(0)[1],
             _refined_shuffled(2)[1],
             random_basis_change(random_module(2, 4, 3, seed=2), seed=5)]
    mods += [_openness_shaped(Fraction(r, 64), r) for r in (0, 3)]
    F = approximate_indecomposable(random_module(2, 3, 2, seed=4),
                                   Fraction(1, 2)).module
    I = restriction_extension(interval_module((0, 0), (1, 1)), F.grid)
    return mods + [F, random_basis_change(direct_sum(F, I)[0], seed=6)]


def test_decompose_witness_matches_the_composite_through_the_compressed_grid(
        monkeypatch):
    # the witness built in one pass on M's grid, table for table, against
    # the inclusion of the split of C = compress(M) side by side, moved to
    # M's grid and composed with the compression witness
    split, seen, shrunk = decomp._split_by_bases, [], set()

    def recording_split(C, bases):
        seen.append((C, bases, split(C, bases)))
        return seen[-1][2]

    monkeypatch.setattr(decomp, "_split_by_bases", recording_split)
    for M in _witness_corpus():
        seen.clear()
        parts, W = decompose(M)
        (C, bases, Xs), = seen
        shrunk.add(C.grid != M.grid)
        Ys = [restriction_extension(X, M.grid) for X in Xs]
        order = sorted(range(len(Xs)), key=lambda i: (
            Ys[i].total_dim(), Ys[i].dims.ravel().tolist()))
        assert [Y.dims.tolist() for Y in parts] == [Ys[i].dims.tolist()
                                                   for i in order]
        Wc = _side_by_side(C, [Xs[i] for i in order],
                           [bases[i] for i in order])
        old = compression_witness(M, C).compose(
            morphism_restriction_extension(Wc, M.grid))
        got, want = (Components.of(f.mats, M.grid.shape) for f in (W, old))
        assert np.array_equal(got.ids, want.ids)
        assert len(got.mats) == len(want.mats)
        for a, b in zip(got.mats, want.mats):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert shrunk == {False, True}


def test_decompose_accepts_every_seed_below_2_to_the_32():
    # the corner algebras draw with the next seed, wrapping at 2**32
    M = random_module(2, 3, 2, seed=4)
    for seed in (0, 2 ** 32 - 2, 2 ** 32 - 1):
        parts, w = decompose(M, seed)
        assert len(parts) == 3 and w.is_isomorphism()


def test_public_splits_check_their_witness(monkeypatch):
    X, Y = _refine_all(rect((0, 0), (2, 2)), rect((10, 10), (12, 12)))
    S, incs, projs = direct_sum(X, Y)
    e = incs[0].compose(projs[0])
    calls = _count_validate(monkeypatch)
    for split in (split_by_idempotent, fitting_split):
        calls.clear()
        w = split(S, e)[2]
        assert calls == [w]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_of_refined_module_matches_unrefined(seed):
    R, M = _refined_shuffled(seed)
    parts, w = decompose(M)
    assert all(X.grid == M.grid for X in parts)
    assert np.array_equal(sum(X.dims for X in parts), M.dims)
    want, _ = decompose(R)
    assert len(parts) == len(want)
    assert sorted(X.dims.ravel().tolist() for X in parts) == sorted(
        restriction_extension(X, M.grid).dims.ravel().tolist() for X in want)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_find_idempotent_raises_exactly_on_indecomposables(p):
    X = interval_module((0,), (2,), p=p)
    Y = interval_module((1,), (3,), p=p)
    A = interval_module((0, 0), (1, 1), p=p)
    B = interval_module((2, 2), (3, 3), p=p)
    G = module_G(p=p)
    corpus = [X, interval_module((0, 0), (2, 1), p=p), G,
              direct_sum(*_refine_all(X, Y))[0],
              random_basis_change(direct_sum(*_refine_all(A, B))[0], seed=2),
              random_basis_change(direct_sum(G, G)[0], seed=3)]
    corpus += [random_module(2, 2, 1, seed=s, p=p) for s in range(4)]
    verdicts = set()
    for M in corpus:
        if M.total_dim() == 0:
            continue
        try:
            e = find_idempotent(M)
            raised = False
        except ValueError:
            raised = True
        assert raised == is_indecomposable(M), M
        if not raised:
            e.validate()
            assert all(np.array_equal(field.mmul(m, m, p), m % p)
                       for m in e.mats.values())
        verdicts.add(raised)
    assert verdicts == {True, False}


# -- the complete set of primitive idempotents --------------------------------

def _idempotent_corpus(p):
    X = interval_module((0, 0), (2, 2), p=p)
    Y = interval_module((1, 1), (3, 3), p=p)
    G = module_G(p=p)
    Xr, Yr = _refine_all(X, Y)
    corpus = [
        (random_basis_change(direct_sum(G, G)[0], seed=3), 2),
        (random_basis_change(direct_sum(Xr, Xr, Yr)[0], seed=4), 3),
        (random_basis_change(direct_sum(Xr, Yr)[0], seed=5), 2),
        (random_module(2, 3, 2, seed=2, p=p), None),
        (random_module(2, 2, 2, seed=6, p=p), None)]
    R = random_module(2, 3, 2, seed=4, p=p)
    ax = sorted({Fraction(i, 2) for i in range(5)})
    corpus.append((random_basis_change(
        restriction_extension(R, Grid([ax, ax])), seed=7), None))
    return corpus


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_primitive_idempotents_are_complete_orthogonal_and_local(p):
    for M, k in _idempotent_corpus(p):
        C = compress(M)
        A = end_algebra(C)
        idems = decomp._primitive_idempotents(A, 0)
        if k is not None:
            assert len(idems) == k
        assert np.array_equal(sum(idems) % p, A.one)
        for i, e in enumerate(idems):
            assert e.any()
            for j, f in enumerate(idems):
                assert np.array_equal(A.mul(e, f), e if i == j else 0 * e)
        bases = A.image_bases(np.stack(idems, axis=1))
        for e, X in zip(idems, decomp._split_by_bases(C, bases)):
            X.validate()
            d = O.hom_dim(X, X)
            # the corner eAe is End(eC)
            assert decomp._corner(A, e).dim == d
            if p ** d <= 4096:
                assert O.find_idempotent_bruteforce(X) is None
        parts, w = decompose(M)
        assert len(parts) == len(idems)
        assert w.is_isomorphism()


# -- exactness at the largest prime validate accepts ---------------------------

P31 = 2 ** 31 - 1


def test_end_algebra_is_exact_at_the_largest_accepted_prime():
    # at p = 2**31 - 1 and pointwise dimension 2, one product of three
    # factors overflows int64; every product must come out exact
    X = interval_module((0, 0), (2, 2), p=P31)
    Y = interval_module((1, 1), (3, 3), p=P31)
    Xr, Yr = _refine_all(X, Y)
    M = random_basis_change(direct_sum(Xr, Yr)[0], seed=3)
    assert M.validate() and M.max_pointwise_dim() == 2
    A = end_algebra(M)
    assert A.dim == 3
    t = A.table.tolist()
    for i in range(3):
        for j in range(3):
            prod = ModuleMorphism.linear_combination(A.basis, t[i][j], P31)
            for v in _support(M):
                want = O.mat_mul(A.basis[i].at(v).tolist(),
                                 A.basis[j].at(v).tolist(), P31)
                assert prod.at(v).tolist() == want
    rng = np.random.default_rng(0)
    pairs = [([P31 - 1] * 3, [P31 - 1] * 3)]
    pairs += [(rng.integers(0, P31, 3).tolist(),
               rng.integers(0, P31, 3).tolist()) for _ in range(5)]
    for x, y in pairs:
        want = [sum(x[i] * y[j] * t[i][j][k] for i in range(3)
                    for j in range(3)) % P31 for k in range(3)]
        assert A.mul(np.array(x), np.array(y)).tolist() == want
    assert not is_indecomposable(M)
    parts, w = decompose(M)
    assert sorted(X.total_dim() for X in parts) == [4, 4]
    assert all(is_indecomposable(X) for X in parts)
    assert {tuple(X.dims.ravel()) for X in parts} == {
        tuple(Xr.dims.ravel()), tuple(Yr.dims.ravel())}


# -- idempotents from powers in the algebra -----------------------------------

def _matrix_algebra(mats, p, seed):
    """The algebra spanned by the square matrices mats, closed under
    products, on a random basis of their span: (structure table, unit)."""
    rng = np.random.RandomState(seed)
    D = len(mats)
    while True:
        P = rng.randint(0, p, size=(D, D)).astype(np.int64)
        if field.rank(P, p) == D:
            break
    mats = [sum(int(P[k, i]) * mats[k] % p for k in range(D)) % p
            for i in range(D)]
    vecs = np.stack([m.ravel() for m in mats], axis=1)
    table = np.zeros((D, D, D), dtype=np.int64)
    for i in range(D):
        for j in range(D):
            table[i, j] = O.solve(
                vecs, field.mmul(mats[i], mats[j], p).ravel(), p)
    one = O.solve(vecs, field.eye(len(mats[0])).ravel(), p)
    return decomp._Algebra(table, one, p), mats


def _units(n, cells):
    out = []
    for i, j in cells:
        m = field.zeros(n, n)
        m[i, j] = 1
        out.append(m)
    return out


def _nonresidue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


def _semisimple_algebras(p):
    """(name, matrices spanning a semisimple algebra, is it a field)."""
    x = field.fmat([[0, _nonresidue(p)], [1, 0]], p)   # x^2 = nonresidue
    full = [(i, j) for i in range(2) for j in range(2)]
    out = [(f"F_p^{s}", _units(s, [(i, i) for i in range(s)]), False)
           for s in (2, 3, 4)]
    out += [("F_p^2 field", [field.eye(2), x], True),
            ("M_2", _units(2, full), False),
            ("M_2 x F_p", _units(3, full + [(2, 2)]), False)]
    return out


def _matrix_power(m, e, p):
    # square-and-multiply on Python integers, independent of field.mmul
    acc = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    base = m.tolist()
    while e:
        if e & 1:
            acc = O.mat_mul(acc, base, p)
        base = O.mat_mul(base, base, p)
        e >>= 1
    return acc


@pytest.mark.parametrize("p", [3, 5, 65521, P31])
def test_power_and_quotient_idempotent_on_hand_built_tables(p):
    for seed, (name, mats, is_field) in enumerate(_semisimple_algebras(p)):
        B, basis = _matrix_algebra(mats, p, seed)
        x = np.random.RandomState(seed).randint(0, p, size=(3, B.dim))
        for e in (0, 1, (p - 1) // 2, p):
            got = B.power(x, e)
            assert got.shape == x.shape
            if p < 8:
                want = np.tile(B.one, (3, 1))
                for _ in range(e):
                    want = B.mul(want, x)
                assert np.array_equal(got, want), (name, e)
            for xr, gr in zip(x, got):
                m, g = (sum(int(c) * b % p for c, b in zip(r, basis)) % p
                        for r in (xr, gr))
                assert g.tolist() == _matrix_power(m, e, p), (name, e)
        e = decomp._quotient_idempotent(B, np.random.RandomState(seed))
        if is_field:
            assert e is None, name
        else:
            assert e is not None, name
            assert e.any() and not np.array_equal(e, B.one), name
            assert np.array_equal(B.mul(e, e), e), name


def _algebras_of(M, monkeypatch):
    """End(compress(M)) and every corner algebra, semisimple quotient and
    commutative subalgebra that its primitive idempotent search builds."""
    seen = [end_algebra(compress(M))]
    for name in ("_quotient_idempotent", "_fixed_idempotent"):
        def spy(B, rng, wrapped=getattr(decomp, name)):
            seen.append(B)
            return wrapped(B, rng)
        monkeypatch.setattr(decomp, name, spy)
    corner = decomp._corner
    monkeypatch.setattr(decomp, "_corner",
                        lambda A, f: seen.append(corner(A, f)) or seen[-1])
    decomp._primitive_idempotents(seen[0], 0)
    monkeypatch.undo()
    return seen


def test_corner_matches_the_two_mul_route(monkeypatch):
    # every corner algebra decompose's idempotent search builds on the
    # decomposition corpora (End(G + G) among them is noncommutative), and
    # corners of the noncommutative semisimple algebras M_2 and M_2 x F_p,
    # each its own semisimple quotient, against x -> f x f taken as two
    # algebra products per basis element
    calls, corner = [], decomp._corner
    monkeypatch.setattr(decomp, "_corner",
                        lambda A, f: calls.append((A, f)) or corner(A, f))
    mods = _power_corpus() + [M for p in (3, 65521)
                              for M, _ in _idempotent_corpus(p)]
    for M in mods:
        decomp._primitive_idempotents(end_algebra(compress(M)), 0)
    for p in (5, 65521):
        for seed, (_, mats, _) in enumerate(_semisimple_algebras(p)):
            B = _matrix_algebra(mats, p, seed)[0]
            if not B.is_commutative():
                e = decomp._quotient_idempotent(B, np.random.RandomState(seed))
                calls += [(B, e), (B, (B.one - e) % p)]
    assert sum(not A.is_commutative() for A, _ in calls) >= 6
    for A, f in calls:
        fxf = np.array(O.corner_map(A.table.tolist(), f.tolist(), A.p),
                       dtype=np.int64).reshape(A.dim, A.dim)
        R, piv = field.rref(fxf, A.p)
        want = A.restrict(fxf[:, piv], R[:len(piv)], f)
        got = corner(A, f)
        for a, b in ((got.table, want.table), (got.one, want.one),
                     (got.embed, want.embed)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _check_power(A, xs, e):
    got = A.power(xs, e)
    assert got.shape == np.shape(xs)
    want = O.algebra_power(A.table.tolist(), A.one.tolist(),
                           np.reshape(xs, (-1, A.dim)).tolist(), e, A.p)
    assert got.reshape(-1, A.dim).tolist() == want, (A.dim, e)


def _power_corpus():
    # random, refined, basis-changed and fold-output modules
    mods = [random_module(2, 3, 2, seed=s) for s in (0, 3)]
    mods += [random_module(2, 4, 3, seed=1),
             random_basis_change(random_module(2, 4, 3, seed=2), seed=2),
             restriction_extension(random_module(2, 3, 2, seed=3), Grid(
                 [[Fraction(i, 2) for i in range(5)]] * 2)),
             _refined_shuffled(0)[1]]
    G = module_G()
    I = interval_module((0, 0), (1, 1))
    mods.append(random_basis_change(
        direct_sum(*_refine_all(G, G, I, I, I))[0], seed=13))
    mods += [approximate_indecomposable(random_module(2, 3, 2, seed=s),
                                        Fraction(1, 2)).module
             for s in (4, 11)]
    return mods


def test_power_matches_the_algebra_product_oracle(monkeypatch):
    rng = np.random.default_rng(5)
    dims = set()
    for M in _power_corpus():
        for A in _algebras_of(M, monkeypatch):
            dims.add(A.dim)
            p, D = A.p, A.dim
            stacks = [rng.integers(0, p, D), rng.integers(0, p, (3, D)),
                      np.zeros((0, D), dtype=np.int64), field.eye(D)]
            big = int(rng.integers(2 ** 31, 2 ** 32))
            for e in (0, 1, 2, p, (p - 1) // 2, big):
                for xs in stacks:
                    _check_power(A, xs, e)
    # End algebras, corners, quotients and F_p[b] of several sizes
    assert {1, 2}.issubset(dims) and max(dims) >= 20


def test_power_and_fixed_basis_are_exact_at_the_largest_accepted_prime(
        monkeypatch):
    # at p = 2**31 - 1, field.mmul splits every inner sum of 3 or more
    # terms; End(M) has dimension 3 (validate allows M no more), and on a
    # random basis its table is dense, so unsplit sums would overflow
    X = interval_module((0, 0), (2, 2), p=P31)
    Y = interval_module((1, 1), (3, 3), p=P31)
    M = random_basis_change(direct_sum(*_refine_all(X, Y))[0], seed=3)
    algebras = _algebras_of(M, monkeypatch)
    E = algebras[0]
    assert E.dim == 3
    rng = np.random.default_rng(2)
    P = rng.integers(0, P31, (3, 3))
    assert field.rank(P, P31) == 3
    algebras.append(E.restrict(P, field.minv(P, P31), E.one))
    assert np.count_nonzero(algebras[-1].table) == 27
    for A in algebras:
        D = A.dim
        xs = np.concatenate([np.full((1, D), P31 - 1),
                             rng.integers(0, P31, (64, D)), field.eye(D)])
        for e in (2, P31, (P31 - 1) // 2, 2 ** 32 - 1):
            _check_power(A, xs, e)
        fx = O.algebra_power(A.table.tolist(), A.one.tolist(),
                             field.eye(D).tolist(), P31, P31)
        rows = [[(fx[j][i] - (i == j)) % P31 for j in range(D)]
                for i in range(D)]
        assert A.frobenius_fixed_basis().T.tolist() == \
            O.gauss_nullspace(rows, P31)


def _decompose_twice(M):
    runs = [decompose(M, seed=7) for _ in range(2)]
    assert [io.dumps(X) for X in runs[0][0]] == \
        [io.dumps(X) for X in runs[1][0]]
    return runs[0]


def test_decompose_splits_a_noncommutative_quotient(monkeypatch):
    # End(G+G+I+I+I) / rad = M_2(F_p) x M_3(F_p): split inside F_p[b]
    G = module_G()
    I = interval_module((0, 0), (1, 1))
    Gr, Ir = _refine_all(G, I)
    M = random_basis_change(direct_sum(Gr, Gr, Ir, Ir, Ir)[0], seed=13)
    seen = []
    split = decomp._quotient_idempotent

    def spy(B, rng):
        seen.append(B.is_commutative())
        return split(B, rng)

    monkeypatch.setattr(decomp, "_quotient_idempotent", spy)
    parts, w = _decompose_twice(M)
    assert False in seen
    w.validate()
    assert w.is_isomorphism()
    assert sorted(X.dims.ravel().tolist() for X in parts) == sorted(
        X.dims.ravel().tolist() for X in (Gr, Gr, Ir, Ir, Ir))


@pytest.mark.parametrize("p, corners", [
    (3, [((0, 0), (1, 1)), ((4, 4), (5, 5))]),
    (5, [((0, 0), (1, 1)), ((2, 3), (3, 4)), ((4, 0), (6, 1))])])
def test_decompose_splits_by_the_trace_form_at_small_primes(
        p, corners):
    # p > dim End, so the split takes powers c^((p-1)/2) with (p-1)/2 in
    # {1, 2}
    pieces = _refine_all(*(rect(a, b, p=p) for a, b in corners))
    M = random_basis_change(direct_sum(*pieces)[0], seed=p)
    parts, w = _decompose_twice(M)
    w.validate()
    assert w.is_isomorphism()
    assert sorted(X.dims.ravel().tolist() for X in parts) == sorted(
        X.dims.ravel().tolist() for X in pieces)


# -- isomorphism ----------------------------------------------------------------

def _nested_intervals(p):
    """The sum of the eight nested intervals [(0, 0), (i+1, i+1)): End has
    dimension 36, and a random endomorphism is invertible with probability
    about 2^-8 at p = 2."""
    return direct_sum(*_refine_all(*(interval_module(
        (0, 0), (i + 1, i + 1), p=p) for i in range(8))))[0]


def test_is_isomorphic_finds_a_witness_on_nested_intervals():
    S = _nested_intervals(65521)
    W = is_isomorphic(S, random_basis_change(S, seed=5))
    assert W is not None
    W.validate()
    assert W.is_isomorphism()
    iso_certificate(W).verify()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nested_intervals_split_and_match_at_small_primes(p):
    # dim End = 36 > p: the radical needs the trace functions
    S = _nested_intervals(p)
    parts, w = decompose(S)
    assert len(parts) == 8
    w.validate()
    assert w.is_isomorphism()
    W = is_isomorphic(S, random_basis_change(S, seed=5))
    assert W is not None
    W.validate()
    assert W.is_isomorphism()


def _iso_pairs(p):
    """Pairs of tiny modules on a common grid with equal dimension vectors,
    each with the exhaustive verdict: random modules, their basis changes,
    sums against basis changes of the swapped sum, and a sum of two points
    against the interval they span."""
    mods = [random_module(2, 2, d, seed=s, p=p)
            for d, seeds in ((1, range(8)), (2, range(3))) for s in seeds]
    mods += [random_basis_change(M, seed=40 + i) for i, M in enumerate(mods)]
    A, B = mods[1], mods[9]
    mods += [direct_sum(A, B)[0],
             random_basis_change(direct_sum(B, A)[0], seed=50)]
    pts = _refine_all(rect((0, 0), (1, 1), p=p), rect((1, 0), (2, 1), p=p),
                      rect((0, 0), (2, 1), p=p))
    mods += [direct_sum(*pts[:2])[0], pts[2]]
    out = []
    for M in mods:
        for N in mods:
            if M.grid == N.grid and np.array_equal(M.dims, N.dims):
                try:
                    out.append((M, N, O.is_isomorphic_bruteforce(M, N)))
                except ValueError:   # Hom too large to enumerate
                    pass
    assert {iso for _, _, iso in out} == {True, False}
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_is_isomorphic_agrees_with_exhaustive_search(p):
    pairs = _iso_pairs(p)
    assert len(pairs) >= 60
    for M, N, iso in pairs:
        W = is_isomorphic(M, N)
        assert (W is not None) == iso
        if iso:
            assert W.source is M and W.target is N
            W.validate()
            assert W.is_isomorphism()


@pytest.mark.parametrize("p", [2, 3])
def test_hom_basis_scan_is_exact_from_an_indecomposable(p):
    # End(X) local: X ~ Y iff some basis element of Hom(X, Y) is invertible
    seen = set()
    for X, Y, iso in _iso_pairs(p):
        if X.total_dim() and is_indecomposable(X):
            assert (decomp._basis_isomorphism(X, Y) is not None) == iso
            seen.add(iso)
    assert seen == {True, False}
