"""Endomorphism algebras, idempotents, and full decomposition."""

from fractions import Fraction

import numpy as np
import pytest

from gridpersist import decomp, field, io
from gridpersist.cli import random_module
from gridpersist.construct import iso_certificate, module_G
from gridpersist.core import (GridModule, ModuleMorphism, direct_sum,
                              interval_module, random_basis_change, zero_module)
from gridpersist.decomp import (FieldTooSmall, decompose, end_algebra,
                                is_indecomposable, is_isomorphic, radical)
from gridpersist.kan import (common_refinement, compress, restriction_extension,
                             union_axes)
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
    return A.morphism_of(e)


def split_by_idempotent(M: GridModule, e: ModuleMorphism):
    """Split M as image(e) + kernel(e).  Returns (M_im, M_ker, witness) with
    witness a verified isomorphism direct_sum(M_im, M_ker) -> M."""
    for v in M.support_vertices():
        ev = e.at(v)
        if not np.array_equal(field.mmul(ev, ev, M.p), ev):
            raise ValueError(f"not idempotent at {v}")
    return _image_kernel_split(M, {v: e.at(v) for v in M.support_vertices()})


def fitting_split(M: GridModule, phi: ModuleMorphism):
    """Fitting decomposition along an endomorphism: M = im(phi^N) + ker(phi^N)
    for N large enough to stabilize.  Returns (M_im, M_ker, witness)."""
    powers = {}
    for v in M.support_vertices():
        powers[v] = field.eye(M.dim(v))
        for _ in range(max(1, M.max_pointwise_dim())):
            powers[v] = field.mmul(powers[v], phi.at(v), M.p)
    return _image_kernel_split(M, powers)


def _image_kernel_split(M: GridModule, mats):
    """(M_im, M_ker, W) along the pointwise images and kernels of mats
    (support vertex -> endomorphism of M there), once W is checked."""
    bases = [dict(zip(mats, field.column_spaces(list(mats.values()), M.p))),
             {v: field.nullspace(a, M.p) for v, a in mats.items()}]
    parts = decomp._split_by_bases(M, bases)
    W = decomp._side_by_side(M, parts, bases)
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
                prod = A.morphism_of(A.mul(unit[i], unit[j]))
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_builds_one_end_per_node_on_the_compressed_grid(
        seed, monkeypatch):
    # one End(C) for C = compress(M), split by its corner algebras, and
    # one split of C along all the idempotents
    _, M = _refined_shuffled(seed)
    shape = compress(M).grid.shape
    built, compressed, splits = [], [], []
    init = decomp.EndAlgebra.__init__
    split = decomp._split_by_bases

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
    parts, w = decompose(M)
    assert len(parts) >= 2
    assert built == [shape]
    assert splits == [len(parts)]
    assert compressed == [M]
    assert w.target is M and w.is_isomorphism()


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
            prod = A.morphism_of(t[i][j])
            for v in M.support_vertices():
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
            table[i, j] = field.solve(
                vecs, field.mmul(mats[i], mats[j], p).ravel(), p)
    one = field.solve(vecs, field.eye(len(mats[0])).ravel(), p)
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
        p, corners, monkeypatch):
    # p > dim End, so the split takes powers c^((p-1)/2) with (p-1)/2 in
    # {1, 2}; exhaustive search is never needed
    def refuse(A):
        raise AssertionError("exhaustive search on a trace-form algebra")

    monkeypatch.setattr(decomp, "_enumerate_idempotent", refuse)
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


def test_is_isomorphic_refuses_where_decompose_does():
    S = _nested_intervals(2)
    with pytest.raises(FieldTooSmall):
        decompose(S)
    with pytest.raises(FieldTooSmall):
        is_isomorphic(S, random_basis_change(S, seed=5))


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
