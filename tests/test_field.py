"""Exact linear algebra mod p against the plain-int oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridpersist import field
from oracles import gauss_nullspace, gauss_rank, solve

PRIMES = [2, 3, 65521]


def _rand_mat(rng, nr, nc, p):
    return rng.integers(0, p, size=(nr, nc)).astype(np.int64)


@st.composite
def mat_and_prime(draw):
    p = draw(st.sampled_from(PRIMES))
    nr = draw(st.integers(0, 5))
    nc = draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=nr * nc,
                            max_size=nr * nc))
    return np.array(entries, dtype=np.int64).reshape(nr, nc), p


@given(mat_and_prime())
@settings(max_examples=150, deadline=None)
def test_rank_matches_oracle(mp):
    a, p = mp
    if a.size == 0:
        assert field.rank(a, p) == 0
        return
    assert field.rank(a, p) == gauss_rank(a.tolist(), p)


@given(mat_and_prime())
@settings(max_examples=150, deadline=None)
def test_nullspace_matches_oracle(mp):
    a, p = mp
    if a.size == 0:
        return
    ns = field.nullspace(a, p)
    want = gauss_nullspace(a.tolist(), p)
    assert ns.shape[1] == len(want)
    if ns.size:
        assert not ((a @ ns) % p).any()


@given(mat_and_prime())
@settings(max_examples=100, deadline=None)
def test_rref_is_idempotent(mp):
    a, p = mp
    r1, piv1 = field.rref(a, p)
    r2, piv2 = field.rref(r1, p)
    assert np.array_equal(r1, r2)
    assert piv1 == piv2


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_and_solve(p):
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        a = _rand_mat(rng, n, n, p)
        if field.rank(a, p) < n:
            continue
        inv = field.minv(a, p)
        assert np.array_equal((a @ inv) % p, np.eye(n, dtype=np.int64))
        # the reference solver of tests/oracles.py agrees with the inverse
        b = _rand_mat(rng, n, 1, p)
        x = solve(a, b, p)
        assert np.array_equal((a @ x) % p, b % p)
        assert np.array_equal(x, field.mmul(inv, b, p))


@pytest.mark.parametrize("p", PRIMES)
def test_quotient_map_is_coequalizer_projection(p):
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, k = int(rng.integers(1, 5)), int(rng.integers(0, 5))
        a = _rand_mat(rng, m, k, p) if k else np.zeros((m, 0), dtype=np.int64)
        q = field.quotient_map(a, p)
        assert q.shape == (m - field.rank(a, p) if a.size else m, m)
        if a.size and q.size:
            assert not ((q @ a) % p).any()
        assert field.rank(q, p) == q.shape[0]


def test_column_space_spans():
    p = 65521
    rng = np.random.default_rng(3)
    a = _rand_mat(rng, 4, 6, p)
    c = field.column_space(a, p)
    assert field.rank(c, p) == c.shape[1] == field.rank(a, p)
    joint = np.concatenate([c, a], axis=1)
    assert field.rank(joint, p) == c.shape[1]


def test_probable_prime():
    assert field.is_probable_prime(65521)
    assert field.is_probable_prime(2)
    assert not field.is_probable_prime(65520)
    assert not field.is_probable_prime(1)


@pytest.mark.parametrize("p", [2, 65521, 2 ** 31 - 1])
def test_mmul_is_exact_for_any_inner_dimension(p):
    # at 2**31 - 1 two products of (p-1)**2 already fill int64, so longer
    # sums must be reduced in chunks
    from oracles import mat_mul
    rng = np.random.default_rng(p % 1000)
    for n in (0, 1, 2, 3, 7):
        a, b = _rand_mat(rng, 3, n, p), _rand_mat(rng, n, 4, p)
        a[:, :1], b[:1] = p - 1, p - 1
        assert field.mmul(a, b, p).tolist() == mat_mul(a.tolist(),
                                                       b.tolist(), p, cols=4)
    # stacks multiply pairwise
    a = rng.integers(0, p, size=(5, 2, 7)).astype(np.int64)
    b = rng.integers(0, p, size=(5, 7, 3)).astype(np.int64)
    out = field.mmul(a, b, p)
    assert out.shape == (5, 2, 3)
    for i in range(5):
        assert out[i].tolist() == mat_mul(a[i].tolist(), b[i].tolist(), p)


STACK_PRIMES = [2, 3, 65521, 2 ** 31 - 1]


def _mixed_stack(rng, m, nr, nc, p):
    """m random nr x nc matrices, every other one made rank-deficient by
    repeating a multiple of its first row, and one of them zero."""
    a = rng.integers(0, p, size=(m, nr, nc)).astype(np.int64)
    if nr > 1:
        a[::2, -1] = a[::2, 0] * 2 % p
    if m:
        a[m // 2] = 0
    return a


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_rref_stack_matches_rref(p):
    rng = np.random.default_rng(p % 1009)
    # 64 or more rows in all take the vectorized pivot inverses
    for m, nr, nc in [(0, 3, 3), (0, 0, 0), (4, 0, 3), (4, 3, 0), (1, 1, 1),
                      (5, 2, 4), (5, 4, 2), (7, 3, 3), (6, 5, 5), (3, 1, 6),
                      (30, 3, 4)]:
        a = _mixed_stack(rng, m, nr, nc, p)
        R, piv = field.rref_stack(a, p)
        assert R.shape == a.shape and piv.shape == (m, nc)
        assert R.dtype == np.int64 and piv.dtype == bool
        for i in range(m):
            r, pivots = field.rref(a[i], p)
            assert R[i].tolist() == r.tolist()
            assert np.flatnonzero(piv[i]).tolist() == pivots
        # without the final scaling the pivots are the same
        assert field.rref_stack(a, p, scale=False)[1].tolist() == piv.tolist()
        assert field.ranks(a, p).tolist() == [field.rank(x, p) for x in a]


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_ranks_and_invertible_on_a_list_of_mixed_shapes(p):
    rng = np.random.default_rng(p % 997)
    mats = [x for nr, nc in [(2, 2), (3, 1), (0, 2), (2, 0), (3, 3), (1, 1),
                             (0, 0)]
            for x in _mixed_stack(rng, 3, nr, nc, p)]
    order = rng.permutation(len(mats))
    mats = [mats[i] for i in order]
    assert field.ranks(mats, p).tolist() == [
        field.rank(x, p) for x in mats]
    assert field.invertible(mats, p).tolist() == [
        field.is_invertible(x, p) for x in mats]
    assert field.ranks([], p).shape == field.invertible([], p).shape == (0,)


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_minv_stack_matches_minv(p):
    rng = np.random.default_rng(p % 983)
    for m, n in ((6, 0), (6, 1), (6, 2), (6, 4), (30, 4)):
        a = rng.integers(0, p, size=(m, n, n)).astype(np.int64)
        a = a[field.invertible(a, p)]
        inv = field.minv_stack(a, p)
        assert inv.shape == a.shape
        for x, y in zip(a, inv):
            assert y.tolist() == field.minv(x, p).tolist()
    assert field.minv_stack(np.zeros((0, 3, 3), dtype=np.int64), p).shape \
        == (0, 3, 3)
    # mixed sizes, each inverted on its own
    mats = [x for n in (3, 1, 0, 2) for x in rng.integers(0, p, size=(4, n, n))]
    mats = [x for x in mats if field.is_invertible(x, p)]
    mats.append(field.fmat([[1, 1], [0, 1]], p))
    assert [x.tolist() for x in field.inverses(mats, p)] == [
        field.minv(x, p).tolist() for x in mats]
    assert field.inverses([], p) == []


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_minv_stack_raises_on_a_singular_member(p):
    a = np.stack([field.eye(3), field.eye(3), field.eye(3)])
    a[1, 2, 2] = 0
    with pytest.raises(ValueError, match="not invertible"):
        field.minv_stack(a, p)
    with pytest.raises(ValueError, match="not invertible"):
        field.inverses([field.eye(2), a[1]], p)
    with pytest.raises(ValueError, match="not square"):
        field.minv_stack(np.zeros((2, 2, 3), dtype=np.int64), p)
    with pytest.raises(ValueError, match="not square"):
        field.inverses([field.eye(3), field.eye(3)[:2]], p)


def test_rref_stack_stays_exact_at_the_largest_prime():
    # entries p - 1 everywhere: each elimination product is (p-1)**2,
    # just below 2**62
    p = 2 ** 31 - 1
    a = np.full((2, 4, 4), p - 1, dtype=np.int64)
    a[:, np.arange(4), np.arange(4)] = [[1, 2, 3, 4], [p - 2, 5, 6, 7]]
    R, piv = field.rref_stack(a, p)
    for i in range(2):
        assert R[i].tolist() == field.rref(a[i], p)[0].tolist()
        assert piv[i].tolist() == [True] * 4
        assert field.minv_stack(a, p)[i].tolist() == field.minv(a[i], p).tolist()


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_at_most_1x1_fast_path_matches_elimination(p, monkeypatch):
    # lists of 0x0, 0x1, 1x0 and 1x1 matrices, zero and nonzero (an entry
    # of p is zero mod p), against the same list with a 2 x 2 matrix
    # appended, which sends every kernel through rref_stack / minv_stack
    small = [np.zeros(shape, dtype=np.int64)
             for shape in ((0, 0), (0, 1), (1, 0))] + [
        np.array([[x]], dtype=np.int64) for x in (0, 1, p - 1, p)]
    lists = [[m] for m in small] + [list(t) for t in
                                    zip(small, small[1:] + small[:1])]
    lists.append(small)
    two = np.array([[1, 1], [0, 1]], dtype=np.int64)
    want = []
    for mats in lists:
        spaces = field.column_spaces(mats + [two], p)[:-1]
        square = [m for m in mats if m.shape[0] == m.shape[1]]
        units = [m for m in square if field.invertible([m], p)[0]]
        want.append((field.ranks(mats + [two], p)[:-1].tolist(),
                     field.invertible(mats + [two], p)[:-1].tolist(),
                     spaces, field.inverses(units + [two], p)[:-1], units,
                     len(units) < len(square)))

    def boom(*args, **kwargs):
        raise AssertionError("the fast path eliminated")

    monkeypatch.setattr(field, "rref_stack", boom)
    monkeypatch.setattr(field, "minv_stack", boom)
    for mats, (ranks, inv, spaces, inverses, units, singular) in zip(lists,
                                                                      want):
        assert field.ranks(mats, p).tolist() == ranks
        assert field.invertible(mats, p).tolist() == inv
        for got, exp in zip(field.column_spaces(mats, p), spaces):
            assert got.shape == exp.shape and got.dtype == exp.dtype
            assert np.array_equal(got, exp)
        for got, exp in zip(field.inverses(units, p), inverses):
            assert got.shape == exp.shape and np.array_equal(got, exp)
        if singular:
            with pytest.raises(ValueError):
                field.inverses([m for m in mats
                                if m.shape[0] == m.shape[1]], p)
