"""Exact linear algebra mod p against the plain-int oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridpersist import field
from oracles import gauss_nullspace, gauss_rank

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
        b = _rand_mat(rng, n, 1, p)
        x = field.solve(a, b, p)
        assert np.array_equal((a @ x) % p, b % p)


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
