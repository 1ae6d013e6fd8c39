"""Exact linear algebra over a prime field F_p, on numpy int64 arrays.

All matrices are numpy arrays of dtype int64 with entries in [0, p), and
p must be prime with (p-1)**2 < 2**63.  mmul is exact at every such prime
and any inner dimension: it sums the inner dimension in chunks of at most
(2**63 - 1) // (p-1)**2 terms, reduced mod p in between (one chunk up to
inner dimension 2**31 at the default prime, so no cost there).  The
batched products of step matrices padded to D x D (GridModule.validate,
structure_maps) have the module's largest pointwise dimension D as inner
dimension and run unchunked; GridModule.validate requires
(p-1)**2 * D < 2**63 for them, so p = 2**31 - 1 is accepted up to D = 2.

rref_stack row-reduces a whole (m, r, c) stack of matrices at once;
ranks, column_spaces, invertible, minv_stack and inverses derive from it.
Each of its products has two factors in [0, p), so every intermediate is
below (p-1)**2 < 2**63 in magnitude at any accepted prime, whatever the
shape.  The single-matrix rref serves nullspace and the small
systems of hom spaces, where it clears only the rows that need it.
"""

from __future__ import annotations

import numpy as np

DEFAULT_PRIME = 65521


def is_probable_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def fmat(rows, p: int) -> np.ndarray:
    """Build a matrix over F_p from a nested list (entries may be negative)."""
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        a = a.reshape(a.shape + (1,) * (2 - a.ndim))
    return np.mod(a, p)

def zeros(nrows: int, ncols: int) -> np.ndarray:
    return np.zeros((nrows, ncols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def mmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Matrix product mod p of factors with entries of magnitude < p, exact
    for any inner dimension.  Two stacks of matrices with the same leading
    axes multiply pairwise."""
    n = a.shape[-1]
    if n != b.shape[-2]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.size == 0 or b.size == 0:
        return np.zeros(np.matmul(a, b).shape, dtype=np.int64)
    if (p - 1) ** 2 <= (2 ** 63 - 1) // n:
        return (a @ b) % p
    chunk = (2 ** 63 - 1) // (int(p) - 1) ** 2
    out = 0
    for s in range(0, n, chunk):
        out = (out + (a[..., s:s + chunk] @ b[..., s:s + chunk, :]) % p) % p
    return out


def rref(a: np.ndarray, p: int):
    """Row-reduce a mod p in place (on a copy).

    Returns (r, pivots) where r is the reduced row echelon form and pivots
    the list of pivot column indices.
    """
    r = np.mod(np.array(a, dtype=np.int64), p)
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + nz[0]
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = r[row] * pow(int(r[row, col]), -1, p) % p
        mask = np.nonzero(r[:, col])[0]
        mask = mask[mask != row]
        if mask.size:
            r[mask] = (r[mask] - np.outer(r[mask, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def rank(a: np.ndarray, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of {x : a x = 0} over F_p."""
    nrows, ncols = a.shape
    if ncols == 0:
        return zeros(0, 0)
    if nrows == 0:
        return eye(ncols)
    r, pivots = rref(a, p)
    free = [j for j in range(ncols) if j not in pivots]
    basis = zeros(ncols, len(free))
    basis[free, range(len(free))] = 1
    basis[pivots] = (-r[:len(pivots), free]) % p
    return basis


def column_space(a: np.ndarray, p: int) -> np.ndarray:
    """A matrix whose columns are a basis of the column space of a."""
    if a.size == 0:
        return zeros(a.shape[0], 0)
    _, pivots = rref(a, p)
    return a[:, pivots].copy()


def quotient_map(a: np.ndarray, p: int) -> np.ndarray:
    """The projection F_p^m -> F_p^m / im(a), as a (m - rank a) x m matrix.

    Coordinates are taken with respect to the standard basis vectors that
    complete a column basis of im(a); the result q satisfies q a = 0 and has
    full row rank.
    """
    m = a.shape[0]
    c = column_space(a, p)
    r = c.shape[1]
    if r == 0:
        return eye(m)
    aug = np.concatenate([c, eye(m)], axis=1)
    _, pivots = rref(aug, p)
    comp = [j - r for j in pivots if j >= r]
    basis = np.concatenate([c, eye(m)[:, comp]], axis=1)
    return minv(basis, p)[r:, :].copy()


def is_invertible(a: np.ndarray, p: int) -> bool:
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def minv(a: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("not square")
    aug = np.concatenate([a, eye(n)], axis=1)
    r, pivots = rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible mod p")
    return r[:, n:].copy()


def _inv_mod(x: np.ndarray, p: int) -> np.ndarray:
    """The inverses mod p of the nonzero entries in [0, p) of an array: one
    Python pow each for fewer than 64 entries (cheaper there), else the
    Fermat powers x ** (p - 2) by square-and-multiply."""
    if x.size < 64:
        return np.array([pow(v, -1, p) for v in x.ravel().tolist()],
                        dtype=np.int64).reshape(x.shape)
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        e >>= 1
        if e:
            x = x * x % p
    return out


def rref_stack(a, p: int, scale: bool = True):
    """Row-reduce every matrix of an (m, r, c) stack mod p at once.

    Returns (R, piv): R[i] is the reduced row echelon form of a[i], equal to
    rref(a[i], p)[0], and piv the (m, c) bool mask of its pivot columns.
    Column by column, each matrix with a pivot there swaps it up and clears
    the column in its other rows as d * row - x * pivot row (d the pivot,
    x the row's entry).  At the end one batch of inverses scales each
    pivot to 1; with scale=False that step is skipped and the pivot rows
    keep their pivots, which leaves piv the same.
    """
    R = np.array(a, dtype=np.int64) % p
    m, nr, nc = R.shape
    piv = np.zeros((m, nc), dtype=bool)
    if not R.size:
        return R, piv
    row = np.zeros(m, dtype=np.int64)   # pivots found so far
    rows, ar = np.arange(nr), np.arange(m)
    for col in range(nc):
        nz = (R[:, :, col] != 0) & (rows >= row[:, None])
        live = np.flatnonzero(nz.any(axis=1))
        if not live.size:
            continue
        at, src = row[live], nz[live].argmax(axis=1)
        top = R[live, src]
        R[live, src] = R[live, at]
        B = R[live]
        B = (B * top[:, col, None, None]
             - B[:, :, col, None] * top[:, None, :]) % p
        B[ar[:len(live)], at] = top
        R[live] = B
        piv[live, col] = True
        row[live] += 1
        if row.min() == nr:
            break
    if scale:
        # each row's leading entry is its pivot (1 for a zero row)
        d = np.take_along_axis(R, (R != 0).argmax(axis=2)[:, :, None], 2)
        R = R * _inv_mod(np.where(d, d, 1), p) % p
    return R, piv


def _padded_stack(mats, eye_fill: bool = False) -> np.ndarray:
    """The matrices of a list stacked, each padded to the largest shape
    among them with zeros, or with eye_fill, with the rest of an identity."""
    r = max((m.shape[0] for m in mats), default=0)
    c = max((m.shape[1] for m in mats), default=0)
    out = np.zeros((len(mats), r, c), dtype=np.int64)
    if eye_fill:
        out[:] = np.eye(r, c, dtype=np.int64)
    for i, m in enumerate(mats):
        out[i, :m.shape[0], :m.shape[1]] = m
    return out


def _pivot_columns(mats, p: int) -> np.ndarray:
    """The (m, c) pivot-column masks of a list of matrices padded to their
    largest shape, which zero padding keeps: one rref_stack, or directly
    when that shape is at most 1 x 1 (a 1 x 1 matrix has a pivot exactly
    when its entry is nonzero mod p)."""
    a = _padded_stack(mats)
    if a.shape[1] <= 1 and a.shape[2] <= 1:
        return (a % p != 0).any(axis=1)
    return rref_stack(a, p, scale=False)[1]


def ranks(mats, p: int) -> np.ndarray:
    """The rank of each matrix of a list (or stack)."""
    if not len(mats):
        return np.zeros(0, dtype=np.int64)
    return _pivot_columns(mats, p).sum(axis=1)


def column_spaces(mats, p: int) -> list:
    """A column basis of each matrix of a list, its pivot columns."""
    piv = _pivot_columns(mats, p)
    return [m[:, c[:m.shape[1]]] for m, c in zip(mats, piv)]


def invertible(mats, p: int) -> np.ndarray:
    """Whether each matrix of a list is invertible: square, of full rank."""
    n = np.array([m.shape for m in mats], dtype=np.int64).reshape(-1, 2)
    return (n[:, 0] == n[:, 1]) & (ranks(mats, p) == n[:, 0])


def minv_stack(a: np.ndarray, p: int) -> np.ndarray:
    """The inverses of an (m, n, n) stack, by Gauss-Jordan on [A | I];
    ValueError if a member is singular."""
    m, n = a.shape[:2]
    if a.shape[2] != n:
        raise ValueError("not square")
    R, piv = rref_stack(np.concatenate(
        [a, np.broadcast_to(eye(n), (m, n, n))], axis=2), p)
    if not piv[:, :n].all():
        raise ValueError("matrix not invertible mod p")
    return np.ascontiguousarray(R[:, :, n:])


def inverses(mats, p: int) -> list:
    """The inverse of each square matrix of a list, from one minv_stack:
    padded to the largest size, A becomes diag(A, I), whose inverse is
    diag(A^-1, I).  Matrices of at most 1 x 1 need no elimination."""
    if any(m.shape[0] != m.shape[1] for m in mats):
        raise ValueError("not square")
    a = _padded_stack(mats, eye_fill=True)
    if a.shape[1] <= 1:
        # at most 1 x 1: the inverse of each entry
        if not (a % p).all():
            raise ValueError("matrix not invertible mod p")
        inv = _inv_mod(a % p, p)
    else:
        inv = minv_stack(a, p)
    return [x[:len(m), :len(m)].copy() for x, m in zip(inv, mats)]
