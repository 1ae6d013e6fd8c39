"""Decomposing modules into indecomposables via their endomorphism algebras.

A module is indecomposable iff its endomorphism algebra is local.  One
routine, _idempotent, decides locality and finds the splitting idempotent
together: the radical is the kernel of the trace bilinear form of the
regular representation (valid for p > dim End; smaller fields are searched
exhaustively), and the semisimple quotient is a division algebra iff it is
commutative with a one-dimensional Frobenius-fixed subspace; otherwise a
nontrivial idempotent of the quotient lifts through the radical.
decompose compresses its input once, builds one endomorphism algebra per
recursion node, splits by pointwise image and kernel, and transports the
summands and the witness back to the input's grid.
"""

from __future__ import annotations

import numpy as np

from . import field
from .core import GridModule, ModuleMorphism, hom_space, sum_module
from .kan import (compress, compression_witness,
                  morphism_restriction_extension, restriction_extension)


class FieldTooSmall(ValueError):
    """p <= dim End and p ** dim End is too large to search: the field is
    too small for this module's endomorphism algebra."""


# -- tiny dense polynomial helpers over F_p (ascending coefficients) ----------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a

def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)

def _pdivmod(a, b, p):
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    inv = field.minv_scalar(lead, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv % p
        q[len(a) - 1 - db] = c
        if c:
            for i in range(db + 1):
                a[len(a) - 1 - db + i] = (a[len(a) - 1 - db + i] - c * b[i]) % p
        a.pop()
        _ptrim(a)
    return _ptrim(q), a

def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = field.minv_scalar(a[-1], p)
        a = [x * inv % p for x in a]
    return a

def _pxgcd(a, b, p):
    """(g, u, v) with u a + v b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _ptrim([(x - y) % p for x, y in
                             _zippad(s0, _pmul(q, s1, p))])
        t0, t1 = t1, _ptrim([(x - y) % p for x, y in
                             _zippad(t0, _pmul(q, t1, p))])
    if r0:
        inv = field.minv_scalar(r0[-1], p)
        r0 = [x * inv % p for x in r0]
        s0 = [x * inv % p for x in s0]
        t0 = [x * inv % p for x in t0]
    return r0, s0, t0

def _zippad(a, b):
    k = max(len(a), len(b))
    return zip(a + [0] * (k - len(a)), b + [0] * (k - len(b)))

def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result

def _poly_roots(g, p, rng):
    """All roots in F_p of a squarefree product of linear factors."""
    g = [x % p for x in g]
    if len(g) - 1 <= 0:
        return []
    if len(g) == 2:
        return [(-g[0]) * field.minv_scalar(g[1], p) % p]
    if p <= 64:
        return [x for x in range(p) if _peval(g, x, p) == 0]
    for _ in range(200):
        a = int(rng.randint(0, p))
        h = _ppowmod([a, 1], (p - 1) // 2, g, p)
        h = _ptrim([(h[0] - 1) % p] + h[1:]) if h else [p - 1]
        d = _pgcd(h, g, p)
        if 0 < len(d) - 1 < len(g) - 1:
            q, _ = _pdivmod(g, d, p)
            return _poly_roots(d, p, rng) + _poly_roots(q, p, rng)
    raise RuntimeError("root splitting failed")

def _peval(g, x, p):
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % p
    return acc


# -- endomorphism algebras -----------------------------------------------------

class EndAlgebra:
    """End(M) in a fixed basis, with structure constants and a solver for
    expressing arbitrary endomorphisms in that basis."""

    def __init__(self, M: GridModule):
        self.module = M
        self.p = M.p
        self.basis = hom_space(M, M)
        self.dim = len(self.basis)
        self._verts = [tuple(v) for v in np.argwhere(M.dims > 0).tolist()]
        sizes = [M.dim(v) ** 2 for v in self._verts]
        # where each vertex's entries sit in the stacked vectors
        self._len = sum(sizes)
        self._slots = {v: slice(o, o + d) for v, o, d in
                       zip(self._verts, np.cumsum([0] + sizes).tolist(), sizes)}
        self._vecmat = (np.stack([self._vec(f) for f in self.basis], axis=1)
                        if self.basis else field.zeros(self._len, 0))
        if self.dim:
            self.table = self._structure_constants()
            self.one = self.coords_of(ModuleMorphism.identity(M))
        else:
            self.table = np.zeros((0, 0, 0), dtype=np.int64)
            self.one = np.zeros(0, dtype=np.int64)

    def _vec(self, f: ModuleMorphism):
        """The components of f stacked vertex by vertex (row-major)."""
        out = np.zeros(self._len, dtype=np.int64)
        for v, m in f.mats.items():
            slot = self._slots.get(tuple(v))
            if slot is not None:
                out[slot] = m.ravel()
        return out

    def coords_of(self, f: ModuleMorphism) -> np.ndarray:
        c = field.solve(self._vecmat, self._vec(f), self.p)
        if c is None:
            raise ValueError("endomorphism not in the computed basis span")
        return c

    def morphism_of(self, coords) -> ModuleMorphism:
        return ModuleMorphism.linear_combination(self.basis, coords, self.p)

    def _structure_constants(self):
        D, p = self.dim, self.p
        # a basis element is determined by its entries on D pivot rows of
        # _vecmat (row = one matrix entry at one vertex), so vec(f_i o f_j)
        # is only evaluated there
        piv = np.asarray(field.rref(self._vecmat.T, p)[1], dtype=np.int64)
        sub = self._vecmat[piv]                         # D x D, invertible
        offs = np.array([self._slots[v].start for v in self._verts],
                        dtype=np.int64)
        vert_of = np.searchsorted(offs, piv, side="right") - 1
        blocks = []
        for vi in np.unique(vert_of).tolist():
            v = self._verts[vi]
            d = self.module.dim(v)
            rows = piv[vert_of == vi] - offs[vi]
            mats = np.stack([f.at(v) for f in self.basis])  # D x d x d
            a, c = rows // d, rows % d
            # (f_i o f_j)[a, c] = sum_b f_i[a, b] f_j[b, c]
            blocks.append(np.einsum("irb,jbr->ijr", mats[:, a, :],
                                    mats[:, :, c]) % p)
        prod_vecs = np.concatenate(blocks, axis=2).reshape(D * D, D)
        coeffs = field.mmul(field.minv(sub, p), prod_vecs.T, p)
        # table[i, j, k]: coefficient of basis k in f_i o f_j
        return coeffs.T.reshape(D, D, D) % p

    # element arithmetic in coordinates
    def mul(self, x, y):
        return np.einsum("i,j,ijk->k", x % self.p, y % self.p, self.table) % self.p


def end_algebra(M: GridModule) -> EndAlgebra:
    return EndAlgebra(M)


def radical(A: EndAlgebra) -> np.ndarray:
    """Basis (columns) of the Jacobson radical, via the trace form of the
    regular representation.  Requires p > dim A."""
    if A.p <= A.dim:
        raise FieldTooSmall(
            f"radical via trace form needs p > dim End = {A.dim}")
    if A.dim == 0:
        return field.zeros(0, 0)
    # L_i: left multiplication by basis i;  G_ij = tr(L_i L_j)
    L = A.table.transpose(0, 2, 1) % A.p          # L[i][k, j] = c_{ij}^k
    G = np.einsum("ikm,jmk->ij", L, L) % A.p
    return field.nullspace(G, A.p)


class _Quotient:
    """The semisimple quotient B = A / rad in a complement basis."""

    def __init__(self, A: EndAlgebra, rad: np.ndarray):
        self.p = A.p
        self.A = A
        D, r = A.dim, rad.shape[1]
        piv = set(field.rref(rad.T, A.p)[1]) if r else set()
        comp_idx = [j for j in range(D) if j not in piv]
        C = field.zeros(D, len(comp_idx))
        for k, j in enumerate(comp_idx):
            C[j, k] = 1
        self.embed_mat = C                      # B coords -> A coords
        full = np.concatenate([C, rad], axis=1) if r else C
        inv = field.minv(full, A.p)
        self.project_mat = inv[: len(comp_idx)]  # A coords -> B coords
        self.dim = len(comp_idx)
        self.one = self.project(A.one)

    def project(self, x):
        return field.mmul(self.project_mat, np.asarray(x).reshape(-1, 1), self.p)[:, 0]

    def embed(self, b):
        return field.mmul(self.embed_mat, np.asarray(b).reshape(-1, 1), self.p)[:, 0]

    def mul(self, b1, b2):
        return self.project(self.A.mul(self.embed(b1), self.embed(b2)))

    def power(self, b, e):
        acc = self.one.copy()
        base = b % self.p
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            ei = np.eye(self.dim, dtype=np.int64)[i]
            for j in range(i + 1, self.dim):
                ej = np.eye(self.dim, dtype=np.int64)[j]
                if not np.array_equal(self.mul(ei, ej), self.mul(ej, ei)):
                    return False
        return True

    def frobenius_fixed_basis(self) -> np.ndarray:
        """Basis of {x : x^p = x}; its dimension is the number of simple
        factors when the quotient is commutative."""
        F = np.stack([self.power(np.eye(self.dim, dtype=np.int64)[i], self.p)
                      for i in range(self.dim)], axis=1)
        return field.nullspace((F - field.eye(self.dim)) % self.p, self.p)

    def min_poly(self, b):
        rows = [self.one % self.p]
        cur = self.one.copy()
        while True:
            cur = self.mul(cur, b)
            A = np.stack(rows, axis=1)
            sol = field.solve(A, cur, self.p)
            if sol is not None:
                return [(-int(c)) % self.p for c in sol] + [1]
            rows.append(cur)

    def eval_poly(self, g, b):
        acc = np.zeros(self.dim, dtype=np.int64)
        for c in reversed(g):
            acc = (self.mul(acc, b) + c * self.one) % self.p
        return acc


def is_indecomposable(M: GridModule) -> bool:
    """True iff M is nonzero with local endomorphism algebra."""
    return M.total_dim() > 0 and _idempotent(end_algebra(compress(M))) is None


def find_idempotent(M: GridModule, seed: int = 0) -> ModuleMorphism:
    """A nontrivial idempotent endomorphism of a decomposable module."""
    A = end_algebra(M)
    e = _idempotent(A, seed) if A.dim else None
    if e is None:
        raise ValueError("module is zero or indecomposable")
    return A.morphism_of(e)


def _idempotent(A: EndAlgebra, seed: int = 0):
    """Coordinates of a nontrivial idempotent of A (dim A > 0), or None
    exactly when A is local."""
    if A.p <= A.dim:
        # trace form unavailable; locality <=> only trivial idempotents,
        # decidable by exhaustion for small fields
        return _enumerate_idempotent(A)
    B = _Quotient(A, radical(A))
    e_b = _quotient_idempotent(B, np.random.RandomState(seed))
    if e_b is None:
        return None
    # lift through the radical: a -> 3a^2 - 2a^3 converges to an idempotent
    a = B.embed(e_b)
    for _ in range(200):
        sq = A.mul(a, a)
        if np.array_equal(sq, a):
            break
        a = (3 * sq - 2 * A.mul(sq, a)) % A.p
    else:
        raise RuntimeError("idempotent lifting did not converge")
    if not a.any() or np.array_equal(a, A.one):
        raise RuntimeError("lifted idempotent is trivial")
    return a


def _enumerate_idempotent(A: EndAlgebra):
    """Exhaustive search for a nontrivial idempotent (small p**dim only)."""
    from itertools import product as iproduct
    if A.p ** A.dim > 1 << 22:
        raise FieldTooSmall(f"p={A.p} too small for the trace-form radical "
                            f"and p^dim={A.p}^{A.dim} too large for "
                            "exhaustion")
    for coeffs in iproduct(range(A.p), repeat=A.dim):
        x = np.array(coeffs, dtype=np.int64)
        if not x.any() or np.array_equal(x, A.one):
            continue
        if np.array_equal(A.mul(x, x), x):
            return x
    return None


def _quotient_idempotent(B: _Quotient, rng):
    """A nontrivial idempotent of the semisimple quotient, or None when it
    is a field (a finite division algebra is commutative, and a commutative
    semisimple algebra is a field iff its Frobenius-fixed space is the
    prime field)."""
    if B.dim <= 1:
        return None
    if B.is_commutative():
        V = B.frobenius_fixed_basis()
        if V.shape[1] == 1:
            return None
        # pick a fixed vector independent from 1
        for j in range(V.shape[1]):
            v = V[:, j]
            if field.rank(np.stack([B.one, v]), B.p) == 2:
                break
        else:
            raise RuntimeError("no splitting element in Frobenius-fixed space")
        g = B.min_poly(v)  # squarefree, splits into distinct linear factors
        roots = _poly_roots(g, B.p, rng)
        if len(roots) < 2:
            raise RuntimeError("fixed element has too few eigenvalues")
        lam = roots[0]
        h, _ = _pdivmod(g, [(-lam) % B.p, 1], B.p)
        scale = field.minv_scalar(_peval(h, lam, B.p), B.p)
        e = (B.eval_poly(h, v) * scale) % B.p
        return e
    # matrix-algebra case: split the minimal polynomial of a random element
    for _ in range(256):
        b = rng.randint(0, B.p, size=B.dim).astype(np.int64)
        g = B.min_poly(b)
        split = _coprime_split(g, B.p, rng)
        if split is None:
            continue
        g1, g2 = split
        _, u, _ = _pxgcd(g1, g2, B.p)
        e = B.eval_poly(_pdivmod(_pmul(u, g1, B.p), g, B.p)[1], b)
        if e.any() and not np.array_equal(e, B.one) \
                and np.array_equal(B.mul(e, e), e):
            return e
    raise RuntimeError("no idempotent found in matrix algebra quotient")


def _coprime_split(g, p, rng):
    """g = g1 * g2 with gcd(g1, g2) = 1, both nontrivial; None if not found."""
    deg = len(g) - 1
    if deg < 2:
        return None
    # product of distinct linear factors
    u = _pgcd(_ptrim([(a - b) % p for a, b in
                      _zippad(_ppowmod([0, 1], p, g, p), [0, 1])]), g, p)
    if 0 < len(u) - 1 < deg:
        q, r = _pdivmod(g, u, p)
        if not r and len(_pgcd(u, q, p)) == 1:
            return u, q
    if len(u) - 1 == deg:  # splits completely: peel one root off
        roots = _poly_roots(g, p, rng)
        if len(roots) >= 2:
            g1 = [(-roots[0]) % p, 1]
            q, _ = _pdivmod(g, g1, p)
            return g1, q
    return None


# -- splitting a module -------------------------------------------------------

def split_by_idempotent(M: GridModule, e: ModuleMorphism):
    """Split M as image(e) + kernel(e).  Returns (M_im, M_ker, witness) with
    witness a verified isomorphism direct_sum(M_im, M_ker) -> M."""
    return _checked(*_split_along(M, e))


def _split_along(M: GridModule, e: ModuleMorphism):
    """split_by_idempotent with the witness left unchecked."""
    bases_im, bases_ker = {}, {}
    for vidx in M.grid.vertices():
        vidx = tuple(vidx)
        if M.dim(vidx) == 0:
            continue
        ev = e.at(vidx)
        if not np.array_equal(field.mmul(ev, ev, M.p), ev):
            raise ValueError(f"not idempotent at {vidx}")
        bases_im[vidx] = field.column_space(ev, M.p)
        bases_ker[vidx] = field.nullspace(ev, M.p)
        if bases_im[vidx].shape[1] + bases_ker[vidx].shape[1] != M.dim(vidx):
            raise ValueError(f"image and kernel do not complement at {vidx}")
    return _split_by_bases(M, bases_im, bases_ker)


def _split_by_bases(M: GridModule, bases1, bases0):
    p = M.p
    dims1 = np.zeros(M.grid.shape, dtype=np.int64)
    dims0 = np.zeros(M.grid.shape, dtype=np.int64)
    for v, b in bases1.items():
        dims1[v] = b.shape[1]
    for v, b in bases0.items():
        dims0[v] = b.shape[1]
    steps1, steps0 = {}, {}
    for vidx in M.grid.vertices():
        vidx = tuple(vidx)
        for k in range(M.grid.n):
            if vidx[k] + 1 >= M.grid.shape[k]:
                continue
            w = M.succ(vidx, k)
            st = M.step(vidx, k)
            for dims, bases, steps in ((dims1, bases1, steps1),
                                       (dims0, bases0, steps0)):
                dv, dw = int(dims[vidx]), int(dims[w])
                if dv == 0 or dw == 0:
                    continue
                rhs = field.mmul(st, bases[vidx], p)
                sol = field.solve(bases[w], rhs, p)
                if sol is None:
                    raise ValueError("subspaces are not preserved by the steps")
                steps[(vidx, k)] = sol
    M1 = GridModule(M.grid, dims1, steps1, p)
    M0 = GridModule(M.grid, dims0, steps0, p)
    S = sum_module(M1, M0)
    mats = {}
    for vidx in M.grid.vertices():
        vidx = tuple(vidx)
        if M.dim(vidx) == 0:
            continue
        b1 = bases1.get(vidx, field.zeros(M.dim(vidx), 0))
        b0 = bases0.get(vidx, field.zeros(M.dim(vidx), 0))
        mats[vidx] = np.concatenate([b1, b0], axis=1)
    return M1, M0, ModuleMorphism(S, M, mats)


def _checked(M1: GridModule, M0: GridModule, W: ModuleMorphism):
    """(M1, M0, W) once W is a natural isomorphism."""
    W.validate()
    if not W.is_isomorphism():
        raise ValueError("split witness is not an isomorphism")
    return M1, M0, W


def fitting_split(M: GridModule, phi: ModuleMorphism):
    """Fitting decomposition along an endomorphism: M = im(phi^N) + ker(phi^N)
    for N large enough to stabilize.  Returns (M_im, M_ker, witness)."""
    N = max(1, M.max_pointwise_dim())
    bases1, bases0 = {}, {}
    for vidx in M.grid.vertices():
        vidx = tuple(vidx)
        if M.dim(vidx) == 0:
            continue
        a = phi.at(vidx)
        power = field.eye(M.dim(vidx))
        for _ in range(N):
            power = field.mmul(power, a, M.p)
        bases1[vidx] = field.column_space(power, M.p)
        bases0[vidx] = field.nullspace(power, M.p)
        if bases1[vidx].shape[1] + bases0[vidx].shape[1] != M.dim(vidx):
            raise ValueError("power did not stabilize")
    return _checked(*_split_by_bases(M, bases1, bases0))


# -- full decomposition --------------------------------------------------------

def decompose(M: GridModule, seed: int = 0):
    """Decompose M into indecomposable summands.

    M is compressed once; the recursion splits the compressed module C and
    builds one endomorphism algebra per node, which either is local (a
    summand) or yields the idempotent to split along.  Summands and witness
    then move back to M's grid: summands by restriction-extension, exact
    because M's grid refines C's, and the witness through
    compression_witness.

    Returns (summands, witness) where witness is a verified isomorphism
    direct_sum(*summands) -> M, all on M's grid.  Summands are ordered by
    (total dimension, dimension vector).  The zero module yields ([], id).
    """
    if M.total_dim() == 0:
        return [], ModuleMorphism(M, M, {})
    C = compress(M)
    parts = sorted(((restriction_extension(X, M.grid), X, inc)
                    for X, inc in _decompose_rec(C, seed)),
                   key=lambda t: (t[0].total_dim(), t[0].dims.ravel().tolist()))
    # the inclusions side by side: sum of the parts on C's grid -> C
    Wc = ModuleMorphism(
        sum_module(*(X for _, X, _ in parts)), C,
        {v: np.concatenate([inc[v] for _, _, inc in parts if v in inc], axis=1)
         for v in C.support_vertices()})
    W = compression_witness(M, C).compose(
        morphism_restriction_extension(Wc, M.grid))
    summands = [Y for Y, _, _ in parts]
    W = ModuleMorphism(sum_module(*summands), M, W.mats)
    W.validate()
    if not W.is_isomorphism():
        raise RuntimeError("decomposition witness failed verification")
    return summands, W


def _decompose_rec(M: GridModule, seed: int):
    """[(X, components of an inclusion X -> M)] over indecomposable
    summands X of M, from one endomorphism algebra of M."""
    A = end_algebra(M)
    e = _idempotent(A, seed)
    if e is None:
        return [(M, ModuleMorphism.identity(M).mats)]
    # decompose checks the assembled witness, which covers every split
    M1, M0, W = _split_along(M, A.morphism_of(e))
    out = []
    for side, part in enumerate((M1, M0)):
        for X, inc in _decompose_rec(part, seed + 1):
            out.append((X, {v: field.mmul(np.split(W.mats[v], [M1.dim(v)],
                                                   axis=1)[side], m, M.p)
                            for v, m in inc.items()}))
    return out
