"""Decomposing modules into indecomposables via their endomorphism algebras.

A module is indecomposable iff its endomorphism algebra is local.  One
routine, _idempotent, decides locality and finds a splitting idempotent
together, on any algebra given by its structure table: the radical is the
kernel of the trace bilinear form of the regular representation (valid for
p > dim; smaller fields are searched exhaustively), and the semisimple
quotient, restricted to a table of its own, is a division algebra iff it
is commutative with a one-dimensional Frobenius-fixed subalgebra.
Otherwise powers taken in the algebra give a nontrivial idempotent, in
the manner of Cantor-Zassenhaus: (c^((p-1)/2) + c^(p-1)) / 2 for a
Frobenius-fixed c of the quotient, or of the commutative subalgebra F_p[b]
of a random b when the quotient is noncommutative; it lifts through the
radical.
decompose compresses its input once to C and builds End(C) once.  It
splits End(C) into primitive orthogonal idempotents by running
_idempotent on corner algebras eAe, each restricted from its parent's
table, splits C once along the images of all of them, and transports the
summands and the witness back to the input's grid.
"""

from __future__ import annotations

import numpy as np

from . import field
from .core import (GridModule, ModuleMorphism, direct_sum, hom_space,
                   sum_module)
from .kan import (compress, compression_witness,
                  morphism_restriction_extension, restriction_extension)


class FieldTooSmall(ValueError):
    """p <= dim End and p ** dim End is too large to search: the field is
    too small for this module's endomorphism algebra."""


class PreconditionError(ValueError):
    """An input breaks a documented precondition of tack, fold or
    approximate_indecomposable (the CLI answers it, like FieldTooSmall,
    with exit 3; any other ValueError there is an internal fault)."""


# -- finite algebras by structure table ----------------------------------------

class _Algebra:
    """A finite-dimensional F_p-algebra: table[i, j, k] is the coefficient
    of basis element k in b_i b_j, and one holds the unit's coordinates.
    Every contraction goes through field.mmul, so products are exact at
    any prime."""

    def __init__(self, table, one, p):
        self.table, self.one, self.p = table, one, p
        self.dim = len(one)

    def mul(self, x, y):
        """x y for coordinate vectors, or row by row for stacks of them."""
        D, p = self.dim, self.p
        xt = field.mmul(np.reshape(x, (-1, D)) % p,
                        self.table.reshape(D, D * D), p)
        return field.mmul(np.reshape(y, (-1, 1, D)) % p,
                          xt.reshape(-1, D, D), p).reshape(np.shape(x))

    def restrict(self, embed, project, one):
        """The algebra on the columns of embed (D x d): products are taken
        here and read back by project (d x D), a left inverse of embed on
        a subalgebra and the projection along the ideal for a quotient.
        one is its unit in this algebra's coordinates; the result keeps
        embed, which maps its coordinates back here."""
        D, d, p = self.dim, embed.shape[1], self.p
        t = field.mmul(embed.T, self.table.reshape(D, D * D), p)  # a, (j, k)
        t = field.mmul(embed.T, t.reshape(d, D, D).transpose(1, 0, 2)
                       .reshape(D, d * D), p)                     # b, (a, k)
        t = field.mmul(t.reshape(d * d, D), project.T, p)       # (b, a), c
        sub = _Algebra(np.ascontiguousarray(
            t.reshape(d, d, d).transpose(1, 0, 2)),
            field.mmul(project, one.reshape(-1, 1), p)[:, 0], p)
        sub.embed = embed
        return sub

    def is_commutative(self) -> bool:
        return np.array_equal(self.table, self.table.transpose(1, 0, 2))

    def power(self, x, e: int):
        """x ** e by square-and-multiply, row by row for stacks."""
        acc = np.broadcast_to(self.one, np.shape(x)).copy()
        x = np.asarray(x) % self.p
        while e:
            if e & 1:
                acc = self.mul(acc, x)
            e >>= 1
            if e:
                x = self.mul(x, x)
        return acc

    def frobenius_fixed_basis(self) -> np.ndarray:
        """Basis of {x : x^p = x} of a commutative algebra: a subalgebra
        F_p^s, s the number of local factors (of simple factors when the
        algebra is semisimple), spanned by its primitive idempotents."""
        I = field.eye(self.dim)
        return field.nullspace((self.power(I, self.p).T - I) % self.p,
                               self.p)


class EndAlgebra(_Algebra):
    """End(M) in a fixed basis, with structure constants and a solver for
    expressing arbitrary endomorphisms in that basis."""

    def __init__(self, M: GridModule):
        self.module = M
        self.basis = hom_space(M, M)
        self._verts = [tuple(v) for v in np.argwhere(M.dims > 0).tolist()]
        sizes = [M.dim(v) ** 2 for v in self._verts]
        # where each vertex's entries sit in the stacked vectors
        self._len = sum(sizes)
        self._slots = {v: slice(o, o + d) for v, o, d in
                       zip(self._verts, np.cumsum([0] + sizes).tolist(), sizes)}
        self._vecmat = (np.stack([self._vec(f) for f in self.basis], axis=1)
                        if self.basis else field.zeros(self._len, 0))
        self.p, self.dim = M.p, len(self.basis)
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

    def image_bases(self, coords):
        """One dict per coordinate column: vertex -> column basis of the
        image of that endomorphism there, all found in one batch."""
        comps = field.mmul(self._vecmat, coords, self.p)
        k = coords.shape[1]
        spaces = iter(field.column_spaces(
            [comps[s, i].reshape(self.module.dim(v), -1)
             for i in range(k) for v, s in self._slots.items()], self.p))
        return [{v: next(spaces) for v in self._slots} for _ in range(k)]

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
            # (f_i o f_j)[a, c] = sum_b f_i[a, b] f_j[b, c], inner size d
            # is bounded by GridModule.validate
            blocks.append(np.einsum("irb,jbr->ijr", mats[:, a, :],
                                    mats[:, :, c]) % p)
        prod_vecs = np.concatenate(blocks, axis=2).reshape(D * D, D)
        coeffs = field.mmul(field.minv(sub, p), prod_vecs.T, p)
        # table[i, j, k]: coefficient of basis k in f_i o f_j
        return np.ascontiguousarray(coeffs.T.reshape(D, D, D))


def end_algebra(M: GridModule) -> EndAlgebra:
    return EndAlgebra(M)


def radical(A: _Algebra) -> np.ndarray:
    """Basis (columns) of the Jacobson radical, via the trace form of the
    regular representation.  Requires p > dim A."""
    if A.p <= A.dim:
        raise FieldTooSmall(
            f"radical via trace form needs p > dim = {A.dim}")
    if A.dim == 0:
        return field.zeros(0, 0)
    # G_ij = tr(L_i L_j) = sum_{k,m} c_{im}^k c_{jk}^m
    D = A.dim
    G = field.mmul(A.table.reshape(D, D * D),
                   A.table.transpose(0, 2, 1).reshape(D, D * D).T, A.p)
    return field.nullspace(G, A.p)


def _corner(A: _Algebra, f) -> _Algebra:
    """The corner algebra fAf of an idempotent f, on a column basis of
    x -> f x f; the reduced rows of that map give the coordinates."""
    F = np.tile(f, (A.dim, 1))
    fxf = A.mul(A.mul(F, field.eye(A.dim)), F).T
    R, piv = field.rref(fxf, A.p)
    return A.restrict(fxf[:, piv], R[:len(piv)], f)


def is_indecomposable(M: GridModule) -> bool:
    """True iff M is nonzero with local endomorphism algebra."""
    return M.total_dim() > 0 and _idempotent(end_algebra(compress(M))) is None


def _idempotent(A: _Algebra, seed: int = 0):
    """Coordinates of a nontrivial idempotent of A (dim A > 0), or None
    exactly when A is local."""
    if A.dim == 1:
        return None   # A is the prime field
    if A.p <= A.dim:
        # trace form unavailable; locality <=> only trivial idempotents,
        # decidable by exhaustion for small fields
        return _enumerate_idempotent(A)
    # the semisimple quotient A / rad, on standard basis vectors that
    # complete a basis of the radical
    rad = radical(A)
    piv = set(field.rref(rad.T, A.p)[1]) if rad.shape[1] else set()
    C = field.eye(A.dim)[:, [j for j in range(A.dim) if j not in piv]]
    P = field.minv(np.concatenate([C, rad], axis=1), A.p)[:C.shape[1]]
    B = A.restrict(C, P, A.one)
    e_b = _quotient_idempotent(B, np.random.RandomState(seed))
    if e_b is None:
        return None
    # lift through the radical: a -> 3a^2 - 2a^3 converges to an idempotent
    a = field.mmul(C, e_b.reshape(-1, 1), A.p)[:, 0]
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


def _enumerate_idempotent(A: _Algebra):
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


def _quotient_idempotent(B: _Algebra, rng):
    """A nontrivial idempotent of the semisimple quotient, or None when it
    is a field (a finite division algebra is commutative, and a commutative
    semisimple algebra is a field iff its Frobenius-fixed subalgebra is the
    prime field).  A commutative quotient splits by _fixed_idempotent; a
    noncommutative one splits the same way inside the commutative
    subalgebra F_p[b] of a random element b, on the reduced basis of the
    span of 1, b, b^2, ..., until some F_p[b] is not local."""
    if B.dim <= 1:
        return None
    if B.is_commutative():
        return _fixed_idempotent(B, rng)
    for _ in range(256):
        b = rng.randint(0, B.p, size=B.dim).astype(np.int64)
        powers = [B.one]
        for _ in range(B.dim - 1):
            powers.append(B.mul(powers[-1], b))
        R, piv = field.rref(np.stack(powers), B.p)
        S = B.restrict(R[:len(piv)].T, field.eye(B.dim)[piv], B.one)
        e = _fixed_idempotent(S, rng)
        if e is not None:
            return field.mmul(S.embed, e.reshape(-1, 1), B.p)[:, 0]
    raise RuntimeError("no idempotent found in the semisimple quotient")


def _fixed_idempotent(S: _Algebra, rng):
    """A nontrivial idempotent of a commutative algebra S, or None when its
    Frobenius-fixed subalgebra V = F_p^s has s = 1.  For c in V the element
    (c^((p-1)/2) + c^(p-1)) / 2 is an idempotent: 1 on the factors of V
    where c is a nonzero square, 0 on the others (p is odd: the trace-form
    path has p > dim >= 2).  Candidates c are drawn sixteen at a time and
    raised in one power."""
    V = S.frobenius_fixed_basis()
    if V.shape[1] == 1:
        return None
    p = S.p
    for _ in range(64):
        c = field.mmul(rng.randint(0, p, size=(16, V.shape[1])), V.T, p)
        h = S.power(c, (p - 1) // 2)
        for e in (h + S.mul(h, h)) % p * ((p + 1) // 2) % p:
            if e.any() and not np.array_equal(e, S.one):
                return e
    raise RuntimeError("no idempotent found in the Frobenius-fixed subalgebra")


def _primitive_idempotents(A: _Algebra, seed: int):
    """Coordinates of primitive orthogonal idempotents of A that sum to 1:
    split off an idempotent g, then go on in the corner algebras of g and
    1 - g, whose idempotents lie under g and 1 - g."""
    g = _idempotent(A, seed)
    if g is None:
        return [A.one]
    out = []
    for f in (g, (A.one - g) % A.p):
        B = _corner(A, f)
        out += [field.mmul(B.embed, e.reshape(-1, 1), A.p)[:, 0]
                for e in _primitive_idempotents(B, seed + 1)]
    return out


# -- splitting a module -------------------------------------------------------

def _split_by_bases(M: GridModule, bases):
    """The summands of M spanned by the columns of bases[0], bases[1], ...
    (dicts over M's support that side by side give a basis of M at every
    vertex).  Their steps are the diagonal blocks of M's steps in those
    bases; decompose checks the result."""
    p = M.p
    dims = np.zeros((len(bases),) + M.grid.shape, dtype=np.int64)
    W, offs = {}, {}
    for v in M.support_vertices():
        W[v] = np.concatenate([b[v] for b in bases], axis=1)
        if W[v].shape[1] != M.dim(v):
            raise ValueError(f"the subspaces do not complement at {v}")
        widths = [b[v].shape[1] for b in bases]
        dims[(slice(None),) + v] = widths
        offs[v] = np.cumsum([0] + widths).tolist()
    Winv = dict(zip(W, field.inverses(list(W.values()), p)))
    steps = [{} for _ in bases]
    for (v, k), st in M.steps.items():
        v = tuple(v)
        w = M.succ(v, k)
        if v not in W or w not in W:
            continue
        T = field.mmul(Winv[w], field.mmul(st, W[v], p), p)
        for i, s in enumerate(steps):
            if dims[i][v] and dims[i][w]:
                s[(v, k)] = T[offs[w][i]:offs[w][i + 1],
                              offs[v][i]:offs[v][i + 1]]
    return [GridModule(M.grid, d, s, p) for d, s in zip(dims, steps)]


def _side_by_side(M: GridModule, parts, bases) -> ModuleMorphism:
    """The morphism sum_module(*parts) -> M that includes each part by its
    basis (unchecked)."""
    return ModuleMorphism(sum_module(*parts), M, {
        v: np.concatenate([b[v] for b in bases], axis=1)
        for v in M.support_vertices()})


# -- full decomposition --------------------------------------------------------

def decompose(M: GridModule, seed: int = 0):
    """Decompose M into indecomposable summands.

    M is compressed once to C, and End(C) is built once.  A complete set of
    primitive orthogonal idempotents of End(C) comes from splitting off
    one idempotent at a time in corner algebras, each restricted from its
    parent's structure table, so no module is built on the way; C then
    splits once along the images of all of them.  Summands and witness
    move back to M's grid: summands by restriction-extension, exact
    because M's grid refines C's, and the witness through
    compression_witness.

    Returns (summands, witness) where witness is a verified isomorphism
    direct_sum(*summands) -> M, all on M's grid.  Summands are ordered by
    (total dimension, dimension vector).  The zero module yields ([], id).
    """
    if M.total_dim() == 0:
        return [], ModuleMorphism(M, M, {})
    C = compress(M)
    A = end_algebra(C)
    bases = A.image_bases(np.stack(_primitive_idempotents(A, seed), axis=1))
    parts = sorted(((restriction_extension(X, M.grid), X, b)
                    for X, b in zip(_split_by_bases(C, bases), bases)),
                   key=lambda t: (t[0].total_dim(), t[0].dims.ravel().tolist()))
    Wc = _side_by_side(C, [X for _, X, _ in parts], [b for _, _, b in parts])
    W = compression_witness(M, C).compose(
        morphism_restriction_extension(Wc, M.grid))
    summands = [Y for Y, _, _ in parts]
    W = ModuleMorphism(sum_module(*summands), M, W.mats)
    W.validate()
    if not W.is_isomorphism():
        raise RuntimeError("decomposition witness failed verification")
    return summands, W


# -- isomorphism ----------------------------------------------------------------

def _basis_isomorphism(M: GridModule, N: GridModule):
    """The first element of the hom_space(M, N) basis that is an
    isomorphism, or None."""
    if not np.array_equal(M.dims, N.dims):
        return None
    return next((f for f in hom_space(M, N) if f.is_isomorphism()), None)


def is_isomorphic(M: GridModule, N: GridModule):
    """An isomorphism M -> N of modules on one grid, or None if there is
    none.  Exact and deterministic.

    For indecomposable X, X ~ Y iff some element f_i of the hom_space(X, Y)
    basis is an isomorphism: if f = sum c_i f_i is one, 1 = sum c_i f^-1 f_i
    in the local ring End(X), so some f^-1 f_i is a unit and f_i is an
    isomorphism.  Hence None when the dimension vectors differ, and when no
    f_i of Hom(M, N) is an isomorphism and M is indecomposable.  Otherwise
    each summand of M takes the first unpaired summand of N that this scan
    finds isomorphic; by Krull-Schmidt the greedy pairing is exact, and a
    summand left unpaired means None.  The witness W_N o (+ f_i) o W_M^-1
    is assembled from both decomposition witnesses and checked.  Raises
    FieldTooSmall where decompose does.
    """
    if M.grid != N.grid:
        raise ValueError("is_isomorphic requires a common grid")
    if not np.array_equal(M.dims, N.dims):
        return None
    if M.total_dim() == 0:
        return ModuleMorphism(M, N, {})
    f = _basis_isomorphism(M, N)
    if f is not None:
        return f
    parts, WM = decompose(M)
    if len(parts) == 1:
        return None
    targets, WN = decompose(N)
    incs = direct_sum(*targets)[1]
    free, terms = list(range(len(targets))), []
    for X, proj in zip(parts, direct_sum(*parts)[2]):
        for j in free:
            f = _basis_isomorphism(X, targets[j])
            if f is not None:
                break
        else:
            return None
        free.remove(j)
        terms.append(incs[j].compose(f).compose(proj))
    W = WN.compose(ModuleMorphism.linear_combination(
        terms, [1] * len(terms), M.p)).compose(WM.inverse())
    W.validate()
    if not W.is_isomorphism():
        raise RuntimeError("isomorphism witness failed verification")
    return W
