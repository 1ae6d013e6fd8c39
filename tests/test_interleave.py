"""Triviality, interleaving certificates, composition, rank obstructions."""

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpersist import construct, field, interleave
from gridpersist.cli import random_module
from gridpersist.construct import (approximate_indecomposable, fold,
                                   iso_certificate, module_G)
from gridpersist.core import (Grid, GridModule, direct_sum, interval_module,
                              random_basis_change, zero_module)
from gridpersist.interleave import (CertificateError, InterleavingCertificate,
                                    _rank_violation,
                                    TrivialRegion, block_sum_certificates,
                                    compose_chain, factor_through_grid,
                                    identity_certificate,
                                    is_eps_trivial, is_strictly_eps_trivial,
                                    local_change_certificate, map_grid,
                                    rank_lower_bound,
                                    snap_certificate, triviality_radius,
                                    trivial_certificate, weaken_certificate)
from gridpersist.decomp import decompose
from gridpersist.kan import (common_refinement, restrict,
                             restriction_extension, shift, snap_to_lattice)
from gridpersist.match import summand_certificate

from conftest import free_module, rect
import oracles as O
from oracles import regular_grid, step_dict


def sum_certificates(c, X):
    """Certify d(M + X, N + X) <= eps from d(M, N) <= eps."""
    return block_sum_certificates([c, identity_certificate(X, c.eps,
                                                           verify=False)])


# -- triviality ---------------------------------------------------------------

def test_unit_square_interval_triviality():
    M = interval_module((0, 0), (1, 1))
    assert is_eps_trivial(M, 1)
    assert not is_eps_trivial(M, Fraction(1, 2))
    assert triviality_radius(M) == 1 == O.triviality_radius_bruteforce(M)
    assert is_strictly_eps_trivial(M, Fraction(3, 2))
    assert not is_strictly_eps_trivial(M, 1)


def test_zero_module_trivial_at_any_eps():
    Z = zero_module(2)
    assert is_eps_trivial(Z, Fraction(1, 100))
    assert triviality_radius(Z) == 0


def test_G_triviality_radius_matches_bruteforce():
    # the top corner of G survives under every diagonal shift (the map
    # (1,2) -> (4,4) is the identity and the floor extension keeps it),
    # so G is not eps-trivial at any radius; in particular not 4-trivial
    G = module_G()
    assert triviality_radius(G) is None
    assert O.triviality_radius_bruteforce(G) is None
    for e in (3, 4, 100):
        assert not is_eps_trivial(G, e)
        assert is_eps_trivial(G, e) == O.is_trivial_at(G, e)
        assert not is_strictly_eps_trivial(G, e)


def test_triviality_matches_bruteforce_on_random_modules():
    for s in range(6):
        M = random_module(2, 3, 2, seed=s)
        r = triviality_radius(M)
        assert r == O.triviality_radius_bruteforce(M)


def _triviality_corpus():
    for s in range(8):
        M = random_module(2, 3, 2, seed=s)
        for r in (0, Fraction(1, 7), Fraction(-3, 8)):
            yield shift(M, r)
    yield rect((5, 5), (Fraction(21, 4), Fraction(21, 4)))
    yield rect((Fraction(1, 3), 0), (1, Fraction(1, 2)))
    yield module_G()
    yield zero_module(2)


def test_triviality_radius_matches_bruteforce_on_shifted_modules():
    # shifts by 1/7 and -3/8 put coordinates off the integers and below 0
    for M in _triviality_corpus():
        assert triviality_radius(M) == O.triviality_radius_bruteforce(M), M


def test_strict_and_doubled_triviality_match_the_radius():
    # is_strictly_eps_trivial tests one eps below eps on the lattice of M's
    # coordinates and eps; the radius bisects over coordinate differences
    for M in _triviality_corpus():
        rho = triviality_radius(M)
        for k in range(25):
            eps = Fraction(k, 8)
            assert is_strictly_eps_trivial(M, eps) == (
                rho is not None and rho < eps), (M, eps)
            assert is_eps_trivial(M, 2 * eps) == (
                rho is not None and rho <= 2 * eps), (M, eps)


def test_trivial_region_box_logic():
    U = TrivialRegion([[(0, 1), (0, 1)]])
    assert U.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not U.contains((1, 1))
    assert U.is_eps_trivial(1)
    assert not U.is_eps_trivial(Fraction(1, 2))
    assert TrivialRegion([]).is_eps_trivial(Fraction(1, 1000))


def _pairwise_eps_trivial(region, eps):
    """TrivialRegion.is_eps_trivial box pair by box pair, in Fractions."""
    eps = Fraction(eps)
    if eps <= 0:
        return not region.boxes
    return not any(all(max(lo1, lo2 + eps) < min(hi1, hi2 + eps)
                       for (lo1, hi1), (lo2, hi2) in zip(b1, b2))
                   for b1 in region.boxes for b2 in region.boxes)


FRACS = st.fractions(-3, 3, max_denominator=3)


@st.composite
def _regions(draw):
    n = draw(st.integers(0, 3))
    boxes = draw(st.lists(st.lists(
        st.tuples(FRACS, st.fractions(Fraction(1, 3), 3, max_denominator=3)),
        min_size=n, max_size=n), max_size=5))
    return TrivialRegion([[(lo, lo + h) for lo, h in box] for box in boxes])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_regions(), st.fractions(-1, 4, max_denominator=6))
def test_region_triviality_matches_pairwise_loop(region, eps):
    assert region.is_eps_trivial(eps) == _pairwise_eps_trivial(region, eps)


def test_region_triviality_on_touching_and_wide_boxes():
    big = Fraction(1, 2 ** 61 - 1)
    cases = [([[(0, 1), (0, 1)], [(1, 2), (1, 2)]], 1),
             ([[(0, 1), (0, 1)], [(1, 2), (1, 2)]], Fraction(1, 2)),
             ([[(0, 1), (0, 1)], [(1, 2), (0, 1)]], 1),
             ([[(0, 1)], [(2, 3)]], 2), ([[(0, 1)], [(2, 3)]], 3),
             ([[(0, big)], [(big, 2 * big)]], big),
             ([[(0, big)], [(big, 2 * big)]], big / 2),
             ([[(-10 ** 20, big)]], 10 ** 20), ([[]], 1), ([], 1)]
    for boxes, eps in cases:
        U = TrivialRegion(boxes)
        assert U.is_eps_trivial(eps) == _pairwise_eps_trivial(U, eps), boxes


def test_region_triviality_matches_loop_on_fold_regions(monkeypatch):
    seen = []
    trivial = TrivialRegion.is_eps_trivial

    def record(self, eps):
        seen.append((self, eps))
        return trivial(self, eps)

    monkeypatch.setattr(TrivialRegion, "is_eps_trivial", record)
    fold([rect((0, 0), (2, 2)), rect((3, 1), (5, 4)), rect((1, 5), (2, 6))],
         Fraction(1, 4))
    assert len(seen) > 3 and any(len(U.boxes) > 1 for U, _ in seen)
    for U, eps in seen:
        for e in (eps, eps / 2, 2 * eps):
            assert trivial(U, e) == _pairwise_eps_trivial(U, e)


# -- certificates -------------------------------------------------------------

def test_identity_and_trivial_certificates_verify():
    M = random_module(2, 3, 2, seed=4)
    identity_certificate(M, Fraction(1, 2)).verify()
    # the unit square is 1-trivial, so it is within 1/2 of the zero module
    # but not within 1/4 (the triangle needs 2 eps triviality)
    I = interval_module((0, 0), (1, 1))
    trivial_certificate(I, Fraction(1, 2)).verify()
    with pytest.raises(CertificateError):
        trivial_certificate(I, Fraction(1, 4)).verify()


def test_tampered_certificate_fails_verification():
    # zeroing g on a vertex that carries a surviving 2eps structure map
    # breaks the triangle identity there
    M = interval_module((0, 0), (4, 4))
    c = identity_certificate(M, Fraction(1, 2))
    drop = min(c.g)
    g = {v: m for v, m in c.g.items() if v != drop}
    assert len(g) < len(c.g)
    bad = InterleavingCertificate(c.m_module, c.n_module, c.eps, c.grid,
                                  dict(c.f), g)
    with pytest.raises(CertificateError):
        bad.verify()


def test_compose_certificates_adds_eps():
    M = random_module(2, 3, 2, seed=6)
    c1 = identity_certificate(M, Fraction(1, 4))
    c2 = identity_certificate(M, Fraction(1, 2))
    c = compose_chain([c1, c2])
    assert c.eps == Fraction(3, 4)
    c.verify()


def test_compose_chain_of_three():
    M = random_module(2, 3, 2, seed=7)
    certs = [identity_certificate(M, Fraction(1, 8)) for _ in range(3)]
    c = compose_chain(certs)
    assert c.eps == Fraction(3, 8)
    c.verify()


def test_compose_chain_compares_middle_modules_by_extension():
    M = random_module(2, 3, 2, seed=1)
    eps = Fraction(1, 4)
    first = identity_certificate(M, eps)
    # one entry of one step changed: a different middle module
    steps = step_dict(M)
    key = next(k for k, m in steps.items() if m.size)
    steps[key] = steps[key].copy()
    steps[key][0, 0] = (steps[key][0, 0] + 1) % M.p
    other = GridModule(M.grid, M.dims.copy(), steps, M.p)
    with pytest.raises(CertificateError, match="middle modules do not match"):
        compose_chain([first, identity_certificate(other, eps, verify=False)])
    # extra empty steps into zero vertices, or a refined grid, leave the
    # extension as it is
    steps = step_dict(M)
    for v in map(tuple, np.argwhere(M.dims > 0).tolist()):
        for k in range(2):
            w = v[:k] + (v[k] + 1,) + v[k + 1:]
            if w[k] < M.grid.shape[k] and not M.dim(w):
                steps[(v, k)] = field.zeros(0, M.dim(v))
    padded = GridModule(M.grid, M.dims.copy(), steps, M.p)
    assert padded.validate()
    assert len(padded.step_table()) > len(M.step_table())
    finer = restriction_extension(M, Grid([
        sorted(set(ax) | {(a + b) / 2 for a, b in zip(ax, ax[1:])})
        for ax in M.grid.axes]))
    assert finer.grid.shape != M.grid.shape
    for mid in (padded, finer):
        c = compose_chain([first, identity_certificate(mid, eps)])
        assert c.eps == 2 * eps


def test_pair_sum_and_sum_certificates():
    for s in range(4):
        A = random_module(2, 3, 2, seed=s)
        B = random_module(2, 3, 2, seed=30 + s)
        cA = identity_certificate(A, Fraction(1, 3))
        cB = identity_certificate(B, Fraction(1, 3))
        c, S1, S2 = block_sum_certificates([cA, cB])
        assert c.eps == Fraction(1, 3)
        c.verify()
        c2, _, _ = sum_certificates(cA, B)
        c2.verify()


def test_sum_certificates_verifies_only_its_result(monkeypatch):
    calls = []
    verify = InterleavingCertificate.verify
    monkeypatch.setattr(InterleavingCertificate, "verify",
                        lambda self: calls.append(self) or verify(self))
    A = random_module(2, 3, 2, seed=1)
    cA = identity_certificate(A, Fraction(1, 3), verify=False)
    c, _, _ = sum_certificates(cA, random_module(2, 3, 2, seed=31))
    assert calls == [c]


def test_weaken_certificate():
    M = random_module(2, 3, 2, seed=9)
    c = identity_certificate(M, Fraction(1, 4))
    w = weaken_certificate(c, Fraction(1, 2))
    assert w.eps == Fraction(1, 2)
    w.verify()
    with pytest.raises(ValueError):
        weaken_certificate(c, Fraction(1, 8))


def test_snap_certificate_verifies():
    for s in range(3):
        M = random_module(2, 3, 2, seed=s)
        L, c = snap_certificate(M, Fraction(1, 2))
        assert L.validate()
        assert c.eps == Fraction(1, 2)
        c.verify()


def test_snap_certificate_matches_oracle():
    # every component of the snap certificate, checked vertex by vertex
    for M in (random_module(2, 3, 2, seed=31),
              shift(random_module(2, 3, 2, seed=32), Fraction(5, 3)),
              interval_module((0, 0), (1, 1))):
        for pitch in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 8)):
            L, c = snap_certificate(M, pitch)
            assert c.eps == pitch
            assert O.certificate_holds(O.widened(c))


def test_flip_swaps_sides():
    M = random_module(2, 3, 2, seed=11)
    L, c = snap_certificate(M, Fraction(1, 2))
    d = c.flip()
    assert d.m_module is c.n_module and d.n_module is c.m_module
    d.verify()


# -- local change -------------------------------------------------------------

def test_local_change_empty_region_is_identity_like():
    M = random_module(2, 3, 2, seed=12)
    c = local_change_certificate(M, M, TrivialRegion([]), Fraction(1, 2))
    c.verify()
    assert c.eps == Fraction(1, 2)


def test_local_change_detects_outside_disagreement():
    A = rect((0, 0), (2, 2))
    B = rect((0, 0), (3, 3))
    A, B, _ = common_refinement(A, B)
    U = TrivialRegion([[(0, Fraction(1, 2)), (0, Fraction(1, 2))]])
    with pytest.raises(CertificateError):
        local_change_certificate(A, B, U, Fraction(1, 2))


def test_local_change_rejects_non_trivial_region():
    M = random_module(2, 3, 2, seed=13)
    U = TrivialRegion([[(0, 2), (0, 2)]])
    with pytest.raises(CertificateError):
        local_change_certificate(M, M, U, Fraction(1, 2))


def _local_change_calls():
    """(M, M2, region, eps) of every local change a fold of two rectangles
    makes: splices of a module on its own grid, then the join."""
    seen = []
    real = construct.local_change_certificate

    def record(M, M2, region, eps, verify=True):
        seen.append((M, M2, region, eps))
        return real(M, M2, region, eps, verify)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "local_change_certificate", record)
        fold([rect((0, 0), (2, 2)), rect((3, 1), (5, 4))], Fraction(1, 4))
    return seen


def _assert_local_change_oracle(c, M, M2, region, eps):
    """f at each vertex x of its grid is M's structure map from x to
    x + eps inside the region and M2's outside; g is M2's inside and M's
    outside.  A map that is zero or empty is absent from its table."""
    for comp, P, inner, outer in ((c.f, c.grid, M, M2),
                                  (c.g, c.g_grid, M2, M)):
        for v in map(tuple, P.vertices()):
            x = P.coord(v)
            X = inner if region.contains(x) else outer
            a = O.ext_floor(X, x)
            b = O.ext_floor(X, tuple(t + eps for t in x))
            want = (np.zeros((0, 0), np.int64) if a is None else
                    np.array(O.path_map(X, a, b), dtype=np.int64).reshape(
                        X.dim(b), X.dim(a)))
            if want.any():
                assert np.array_equal(comp[v], want), v
            else:
                assert v not in comp, v


def test_local_change_matches_the_oracle_and_evaluates_one_grid_once(
        monkeypatch):
    calls = _local_change_calls()
    same = [a for a in calls if a[0].grid == a[1].grid]
    two = [a for a in calls if a[0].grid != a[1].grid]
    assert len(same) >= 4 and len(two) == 1
    counts = {}

    def counted(name, fn):
        def wrapped(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(interleave, "_floors",
                        counted("_floors", interleave._floors))
    monkeypatch.setattr(interleave, "map_grid",
                        counted("map_grid", interleave.map_grid))
    for M, M2, region, eps in same + two:
        counts.update(_floors=0, map_grid=0)
        c = local_change_certificate(M, M2, region, eps, verify=False)
        # one module grid: one evaluation grid, its mask and one pair of
        # floor tables for both modules; the join has two of each
        if M.grid == M2.grid:
            assert c.g_grid is c.grid
            assert counts == {"_floors": 2, "map_grid": 1}
        else:
            assert counts == {"_floors": 8, "map_grid": 2}
        assert c.grid == map_grid(M, M2, eps)
        assert c.g_grid == map_grid(M2, M, eps)
        _assert_local_change_oracle(c, M, M2, region, eps)
        assert c.is_valid()


def test_region_mask_matches_contains_at_every_vertex():
    # box corners off the grid, negative, on grid coordinates and on a
    # denominator whose lattice with the grid's leaves int64
    rng = np.random.default_rng(17)
    big = Fraction(1, 2 ** 40 + 1)
    for trial in range(60):
        n = 1 + trial % 3
        den = 3 ** 30 if trial % 5 == 4 else 6
        axes = [sorted(Fraction(int(k), den) for k in rng.choice(
            np.arange(-12, 13), rng.integers(1, 7), replace=False))
            for _ in range(n)]
        grid = Grid(axes)
        boxes = []
        for _ in range(rng.integers(0, 4)):
            lo = [Fraction(int(k), 12) + (big if trial % 3 == 2 else 0)
                  for k in rng.integers(-30, 30, n)]
            box = []
            for k, x in enumerate(lo):
                # a corner on a grid coordinate, now and then
                if rng.random() < 0.3:
                    x = axes[k][int(rng.integers(len(axes[k])))]
                box.append((x, x + Fraction(int(rng.integers(1, 24)), 12)))
            boxes.append(box)
        U = TrivialRegion(boxes)
        want = np.array([U.contains(grid.coord(v)) for v in grid.vertices()],
                        dtype=bool).reshape(grid.shape)
        assert np.array_equal(U.mask(grid), want), boxes
    assert not TrivialRegion([]).mask(Grid([[0, 1], [2]])).any()


# -- rank obstruction ---------------------------------------------------------

def test_rank_lower_bound_zero_on_equal():
    M = random_module(2, 3, 2, seed=14)
    assert rank_lower_bound(M, M) == 0


def test_rank_lower_bound_interval_vs_zero_scales_with_width():
    Z = zero_module(2)
    lbs = {}
    for w in (2, 4):
        I = rect((0, 0), (w, w))
        S, _, _ = direct_sum(I, I, I)
        lbs[w] = rank_lower_bound(S, Z)
    assert lbs[2] > 0
    assert lbs[4] == 2 * lbs[2]


def _rank_pairs(kind):
    for s in range(4):
        M = random_module(2, 3, 2, seed=s)
        if kind == "snap":
            for pitch in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
                L = snap_to_lattice(M, pitch)
                yield M, L
                yield L, M
        elif kind == "shifted":
            for r in (Fraction(1, 7), Fraction(-2, 5), Fraction(3, 2)):
                yield M, shift(M, r)
            yield M, random_module(2, 3, 2, seed=s + 10)
        else:
            yield M, zero_module(2)
            yield zero_module(2), M
            S, _, _ = direct_sum(M, M)
            yield S, zero_module(2)


@pytest.mark.parametrize("kind", ["snap", "shifted", "zero"])
def test_rank_lower_bound_matches_per_vertex_oracle(kind):
    for M, N in _rank_pairs(kind):
        assert rank_lower_bound(M, N) == O.rank_lower_bound(M, N)
        for eps in (Fraction(1, 8), Fraction(9, 20), Fraction(1, 2),
                    Fraction(5, 7)):
            assert _rank_violation(M, N, eps) == O.rank_violation(M, N, eps)


def test_rank_lower_bound_below_certificate_eps():
    for s in range(4):
        M = random_module(2, 3, 2, seed=s)
        L, c = snap_certificate(M, Fraction(1, 2))
        c.verify()
        assert rank_lower_bound(M, L) <= c.eps


# -- factoring through bounded grids -------------------------------------------

def _check_factor_square(L, window, r):
    # m o L(v -> v + r) = L(v -> the floor in window of v + beta), each map
    # of L's extension composed by the oracle between the floors in L's grid
    import gridpersist.field as field
    mats = factor_through_grid(L, window, r)
    meshes = [ax[i + 1] - ax[i] for ax in window.axes
              for i in range(len(ax) - 1)]
    beta = max(meshes)

    def ext_map(x, y):
        a, b = O.ext_floor(L, x), O.ext_floor(L, y)
        rows = 0 if b is None else L.dim(b)
        return (field.zeros(rows, 0) if a is None else np.array(
            O.path_map(L, a, b), dtype=np.int64).reshape(rows, L.dim(a)))

    for vidx, m in mats.items():
        v = window.coord(vidx)
        tgt = window.coord(O._grid_floor(window.axes, [c + beta for c in v]))
        lhs = field.mmul(m, ext_map(v, [c + r for c in v]), L.p)
        assert np.array_equal(lhs, ext_map(v, tgt))
    return mats


def test_factor_through_regular_grid():
    M = random_module(2, 4, 2, seed=15)
    window = regular_grid(2, 1, (0, 0), (4, 4))
    mats = _check_factor_square(M, window, 1)
    assert mats


def test_factor_through_irregular_grid():
    axes = [[Fraction(0), Fraction(1), Fraction(5, 2), Fraction(4)],
            [Fraction(0), Fraction(3, 2), Fraction(3), Fraction(4)]]
    window = Grid(axes)
    for s in range(3):
        M = random_module(2, 4, 2, seed=20 + s)
        assert _check_factor_square(M, window, 1)


def test_factor_through_constant_module():
    g = regular_grid(2, 1, (0, 0), (3, 3))
    M = free_module(g, (0, 0))
    window = regular_grid(2, 1, (0, 0), (3, 3))
    assert _check_factor_square(M, window, 1)


def test_verify_agrees_with_vertexwise_oracle():
    # verify() groups vertices by signature and checks the triangles only
    # where a floor is new; the oracle checks everything at every vertex
    rng = np.random.default_rng(11)
    certs = []
    for s in range(3):
        M = random_module(2, 3, 2, seed=s)
        certs.append(identity_certificate(M, Fraction(1, 2)))
        certs.append(snap_certificate(M, Fraction(1, 3))[1])
    X, Y, _ = common_refinement(rect((0, 0), (2, 2)), rect((1, 1), (3, 3)))
    certs.append(block_sum_certificates([identity_certificate(X, 1),
                                         identity_certificate(Y, 1)])[0])
    cases = []
    for c in certs:
        cases.append(c)
        p = c.m_module.p
        # scaling f and g by l and 1/l keeps a certificate, by l and l only
        # breaks the triangle identities
        for lg in (pow(3, -1, p), 3):
            cases.append(InterleavingCertificate(
                c.m_module, c.n_module, c.eps, c.grid,
                {v: m * 3 % p for v, m in c.f.items()},
                {v: m * lg % p for v, m in c.g.items()}, c.g_grid))
        for comp in ("f", "g"):
            d = dict(getattr(c, comp))
            keys = sorted(v for v, m in d.items() if m.size)
            if not keys:
                continue
            v = keys[int(rng.integers(len(keys)))]
            d[v] = (d[v] + 1) % p
            f, g = (d, c.g) if comp == "f" else (c.f, d)
            cases.append(InterleavingCertificate(c.m_module, c.n_module,
                                                 c.eps, c.grid, f, g,
                                                 c.g_grid))
    outcomes = set()
    for c in cases:
        want = O.certificate_holds(O.widened(c))
        assert c.is_valid() == want
        outcomes.add(want)
    assert outcomes == {True, False}


def _rebased(M, v, a):
    """M with the basis at vertex v changed by the invertible matrix a: a
    valid module whose steps into and out of v differ from M's."""
    p, ai = M.p, field.minv(a, M.p)
    steps = step_dict(M)
    for (u, k), m in list(steps.items()):
        if u == v:
            steps[(u, k)] = field.mmul(m, ai, p)
        elif u[:k] + (u[k] + 1,) + u[k + 1:] == v:
            steps[(u, k)] = field.mmul(a, m, p)
    return GridModule(M.grid, M.dims, steps, p)


def _without_zero_steps(M):
    """M with its stored zero steps left out, which read as zero anyway."""
    return GridModule(M.grid, M.dims, {key: m for key, m in
                                       step_dict(M).items() if m.any()}, M.p)


def test_verify_agrees_with_oracle_on_missing_steps_late_supports_and_stages():
    # naturality reads each map off a step table: the identity between
    # equal floors, the empty map from below a grid, a stored step, or zero
    # where none is stored; the oracle composes everything at every vertex
    rng = np.random.default_rng(5)
    third, half = Fraction(1, 3), Fraction(1, 2)
    X, Y, _ = common_refinement(rect((0, 0), (1, 2)), rect((1, 0), (2, 2)))
    sparse = [_without_zero_steps(direct_sum(X, Y)[0]),
              _without_zero_steps(random_module(2, 3, 2, seed=5))]
    for A in sparse:   # an edge between nonzero spaces without a step
        assert any(A.dims[v] and A.dims[w] and (k,) + v not in A.step_table()
                   for v in A.grid.vertices() for k in range(2)
                   for w in [v[:k] + (v[k] + 1,) + v[k + 1:]]
                   if w[k] < A.grid.shape[k])
    certs = [identity_certificate(A, half, verify=False) for A in sparse]
    # modules whose grid or support begins inside the evaluation grid: the
    # snap of an off-lattice module, a support starting at (1, 1), and the
    # zero module, whose one vertex sits above the grid's bottom
    certs.append(snap_certificate(shift(random_module(2, 3, 2, seed=2),
                                        Fraction(-1, 7)), third)[1])
    certs.append(identity_certificate(
        common_refinement(rect((0, 0), (2, 2)), rect((1, 1), (3, 3)))[1],
        third))
    # d(A, 0) <= eps holds exactly when A is 2 eps-trivial
    A, Z = rect((0, 0), (1, 1)), zero_module(2)
    for eps in (Fraction(1, 4), half):
        certs.append(InterleavingCertificate(A, Z, eps, O.one_grid(A, Z, eps),
                                             {}, {}))
    certs += fold([rect((0, 0), (2, 2)), rect((3, 1), (5, 4))], 1)[2]
    # a refinement R of M stores identity steps between a coordinate and a
    # new midpoint; R against itself and against M, whose extension it is
    M = random_module(2, 3, 2, seed=3)
    R = restriction_extension(M, Grid([sorted(set(ax) | {(a + b) / 2 for a, b
                                                      in zip(ax, ax[1:])})
                                       for ax in M.grid.axes]))
    assert any(m.shape[0] == 2 and (m == field.eye(2)).all()
               for m in R.step_table().mats)
    c = identity_certificate(R, half, verify=False)
    certs += [c, InterleavingCertificate(M, R, half, c.grid, c.f, c.g)]
    # maps into a zero space, stored (0 x 1) or left out, and zero maps out
    # of one into the row above it, whose vertices are then reached by no
    # onto map
    g = Grid([[0, 1, 2], [0, 1]])
    eye = field.eye(1)
    gap = {((i, 0), 1): eye for i in (0, 2)}
    stored = dict(gap)
    stored.update({((0, j), 0): field.zeros(0, 1) for j in (0, 1)})
    stored.update({((1, j), 0): field.zeros(1, 0) for j in (0, 1)})
    for steps in (gap, stored):
        certs.append(identity_certificate(
            GridModule(g, [[1, 1], [0, 0], [1, 1]], steps), half,
            verify=False))
    cases = []
    for c in certs:
        cases.append(("built", c))
        p = c.m_module.p
        f = dict(c.f)
        keys = sorted(v for v, m in f.items() if m.size)
        if keys:
            v = keys[int(rng.integers(len(keys)))]
            f[v] = (f[v] + 1) % p
            cases.append(("component", InterleavingCertificate(
                c.m_module, c.n_module, c.eps, c.grid, f, c.g, c.g_grid)))
        # a changed basis at one vertex of M: a changed step, same dims
        M = c.m_module
        live = [v for (v, _), m in step_dict(M).items() if m.size]
        if live:
            v = live[int(rng.integers(len(live)))]
            cases.append(("step", InterleavingCertificate(
                _rebased(M, v, 2 * field.eye(M.dim(v))), c.n_module, c.eps,
                c.grid, c.f, c.g, c.g_grid)))
    # f and g natural but g scaled by 3 on the summand Y of X + Y, which
    # starts at (1, 1): the triangles fail there first, at a vertex every
    # predecessor maps into by a map of rank 1 < 2, and at no other check
    X, Y, _ = common_refinement(rect((0, 0), (3, 3)), rect((1, 1), (3, 3)))
    for eps in (half, third):
        c = identity_certificate(direct_sum(X, Y)[0], eps)
        g = {}
        for v, m in c.g.items():
            scale = np.ones(m.shape[1], dtype=np.int64)
            y = O.ext_floor(Y, c.grid.coord(v))
            scale[m.shape[1] - (0 if y is None else Y.dim(y)):] = 3
            g[v] = m * scale % c.m_module.p
        cases.append(("triangle", InterleavingCertificate(
            c.m_module, c.n_module, eps, c.grid, c.f, g)))
        fails = list(O.certificate_failures(cases[-1][1]))
        assert {check for check, _ in fails} == {"g.f", "f.g"}
        assert c.grid.coord(min(v for _, v in fails)) == (1, 1)
    outcomes = {"built": [], "component": [], "step": [], "triangle": []}
    for kind, c in cases:
        want = O.certificate_holds(O.widened(c))
        assert c.is_valid() == want
        outcomes[kind].append(want)
    # every built certificate holds but d(A, 0) <= 1/4
    assert outcomes["built"] == [True] * 4 + [False] + [True] * 8
    assert False in outcomes["component"] and False in outcomes["step"]
    assert outcomes["triangle"] == [False, False]


def _first_failure(c):
    """The message verify raises for c: the oracle's first failing vertex
    in C order of the first failing check in verify's order (per axis the
    naturality of f, then of g; then the triangles g.f and f.g)."""
    def order(failure):
        check, v = failure
        if isinstance(check, tuple):
            return (0, check[1], "fg".index(check[0])), v
        return (1, ("g.f", "f.g").index(check), 0), v

    fails = sorted(O.certificate_failures(c), key=order)
    if not fails:
        return None
    check, v = fails[0]
    if isinstance(check, tuple):
        return f"{check[0]} naturality fails at {v} axis {check[1]}"
    coords = ", ".join(map(str, c.grid.coord(v)))
    return f"triangle {check} fails at ({coords})"


def test_verify_reports_the_first_failing_vertex_in_any_mapping_order():
    # two faults in an identity certificate; f and g inserted in C order
    # or its reverse, verify names the first failing vertex in C order
    # (a fault the certificate's other maps cannot see breaks nothing)
    rng = np.random.default_rng(7)
    checked = 0
    for seed in range(6):
        c = identity_certificate(random_module(2, 3, 2, seed=seed),
                                 Fraction(1, 2))
        p = c.m_module.p
        live = [(name, v) for name in "fg"
                for v, m in getattr(c, name).items() if m.size]
        for _ in range(5):
            comps = {"f": dict(c.f), "g": dict(c.g)}
            for i in rng.choice(len(live), 2, replace=False):
                name, v = live[i]
                comps[name][v] = comps[name][v].copy()
                comps[name][v][0, 0] = (comps[name][v][0, 0] + 1) % p
            want = _first_failure(InterleavingCertificate(
                c.m_module, c.n_module, c.eps, c.grid, comps["f"],
                comps["g"]))
            checked += want is not None
            for f, g in product(*[(d, dict(reversed(d.items())))
                                  for d in comps.values()]):
                c2 = InterleavingCertificate(c.m_module, c.n_module, c.eps,
                                             c.grid, f, g)
                if want is None:
                    assert c2.verify()
                    continue
                with pytest.raises(CertificateError) as exc:
                    c2.verify()
                assert str(exc.value) == want
    assert checked >= 25


def test_verify_walks_structure_maps_only_for_the_triangles(monkeypatch):
    # a naturality square joins floors equal or one step apart, so its maps
    # are read off the step tables; one walk per triangle identity remains
    M = random_module(2, 3, 2, seed=1)
    certs = [identity_certificate(M, Fraction(1, 2)),
             snap_certificate(shift(M, Fraction(-1, 7)), Fraction(1, 3))[1]]
    walk, walks = GridModule.structure_maps, []

    def counting(self, src, dst):
        walks.append(len(src))
        return walk(self, src, dst)

    monkeypatch.setattr(GridModule, "structure_maps", counting)
    for c in certs:
        walks.clear()
        assert c.verify()
        assert 1 <= len(walks) <= 2
    assert M.step_table() is M.step_table()


def test_verify_fails_closed_when_floors_skip_a_step(monkeypatch):
    # with the grid check fooled, an evaluation grid that lacks one of M's
    # coordinates puts the floors of an edge's ends two steps apart; verify
    # must refuse rather than pass the certificate restricted to it
    M = random_module(2, 3, 2, seed=4)
    c = identity_certificate(M, 1)
    monkeypatch.setattr(interleave, "_holds", lambda coords, need: True)
    for k in range(2):
        x = M.grid.axes[k][1]
        axes = [list(ax) for ax in c.grid.axes]
        keep = [i for i, y in enumerate(axes[k]) if y != x]
        # the next coordinate after x is M's next one, so nothing between
        assert axes[k][axes[k].index(x) + 1] == M.grid.axes[k][2]
        axes[k] = [axes[k][i] for i in keep]

        def restricted(t):
            return {v: t[w] for v in np.ndindex(*map(len, axes))
                    if (w := v[:k] + (keep[v[k]],) + v[k + 1:]) in t}

        coarse = InterleavingCertificate(M, M, c.eps, Grid(axes),
                                         restricted(c.f), restricted(c.g))
        with pytest.raises(CertificateError, match="too coarse"):
            coarse.verify()


def test_verify_rejects_grid_missing_a_coordinate_by_a_near_tie():
    # the evaluation grid must hold every c and c - eps exactly; one
    # coordinate moved by 10**-30 no longer does
    M = random_module(2, 3, 2, seed=5)
    c = identity_certificate(M, Fraction(1, 3))
    axes = [list(ax) for ax in c.grid.axes]
    axes[1][2] += Fraction(1, 10 ** 30)
    bad = InterleavingCertificate(M, M, c.eps, Grid(axes), c.f, c.g)
    with pytest.raises(CertificateError, match="too coarse"):
        bad.verify()
    finer = Grid([ax + [ax[-1] + 1] for ax in axes])
    with pytest.raises(ValueError, match="subgrid"):
        restrict(restriction_extension(M, c.grid), finer)


def test_verify_refuses_entries_whose_products_overflow_int64():
    # 2**32 * 2**32 wraps to 0 in int64, so unchecked g.f reads as the
    # identity; mod p it is not, and reduced mod p the triangle fails
    p = 65521
    M = interval_module((0, 0), (2, 2), p)
    c = identity_certificate(M, 0)
    big, b = 2 ** 32, pow(2 ** 32, -1, p)
    assert (big * (big + b)) % p != 1
    for f, g, msg in ((big + b, big, "f component at (0, 0): entries out of [0,p)"),
                      ((big + b) % p, big % p, "triangle g.f fails at (0, 0)")):
        cert = InterleavingCertificate(
            M, M, 0, c.grid, {v: np.array([[f]]) for v in c.f},
            {v: np.array([[g]]) for v in c.g}, c.g_grid)
        with pytest.raises(CertificateError) as exc:
            cert.verify()
        assert str(exc.value) == msg
        assert cert.is_valid() is False


@cache
def _small_identity_certificate():
    return identity_certificate(random_module(2, 3, 2, seed=1),
                                Fraction(1, 2))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from("fg"), st.integers(0, 10 ** 6),
       st.one_of(st.integers(-2 ** 63, -1),
                 st.integers(field.DEFAULT_PRIME, 2 ** 63 - 1)))
def test_verify_refuses_int64_entries_outside_the_field(name, pick, x):
    c = _small_identity_certificate()
    comps = {"f": dict(c.f), "g": dict(c.g)}
    live = [v for v, m in comps[name].items() if m.size]
    v = live[pick % len(live)]
    m = comps[name][v].copy()
    m.flat[pick % m.size] = x
    comps[name][v] = m
    bad = InterleavingCertificate(c.m_module, c.n_module, c.eps, c.grid,
                                  comps["f"], comps["g"], c.g_grid)
    with pytest.raises(CertificateError, match=f"{name} component at "):
        bad.verify()
    assert bad.is_valid() is False


@pytest.mark.parametrize("kind", ["list", "object", "float", "bool"])
def test_verify_refuses_components_that_are_not_integer_arrays(kind):
    # each would otherwise raise (AttributeError, OverflowError) or pass
    c = _small_identity_certificate()
    for name in "fg":
        comps = {"f": dict(c.f), "g": dict(c.g)}
        v = next(v for v, m in comps[name].items() if m.size)
        m = comps[name][v]
        comps[name][v] = {"list": m.tolist(), "float": m.astype(float),
                          "bool": m.astype(bool),
                          "object": m.astype(object) + 2 ** 70}[kind]
        bad = InterleavingCertificate(c.m_module, c.n_module, c.eps, c.grid,
                                      comps["f"], comps["g"], c.g_grid)
        with pytest.raises(CertificateError, match=f"^{name} "):
            bad.verify()
        assert bad.is_valid() is False


# -- per-map evaluation grids -------------------------------------------------

@cache
def _built_certificates():
    """One certificate of every builder, built once: f on
    map_grid(M, N, eps) and g on map_grid(N, M, eps)."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    M = random_module(2, 3, 2, seed=4)
    _, snap = snap_certificate(shift(random_module(2, 3, 2, seed=2),
                                     Fraction(-1, 7)), third)
    # X + T against X, T inside a region whose corners are on no grid
    X, T, _ = common_refinement(rect((0, 0), (2, 2)),
                                rect((third, third), (2 * third, 2 * third)))
    U = TrivialRegion([[(Fraction(1, 4), Fraction(3, 4))] * 2])
    Y = random_module(2, 3, 2, seed=1)
    return (
        identity_certificate(M, half),
        trivial_certificate(rect((0, 0), (1, 1)), half),
        compose_chain([snap, snap.flip()]),
        block_sum_certificates([snap, identity_certificate(M, third)])[0],
        snap,
        local_change_certificate(direct_sum(X, T)[0], X, U, half),
        iso_certificate(decompose(M)[1]),
        approximate_indecomposable(shift(zero_module(2), third),
                                   half).certificate,
        summand_certificate(zero_module(2), shift(zero_module(2), third),
                            third),
        summand_certificate(Y, random_basis_change(Y, 1), third),
        summand_certificate(rect((0, 0), (half, half)),
                            rect((1, 1), (1 + third, 1 + third)), half))


def test_builders_fill_the_map_grids_and_agree_with_the_oracle():
    for c in _built_certificates():
        M, N, eps = c.m_module, c.n_module, c.eps
        assert c.grid == map_grid(M, N, eps)
        assert c.g_grid == map_grid(N, M, eps)
        wide = O.widened(c)
        assert wide.grid == wide.g_grid == O.one_grid(M, N, eps)
        assert c.verify() and O.certificate_holds(wide)
        # the one-grid copy verifies too, with its triangles on that grid
        assert wide.verify()


def _mutant(c, kind, i):
    """c with one entry of a component changed, one component dropped, or
    eps lowered by one step of the lattice of both grids and eps; None when
    c has no component to change."""
    M, N, eps, p = c.m_module, c.n_module, c.eps, c.m_module.p
    if kind == "eps":
        step = Fraction(1, lcm(M.grid.den, N.grid.den, eps.denominator))
        return InterleavingCertificate(M, N, eps - step, c.grid, c.f, c.g,
                                       c.g_grid)
    name = "fg"[i % 2]
    comp = dict(getattr(c, name))
    keys = sorted(v for v, m in comp.items() if m.size)
    if not keys:
        return None
    v = keys[i // 2 % len(keys)]
    if kind == "entry":
        comp[v] = comp[v].copy()
        comp[v][0, 0] = (comp[v][0, 0] + 1) % p
    else:
        del comp[v]
    f, g = (comp, c.g) if name == "f" else (c.f, comp)
    return InterleavingCertificate(M, N, eps, c.grid, f, g, c.g_grid)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(0, 10), st.sampled_from(["entry", "drop", "eps"]),
       st.integers(0, 10 ** 6))
def test_mutant_verdicts_match_the_oracle_on_the_one_grid_layout(which, kind,
                                                                 i):
    # verify reads each map on its own grid; the oracle checks the copy
    # widened onto the one-grid layout at every vertex
    c = _mutant(_built_certificates()[which], kind, i)
    if c is not None:
        assert c.is_valid() == O.certificate_holds(O.widened(c))
