"""Triviality, interleaving certificates, composition, rank obstructions."""

from fractions import Fraction

import numpy as np
import pytest

from gridpersist import field, interleave
from gridpersist.cli import random_module
from gridpersist.construct import fold, module_G
from gridpersist.core import (Grid, GridModule, direct_sum, interval_module,
                              zero_module)
from gridpersist.interleave import (CertificateError, InterleavingCertificate,
                                    _rank_violation,
                                    TrivialRegion, compose_certificates,
                                    compose_chain, certificate_grid,
                                    factor_through_grid, identity_certificate,
                                    is_eps_trivial, is_strictly_eps_trivial,
                                    local_change_certificate,
                                    pair_sum_certificates, rank_lower_bound,
                                    snap_certificate, triviality_radius,
                                    trivial_certificate, weaken_certificate)
from gridpersist.kan import (common_refinement, restrict,
                             restriction_extension, shift, snap_to_lattice)

from conftest import free_module, rect
import oracles as O
from oracles import regular_grid


def sum_certificates(c, X):
    """Certify d(M + X, N + X) <= eps from d(M, N) <= eps."""
    return pair_sum_certificates(c, identity_certificate(X, c.eps,
                                                         verify=False))


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
    c = compose_certificates(c1, c2)
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
    steps = dict(M.steps)
    key = next(k for k, m in steps.items() if m.size)
    steps[key] = steps[key].copy()
    steps[key][0, 0] = (steps[key][0, 0] + 1) % M.p
    other = GridModule(M.grid, M.dims.copy(), steps, M.p)
    with pytest.raises(CertificateError, match="middle modules do not match"):
        compose_chain([first, identity_certificate(other, eps, verify=False)])
    # extra empty steps into zero vertices, or a refined grid, leave the
    # extension as it is
    steps = dict(M.steps)
    for v in M.support_vertices():
        v = tuple(map(int, v))
        for k in range(2):
            if M.has_succ(v, k) and not M.dim(M.succ(v, k)):
                steps[(v, k)] = field.zeros(0, M.dim(v))
    padded = GridModule(M.grid, M.dims.copy(), steps, M.p)
    assert padded.validate() and len(padded.steps) > len(M.steps)
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
        c, S1, S2 = pair_sum_certificates(cA, cB)
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
            assert O.certificate_holds(c)


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
    import gridpersist.field as field
    from gridpersist.core import pt_shift
    mats = factor_through_grid(L, window, r)
    meshes = [ax[i + 1] - ax[i] for ax in window.axes
              for i in range(len(ax) - 1)]
    beta = max(meshes)
    for vidx, m in mats.items():
        v = window.coord(vidx)
        tgt = window.coord(window.floor_index(pt_shift(v, beta)))
        lhs = field.mmul(m, L.structure_map_points(v, pt_shift(v, r)), L.p)
        assert np.array_equal(lhs, L.structure_map_points(v, tgt))
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
    certs.append(pair_sum_certificates(identity_certificate(X, 1),
                                       identity_certificate(Y, 1))[0])
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
                {v: m * lg % p for v, m in c.g.items()}))
        for comp in ("f", "g"):
            d = dict(getattr(c, comp))
            keys = sorted(v for v, m in d.items() if m.size)
            if not keys:
                continue
            v = keys[int(rng.integers(len(keys)))]
            d[v] = (d[v] + 1) % p
            f, g = (d, c.g) if comp == "f" else (c.f, d)
            cases.append(InterleavingCertificate(c.m_module, c.n_module,
                                                 c.eps, c.grid, f, g))
    outcomes = set()
    for c in cases:
        want = O.certificate_holds(c)
        assert c.is_valid() == want
        outcomes.add(want)
    assert outcomes == {True, False}


def _rebased(M, v, a):
    """M with the basis at vertex v changed by the invertible matrix a: a
    valid module whose steps into and out of v differ from M's."""
    p, ai = M.p, field.minv(a, M.p)
    steps = dict(M.steps)
    for (u, k), m in M.steps.items():
        if u == v:
            steps[(u, k)] = field.mmul(m, ai, p)
        elif M.succ(u, k) == v:
            steps[(u, k)] = field.mmul(a, m, p)
    return GridModule(M.grid, M.dims, steps, p)


def _without_zero_steps(M):
    """M with its stored zero steps left out, which read as zero anyway."""
    return GridModule(M.grid, M.dims, {key: m for key, m in M.steps.items()
                                       if m.any()}, M.p)


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
        assert any(A.dims[v] and A.dims[A.succ(v, k)] and (v, k) not in A.steps
                   for v in A.grid.vertices() for k in range(2)
                   if A.has_succ(v, k))
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
        certs.append(InterleavingCertificate(
            A, Z, eps, certificate_grid(A, Z, eps), {}, {}))
    certs += fold([rect((0, 0), (2, 2)), rect((3, 1), (5, 4))], 1)[2]
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
                c.m_module, c.n_module, c.eps, c.grid, f, c.g)))
        # a changed basis at one vertex of M: a changed step, same dims
        M = c.m_module
        live = [v for (v, _), m in M.steps.items() if m.size]
        if live:
            v = live[int(rng.integers(len(live)))]
            cases.append(("step", InterleavingCertificate(
                _rebased(M, v, 2 * field.eye(M.dim(v))), c.n_module, c.eps,
                c.grid, c.f, c.g)))
    outcomes = {"built": [], "component": [], "step": []}
    for kind, c in cases:
        want = O.certificate_holds(c)
        assert c.is_valid() == want
        outcomes[kind].append(want)
    # every built certificate holds but d(A, 0) <= 1/4
    assert outcomes["built"] == [True] * 4 + [False] + [True] * 4
    assert False in outcomes["component"] and False in outcomes["step"]


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
    # with the subgrid check fooled, an evaluation grid that lacks one of
    # M's coordinates puts the floors of an edge's ends two steps apart;
    # verify must refuse rather than pass the certificate restricted to it
    M = random_module(2, 3, 2, seed=4)
    c = identity_certificate(M, 1)
    monkeypatch.setattr(interleave, "_is_subgrid", lambda sub, grid: True)
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
    # the evaluation grid must hold every c, c - eps and c - 2 eps exactly;
    # one coordinate moved by 10**-30 no longer does
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
