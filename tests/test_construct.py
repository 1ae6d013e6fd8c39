"""The joining pipeline: gadget, corners, antennas, tack, approximation."""

import hashlib
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from gridpersist import field, io
from gridpersist.cli import random_module
from gridpersist.construct import (add_antenna, add_thin_corner,
                                   approximate_indecomposable, fold,
                                   has_antenna, has_thin_corner, infer_pitch,
                                   iso_certificate, module_G, move_antenna,
                                   tack)
from gridpersist.core import (Components, Grid, GridModule, direct_sum,
                              interval_module, zero_module, ModuleMorphism)
from gridpersist.decomp import (PreconditionError, decompose,
                                is_indecomposable, is_isomorphic)
from gridpersist.interleave import (CertificateError, InterleavingCertificate,
                                    TrivialRegion, block_sum_certificates,
                                    compose_chain, identity_certificate,
                                    is_eps_trivial, local_change_certificate,
                                    snap_certificate, triviality_radius)
from gridpersist.kan import (common_refinement, prune, restriction_extension,
                             union_grid)

from conftest import matches_dict_route, record_stages, rect
import oracles as O


def test_module_G_shape_and_invariants():
    G = module_G()
    assert G.validate()
    assert G.total_dim() == 25
    assert G.max_pointwise_dim() == 2
    assert is_indecomposable(G)
    # the two characteristic zero steps next to one-dimensional values
    t = G.step_table()
    assert not t.get((1, 0, 3), np.zeros((1, 1))).any()
    assert not t.get((0, 3, 0), np.zeros((1, 1))).any()


def test_add_thin_corner_on_interval():
    A = rect((0, 0), (2, 2))
    A2, cert, r = add_thin_corner(A, 1)
    assert A2.validate()
    cert.verify()
    assert cert.eps == Fraction(1, 2)
    # the support minimum gained a one-dimensional half-pitch corner
    assert has_thin_corner(A2)
    assert A2.dim(O.ext_floor(A2, r)) == 1
    assert is_indecomposable(A2)


def test_add_antenna_produces_antenna_and_keeps_indecomposable():
    A = rect((0, 0), (2, 2))
    A1, c1, _ = add_thin_corner(A, 1)
    A2, c2, tip = add_antenna(A1, Fraction(1, 2))
    assert A2.validate()
    c1.verify()
    c2.verify()
    assert has_antenna(A2, 0, Fraction(1, 10)) == tip
    assert is_indecomposable(A2)


@pytest.mark.parametrize("eps", [0, Fraction(-1, 2)])
def test_gadget_stages_reject_a_nonpositive_eps(eps):
    A1, _, _ = add_thin_corner(rect((0, 0), (2, 2)), 1)
    A2, _, _ = add_antenna(A1, Fraction(1, 2))
    for stage in (lambda: add_thin_corner(A1, eps),
                  lambda: add_antenna(A1, eps),
                  lambda: move_antenna(A2, eps, (0, 0))):
        with pytest.raises(ValueError, match="eps must be positive"):
            stage()


def test_tack_two_intervals():
    A = rect((0, 0), (2, 2))
    B = rect((3, 1), (5, 4))
    M, cert = tack(A, B, 1)
    assert M.validate()
    assert is_indecomposable(M)
    assert cert.eps < 1
    cert.verify()
    S, _, _ = direct_sum(*common_refinement(A, B)[:2])
    assert cert.m_module.total_dim() == M.total_dim()
    # connector content beyond the two inputs
    assert M.total_dim() > A.total_dim() + B.total_dim()


def test_tack_with_stage_checks(monkeypatch):
    stages = record_stages(monkeypatch)
    A = rect((0, 0), (2, 2))
    B = rect((4, 4), (6, 6))
    M, cert = tack(A, B, 1)
    assert len(stages) == 6
    assert all(is_indecomposable(X) for X in stages)
    assert is_indecomposable(M)
    cert.verify()


def test_tack_rejects_bad_inputs():
    A = rect((0, 0), (2, 2))
    with pytest.raises(ValueError):
        tack(A, A, 0)
    with pytest.raises(ValueError):
        tack(A, zero_module(2), 1)
    with pytest.raises(ValueError):
        tack(interval_module((0,), (1,)), interval_module((0,), (1,)), 1)
    S, _, _ = direct_sum(*common_refinement(A, rect((3, 1), (5, 4)))[:2])
    with pytest.raises(ValueError, match="two indecomposable"):
        tack(S, A, 1)


def _frac_gcd(vals):
    """gcd of rationals on Fractions: gcd(a/b, c/d) = gcd(a d, c b) / (b d)."""
    out = Fraction(0)
    for v in vals:
        out = Fraction(gcd(out.numerator * v.denominator,
                           v.numerator * out.denominator),
                       out.denominator * v.denominator)
    return out


def test_infer_pitch():
    A = rect((0, 0), (2, 2))
    B = rect((Fraction(1, 2), 0), (3, 2))
    assert infer_pitch(A) == 2
    assert infer_pitch(A, B) == Fraction(1, 2)
    # against the gcd of the coordinates as Fractions, on grids with
    # negative, zero and (beyond int64) huge coordinates
    rng = np.random.default_rng(0)
    for t in range(60):
        mods = []
        for _ in range(int(rng.integers(1, 4))):
            axes = [sorted({Fraction(int(rng.integers(-50, 50)) *
                                     2 ** (70 * (t % 5 == 0)),
                                     int(rng.integers(1, 30)))
                            for _ in range(int(rng.integers(1, 4)))})
                    for _ in range(2)]
            g = Grid(axes)
            mods.append(GridModule(g, np.zeros(g.shape, dtype=np.int64), {}))
        want = _frac_gcd(c for M in mods for ax in M.grid.axes for c in ax)
        if want:
            assert infer_pitch(*mods) == want
        else:
            with pytest.raises(PreconditionError):
                infer_pitch(*mods)
    with pytest.raises(PreconditionError, match="all-zero"):
        infer_pitch(GridModule(Grid([[0], [0]]), np.zeros((1, 1), int), {}))


def test_iso_certificate_is_zero_eps():
    A = rect((0, 0), (2, 2))
    c = iso_certificate(ModuleMorphism(A, A, {(0, 0): field.eye(1)}))
    assert c.eps == 0
    c.verify()


def test_approximate_two_disjoint_squares():
    A = rect((0, 0), (2, 2))
    B = rect((1, 1), (3, 3))
    N, _, _ = direct_sum(*common_refinement(A, B)[:2])
    res = approximate_indecomposable(N, Fraction(1, 2))
    assert is_indecomposable(res.module)
    assert res.certificate.eps <= Fraction(1, 2)
    res.certificate.verify()
    assert res.certificate.n_module.grid == N.grid


def test_approximate_zero_module_gives_cube_at_half_eps():
    Z = zero_module(2)
    res = approximate_indecomposable(Z, Fraction(1, 2))
    assert is_indecomposable(res.module)
    assert res.certificate.eps == Fraction(1, 4)
    res.certificate.verify()
    cube = interval_module((0, 0), (Fraction(1, 2), Fraction(1, 2)))
    assert triviality_radius(res.module) == Fraction(1, 2)
    assert is_isomorphic(*common_refinement(res.module, cube)[:2])


def test_approximate_already_indecomposable():
    A = rect((0, 0), (2, 2))
    res = approximate_indecomposable(A, Fraction(1, 2))
    assert is_indecomposable(res.module)
    assert res.certificate.eps <= Fraction(1, 2)
    res.certificate.verify()


def test_fold_of_four_summands_keeps_one_lattice():
    # the snap of this module has four summands, so the fold ties three
    # gadgets into one chain
    eps = Fraction(1, 2)
    res = approximate_indecomposable(random_module(2, 4, 3, seed=37), eps)
    prep, join = res.stage_certs[:-1], res.stage_certs[-1]
    assert len(prep) == 4
    assert res.certificate.eps <= eps
    res.certificate.verify()
    assert is_indecomposable(res.module)
    # each summand's stages cost the same wherever it sits in the fold, and
    # one lattice of pitch eps/40 holds the whole output: neither the stage
    # budget nor the pitch shrinks with the number of folded summands
    assert {c.eps for c in prep} == {Fraction(11, 10) * eps / 4}
    assert join.eps == eps / 8
    assert infer_pitch(res.module) >= eps / 40


def test_fold_of_four_squares_with_stage_checks(monkeypatch):
    outputs = record_stages(monkeypatch)
    parts = [rect((0, 0), (2, 2)), rect((3, 1), (5, 4)),
             rect((1, 5), (2, 6)), rect((6, 6), (8, 7))]
    M, cert, stages = fold(parts, Fraction(1, 4))
    assert len(outputs) == 3 * len(parts)
    assert all(is_indecomposable(X) for X in outputs)
    assert M.validate()
    assert is_indecomposable(M)
    cert.verify()
    assert cert.eps == Fraction(2, 5)
    assert len(stages) == len(parts) + 1
    # the certificate reaches the plain sum of the parts
    g = cert.n_module.grid
    S, _, _ = direct_sum(*(restriction_extension(X, g) for X in parts))
    assert np.array_equal(S.dims, cert.n_module.dims)
    assert infer_pitch(M) >= Fraction(1, 40)


def test_tack_of_three_parameter_intervals():
    # n = 3: the odd-n fold axes, the frozen-axis gadget composites of
    # add_antenna, and the relocated antenna along axis n - 1
    A = interval_module((0, 0, 0), (2, 2, 2))
    B = interval_module((3, 1, 2), (5, 4, 3))
    M, cert = tack(A, B, 1)
    assert M.validate()
    assert is_indecomposable(M)
    assert cert.eps == Fraction(8, 25)
    cert.verify()
    # a change to this digest is a change to the fold's output
    assert hashlib.sha256(io.dumps(cert).encode()).hexdigest() == (
        "5e9773e1873f391a0bba8be8570321e817f9f78b993c5ba84b04604394a17ce6")


def test_corner_and_antenna_detection_match_oracle(monkeypatch):
    stages = record_stages(monkeypatch)
    tack(rect((0, 0), (2, 2)), rect((Fraction(1, 3), 0), (Fraction(5, 2), 3)),
         Fraction(1, 2))
    tack(interval_module((0, 0, 0), (2, 2, 2)),
         interval_module((3, 1, 2), (5, 4, 3)), 1)
    approximate_indecomposable(random_module(2, 3, 2, seed=0), Fraction(1, 2))
    assert len(stages) == 24   # three stages for each of 2 + 2 + 4 parts
    shuffled = [random_module(n, 4 - n, 2, seed=s)
                for n in (2, 3) for s in range(6)]
    for X in stages + shuffled:
        assert has_thin_corner(X) == O.has_thin_corner(X)
        for axis in range(X.grid.n):
            for eps in (Fraction(1, 40), Fraction(1, 20), Fraction(1, 10),
                        Fraction(1, 8)):
                assert (has_antenna(X, axis, eps)
                        == O.has_antenna(X, axis, eps)), (X, axis, eps)


def _digests(*objs):
    return tuple(hashlib.sha256(io.dumps(x).encode()).hexdigest()[:16]
                 for x in objs)


# sha256 prefixes of io.dumps of (module, certificate) after each stage
STAGE_DIGESTS = {
    "n2": [("fcc727c31696d075", "e550441b150eae06"),
           ("a4b509a66eef7570", "206d60a6f551bb04"),
           ("7deb585a1088b95b", "09b6801d9d0cc4c7")],
    "n3": [("bec4fe8da7672909", "2525ab48f6b999a9"),
           ("c2265192c9b6aa2b", "012c85c4ed506fd7"),
           ("bab4f511c22c212c", "45c48447ec46fc6f")],
    "n3-random": [("fdfd1009b6bc5f4a", "9fb1ca551a87f419"),
                  ("dc4835e4999bad75", "873d63f1a6a2248d"),
                  ("0d7c7c4386b17b96", "a7cd460e498d201c")],
}


@pytest.mark.parametrize("name", sorted(STAGE_DIGESTS))
def test_stage_outputs_are_pinned(name):
    # corner at eps 1, antenna at 1/2 and relocation at 1/10, as in a fold
    # at eps0 = 1; a change to a digest is a change to that stage's output
    X = {"n2": interval_module((0, 0), (2, 2)),
         "n3": interval_module((0, 0, 0), (2, 2, 2)),
         "n3-random": prune(random_module(3, 2, 2, seed=41))}[name]
    n = X.grid.n
    s = (Fraction(-1, 5), Fraction(1, 2), Fraction(-1, 5))[:n]
    X1, c1, r = add_thin_corner(X, 1)
    X2, c2, tip = add_antenna(X1, Fraction(1, 2))
    X3, c3, axis = move_antenna(X2, Fraction(1, 10), s)
    assert r == (0,) * n and tip == (0, Fraction(3, 10)) + (0,) * (n - 2)
    assert axis == (0 if n == 2 else n - 1)
    assert all(is_indecomposable(Y) for Y in (X1, X2, X3))
    assert [_digests(X1, c1), _digests(X2, c2),
            _digests(X3, c3)] == STAGE_DIGESTS[name]
    for c in (c1, c2, c3):
        c.verify()


def test_thin_corner_keeps_the_corner_line_that_leaves():
    # a two-dimensional corner whose first basis vector dies along axis 0:
    # the new one-dimensional corner is the second, which survives
    p = 65521
    V = GridModule(Grid([range(2), range(2)]), [[2, 1], [1, 0]],
                   {((0, 0), 0): field.fmat([[0, 1]], p),
                    ((0, 0), 1): field.fmat([[1, 0]], p)}, p)
    V1, cert, r = add_thin_corner(V, 1)
    assert r == (0, 0) and V1.dims.tolist() == [[1, 2, 1], [2, 2, 1],
                                                [1, 1, 0]]
    assert _digests(V1, cert) == ("3dc48e82482d712b", "bd04a7458dfcd591")
    cert.verify()


def test_move_antenna_refuses_support_under_the_staircase():
    A1, c1, _ = add_thin_corner(interval_module((0, 0), (2, 2)), 1)
    A2, c2, tip = add_antenna(A1, Fraction(1, 2))
    # a two-dimensional block (so it holds no antenna of its own) right of
    # s_0, just below the staircase's first row at r_1 = 3/10
    B = interval_module((Fraction(-1, 10), 0), (0, Fraction(3, 10)))
    A, B, _ = common_refinement(A2, B)
    S, _, _ = direct_sum(A, B, B)
    assert has_antenna(S, 0, eps=Fraction(1, 10)) == tip
    with pytest.raises(ValueError):
        move_antenna(S, Fraction(1, 10), (Fraction(-1, 5), Fraction(1, 2)))
    # the same target is fine without the block
    _, c3, _ = move_antenna(A2, Fraction(1, 10),
                            (Fraction(-1, 5), Fraction(1, 2)))
    for c in (c1, c2, c3):
        c.verify()


def _count_verify_calls(monkeypatch):
    calls = []
    verify = InterleavingCertificate.verify

    def counted(self):
        calls.append(self.eps)
        return verify(self)

    monkeypatch.setattr(InterleavingCertificate, "verify", counted)
    return calls


def test_tack_verifies_only_the_certificate_it_returns(monkeypatch):
    calls = _count_verify_calls(monkeypatch)
    _, cert = tack(rect((0, 0), (2, 2)), rect((3, 1), (5, 4)), 1)
    assert calls == [cert.eps] == [Fraction(8, 25)]


def test_fold_and_its_stages_leave_verification_to_the_caller(monkeypatch):
    calls = _count_verify_calls(monkeypatch)
    A1, _, _ = add_thin_corner(rect((0, 0), (2, 2)), 1)
    A2, _, _ = add_antenna(A1, Fraction(1, 2))
    move_antenna(A2, Fraction(1, 10), (Fraction(-1, 5), Fraction(1, 2)))
    fold([rect((0, 0), (2, 2)), rect((3, 1), (5, 4)), rect((1, 5), (2, 6))],
         Fraction(1, 4))
    assert calls == []


def _with_component(W, v, m):
    mats = dict(W.mats)
    mats[v] = m
    return ModuleMorphism(W.source, W.target, mats)


def test_iso_certificate_refuses_a_witness_that_is_no_isomorphism():
    G = module_G()
    W = ModuleMorphism(G, G, {v: field.eye(G.dim(v))
                              for v in map(tuple, np.argwhere(G.dims > 0))})
    v = next(v for v, m in W.mats.items() if len(m) == 2)
    # twice the identity at one vertex is invertible but not natural
    with pytest.raises(CertificateError):
        iso_certificate(_with_component(W, v, 2 * field.eye(2)))
    # a rank-one component is not invertible
    with pytest.raises(CertificateError, match="not an isomorphism"):
        iso_certificate(_with_component(W, v, field.fmat([[1, 0], [0, 0]],
                                                         W.p)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fold at odd n >= 3 of three or more parts is "
                          "decomposable (ROADMAP Open item 1)")
def test_fold_of_three_three_parameter_cubes_is_indecomposable():
    parts = [interval_module((3 * i, 0, 0), (3 * i + 1, 1, 1))
             for i in range(3)]
    M, cert, _ = fold(parts, Fraction(1, 4))
    cert.verify()
    assert is_indecomposable(M)


def _built_certificates():
    M = random_module(2, 3, 2, seed=4)
    half = Fraction(1, 2)
    idc = identity_certificate(M, Fraction(1, 3))
    corner = TrivialRegion([[(0, Fraction(1, 4)), (0, Fraction(1, 4))]])
    _, W = decompose(M)
    _, _, stages = fold([rect((0, 0), (2, 2)), rect((3, 1), (5, 4)),
                         rect((1, 5), (2, 6))], Fraction(1, 4))
    return [idc, snap_certificate(M, half)[1],
            local_change_certificate(M, M, corner, half),
            compose_chain([idc, idc]),
            block_sum_certificates([idc, identity_certificate(
                rect((1, 1), (3, 3)), Fraction(1, 3))])[0],
            iso_certificate(W)] + stages


def test_builders_return_component_tables():
    for c in _built_certificates():
        for t, shape in ((c.f, c.grid.shape), (c.g, c.g_grid.shape)):
            assert isinstance(t, Components) and t.shape == shape
            assert Components.of(t, shape) is t
            keys = list(t)
            assert keys == sorted(keys) and len(keys) == len(t)
            assert t.get(shape) is None
            absent = np.flatnonzero(t.ids < 0)
            if len(absent):
                v = tuple(map(int, np.unravel_index(absent[0], shape)))
                assert t.get(v) is None and v not in t
            u = Components.of(dict(t), shape)
            assert np.array_equal(u.ids, t.ids)
            assert len(u.mats) == len(t.mats)
            assert all(np.array_equal(a, b) for a, b in zip(u.mats, t.mats))
        plain = InterleavingCertificate(c.m_module, c.n_module, c.eps, c.grid,
                                        dict(c.f), dict(c.g), c.g_grid)
        assert io.dumps(plain) == io.dumps(c)


def test_pipeline_builders_hand_over_step_tables(monkeypatch):
    # once the inputs' own step mappings are converted, every module the
    # approximation and a decomposition build comes with its step table
    from gridpersist import core
    N = core.random_basis_change(random_module(2, 3, 2, seed=4), 1)
    R = random_module(2, 4, 3, seed=2)
    R = restriction_extension(R, union_grid(R.grid, [[Fraction(1, 2)],
                                                     [Fraction(3, 2)]]))
    N.step_table()

    def refuse(steps, shape):
        raise AssertionError("a library builder handed over a step mapping")

    monkeypatch.setattr(core, "_step_table", refuse)
    res = approximate_indecomposable(N, Fraction(1, 2))
    assert len(res.stage_certs) == 4          # k = 3 summands were folded
    parts, _ = decompose(core.random_basis_change(R, 5))
    assert len(parts) >= 2


def test_stage_and_summand_tables_match_the_dict_route():
    M, cert, stages = fold([rect((0, 0), (2, 2)), rect((3, 1), (5, 4)),
                            random_module(2, 3, 2, seed=1)], Fraction(1, 4))
    mods = [M] + [X for c in [cert] + stages for X in (c.m_module,
                                                      c.n_module)]
    X = random_module(2, 4, 3, seed=2)
    X = restriction_extension(X, union_grid(X.grid, [[Fraction(1, 2)], []]))
    mods += decompose(X)[0] + decompose(random_module(3, 3, 2, seed=4))[0]
    assert all(matches_dict_route(X) for X in mods)
