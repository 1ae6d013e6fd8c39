"""Acceptance criteria: one pass/fail line per criterion.

Each test times its criterion against the pinned budget, prints exactly one
line `ACCEPTANCE n: PASS|FAIL - detail`, and then asserts.  Criterion 3 runs
under a hard wall clock so that a budget overrun fails promptly instead of
running unbounded.
"""

import signal
import time
from fractions import Fraction

import numpy as np
import pytest

from gridpersist import io
from gridpersist.cli import random_module
from gridpersist.construct import (approximate_indecomposable, module_G,
                                   tack)
from gridpersist.core import (Grid, ModuleMorphism, direct_sum, hom_space,
                              interval_module, random_basis_change,
                              zero_module)
from gridpersist.decomp import (decompose, end_algebra, is_indecomposable,
                                is_isomorphic)
from gridpersist.interleave import (identity_certificate, is_eps_trivial,
                                    rank_lower_bound, snap_certificate,
                                    factor_through_grid, trivial_certificate,
                                    triviality_radius, weaken_certificate)
from gridpersist.kan import (common_refinement, restriction_extension,
                             shift, union_axes,
                             morphism_restriction_extension)
from gridpersist.match import instability_demo, is_eps_indecomposable

from conftest import rect, random_rect, record_stages
import oracles as O
from oracles import regular_grid


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    assert ok, line


def _refine_all(*mods):
    g = Grid(union_axes(*(m.grid for m in mods)))
    return [restriction_extension(m, g) for m in mods]


def _sum(*mods):
    S, _, _ = direct_sum(*_refine_all(*mods))
    return S


def test_acceptance_1_gadget():
    t0 = time.time()
    ok = True
    details = []
    for p in (65521, 2):
        G = module_G(p=p)
        ok &= bool(G.validate())
        ok &= len(hom_space(G, G)) == 1
        ok &= is_indecomposable(G)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"gadget valid, End 1-dimensional over p=65521 and p=2, "
                  f"indecomposable; {elapsed:.2f}s (budget 1s)")


def test_acceptance_2_tacking(monkeypatch):
    stages = record_stages(monkeypatch)
    rng = np.random.default_rng(2024)
    t0 = time.time()
    failures = []
    for trial in range(25):
        A = random_rect(rng)
        B = random_rect(rng)
        assert A.total_dim() <= 40 and B.total_dim() <= 40
        stages.clear()
        M, cert = tack(A, B, 1)
        if len(stages) != 6 or not all(map(is_indecomposable, stages)):
            failures.append((trial, "a stage is not indecomposable"))
        if not is_indecomposable(M):
            failures.append((trial, "not indecomposable"))
        if not cert.eps < 1:
            failures.append((trial, f"eps {cert.eps} >= 1"))
        try:
            cert.verify()
        except Exception as e:          # noqa: BLE001
            failures.append((trial, str(e)))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    report(2, ok, f"25 tacked pairs, every stage output indecomposable, "
                  f"{len(failures)} failures; {elapsed:.1f}s (budget 60s)")


class _Wall(Exception):
    pass


def test_acceptance_3_approximation():
    budget = 600.0
    t0 = time.time()

    # zero branch: the cube module at exactly eps/2
    res = approximate_indecomposable(zero_module(2), Fraction(1, 2))
    zero_ok = (res.certificate.eps == Fraction(1, 4)
               and is_indecomposable(res.module))
    res.certificate.verify()

    def on_alarm(signum, frame):
        raise _Wall()

    old = signal.signal(signal.SIGALRM, on_alarm)
    done = 0
    failures = []
    try:
        for s in range(100):
            remaining = budget - (time.time() - t0)
            if remaining <= 0:
                break
            signal.alarm(int(remaining) + 1)
            N = random_module(2, 4, 3, seed=s)
            r = approximate_indecomposable(N, Fraction(1, 2))
            signal.alarm(0)
            if r.certificate.eps > Fraction(1, 2):
                failures.append((s, f"eps {r.certificate.eps}"))
            r.certificate.verify()
            if not is_indecomposable(r.module):
                failures.append((s, "not indecomposable"))
            done += 1
    except _Wall:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    elapsed = time.time() - t0
    ok = zero_ok and not failures and done == 100 and elapsed < budget
    report(3, ok, f"zero branch eps exactly 1/4: {zero_ok}; "
                  f"{done}/100 random modules certified within 1/2, "
                  f"{len(failures)} failures; {elapsed:.0f}s (budget 600s)")


def test_acceptance_4_decomposition():
    t0 = time.time()
    library = [rect((0, 0), (2, 2)), rect((1, 1), (3, 3)),
               rect((0, 1), (2, 3)), rect((2, 0), (4, 1)),
               rect((0, 0), (1, 3))]
    rng = np.random.default_rng(4)
    bad = 0
    for trial in range(200):
        k = int(rng.integers(2, 5))
        picks = [library[int(i)] for i in rng.integers(0, len(library),
                                                       size=k)]
        S = _sum(*picks)
        M = random_basis_change(S, int(rng.integers(0, 2 ** 31)))
        parts, w = decompose(M)
        if not w.is_isomorphism():
            bad += 1
            continue
        if not np.array_equal(sum(p.dims for p in parts), M.dims):
            bad += 1
            continue
        want = _refine_all(*picks)
        used = [False] * len(parts)
        for q in want:
            hit = next((i for i, p in enumerate(parts)
                        if not used[i] and is_isomorphic(p, q)), None)
            if hit is None:
                bad += 1
                break
            used[hit] = True

    # agreement with exhaustive idempotent enumeration on the tiny corpus
    oracle_bad = 0
    for p in (2, 3):
        tiny = [interval_module((0,), (2,), p=p),
                interval_module((0, 0), (2, 1), p=p),
                _sum(interval_module((0,), (2,), p=p),
                     interval_module((1,), (3,), p=p)),
                random_basis_change(_sum(interval_module((0, 0), (1, 1), p=p),
                                         interval_module((2, 2), (3, 3), p=p)),
                                    seed=1),
                random_module(2, 2, 1, seed=6, p=p)]
        for M in tiny:
            if M.total_dim() == 0:
                continue
            e = O.find_idempotent_bruteforce(M)
            if is_indecomposable(M) != (e is None):
                oracle_bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and oracle_bad == 0 and elapsed < 300.0
    report(4, ok, f"200 shuffled sums recovered exactly ({bad} bad), "
                  f"tiny-corpus oracle deviations {oracle_bad}; "
                  f"{elapsed:.0f}s (budget 300s)")


def test_acceptance_5_snapping_and_factorization():
    t0 = time.time()
    rng = np.random.default_rng(5)
    snap_bad = 0
    for trial in range(100):
        L = random_module(2, 3, 2, seed=int(rng.integers(0, 10 ** 6)))
        beta = Fraction(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        lo = -beta * 2
        hi = Fraction(4)
        P = regular_grid(2, beta, (lo, lo), (hi + beta, hi + beta))
        LP = restriction_extension(L, P)
        eps = Fraction(int(rng.integers(1, 5)), 2)
        if is_eps_trivial(LP, eps) and not is_eps_trivial(L, eps + beta):
            snap_bad += 1

    square_bad = 0
    for trial in range(100):
        L = random_module(2, 3, 2, seed=int(rng.integers(0, 10 ** 6)))
        widths = [1 + Fraction(int(x), 4) for x in rng.integers(0, 5, size=6)]
        ax = [Fraction(0)]
        for w in widths[:3]:
            ax.append(ax[-1] + w)
        ay = [Fraction(0)]
        for w in widths[3:]:
            ay.append(ay[-1] + w)
        window = Grid([ax, ay])
        r = Fraction(1)     # r <= alpha = 1 <= every width <= beta = 2
        try:
            factor_through_grid(L, window, r)
        except ValueError:
            square_bad += 1
    elapsed = time.time() - t0
    ok = snap_bad == 0 and square_bad == 0 and elapsed < 120.0
    report(5, ok, f"snapping-triviality counterexamples {snap_bad}/100, "
                  f"factorization failures {square_bad}/100; "
                  f"{elapsed:.0f}s (budget 120s)")


def test_acceptance_6_openness():
    t0 = time.time()
    rng = np.random.default_rng(6)
    delta = Fraction(1, 8)
    eps = Fraction(1, 2)
    bad = 0
    for fix in range(20):
        lo = [int(x) for x in rng.integers(0, 3, size=2)]
        side = [int(x) for x in rng.integers(2, 5, size=2)]
        X = rect(tuple(lo), tuple(a + s for a, s in zip(lo, side)))
        t0x = [Fraction(int(x), 8) for x in rng.integers(0, 8, size=2)]
        T = rect(tuple(t0x), tuple(c + Fraction(1, 4) for c in t0x))
        assert triviality_radius(T) < eps
        M = _sum(X, T)
        for pert in range(20):
            r = Fraction(int(rng.integers(0, int(delta * 64))), 64)
            Mp = shift(M, -r)
            Lp, sc = snap_certificate(Mp, delta)
            if sc.eps > delta:
                bad += 1
                continue
            if not is_eps_indecomposable(Lp, eps):
                bad += 1
    elapsed = time.time() - t0
    ok = bad == 0
    report(6, ok, f"20 fixtures x 20 perturbations, "
                  f"eps-indecomposability failures {bad}/400; {elapsed:.0f}s")


def test_acceptance_7_instability_gap():
    t0 = time.time()
    M = _sum(rect((0, 0), (2, 2)), rect((10, 10), (12, 12)))
    rep = instability_demo(M, Fraction(1, 10))
    rep.certificate.verify()
    elapsed = time.time() - t0
    ok = (rep.d_i_upper <= Fraction(1, 10)
          and rep.d_b_lower > Fraction(9, 10)
          and rep.gap >= 9
          and is_indecomposable(rep.n_module)
          and elapsed < 30.0)
    report(7, ok, f"d_I <= {rep.d_i_upper} certified, d_B >= {rep.d_b_lower} "
                  f"by rank obstruction, gap {float(rep.gap):.1f}x; "
                  f"{elapsed:.1f}s (budget 30s)")


def test_acceptance_8_metric_consistency():
    t0 = time.time()
    pairs = []
    for s in range(6):
        M = random_module(2, 3, 2, seed=s)
        pairs.append(identity_certificate(M, Fraction(1, 2)))
        L, sc = snap_certificate(M, Fraction(1, 2))
        pairs.append(sc)
        pairs.append(weaken_certificate(sc, Fraction(3, 4)))
    I = interval_module((0, 0), (1, 1))
    pairs.append(trivial_certificate(I, Fraction(1, 2)))
    A, B = rect((0, 0), (2, 2)), rect((4, 4), (6, 6))
    _, tc = tack(A, B, 1)
    pairs.append(tc)
    res = approximate_indecomposable(_sum(A, B), Fraction(1, 2))
    pairs.append(res.certificate)
    violations = 0
    for c in pairs:
        c.verify()
        if rank_lower_bound(c.m_module, c.n_module) > c.eps:
            violations += 1
    elapsed = time.time() - t0
    report(8, violations == 0,
           f"rank lower bound <= certified eps on {len(pairs)} verified "
           f"certificates, {violations} violations; {elapsed:.0f}s")


def test_acceptance_9_functoriality_serialization():
    t0 = time.time()
    rng = np.random.default_rng(9)
    func_bad = 0
    for trial in range(100):
        M = random_module(2, 3, 2, seed=int(rng.integers(0, 10 ** 6)))
        basis = hom_space(M, M)
        cf = [int(x) for x in rng.integers(0, M.p, size=len(basis))]
        cg = [int(x) for x in rng.integers(0, M.p, size=len(basis))]
        f = ModuleMorphism.linear_combination(basis, cf, M.p)
        g = ModuleMorphism.linear_combination(basis, cg, M.p)
        gf = g.compose(f)
        finer = Grid([sorted(set(ax) | {(a + b) / 2 for a, b in
                                        zip(ax, ax[1:])})
                      for ax in M.grid.axes])
        lhs = morphism_restriction_extension(gf, finer)
        rhs = morphism_restriction_extension(g, finer).compose(
            morphism_restriction_extension(f, finer))
        for v in finer.vertices():
            if not np.array_equal(lhs.at(tuple(v)), rhs.at(tuple(v))):
                func_bad += 1
                break

    io_bad = 0
    fixtures = [module_G(), module_G(p=2), interval_module((0, 0), (2, 3))]
    fixtures += [random_module(2, 3, 2, seed=s) for s in range(4)]
    fixtures += [random_module(3, 2, 2, seed=11)]
    for M in fixtures:
        if io.dumps(io.loads(io.dumps(M))) != io.dumps(M):
            io_bad += 1
    M0 = random_module(2, 3, 2, seed=1)
    c = identity_certificate(M0, Fraction(1, 2))
    if io.dumps(io.loads(io.dumps(c))) != io.dumps(c):
        io_bad += 1
    elapsed = time.time() - t0
    ok = func_bad == 0 and io_bad == 0
    report(9, ok, f"restriction commutes with composition 100/100 "
                  f"({func_bad} bad), JSON round-trip exact on corpus "
                  f"({io_bad} bad); {elapsed:.0f}s")
