"""Epsilon-indecomposability, summand matching, and the stability gap."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gridpersist import io
from gridpersist.cli import random_module
from gridpersist.construct import module_G
from gridpersist.core import (Grid, direct_sum, interval_module,
                              random_basis_change, zero_module)
from gridpersist.interleave import rank_lower_bound
from gridpersist.kan import (common_refinement, prune, restriction_extension,
                             union_grid)
from gridpersist.match import (_perfect_matching, bottleneck_upper_bound,
                               instability_demo, is_eps_indecomposable,
                               matching_lower_bound, matching_to_interleaving,
                               summand_certificate)

from conftest import rect
import oracles as O


def _sum(*mods):
    refined = mods
    g = None
    from gridpersist.kan import union_axes, restriction_extension
    from gridpersist.core import Grid
    g = Grid(union_axes(*(m.grid for m in mods)))
    refined = [restriction_extension(m, g) for m in mods]
    S, _, _ = direct_sum(*refined)
    return S


def test_indecomposable_module_is_eps_indecomposable():
    G = module_G()
    r = is_eps_indecomposable(G, Fraction(1, 10))
    assert r
    assert not r.is_zero


def test_sum_of_two_large_summands_is_not_eps_indecomposable():
    S = _sum(module_G(), module_G())
    assert not is_eps_indecomposable(S, Fraction(1, 10))


def test_small_trivial_rest_is_absorbed():
    X = rect((0, 0), (4, 4))
    T = rect((0, 0), (Fraction(1, 10), Fraction(1, 10)))
    S = _sum(X, T)
    assert is_eps_indecomposable(S, Fraction(1, 2))


def test_eps_indecomposability_matches_the_pruned_route():
    # decompose compresses M itself, so deciding on M gives the verdict and
    # parts (with the same extensions) that deciding on prune(M) gives; the
    # parts sit on M's own grid
    thirds = Grid([[Fraction(i, 3) for i in range(9)]] * 2)
    mods = [random_module(2, 3, 2, seed=s) for s in range(4)]
    mods.append(_sum(rect((0, 0), (4, 4)),
                     rect((0, 0), (Fraction(1, 10), Fraction(1, 10)))))
    for M in (restriction_extension(X, union_grid(X.grid, thirds))
              for X in mods):
        assert prune(M).grid != M.grid
        for eps in (Fraction(1, 10), Fraction(1, 2), 2):
            r = is_eps_indecomposable(M, eps)
            q = is_eps_indecomposable(prune(M), eps)
            assert (bool(r), r.is_zero) == (bool(q), q.is_zero)
            got = [r.indecomposable_part] + r.trivial_parts
            want = [q.indecomposable_part] + q.trivial_parts
            assert len(got) == len(want)
            for X, Y in zip(got, want):
                assert (X is None) == (Y is None)
                if X is not None:
                    assert X.grid == M.grid and O.same_extension(X, Y)


def test_zero_module_flagged():
    r = is_eps_indecomposable(zero_module(2), Fraction(1, 2))
    assert not r
    assert r.is_zero


def test_summand_certificate_between_equal_summands():
    X = rect((0, 0), (2, 2))
    Y = rect((0, 0), (2, 2))
    X, Y, _ = common_refinement(X, Y)
    c = summand_certificate(X, Y, Fraction(1, 10))
    assert c is not None
    c.verify()


def test_summand_certificate_through_zero():
    X = rect((0, 0), (1, 1))
    Y = rect((5, 5), (6, 6))
    X, Y, _ = common_refinement(X, Y)
    # both have triviality radius 1, so they are 1-interleaved via zero
    c = summand_certificate(X, Y, 1)
    assert c is not None
    c.verify()
    assert summand_certificate(X, Y, Fraction(1, 4)) is None


def test_perfect_matching_agrees_with_brute_force():
    rng = random.Random(0)
    found = 0
    for _ in range(300):
        n_left, n_right = rng.randint(0, 7), rng.randint(0, 7)
        density = rng.choice([0.2, 0.4, 0.6, 0.8])
        edges = [(i, j) for i in range(n_left) for j in range(n_right)
                 if rng.random() < density]
        got = _perfect_matching(n_left, n_right, edges)
        if O.perfect_matching(n_left, n_right, edges) is None:
            assert got is None
            continue
        found += 1
        assert len(got) == n_left and len(set(got)) == n_left
        assert all((i, j) in edges for i, j in enumerate(got))
    assert 50 < found < 250


# (n_left, n_right, edges, the partners networkx's maximum_matching picks):
# several perfect matchings (the complete graph, a ring in both edge
# orders, the dense graph), augmenting paths of length 3 and 7 ("short",
# "chain"), a right side larger than the left, and no perfect matching
MATCHINGS = {
    "complete": (3, 3, [(i, j) for i in range(3) for j in range(3)],
                 [0, 1, 2]),
    "ring": (4, 4, [(i, j) for i in range(4)
                    for j in sorted({i, (i + 1) % 4})], [0, 1, 2, 3]),
    "ring-reversed": (4, 4, [(i, j) for i in range(4)
                             for j in sorted({i, (i + 1) % 4}, reverse=True)],
                      [1, 2, 3, 0]),
    "dense": (5, 5, [(i, j) for i in range(5) for j in range(5)
                     if (3 * i + 7 * j) % 5], [1, 4, 3, 2, 0]),
    "short": (2, 2, [(0, 0), (0, 1), (1, 0)], [1, 0]),
    "chain": (4, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 0)],
              [1, 2, 3, 0]),
    "crossing": (4, 4, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1),
                        (3, 2), (3, 3)], [2, 0, 1, 3]),
    "wide": (2, 3, [(0, 1), (0, 2), (1, 1)], [2, 1]),
    "none": (3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)], None),
}


@pytest.mark.parametrize("case", sorted(MATCHINGS))
def test_perfect_matching_picks_the_pinned_partners(case):
    # which perfect matching is picked decides the bytes of match's output
    n_left, n_right, edges, want = MATCHINGS[case]
    assert _perfect_matching(n_left, n_right, edges) == want


def test_match_runs_without_networkx(tmp_path):
    # with the networkx import blocked, match still finds and assembles
    # a matching
    path = str(tmp_path / "m.json")
    io.save(_sum(rect((0, 0), (2, 2)), rect((3, 3), (5, 5))), path)
    code = ("import sys; sys.modules['networkx'] = None\n"
            "from gridpersist.cli import main\n"
            f"sys.exit(main(['match', {path!r}, {path!r}, '--eps', '1/10', "
            "'--emit-proof']))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["status"] == "matched"


def test_bottleneck_matching_identical_modules():
    S = _sum(rect((0, 0), (2, 2)), rect((3, 3), (5, 5)))
    res = bottleneck_upper_bound(S, S, Fraction(1, 10))
    assert res.status == "matched"
    cert = matching_to_interleaving(res)
    cert.verify()
    assert cert.eps == Fraction(1, 10)


def test_bottleneck_matching_fails_across_gap():
    A = _sum(rect((0, 0), (4, 4)))
    B = _sum(rect((10, 10), (14, 14)))
    res = bottleneck_upper_bound(A, B, Fraction(1, 2))
    assert res.status == "no-matching-found"


def test_matching_lower_bound_separated_summands():
    A = _sum(rect((0, 0), (2, 2)), rect((10, 10), (12, 12)))
    N = _sum(rect((0, 0), (2, 2)))
    lb, edge_bounds = matching_lower_bound(A, N)
    assert lb > 0
    assert all(b >= 0 for b in edge_bounds.values())


def _linear_scan_lower_bound(bounds):
    """The least per-pair bound whose edges hold a perfect matching, every
    distinct bound tried in increasing order."""
    n = max(i for i, _ in bounds) + 1 if bounds else 0
    for v in sorted(set(bounds.values())):
        if O.perfect_matching(n, n, [e for e, b in bounds.items()
                                     if b <= v]) is not None:
            return v
    return Fraction(0)


def test_matching_lower_bound_equals_a_linear_scan():
    squares = _sum(rect((0, 0), (2, 2)), rect((3, 3), (5, 5)))
    pairs = [(_sum(rect((0, 0), (2, 2)), rect((10, 10), (12, 12))),
              _sum(rect((0, 0), (2, 2)))),
             (squares, squares),
             (_sum(rect((0, 0), (4, 4))), _sum(rect((10, 10), (14, 14)))),
             (zero_module(2), zero_module(2))]
    pairs += [(random_module(2, 3, 2, seed=s),
               random_basis_change(random_module(2, 3, 2, seed=s + 4), 1))
              for s in range(2)]
    for M, N in pairs:
        lb, bounds = matching_lower_bound(M, N)
        assert lb == _linear_scan_lower_bound(bounds)
    for sep in (6, 10):
        r = instability_demo(_sum(rect((0, 0), (2, 2)),
                                  rect((sep, sep), (sep + 2, sep + 2))),
                             Fraction(1, 10))
        assert r.d_b_lower == _linear_scan_lower_bound(r.edge_bounds)


def test_instability_gap_and_growth():
    def demo(sep):
        M = _sum(rect((0, 0), (2, 2)), rect((sep, sep), (sep + 2, sep + 2)))
        return instability_demo(M, Fraction(1, 10))

    far = demo(10)
    assert far.d_i_upper <= Fraction(1, 10)
    assert far.gap >= 9
    far.certificate.verify()
    near = demo(6)
    assert near.d_b_lower <= far.d_b_lower
    assert near.gap <= far.gap


def test_importing_the_package_does_not_load_networkx():
    # numpy is the one runtime dependency; no import may pull in a graph
    # library behind it
    code = "import sys, gridpersist; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_match_output_does_not_depend_on_string_hashing(tmp_path):
    # the summand matching must not follow the per-process hash of strings
    path = str(tmp_path / "m.json")
    io.save(random_basis_change(random_module(2, 3, 2, seed=3), 1), path)
    outs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        r = subprocess.run([sys.executable, "-m", "gridpersist.cli", "match",
                            path, path, "--eps", "1/2", "--seed", "0",
                            "--emit-proof"], capture_output=True, text=True,
                           env=env)
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout)
    assert len(outs) == 1
