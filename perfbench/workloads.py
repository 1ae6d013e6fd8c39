"""The four benchmark workloads.

Each workload has a small fixed corpus of base inputs, and a run walks the
whole corpus in rounds, so every run times the same mix of costs.  The cost
of these operations is set mostly by the number of summands k and by the
grid shape, which a random basis change keeps.  The workload seed draws a
basis change for every op and the order of every round, so the program sees
different inputs on every seed while the work per run stays comparable.

A workload provides
  setup(seed, tiny, workdir) -> state   what every op shares (untimed)
  items(state) -> the corpus one round of ops walks through
  draw(state, item, rng) -> spec a small, replayable description of one op
  build(state, spec) -> input    fresh input objects for one op (untimed)
  op(state, input) -> output     the timed call into the library
  check(state, spec, input, output) -> (ok, sizes)   untimed

Library functions are always looked up as module attributes at call time,
so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import os
from fractions import Fraction

import numpy as np

from gridpersist import cli, construct, core, decomp, kan, match
from gridpersist import io as gpio
from gridpersist import interleave

from tracing import grid_vertices

HALF = Fraction(1, 2)
EIGHTH = Fraction(1, 8)


def _rect(lo, hi, p=core.DEFAULT_PRIME):
    return core.interval_module(tuple(map(Fraction, lo)),
                                tuple(map(Fraction, hi)), p=p)


def _sum(*mods):
    """Direct sum after extending every module to the union grid."""
    grid = core.Grid(kan.union_axes(*(m.grid for m in mods)))
    S, _, _ = core.direct_sum(*(kan.restriction_extension(m, grid)
                                for m in mods))
    return S


def _basis_seed(rng):
    return int(rng.integers(0, 2 ** 31))


def _run_cli(argv):
    """Run the CLI in-process; return (exit code, stdout text)."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Approx:
    name = "approx"
    why = ("approximate_indecomposable(random_module(2,3,2), 1/2) with k=3 "
           "summands: the whole tack fold twice, then End of the refined result")
    # random_module(2, 3, 2, seed) whose snap at eps/2 has k = 3 summands;
    # tiny: k = 2, one fold
    BASES = (4, 11, 20)
    TINY = (7,)

    def setup(self, seed, tiny, workdir):
        return {"bases": self.TINY if tiny else self.BASES}

    def items(self, state):
        return state["bases"]

    def draw(self, state, base, rng):
        return {"base": base, "basis_seed": _basis_seed(rng)}

    def build(self, state, spec):
        N = cli.random_module(2, 3, 2, seed=spec["base"])
        return core.random_basis_change(N, spec["basis_seed"])

    def op(self, state, N):
        return construct.approximate_indecomposable(N, HALF)

    def check(self, state, spec, N, res):
        cert = res.certificate
        ok = cert.eps <= HALF
        try:
            cert.verify()
        except interleave.CertificateError:
            ok = False
        ok = ok and decomp.is_indecomposable(res.module)
        sizes = {"in_grid": list(N.grid.shape), "in_total_dim": N.total_dim(),
                 "k": len(res.stage_certs) + 1,
                 "out_grid": list(res.module.grid.shape),
                 "out_grid_vertices": grid_vertices(res.module.grid),
                 "out_total_dim": res.module.total_dim(),
                 "cert_grid_vertices": grid_vertices(cert.grid),
                 "eps": str(cert.eps), "eps_den": cert.eps.denominator,
                 "cert_eps_ratio": float(cert.eps / HALF)}
        return ok, sizes


class Openness:
    name = "openness"
    why = ("acceptance-6 shape: X+T shifted by -r for each r in {0..7}/64, "
           "then snap_certificate at 1/8 and is_eps_indecomposable at 1/2")
    # (corner of X, side of X, corner of T); T is a 1/4-square, so it is
    # strictly 1/2-trivial and X + T is 1/2-indecomposable.  Every round
    # runs each fixture at each shift r: r = 0 keeps the grid on the
    # 1/8-lattice and costs a third of the others.
    FIXTURES = (((0, 1), (3, 2), (Fraction(3, 8), Fraction(5, 8))),
                ((2, 0), (2, 4), (Fraction(1, 8), Fraction(7, 8))),
                ((1, 2), (4, 3), (Fraction(6, 8), Fraction(2, 8))))
    TINY = (((0, 0), (2, 2), (Fraction(1, 8), Fraction(1, 8))),)
    SHIFTS = tuple(Fraction(i, 64) for i in range(8))

    def setup(self, seed, tiny, workdir):
        return {"fixtures": self.TINY if tiny else self.FIXTURES}

    def items(self, state):
        return [(fix, str(r)) for fix in range(len(state["fixtures"]))
                for r in self.SHIFTS]

    def draw(self, state, item, rng):
        return {"fixture": item[0], "r": item[1],
                "basis_seed": _basis_seed(rng)}

    def build(self, state, spec):
        lo, side, t0 = state["fixtures"][spec["fixture"]]
        X = _rect(lo, tuple(a + s for a, s in zip(lo, side)))
        T = _rect(t0, tuple(c + Fraction(1, 4) for c in t0))
        S = core.random_basis_change(_sum(X, T), spec["basis_seed"])
        return kan.shift(S, -Fraction(spec["r"]))

    def op(self, state, M):
        L, sc = interleave.snap_certificate(M, EIGHTH)
        return L, sc, match.is_eps_indecomposable(L, HALF)

    def check(self, state, spec, M, out):
        L, sc, verdict = out
        ok = sc.eps <= EIGHTH and bool(verdict)
        sizes = {"in_grid": list(M.grid.shape), "in_total_dim": M.total_dim(),
                 "snap_grid": list(L.grid.shape),
                 "snap_total_dim": L.total_dim(),
                 "k": (1 if verdict.indecomposable_part is not None else 0)
                 + len(verdict.trivial_parts),
                 "cert_grid_vertices": grid_vertices(sc.grid),
                 "r": spec["r"], "eps": str(sc.eps),
                 "eps_den": sc.eps.denominator,
                 "cert_eps_ratio": float(sc.eps / EIGHTH)}
        return ok, sizes


class Decompose:
    name = "decompose"
    why = ("decompose a random basis change of random_module(2,4,3) refined "
           "3-5 ways per cell: End, hom and field algebra, no certificates")
    # (seed of random_module(2, 4, 3), ways each grid cell is split)
    BASES = ((0, 3), (1, 4), (2, 5))
    TINY = ((1, 2),)

    def setup(self, seed, tiny, workdir):
        bases = self.TINY if tiny else self.BASES
        # summand count of the unrefined, unshuffled module: refining and a
        # basis change keep it
        want = {b: len(decomp.decompose(cli.random_module(2, 4, 3, b[0]))[0])
                for b in bases}
        return {"bases": bases, "want": want}

    def items(self, state):
        return state["bases"]

    def draw(self, state, base, rng):
        return {"base": list(base), "basis_seed": _basis_seed(rng)}

    def build(self, state, spec):
        s, ways = spec["base"]
        R = cli.random_module(2, 4, 3, seed=s)
        ax = sorted({Fraction(i) + Fraction(j, ways)
                     for i in range(3) for j in range(ways)} | {Fraction(3)})
        R = kan.restriction_extension(R, core.Grid([ax, ax]))
        return core.random_basis_change(R, spec["basis_seed"])

    def op(self, state, M):
        return decomp.decompose(M)

    def check(self, state, spec, M, out):
        parts, W = out
        ok = (W.target is M and W.is_isomorphism()
              and np.array_equal(sum(P.dims for P in parts), M.dims)
              and len(parts) == state["want"][tuple(spec["base"])])
        sizes = {"in_grid": list(M.grid.shape), "in_total_dim": M.total_dim(),
                 "k": len(parts)}
        return ok, sizes


class Certify:
    name = "certify"
    why = ("CLI certify on proofs from approx-indec --emit-proof, loaded cold "
           "from disk; a tampered copy of each must be rejected")
    # random_module(2, 3, 2, seed) with k = 2, so set-up stays short
    BASES = (6, 7, 41)
    TINY = (7,)

    def setup(self, seed, tiny, workdir):
        rng = np.random.default_rng([seed, 1])
        proofs = []
        for base in self.TINY if tiny else self.BASES:
            N = core.random_basis_change(cli.random_module(2, 3, 2, seed=base),
                                         _basis_seed(rng))
            stem = os.path.join(workdir, f"m{base}")
            gpio.save(N, stem + ".module.json")
            code, text = _run_cli(["approx-indec", stem + ".module.json",
                                   "--eps", "1/2", "--emit-proof"])
            if code != 0:
                raise RuntimeError(f"approx-indec exited {code} on base {base}")
            cert = json.loads(text)["certificate"]
            with open(stem + ".proof.json", "w") as fh:
                json.dump(cert, fh)
            # one f entry + 1 mod p: a verifier must reject this copy
            entry = next(e for e in cert["f"] if e["matrix"] and e["matrix"][0])
            entry["matrix"][0][0] = (entry["matrix"][0][0] + 1) % \
                cert["m_module"]["p"]
            with open(stem + ".tampered.json", "w") as fh:
                json.dump(cert, fh)
            proofs.append({
                "base": base, "path": stem + ".proof.json",
                "tampered": stem + ".tampered.json",
                "bytes": os.path.getsize(stem + ".proof.json"),
                "cert_grid_vertices": math.prod(len(a) for a in cert["grid"]),
                "eps": cert["eps"]})
        return {"proofs": proofs}

    def items(self, state):
        return range(len(state["proofs"]))

    def draw(self, state, i, rng):
        return {"proof": i}

    def build(self, state, spec):
        return state["proofs"][spec["proof"]]["path"]

    def op(self, state, path):
        return _run_cli(["certify", path])[0]

    def check(self, state, spec, path, code):
        proof = state["proofs"][spec["proof"]]
        tampered_code = _run_cli(["certify", proof["tampered"]])[0]
        ok = code == 0 and tampered_code == 1
        sizes = {"base": proof["base"], "proof_bytes": proof["bytes"],
                 "cert_grid_vertices": proof["cert_grid_vertices"],
                 "eps": proof["eps"],
                 "eps_den": Fraction(proof["eps"]).denominator,
                 "tampered_exit": tampered_code}
        return ok, sizes


WORKLOADS = {w.name: w for w in (Approx, Openness, Decompose, Certify)}
