"""Command-line front end and random module generation.

Subcommands: validate, decompose, tack, approx-indec, match, certify.  All
results print as JSON on stdout; diagnostics go to stderr as one JSON object
per line.  Exit codes: 0 all verifications passed, 1 a verification failed,
2 malformed input, 3 the input breaks a precondition of tack, approx-indec
or match (decompose has none: it works at every prime).  --seed (decompose,
approx-indec, match) fixes randomness, with the PF_SEED environment
variable as fallback; tack makes no random choice.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import field, io
from .core import Grid, GridModule
from .decomp import PreconditionError, decompose
from .field import DEFAULT_PRIME
from .construct import approximate_indecomposable, tack
from .match import bottleneck_upper_bound, matching_to_interleaving


# -- random modules -------------------------------------------------------------

def random_module(n: int, size: int, max_dim: int, seed: int,
                  p: int = DEFAULT_PRIME) -> GridModule:
    """A random module on the integer n-grid {0..size-1}^n, dims <= max_dim.

    Vertices are generated in lexicographic order.  At each vertex the
    incoming steps all factor through one random map out of the coequalizer
    of the immediate predecessors over their pairwise meets, so every square
    commutes by construction; validate always passes.  Deterministic per
    seed.
    """
    if n < 1 or size < 1 or max_dim < 0:
        raise ValueError("bounds must be positive")
    rng = np.random.default_rng(seed)
    grid = Grid([[Fraction(i) for i in range(size)] for _ in range(n)])
    dims = np.zeros(grid.shape, dtype=np.int64)
    steps = {}

    def step(u, k):
        d_from, d_to = int(dims[u]), int(dims[u[:k] + (u[k] + 1,) + u[k + 1:]])
        return steps.get((u, k), field.zeros(d_to, d_from))

    for vidx in grid.vertices():
        vidx = tuple(vidx)
        d_v = int(rng.integers(0, max_dim + 1))
        dims[vidx] = d_v
        axes_in = [k for k in range(n) if vidx[k] > 0]
        if not axes_in:
            continue
        preds = [vidx[:k] + (vidx[k] - 1,) + vidx[k + 1:] for k in axes_in]
        pdims = [int(dims[u]) for u in preds]
        offs = np.concatenate([[0], np.cumsum(pdims)])
        total = int(offs[-1])
        # relations: for each pair of predecessors, their meet maps equally
        # into both; the quotient by these is the coequalizer
        rel_cols = []
        for a in range(len(preds)):
            for b in range(a + 1, len(preds)):
                w = list(vidx)
                w[axes_in[a]] -= 1
                w[axes_in[b]] -= 1
                w = tuple(w)
                dw = int(dims[w])
                if dw == 0:
                    continue
                col = field.zeros(total, dw)
                # w -> preds[a] is one step along axes_in[b], and vice versa
                col[offs[a]:offs[a + 1], :] = step(w, axes_in[b])
                col[offs[b]:offs[b + 1], :] = (-step(w, axes_in[a])) % p
                rel_cols.append(col)
        rel = (np.concatenate(rel_cols, axis=1) if rel_cols
               else field.zeros(total, 0))
        pi = field.quotient_map(rel, p)
        theta = rng.integers(0, p, size=(d_v, pi.shape[0])).astype(np.int64)
        glue = field.mmul(theta, pi, p)
        for idx, u in enumerate(preds):
            if d_v > 0 and pdims[idx] > 0:
                steps[(u, axes_in[idx])] = glue[:, offs[idx]:offs[idx + 1]].copy()
    return GridModule(grid, dims, steps, p)


# -- CLI plumbing ---------------------------------------------------------------

class CliError(Exception):
    def __init__(self, code, kind, message):
        super().__init__(message)
        self.code = code
        self.kind = kind


def _diag(kind, message):
    print(json.dumps({"error": kind, "message": str(message)}),
          file=sys.stderr)


def _load(path, want=None):
    try:
        obj = io.load(path)
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            RecursionError) as exc:
        raise CliError(2, "malformed-input", f"{path}: {exc}")
    if want is not None and not isinstance(obj, want):
        raise CliError(2, "malformed-input",
                       f"{path}: expected {want.__name__}")
    return obj


def _parse_frac(s):
    try:
        return io.parse_frac(s)
    except ValueError as exc:
        raise CliError(2, "malformed-input", f"bad rational {s!r}: {exc}")


def _seed(args):
    s = os.environ.get("PF_SEED", "0") if args.seed is None else args.seed
    try:
        if 0 <= int(s) < 2 ** 32:
            return int(s)
    except ValueError:
        pass
    raise CliError(2, "malformed-input",
                   f"seed {s!r} is not an integer in [0, 2**32)")


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def cmd_validate(args):
    for path in args.module:
        _load(path, GridModule)   # loading validates
    _emit({"status": "ok", "modules": len(args.module)})
    return 0


def cmd_decompose(args):
    M = _load(args.module, GridModule)
    parts, witness = decompose(M, _seed(args))
    out = {"summands": [io.module_to_obj(X) for X in parts]}
    if args.emit_proof:
        out["witness"] = io.morphism_to_obj(witness)
    _emit(out)
    return 0


def cmd_tack(args):
    A = _load(args.module_a, GridModule)
    B = _load(args.module_b, GridModule)
    delta = _parse_frac(args.delta)
    M, cert = tack(A, B, delta)
    out = {"module": io.module_to_obj(M),
           "certificate_eps": io.frac_str(cert.eps)}
    if args.emit_proof:
        out["certificate"] = io.certificate_to_obj(cert)
    _emit(out)
    return 0


def cmd_approx_indec(args):
    N = _load(args.module, GridModule)
    eps = _parse_frac(args.eps)
    res = approximate_indecomposable(N, eps, seed=_seed(args))
    out = {"module": io.module_to_obj(res.module),
           "certificate_eps": io.frac_str(res.certificate.eps)}
    if args.emit_proof:
        out["certificate"] = io.certificate_to_obj(res.certificate)
    _emit(out)
    return 0


def cmd_match(args):
    M = _load(args.module_a, GridModule)
    N = _load(args.module_b, GridModule)
    eps = _parse_frac(args.eps)
    for bad, why in ((eps < 0, "eps must be >= 0"),
                     (M.grid.n != N.grid.n,
                      "modules with different numbers of parameters"),
                     (M.p != N.p, "modules over different primes")):
        if bad:
            raise CliError(3, "precondition-violation", why)
    result = bottleneck_upper_bound(M, N, eps, seed=_seed(args))
    out = {"status": result.status, "eps": io.frac_str(eps)}
    if result.matched:
        out["pairs"] = [
            {"left": i, "right": j,
             "certificate": io.certificate_to_obj(c)}
            for i, j, c in result.pairs]
        if args.emit_proof:
            assembled = matching_to_interleaving(result)
            out["interleaving"] = io.certificate_to_obj(assembled)
    _emit(out)
    return 0


def cmd_certify(args):
    from .interleave import CertificateError, InterleavingCertificate
    for path in args.certificate:
        c = _load(path, InterleavingCertificate)
        try:
            c.verify()
        except CertificateError as exc:
            raise CliError(1, "verification-failure", f"{path}: {exc}")
    _emit({"status": "ok", "certificates": len(args.certificate)})
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input (subparsers are of this class too)."""

    def error(self, message):
        raise CliError(2, "malformed-input", f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The argument parser, built once per process (parsing keeps it)."""
    ap = _Parser(
        prog="gridpersist",
        description="exact decomposition and interleaving certificates for "
                    "multiparameter persistence modules")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check module files")
    p.add_argument("module", nargs="+")

    p = sub.add_parser("decompose", help="split into indecomposables")
    p.add_argument("module")
    p.add_argument("--seed")
    p.add_argument("--emit-proof", action="store_true")

    p = sub.add_parser("tack", help="join two indecomposables within delta")
    p.add_argument("module_a")
    p.add_argument("module_b")
    p.add_argument("--delta", required=True)
    p.add_argument("--emit-proof", action="store_true")

    p = sub.add_parser("approx-indec",
                       help="nearest-indecomposable approximation")
    p.add_argument("module")
    p.add_argument("--eps", required=True)
    p.add_argument("--seed")
    p.add_argument("--emit-proof", action="store_true")

    p = sub.add_parser("match", help="bottleneck matching attempt")
    p.add_argument("module_a")
    p.add_argument("module_b")
    p.add_argument("--eps", required=True)
    p.add_argument("--seed")
    p.add_argument("--emit-proof", action="store_true")

    p = sub.add_parser("certify", help="re-verify certificate files")
    p.add_argument("certificate", nargs="+")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # by name at call time, as the parser outlives any patch of a command
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except CliError as exc:
        _diag(exc.kind, exc)
        return exc.code
    except PreconditionError as exc:
        # the input breaks a precondition that the library checks
        _diag("precondition-violation", exc)
        return 3
    except RuntimeError as exc:
        # the library raises RuntimeError only when a self-check fails
        _diag("verification-failure", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
