"""JSON serialization for modules, morphisms, and certificates.

Rationals travel as "num/den" strings and matrix entries as canonical
representatives in [0, p), so parsing a serialized object reproduces exactly
the same data.  All collections are emitted in a stable order (vertices
lexicographic, steps by (vertex, axis)) to keep outputs byte-reproducible.
"""

from __future__ import annotations

import json
import marshal
from fractions import Fraction
from itertools import chain
from math import prod

import numpy as np

from . import field
from .core import (Components, Grid, GridModule, ModuleMorphism, _strides,
                   as_frac)
from .interleave import InterleavingCertificate

# The loader refuses a module with n * V * D**2 above this many entries (V
# vertices, D the largest pointwise dimension; structure_maps gathers a D x D
# block per walk and step), or a certificate with an evaluation grid past
# this many vertices (128 MiB of int64), before building it: a few bytes of
# "dims" or a few thousand coordinates could otherwise ask for any memory.
MAX_TENSOR_ENTRIES = 1 << 24


def frac_str(x) -> str:
    x = as_frac(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    """The rational a "num/den" or "num" string stands for (ValueError on
    anything else, a zero denominator included)."""
    if not isinstance(s, str):
        raise ValueError(f"not a rational string: {s!r}")
    num, den = s.split("/") if "/" in s else (s, "1")
    if int(den) == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), int(den))


def _obj(obj, kind: str):
    if not isinstance(obj, dict) or obj.get("type") != kind:
        raise ValueError(f"not a {kind} object")


def _int(x, what: str) -> int:
    if type(x) is not int:   # bool is not an integer here
        raise ValueError(f"{what} must be an integer, not {x!r}")
    return x


def _axes_obj(grid: Grid):
    return [[frac_str(c) for c in ax] for ax in grid.axes]


def _axes_from(obj) -> Grid:
    if not isinstance(obj, list) or set(map(type, obj)) - {list}:
        raise ValueError("axes must be a list of coordinate lists")
    if not obj:
        raise ValueError("a grid needs at least one axis")
    return Grid([[parse_frac(c) for c in ax] for ax in obj])


def _matrix_obj(m: np.ndarray, p: int):
    return [[int(x) % p for x in row] for row in m.tolist()]


def _matrix_reader(p: int):
    """A function that reads JSON matrices over F_p: ValueError unless the
    value is a list of equal-length lists of integers (bool is not an
    integer) in [0, p), for a prime p.  Equal matrices are read once and
    share one array."""
    if not field.is_probable_prime(p):
        raise ValueError(f"p={p} is not prime")
    seen = {}

    def read(rows):
        # marshal without back-references (version 2) gives equal integer
        # matrices equal bytes, and tells bool from int, which == does not
        key = marshal.dumps(rows, 2)
        m = seen.get(key)
        if m is None:
            if (not isinstance(rows, list) or set(map(type, rows)) - {list}
                    or set(map(type, chain.from_iterable(rows))) - {int}):
                raise ValueError("a matrix must be a list of rows of integers")
            if not all(0 <= x < p for x in chain.from_iterable(rows)):
                raise ValueError("entries out of [0, p)")
            m = seen[key] = field.fmat(rows, p)
        return m

    return read


def _vertices(vs, shape) -> np.ndarray:
    """JSON vertices as the rows of an integer array; ValueError unless each
    is a list of one integer per axis, inside the grid of the given shape."""
    n = len(shape)
    if (set(map(type, vs)) - {list} or set(map(len, vs)) - {n}
            or set(map(type, chain.from_iterable(vs))) - {int}):
        raise ValueError(f"vertices must be lists of {n} integers")
    a = np.array(vs, dtype=np.int64).reshape(len(vs), n)
    if ((a < 0) | (a >= np.array(shape, dtype=np.int64))).any():
        raise ValueError("vertex outside the grid")
    return a


def _components(entries, shape, read) -> Components:
    """The table of a JSON list of {"vertex", "matrix"} entries; ValueError
    unless the vertices are distinct integer vertices of the grid of the
    given shape."""
    at = _vertices([e["vertex"] for e in entries], shape) @ _strides(shape)
    if len(np.unique(at)) != len(at):
        raise ValueError("duplicate component vertex")
    # read shares one array among equal matrices
    return Components.shared(shape, at, [read(e["matrix"]) for e in entries])


def _component_list(comp, shape, p: int):
    """JSON {"vertex", "matrix"} entries of a vertex -> matrix mapping over
    the grid of the given shape, vertices in C (that is, sorted) order; a
    matrix with no entries is left out (JSON cannot hold its shape, and an
    absent component reads as zero)."""
    t = Components.of(comp, shape)
    rows = [_matrix_obj(m, p) if m.size else None for m in t.mats]
    return [{"vertex": list(v), "matrix": [r[:] for r in rows[i]]}
            for v, i in zip(t, t.ids[t.ids >= 0].tolist())
            if rows[i] is not None]


def module_to_obj(M: GridModule) -> dict:
    """The JSON object of M, steps sorted by vertex, then axis; each distinct
    step matrix is converted once.  A step with no entries is left out: one
    end is zero-dimensional, so validate does not ask for it."""
    t, n = M.step_table(), M.grid.n
    rows = [_matrix_obj(m, M.p) for m in t.mats]
    # the table runs over (axis, vertex); read it vertex by vertex
    ids = t.ids.reshape(n, -1).T.ravel()
    at = np.flatnonzero(np.array([m.size > 0 for m in t.mats] + [False])[ids])
    vs = np.stack(np.unravel_index(at // n, M.grid.shape), axis=1).tolist()
    steps = [{"vertex": v, "axis": k, "matrix": [r[:] for r in rows[i]]}
             for v, k, i in zip(vs, (at % n).tolist(), ids[at].tolist())]
    return {
        "type": "module",
        "p": M.p,
        "axes": _axes_obj(M.grid),
        "dims": M.dims.tolist(),
        "steps": steps,
    }


def module_from_obj(obj: dict) -> GridModule:
    """The module an object describes; ValueError unless it validates."""
    _obj(obj, "module")
    p = _int(obj["p"], "p")
    grid = _axes_from(obj["axes"])
    dims = np.asarray(obj["dims"], dtype=object)
    if set(map(type, dims.ravel())) - {int}:
        raise ValueError("dimensions must be integers")
    if dims.shape != grid.shape:
        raise ValueError(f"dims of shape {dims.shape} on a grid of shape "
                         f"{grid.shape}")
    D = max(dims.ravel().tolist(), default=0)
    if grid.n * dims.size * max(D, 0) ** 2 > MAX_TENSOR_ENTRIES:
        raise ValueError(f"pointwise dimension {D} on {dims.size} vertices "
                         f"exceeds the loader's limit of "
                         f"{MAX_TENSOR_ENTRIES} step tensor entries")
    entries = obj["steps"]
    keys = list(zip(map(tuple, _vertices([e["vertex"] for e in entries],
                                         grid.shape).tolist()),
                    [_int(e["axis"], "a step axis") for e in entries]))
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate step")
    read = _matrix_reader(p)
    M = GridModule(grid, dims.astype(np.int64),
                   dict(zip(keys, [read(e["matrix"]) for e in entries])), p)
    M.validate()
    return M


def morphism_to_obj(f: ModuleMorphism) -> dict:
    return {
        "type": "morphism",
        "source": module_to_obj(f.source),
        "target": module_to_obj(f.target),
        "components": _component_list(f.mats, f.source.grid.shape, f.p),
    }


def morphism_from_obj(obj: dict) -> ModuleMorphism:
    """The morphism an object describes; ValueError unless it is natural."""
    _obj(obj, "morphism")
    src = module_from_obj(obj["source"])
    tgt = module_from_obj(obj["target"])
    f = ModuleMorphism(src, tgt, _components(
        obj["components"], src.grid.shape, _matrix_reader(src.p)))
    f.validate()
    return f


def certificate_to_obj(c: InterleavingCertificate) -> dict:
    p = c.m_module.p
    return {
        "type": "certificate",
        "eps": frac_str(c.eps),
        "m_module": module_to_obj(c.m_module),
        "n_module": module_to_obj(c.n_module),
        "grid": _axes_obj(c.grid),
        "g_grid": _axes_obj(c.g_grid),
        "f": _component_list(c.f, c.grid.shape, p),
        "g": _component_list(c.g, c.g_grid.shape, p),
    }


def certificate_from_obj(obj: dict) -> InterleavingCertificate:
    """The certificate an object describes, f on "grid" and g on "g_grid"
    (on "grid" too when there is none, as in the one-grid layout)."""
    _obj(obj, "certificate")
    grid = _axes_from(obj["grid"])
    g_grid = _axes_from(obj["g_grid"]) if "g_grid" in obj else grid
    for P in (grid, g_grid):
        if prod(P.shape) > MAX_TENSOR_ENTRIES:
            raise ValueError(f"evaluation grid of {prod(P.shape)} vertices "
                             f"exceeds the loader's limit of "
                             f"{MAX_TENSOR_ENTRIES}")
    M = module_from_obj(obj["m_module"])
    N = module_from_obj(obj["n_module"])
    if M.p != N.p:
        raise ValueError("mixed primes")
    if len({M.grid.n, N.grid.n, grid.n, g_grid.n}) != 1:
        raise ValueError("modules and grid of different dimensions")
    read = _matrix_reader(M.p)
    return InterleavingCertificate(
        M, N, parse_frac(obj["eps"]), grid,
        _components(obj["f"], grid.shape, read),
        _components(obj["g"], g_grid.shape, read), g_grid)


def from_obj(obj: dict):
    """Decode any serialized object by its type tag."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind == "module":
        return module_from_obj(obj)
    if kind == "morphism":
        return morphism_from_obj(obj)
    if kind == "certificate":
        return certificate_from_obj(obj)
    raise ValueError(f"unknown object type: {kind!r}")


def to_obj(x) -> dict:
    if isinstance(x, GridModule):
        return module_to_obj(x)
    if isinstance(x, ModuleMorphism):
        return morphism_to_obj(x)
    if isinstance(x, InterleavingCertificate):
        return certificate_to_obj(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(x) -> str:
    return json.dumps(to_obj(x), sort_keys=True, separators=(",", ":"))


def loads(s: str):
    return from_obj(json.loads(s))


def save(x, path):
    with open(path, "w") as fh:
        fh.write(dumps(x))
        fh.write("\n")


def load(path):
    with open(path) as fh:
        return from_obj(json.load(fh))
