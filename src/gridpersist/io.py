"""JSON serialization for modules, morphisms, and certificates.

Rationals travel as "num/den" strings and matrix entries as canonical
representatives in [0, p), so parsing a serialized object reproduces exactly
the same data.  All collections are emitted in a stable order (vertices
lexicographic, a module's step matrices by first use in C order) to keep
outputs byte-reproducible.
"""

from __future__ import annotations

import json
import marshal
import re
from fractions import Fraction
from itertools import chain
from math import lcm, prod

import numpy as np

from . import field
from .core import (Components, Grid, GridModule, ModuleMorphism, _exact,
                   _strides, as_frac)
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


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(s) -> tuple:
    """(num, den) of a string -?[0-9]+(/[0-9]+)?, ASCII digits only (int()
    also takes "1_0", " 7 ", "+3" and "٣"), den > 0; else ValueError."""
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise ValueError(f"not a rational string: {s!r}")
    num, den = int(m[1]), int(m[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return num, den


def parse_frac(s: str) -> Fraction:
    """The rational a "num/den" or "num" string stands for (see _ratio)."""
    return Fraction(*_ratio(s))


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
    axes = [[_ratio(c) for c in ax] for ax in obj]
    den = lcm(*(d for ax in axes for _, d in ax))
    return Grid.from_ints(den, _exact([[x * (den // d) for x, d in ax]
                                       for ax in axes]))


def _matrix_obj(m: np.ndarray, p: int):
    return [[int(x) % p for x in row] for row in m.tolist()]


def _matrix_reader(p: int):
    """read(rows), the matrix over F_p (p prime) of a JSON value, and
    read.ids(values), each value's index in read.mats, in order of first
    reading (each distinct matrix is read once); ValueError unless a value
    is a list of equal-length lists of integers (not bools) in [0, p)."""
    if not field.is_probable_prime(p):
        raise ValueError(f"p={p} is not prime")
    seen, mats = {}, []

    def ids(values):
        # marshal without back-references (version 2) gives equal integer
        # matrices equal bytes, and tells bool from int, which == does not
        keys = [marshal.dumps(rows, 2) for rows in values]
        for key, rows in dict(zip(keys, values)).items():
            if key in seen:
                continue
            if (not isinstance(rows, list) or set(map(type, rows)) - {list}
                    or set(map(type, chain.from_iterable(rows))) - {int}):
                raise ValueError("a matrix must be a list of rows of integers")
            if not all(0 <= x < p for x in chain.from_iterable(rows)):
                raise ValueError("entries out of [0, p)")
            seen[key] = len(mats)
            mats.append(field.fmat(rows, p))
        return list(map(seen.__getitem__, keys))

    def read(rows):
        return mats[ids([rows])[0]]

    read.ids, read.mats = ids, mats
    return read


def _components(entries, shape, read, n: int = 0) -> Components:
    """The table of JSON {"vertex", "matrix"} entries on a grid of the given
    shape, or for n > 0 of {"vertex", "axis", "matrix"} steps on (n,) +
    shape; ValueError unless each vertex is a list of one integer per axis
    in the grid, each axis an integer in [0, n) and no place repeats."""
    vs, d = [e["vertex"] for e in entries], len(shape)
    # one flat list of coordinates: numpy reads it faster than nested lists
    flat = ([] if set(map(type, vs)) - {list} or set(map(len, vs)) - {d}
            else list(chain.from_iterable(vs)))
    if len(flat) != d * len(vs) or set(map(type, flat)) - {int}:
        raise ValueError(f"vertices must be lists of {d} integers")
    a = np.array(flat, dtype=np.int64).reshape(len(vs), d)
    if ((a < 0) | (a >= np.array(shape, dtype=np.int64))).any():
        raise ValueError("vertex outside the grid")
    at = a @ _strides(shape)
    if n:
        ks = [e["axis"] for e in entries]
        if set(map(type, ks)) - {int}:
            _int(next(k for k in ks if type(k) is not int), "a step axis")
        if ks and not 0 <= min(ks) <= max(ks) < n:
            raise ValueError("step key is not (vertex, axis) of the grid")
        at += np.array(ks, dtype=np.int64) * prod(shape)
        shape = (n,) + tuple(shape)
    if len(np.unique(at)) != len(at):
        raise ValueError("duplicate step" if n else
                         "duplicate component vertex")
    ids = np.full(prod(shape), -1, dtype=np.int64)
    ids[at] = read.ids([e["matrix"] for e in entries])
    # the reader's matrices are distinct already: the table only renumbers
    return Components(shape, ids, read.mats, distinct=True)


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


def _runs(a) -> list:
    """[value, length, ...] of the runs of equal values in a flat array."""
    at = np.flatnonzero(np.diff(a, prepend=a[:1] - 1))
    return np.stack([a[at], np.diff(at, append=a.size)], 1).ravel().tolist()


def _runs_from(runs, size: int, what: str):
    """(values, lengths) of a [value, length, ...] list for a table of size
    entries; ValueError unless it holds integers (no bools), the lengths
    positive and summing to size."""
    if (not isinstance(runs, list) or len(runs) % 2
            or set(map(type, runs)) - {int}
            or min(runs[1::2], default=1) < 1 or sum(runs[1::2]) != size):
        raise ValueError(f"{what} must be integer [value, length] runs of "
                         f"positive lengths summing to {size}")
    return runs[::2], runs[1::2]


def module_to_obj(M: GridModule) -> dict:
    """The JSON object of M in format 2: "mats" holds each distinct step
    matrix once, in order of first appearance, and "dims" and "steps" (the
    step table's ids over (axis, vertex), -1 for none) are runs in C
    order.  A step with no entries is written as none: one end is
    zero-dimensional, so validate does not ask for it."""
    t = M.step_table()
    empty = np.array([m.size == 0 for m in t.mats] + [True])
    t = Components(t.shape, np.where(empty[t.ids], -1, t.ids), t.mats,
                   distinct=True)
    return {
        "type": "module",
        "format": 2,
        "p": M.p,
        "axes": _axes_obj(M.grid),
        "dims": _runs(M.dims.ravel()),
        "mats": [_matrix_obj(m, M.p) for m in t.mats],
        "steps": _runs(t.ids),
    }


def module_from_obj(obj: dict, readers=None) -> GridModule:
    """The module an object describes, in format 2 or (with no "format")
    format 1; ValueError unless it validates.  readers ({p:
    _matrix_reader(p)}) is shared within one proof."""
    _obj(obj, "module")
    fmt = obj.get("format", 1)
    if type(fmt) is not int or fmt not in (1, 2):
        raise ValueError(f"unknown module format {fmt!r}")
    p = _int(obj["p"], "p")
    grid = _axes_from(obj["axes"])
    n, V = grid.n, prod(grid.shape)
    if fmt == 2:
        dims, lengths = _runs_from(obj["dims"], V, "dims")
    else:
        dims, lengths = np.asarray(obj["dims"], dtype=object), 1
        if set(map(type, dims.ravel())) - {int}:
            raise ValueError("dimensions must be integers")
        if dims.shape != grid.shape:
            raise ValueError(f"dims of shape {dims.shape} on a grid of shape "
                             f"{grid.shape}")
        dims = dims.ravel().tolist()
    # a few bytes of format 2 can describe n V step ids: D counts as 1 there
    D = max(dims, default=0)
    if n * V * max(D, fmt - 1) ** 2 > MAX_TENSOR_ENTRIES:
        raise ValueError(f"pointwise dimension {D} on {V} vertices "
                         f"exceeds the loader's limit of "
                         f"{MAX_TENSOR_ENTRIES} step tensor entries")
    readers = {} if readers is None else readers
    read = readers.get(p) or readers.setdefault(p, _matrix_reader(p))
    dims = np.repeat(np.array(dims, dtype=np.int64), lengths)
    if fmt == 1:
        steps = _components(obj["steps"], grid.shape, read, n)
    else:
        ids, lengths = _runs_from(obj["steps"], n * V, "steps")
        mats = obj["mats"]
        if not isinstance(mats, list) or ids and not (
                -1 <= min(ids) <= max(ids) < len(mats)):
            raise ValueError("step ids must be -1 or index the list mats")
        pool = np.array(read.ids(mats) + [-1], dtype=np.int64)
        steps = Components((n,) + grid.shape, pool[np.repeat(ids, lengths)],
                           read.mats, distinct=True)
    M = GridModule(grid, dims.reshape(grid.shape), steps, p)
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
    readers = {}
    src = module_from_obj(obj["source"], readers)
    tgt = module_from_obj(obj["target"], readers)
    f = ModuleMorphism(src, tgt, _components(
        obj["components"], src.grid.shape, readers[src.p]))
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
    readers = {}   # one reader for the whole proof
    M = module_from_obj(obj["m_module"], readers)
    N = module_from_obj(obj["n_module"], readers)
    if M.p != N.p:
        raise ValueError("mixed primes")
    if len({M.grid.n, N.grid.n, grid.n, g_grid.n}) != 1:
        raise ValueError("modules and grid of different dimensions")
    return InterleavingCertificate(
        M, N, parse_frac(obj["eps"]), grid,
        _components(obj["f"], grid.shape, readers[M.p]),
        _components(obj["g"], g_grid.shape, readers[M.p]), g_grid)


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
