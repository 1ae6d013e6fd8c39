"""JSON serialization for modules, morphisms, and certificates.

Rationals travel as "num/den" strings and matrix entries as canonical
representatives in [0, p), so parsing a serialized object reproduces exactly
the same data.  All collections are emitted in a stable order (vertices
lexicographic, steps by (vertex, axis)) to keep outputs byte-reproducible.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from . import field
from .core import Grid, GridModule, ModuleMorphism, as_frac
from .interleave import InterleavingCertificate


def frac_str(x) -> str:
    x = as_frac(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def _axes_obj(grid: Grid):
    return [[frac_str(c) for c in ax] for ax in grid.axes]


def _axes_from(obj) -> Grid:
    return Grid([[parse_frac(c) for c in ax] for ax in obj])


def _matrix_obj(m: np.ndarray, p: int):
    return [[int(x) % p for x in row] for row in m.tolist()]


def module_to_obj(M: GridModule) -> dict:
    steps = []
    for (vidx, k) in sorted(M.steps, key=lambda key: (key[0], key[1])):
        steps.append({"vertex": list(vidx), "axis": k,
                      "matrix": _matrix_obj(M.steps[(vidx, k)], M.p)})
    return {
        "type": "module",
        "p": M.p,
        "axes": _axes_obj(M.grid),
        "dims": M.dims.tolist(),
        "steps": steps,
    }


def module_from_obj(obj: dict) -> GridModule:
    """The module an object describes; ValueError unless it validates."""
    if obj.get("type") != "module":
        raise ValueError("not a module object")
    grid = _axes_from(obj["axes"])
    steps = {}
    for entry in obj["steps"]:
        vidx = tuple(entry["vertex"])
        steps[(vidx, entry["axis"])] = field.fmat(entry["matrix"], obj["p"])
    M = GridModule(grid, np.array(obj["dims"], dtype=np.int64),
                   steps, obj["p"])
    M.validate()
    return M


def morphism_to_obj(f: ModuleMorphism) -> dict:
    comps = []
    for vidx in sorted(f.mats):
        comps.append({"vertex": list(vidx),
                      "matrix": _matrix_obj(f.mats[vidx], f.source.p)})
    return {
        "type": "morphism",
        "source": module_to_obj(f.source),
        "target": module_to_obj(f.target),
        "components": comps,
    }


def morphism_from_obj(obj: dict) -> ModuleMorphism:
    if obj.get("type") != "morphism":
        raise ValueError("not a morphism object")
    src = module_from_obj(obj["source"])
    tgt = module_from_obj(obj["target"])
    mats = {tuple(c["vertex"]): field.fmat(c["matrix"], src.p)
            for c in obj["components"]}
    return ModuleMorphism(src, tgt, mats)


def certificate_to_obj(c: InterleavingCertificate) -> dict:
    p = c.m_module.p

    def comp_list(d):
        return [{"vertex": list(v), "matrix": _matrix_obj(d[v], p)}
                for v in sorted(d)]

    return {
        "type": "certificate",
        "eps": frac_str(c.eps),
        "m_module": module_to_obj(c.m_module),
        "n_module": module_to_obj(c.n_module),
        "grid": _axes_obj(c.grid),
        "f": comp_list(c.f),
        "g": comp_list(c.g),
    }


def certificate_from_obj(obj: dict) -> InterleavingCertificate:
    if obj.get("type") != "certificate":
        raise ValueError("not a certificate object")
    M = module_from_obj(obj["m_module"])
    N = module_from_obj(obj["n_module"])
    p = M.p
    f = {tuple(e["vertex"]): field.fmat(e["matrix"], p) for e in obj["f"]}
    g = {tuple(e["vertex"]): field.fmat(e["matrix"], p) for e in obj["g"]}
    return InterleavingCertificate(M, N, parse_frac(obj["eps"]),
                                   _axes_from(obj["grid"]), f, g)


def from_obj(obj: dict):
    """Decode any serialized object by its type tag."""
    kind = obj.get("type")
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
