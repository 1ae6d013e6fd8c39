"""Fuzzing the loader and the CLI with mutated JSON.

Mutants of genuine module and certificate objects, with their modules in
format 2 (runs and a matrix pool, as io writes them) and in format 1
(oracles.as_format1), replace one node (a leaf or a whole subtree) with an
int, float, string, bool, null or list, or drop one dict key or list
element; long-axis mutants put axes of 5000 coordinates in place of a grid
or one of its axes.  Loading must fail with
one of the documented exception types or give an object that validates and
holds the tables the dict route builds (oracles.assert_loaded_as_by_dicts);
a loaded certificate must verify or raise CertificateError; the CLI must
answer with an exit code in 0-3 and no traceback, also when a mutant is
the first of the two modules of `tack` or `match`.
"""

import copy
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridpersist import io
from gridpersist.cli import random_module
from gridpersist.core import GridModule, interval_module
from gridpersist.interleave import (CertificateError, InterleavingCertificate,
                                    identity_certificate)

import oracles as O

MODULE2 = io.module_to_obj(random_module(2, 2, 2, seed=3))
CERT2 = io.certificate_to_obj(identity_certificate(
    random_module(2, 2, 2, seed=3), Fraction(1, 2)))
MODULE, CERT = O.as_format1(MODULE2), O.as_format1(CERT2)

# small ints, large ones (a large dimension must be refused before its
# D x D blocks are allocated) and a few beyond int64
INTS = st.one_of(st.integers(-2, 9),
                 st.sampled_from([2 ** 12, 10 ** 9, 2 ** 63, -2 ** 70]))
LEAVES = st.one_of(
    INTS, st.floats(), st.booleans(), st.none(),
    st.one_of(st.text(max_size=4), st.sampled_from(["1/0", "-1", "3/2", "x"])),
    st.lists(st.one_of(INTS, st.lists(INTS, max_size=3)), max_size=3))
LOAD_ERRORS = (ValueError, KeyError, TypeError, OverflowError)

# long axes in place of a grid's axes or of one axis: a certificate grid of
# two of them has 25 million vertices, which the loader must refuse before
# verify builds tables over it
LONG_AXIS = [f"{i}/2" for i in range(-10, 4990)]
LONG = st.sampled_from([LONG_AXIS, [LONG_AXIS, LONG_AXIS],
                        [LONG_AXIS, ["0"]]])


def _paths(x, path=()):
    yield path
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _paths(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _paths(v, path + (i,))


def mutants(obj, values=None, where=lambda path: True):
    """A strategy of copies of obj with one node at a path that `where`
    accepts replaced by one of `values` (by default a leaf, or dropped)."""
    paths = [path for path in list(_paths(obj))[1:] if where(path)]

    def apply(path, value):
        out = copy.deepcopy(obj)
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return out

    return st.builds(apply, st.sampled_from(paths),
                     st.one_of(st.just(_DROP), LEAVES) if values is None
                     else values)


def _on_axes(path):
    # a module's axes or a certificate's grids, or one axis of any
    return path[-1] in ("axes", "grid", "g_grid") or (
        len(path) > 1 and path[-2] in ("axes", "grid", "g_grid"))


_DROP = object()
FUZZ = settings(derandomize=True, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])


def _check_loads(mutant):
    try:
        x = io.loads(json.dumps(mutant))
    except LOAD_ERRORS:
        return
    # what loads holds the tables the dict route builds from the entries
    O.assert_loaded_as_by_dicts(x, mutant)
    if isinstance(x, GridModule):
        assert x.validate()
    else:
        assert isinstance(x, InterleavingCertificate)
        assert x.m_module.validate() and x.n_module.validate()
        try:
            x.verify()
        except CertificateError:
            pass


@FUZZ
@given(mutants(MODULE))
def test_loads_of_mutated_module_fails_closed(mutant):
    _check_loads(mutant)


@FUZZ
@given(mutants(CERT))
def test_loads_of_mutated_certificate_fails_closed(mutant):
    _check_loads(mutant)


@FUZZ
@given(mutants(MODULE2))
def test_loads_of_mutated_format2_module_fails_closed(mutant):
    _check_loads(mutant)


@FUZZ
@given(mutants(CERT2))
def test_loads_of_mutated_format2_certificate_fails_closed(mutant):
    _check_loads(mutant)


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(mutants(MODULE, LONG, _on_axes),
                 mutants(CERT, LONG, _on_axes),
                 mutants(MODULE2, LONG, _on_axes),
                 mutants(CERT2, LONG, _on_axes)))
def test_loads_of_long_axis_mutants_fails_closed(mutant):
    _check_loads(mutant)


# `tack` and `match` take a fixed interval module after the mutant, then
# these options
OPTIONS = {"tack": ["--delta", "1"], "match": ["--eps", "1/2"]}


@pytest.mark.parametrize("command,obj", [("decompose", MODULE),
                                         ("certify", CERT),
                                         ("tack", MODULE), ("match", MODULE),
                                         ("decompose", MODULE2),
                                         ("certify", CERT2)])
def test_cli_on_mutants_exits_with_a_documented_code(command, obj, tmp_path):
    extra = []
    if command in OPTIONS:
        extra = [str(tmp_path / "interval.json")] + OPTIONS[command]
        io.save(interval_module((0, 0), (2, 2)), extra[0])

    @settings(derandomize=True, deadline=None, max_examples=4,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutants(obj))
    def run(mutant):
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(mutant))
        r = subprocess.run([sys.executable, "-m", "gridpersist.cli", command,
                            str(path)] + extra, capture_output=True, text=True)
        assert r.returncode in (0, 1, 2, 3)
        assert "Traceback" not in r.stderr

    run()
