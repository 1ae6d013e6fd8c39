"""Fuzzing the loader and the CLI with mutated JSON.

Mutants of genuine module and certificate objects replace one node (a
leaf or a whole subtree) with an int, float, string, bool, null or list, or
drop one dict key or list element.  Loading must fail with one of the
documented exception types or give an object that validates; a loaded
certificate must verify or raise CertificateError; the CLI must answer with
an exit code in 0-3 and no traceback.
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
from gridpersist.core import GridModule
from gridpersist.interleave import (CertificateError, InterleavingCertificate,
                                    identity_certificate)

MODULE = io.module_to_obj(random_module(2, 2, 2, seed=3))
CERT = io.certificate_to_obj(identity_certificate(
    random_module(2, 2, 2, seed=3), Fraction(1, 2)))

# small ints, large ones (a large dimension must be refused before its
# D x D blocks are allocated) and a few beyond int64
INTS = st.one_of(st.integers(-2, 9),
                 st.sampled_from([2 ** 12, 10 ** 9, 2 ** 63, -2 ** 70]))
LEAVES = st.one_of(
    INTS, st.floats(), st.booleans(), st.none(),
    st.one_of(st.text(max_size=4), st.sampled_from(["1/0", "-1", "3/2", "x"])),
    st.lists(st.one_of(INTS, st.lists(INTS, max_size=3)), max_size=3))
LOAD_ERRORS = (ValueError, KeyError, TypeError, OverflowError)


def _paths(x, path=()):
    yield path
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _paths(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _paths(v, path + (i,))


def mutants(obj):
    """A strategy of copies of obj with one node replaced or dropped."""
    paths = list(_paths(obj))[1:]

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
                     st.one_of(st.just(_DROP), LEAVES))


_DROP = object()
FUZZ = settings(derandomize=True, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])


def _check_loads(mutant):
    try:
        x = io.loads(json.dumps(mutant))
    except LOAD_ERRORS:
        return
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


@pytest.mark.parametrize("command,obj", [("decompose", MODULE),
                                         ("certify", CERT)])
def test_cli_on_mutants_exits_with_a_documented_code(command, obj, tmp_path):
    @settings(derandomize=True, deadline=None, max_examples=4,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutants(obj))
    def run(mutant):
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(mutant))
        r = subprocess.run([sys.executable, "-m", "gridpersist.cli", command,
                            str(path)], capture_output=True, text=True)
        assert r.returncode in (0, 1, 2, 3)
        assert "Traceback" not in r.stderr

    run()
