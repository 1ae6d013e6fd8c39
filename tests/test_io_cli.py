"""Serialization round-trips and the command-line interface."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from gridpersist import io
from gridpersist.cli import main, random_module
from gridpersist.construct import module_G
from gridpersist.core import ModuleMorphism, direct_sum, interval_module
from gridpersist.interleave import identity_certificate, snap_certificate
from gridpersist.kan import common_refinement


def _same_module(A, B):
    assert A.grid == B.grid and A.p == B.p
    assert np.array_equal(A.dims, B.dims)
    assert set(A.steps) == set(B.steps)
    for k in A.steps:
        assert np.array_equal(A.steps[k], B.steps[k])


def corpus():
    out = [module_G(), module_G(p=2), interval_module((0, 0), (2, 3)),
           interval_module((Fraction(1, 3),), (Fraction(7, 2),))]
    out += [random_module(2, 3, 2, seed=s) for s in range(4)]
    out += [random_module(3, 2, 2, seed=9)]
    return out


def test_module_round_trip_is_bit_exact():
    for M in corpus():
        s = io.dumps(M)
        M2 = io.loads(s)
        _same_module(M, M2)
        assert io.dumps(M2) == s


def test_morphism_round_trip():
    M = random_module(2, 3, 2, seed=1)
    f = ModuleMorphism.identity(M)
    f2 = io.loads(io.dumps(f))
    assert f2.is_valid()
    for v in f.mats:
        assert np.array_equal(f.at(v), f2.at(v))


def test_certificate_round_trip_reverifies():
    M = random_module(2, 3, 2, seed=2)
    c = identity_certificate(M, Fraction(1, 2))
    c2 = io.loads(io.dumps(c))
    assert c2.eps == c.eps
    c2.verify()
    assert io.dumps(c2) == io.dumps(c)
    L, sc = snap_certificate(M, Fraction(1, 2))
    sc2 = io.loads(io.dumps(sc))
    sc2.verify()


def test_fraction_strings():
    assert io.frac_str(Fraction(3, 7)) == "3/7"
    assert io.parse_frac("3/7") == Fraction(3, 7)
    assert io.parse_frac("5") == 5
    M = random_module(2, 3, 2, seed=3)
    obj = io.module_to_obj(M)
    for step in obj["steps"]:
        for row in step["matrix"]:
            assert all(0 <= x < M.p for x in row)


def test_random_module_determinism_and_validity():
    a = io.dumps(random_module(2, 3, 2, seed=42))
    b = io.dumps(random_module(2, 3, 2, seed=42))
    assert a == b
    for s in range(50):
        M = random_module(2, 3, 3, seed=s)
        assert M.validate()
        assert int(M.dims.max()) <= 3


# -- CLI ------------------------------------------------------------------


def _run(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "gridpersist.cli"] + args,
                          capture_output=True, text=True, env=env)


@pytest.fixture
def files(tmp_path):
    paths = {}
    M = random_module(2, 3, 2, seed=7)
    paths["module"] = tmp_path / "m.json"
    io.save(M, paths["module"])
    A = interval_module((0, 0), (2, 2))
    B = interval_module((3, 3), (5, 5))
    paths["a"] = tmp_path / "a.json"
    paths["b"] = tmp_path / "b.json"
    io.save(A, paths["a"])
    io.save(B, paths["b"])
    bad = tmp_path / "bad.json"
    bad.write_text('{"nonsense": true}')
    paths["bad"] = bad
    paths["tmp"] = tmp_path
    return paths


def test_cli_validate_exit_codes(files):
    ok = _run(["validate", str(files["module"])])
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["status"] == "ok"
    bad = _run(["validate", str(files["bad"])])
    assert bad.returncode == 2
    assert "malformed-input" in bad.stderr


def test_cli_decompose_is_deterministic(files):
    r1 = _run(["decompose", str(files["module"]), "--seed", "5"])
    r2 = _run(["decompose", str(files["module"]), "--seed", "5"])
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    parts = json.loads(r1.stdout)["summands"]
    assert parts


def test_cli_pf_seed_env_fallback(files):
    with_flag = _run(["decompose", str(files["module"]), "--seed", "9"])
    with_env = _run(["decompose", str(files["module"])], {"PF_SEED": "9"})
    assert with_flag.stdout == with_env.stdout


def test_cli_tack_then_certify(files, tmp_path):
    r = _run(["tack", str(files["a"]), str(files["b"]), "--delta", "1",
              "--emit-proof"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert Fraction(io.parse_frac(out["certificate_eps"])) < 1
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(out["certificate"]))
    c = _run(["certify", str(cert_path)])
    assert c.returncode == 0


def test_cli_certify_rejects_tampered_certificate(files, tmp_path):
    r = _run(["tack", str(files["a"]), str(files["b"]), "--delta", "1",
              "--emit-proof"])
    out = json.loads(r.stdout)
    cert = out["certificate"]
    victim = next(e for e in cert["f"] if any(any(row) for row in e["matrix"]))
    victim["matrix"] = [[(x + 1) % 65521 for x in row]
                        for row in victim["matrix"]]
    cert_path = tmp_path / "tampered.json"
    cert_path.write_text(json.dumps(cert))
    c = _run(["certify", str(cert_path)])
    assert c.returncode == 1
    assert "verification-failure" in c.stderr


def test_cli_approx_indec_end_to_end(files, tmp_path):
    r = _run(["approx-indec", str(files["a"]), "--eps", "1/2",
              "--emit-proof"])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert io.parse_frac(out["certificate_eps"]) <= Fraction(1, 2)
    cert_path = tmp_path / "apx.json"
    cert_path.write_text(json.dumps(out["certificate"]))
    assert _run(["certify", str(cert_path)]).returncode == 0


def test_cli_precondition_violation_is_exit_3(files):
    r = _run(["tack", str(files["a"]), str(files["b"]), "--delta", "0"])
    assert r.returncode == 3
    assert "precondition-violation" in r.stderr


def _non_commuting_G_obj():
    """module_G with one internal step doubled: the square above it no
    longer commutes."""
    obj = io.module_to_obj(module_G())
    step = next(s for s in obj["steps"] if s["vertex"] == [1, 3]
                and s["axis"] == 0)
    step["matrix"] = [[2 * x % obj["p"] for x in row] for row in step["matrix"]]
    return obj


def test_loader_rejects_invalid_modules():
    with pytest.raises(ValueError, match="commute"):
        io.from_obj(_non_commuting_G_obj())
    obj = io.module_to_obj(module_G())
    obj["p"] = 4
    with pytest.raises(ValueError, match="not prime"):
        io.from_obj(obj)


def test_cli_decompose_rejects_non_commuting_module(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_non_commuting_G_obj()))
    r = _run(["decompose", str(path)])
    assert r.returncode == 2
    assert "malformed-input" in r.stderr


def test_cli_approx_indec_rejects_non_commuting_module(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_non_commuting_G_obj()))
    r = _run(["approx-indec", str(path), "--eps", "1/2"])
    assert r.returncode == 2
    assert "malformed-input" in r.stderr


def test_cli_rejects_composite_prime_without_traceback(tmp_path):
    obj = io.module_to_obj(module_G())
    obj["p"] = 4
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(obj))
    r = _run(["decompose", str(path)])
    assert r.returncode == 2
    assert "malformed-input" in r.stderr
    assert "Traceback" not in r.stderr


def test_cli_certify_rejects_non_commuting_embedded_module(tmp_path):
    obj = io.certificate_to_obj(identity_certificate(module_G(),
                                                     Fraction(1, 2)))
    obj["m_module"] = _non_commuting_G_obj()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    r = _run(["certify", str(path)])
    assert r.returncode == 2
    assert "malformed-input" in r.stderr


def test_cli_match(files):
    r = _run(["match", str(files["a"]), str(files["a"]), "--eps", "1/10"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "matched"
    r2 = _run(["match", str(files["a"]), str(files["b"]), "--eps", "1/10"])
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["status"] == "no-matching-found"
