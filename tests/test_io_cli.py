"""Serialization round-trips and the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from gridpersist import field, io
from gridpersist.cli import CliError, _parse_frac, main, random_module
from gridpersist.construct import module_G
from gridpersist.core import (Grid, GridModule, ModuleMorphism, direct_sum,
                              interval_module, random_basis_change)
from gridpersist.interleave import (CertificateError, InterleavingCertificate,
                                    identity_certificate, snap_certificate)
from gridpersist.kan import (common_refinement, restriction_extension, shift,
                             union_grid)

import oracles as O


def _same_module(A, B):
    assert A.grid == B.grid and A.p == B.p
    assert np.array_equal(A.dims, B.dims)
    ta, tb = A.step_table(), B.step_table()
    assert set(ta) == set(tb)
    for k in ta:
        assert np.array_equal(ta[k], tb[k])


def _identity_of_G():
    """The identity of module_G as a morphism object."""
    G = module_G()
    return io.morphism_to_obj(ModuleMorphism(G, G, {
        v: field.eye(G.dim(v)) for v in map(tuple, np.argwhere(G.dims > 0))}))


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
    f = ModuleMorphism(M, M, {v: field.eye(M.dim(v))
                              for v in map(tuple, np.argwhere(M.dims > 0))})
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


def test_empty_matrices_survive_json():
    # "[]" holds no column count: a stored 0 x 2 step (its end is
    # zero-dimensional, so validate does not ask for it) is left out
    M = GridModule(Grid([[0, 1]]), [2, 0], {((0,), 0): field.zeros(0, 2)})
    M.validate()
    s = io.dumps(M)
    assert json.loads(s)["steps"] == []
    M2 = io.loads(s)
    assert M2.is_valid() and len(M2.step_table()) == 0
    assert io.dumps(M2) == s
    # a 0 x 0 component of f at the top vertex (1: zero at 1 and 3/2)
    # verifies in memory and after a round trip, where it reads as zero
    I = interval_module((0,), (1,))
    c = identity_certificate(I, Fraction(1, 2))
    assert c.grid.coord((3,)) == (1,)
    f = dict(c.f)
    f[(3,)] = field.zeros(0, 0)
    c = InterleavingCertificate(I, I, c.eps, c.grid, f, c.g, c.g_grid)
    assert c.is_valid()
    s = io.dumps(c)
    assert [3] not in [e["vertex"] for e in json.loads(s)["f"]]
    c2 = io.loads(s)
    assert c2.is_valid() and io.dumps(c2) == s


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


def test_cli_decompose_on_one_coordinate_axes(tmp_path):
    M = GridModule(Grid([[0], [0, 1]]), np.array([[2, 2]]),
                   {((0, 0), 1): np.eye(2, dtype=np.int64)})
    path = tmp_path / "k2.json"
    path.write_text(io.dumps(M))
    r = _run(["decompose", str(path)])
    assert r.returncode == 0, r.stderr
    assert len(json.loads(r.stdout)["summands"]) == 2


def test_cli_decompose_of_k5_over_f2_is_five_points(tmp_path):
    # End of k^5 at one vertex is M_5(F_2), of dimension 25 > p = 2: the
    # radical comes from the trace functions
    M = GridModule(Grid([[0], [0]]), np.array([[5]]), {}, 2)
    path = tmp_path / "k5.json"
    path.write_text(io.dumps(M))
    r = _run(["decompose", str(path)])
    assert r.returncode == 0, r.stderr
    parts = json.loads(r.stdout)["summands"]
    assert [io.module_from_obj(X).dims.tolist() for X in parts] == [[[1]]] * 5


def test_cli_decompose_does_not_report_internal_errors_as_exit_3(
        files, monkeypatch):
    import gridpersist.cli as cli

    def broken(M, seed=0):
        raise ValueError("split witness is not an isomorphism")

    monkeypatch.setattr(cli, "decompose", broken)
    with pytest.raises(ValueError, match="not an isomorphism"):
        main(["decompose", str(files["a"])])


def test_cli_tack_and_approx_indec_do_not_report_internal_faults_as_exit_3(
        files, monkeypatch, capsys):
    # a failed stage certificate inside the fold is a fault of the library,
    # not of the input, although CertificateError is a ValueError
    import gridpersist.construct as construct

    def broken(*args, **kwargs):
        raise CertificateError("antenna certificate fails at (0, 0)")

    monkeypatch.setattr(construct, "add_antenna", broken)
    for argv in (["tack", str(files["a"]), str(files["b"]), "--delta", "1"],
                 ["approx-indec", str(files["module"]), "--eps", "1/2"]):
        with pytest.raises(CertificateError, match="antenna"):
            main(argv)
        assert "precondition-violation" not in capsys.readouterr().err


def test_cli_reports_a_failed_self_check_as_exit_1(files, monkeypatch,
                                                   capsys):
    # every RuntimeError of the library is a failed self-check: one JSON
    # diagnostic and exit 1, never a traceback
    import gridpersist.construct as construct
    monkeypatch.setattr(construct, "is_indecomposable", lambda M: False)
    assert main(["approx-indec", str(files["module"]), "--eps", "1/2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "verification-failure"
    assert "indecomposability" in diag["message"]


def _malformed(code, err):
    """Exit 2 with a malformed-input JSON diagnostic as the last line."""
    assert code == 2 and "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == \
        "malformed-input"


def test_cli_seeds_outside_the_generator_range_are_malformed_input(
        capsys, monkeypatch, tmp_path):
    # random_module(2, 3, 2, seed=4) has three summands, so every command
    # below draws random idempotents
    path = str(tmp_path / "m.json")
    io.save(random_module(2, 3, 2, seed=4), path)
    for argv in (["decompose", path], ["approx-indec", path, "--eps", "1/2"],
                 ["match", path, path, "--eps", "1/2"]):
        for seed in ("-1", str(2 ** 32), "abc"):
            _malformed(main(argv + ["--seed", seed]), capsys.readouterr().err)
        monkeypatch.setenv("PF_SEED", "abc")
        _malformed(main(argv), capsys.readouterr().err)
        monkeypatch.delenv("PF_SEED")
    assert main(["decompose", path, "--seed", str(2 ** 32 - 1)]) == 0
    assert len(json.loads(capsys.readouterr().out)["summands"]) == 3


@pytest.mark.parametrize("argv", [
    ["approx-indec", "{module}"], ["certify"], ["nope", "{module}"],
    ["decompose", "{module}", "--nope"], []], ids=[
        "no-eps", "no-certificate", "unknown-command", "unknown-option",
        "no-command"])
def test_cli_usage_errors_are_malformed_input(argv, files, capsys):
    # a missing --eps or operand, an unknown subcommand or option
    argv = [a.format(module=files["module"]) for a in argv]
    _malformed(main(argv), capsys.readouterr().err)
    res = _run(argv)
    _malformed(res.returncode, res.stderr)
    assert res.stdout == "" and "usage:" not in res.stderr


def test_cli_help_still_exits_0(capsys):
    for argv in (["--help"], ["decompose", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "certify"])
def test_cli_deeply_nested_json_is_malformed_input(command, capsys,
                                                   tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    _malformed(main([command, str(path)]), capsys.readouterr().err)


def test_loader_refuses_dims_of_another_shape(capsys, tmp_path):
    # on a 2 x 3 grid, the transposed 3 x 2 dims and the flat list of six
    # would both be read in C order as another layout that validates
    M = GridModule(Grid([[0, 1], [0, 1, 2]]), np.array([[0, 1, 0], [0, 0, 0]]),
                   {})
    obj = io.module_to_obj(M)
    assert io.dumps(io.module_from_obj(obj)) == io.dumps(M)
    for dims in (M.dims.T.tolist(), M.dims.ravel().tolist()):
        bad = dict(obj, dims=dims)
        with pytest.raises(ValueError, match="shape"):
            io.module_from_obj(bad)
        _malformed(*_cli(capsys, tmp_path, "validate", bad))


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


def _tack_inputs(case):
    A = interval_module((0, 0), (2, 2))
    if case == "random":
        return random_module(2, 3, 2, seed=3), A
    B = interval_module((3, 3), (5, 5))
    S, _, _ = direct_sum(*common_refinement(A, B)[:2])
    return S, A


@pytest.mark.parametrize("case", ["random", "two-intervals"])
def test_cli_tack_rejects_decomposable_input(case, capsys, tmp_path):
    paths = []
    for i, M in enumerate(_tack_inputs(case)):
        paths.append(str(tmp_path / f"{i}.json"))
        io.save(M, paths[-1])
    for a, b in (paths, paths[::-1]):
        assert main(["tack", a, b, "--delta", "1"]) == 3
        assert "indecomposable" in capsys.readouterr().err


def _tack_precondition_inputs(case):
    A = interval_module((0, 0), (2, 2))
    if case == "different-p":
        return A, interval_module((0, 0), (2, 2), p=65519)
    if case == "different-n":
        return A, interval_module((0, 0, 0), (2, 2, 2))
    # one vertex at the origin: no grid pitch to scale the fold by
    point = GridModule(Grid([[0], [0]]), np.array([[1]]), {})
    return point, point


@pytest.mark.parametrize("case", ["different-p", "different-n", "no-pitch"])
def test_cli_tack_precondition_violation_is_exit_3(case, capsys, tmp_path):
    paths = []
    for i, M in enumerate(_tack_precondition_inputs(case)):
        paths.append(str(tmp_path / f"{i}.json"))
        io.save(M, paths[-1])
    assert main(["tack", *paths, "--delta", "1"]) == 3
    assert "precondition-violation" in capsys.readouterr().err


def _match_inputs(case):
    A = interval_module((0, 0), (2, 2))
    if case == "negative-eps":
        return A, A, "-1/2"
    if case == "different-n":
        return A, interval_module((0, 0, 0), (2, 2, 2)), "1/2"
    return A, interval_module((0, 0), (2, 2), p=65519), "1/2"


@pytest.mark.parametrize("case", ["negative-eps", "different-n",
                                  "different-p"])
def test_cli_match_precondition_violation_is_exit_3(case, capsys, tmp_path):
    A, B, eps = _match_inputs(case)
    io.save(A, tmp_path / "a.json")
    io.save(B, tmp_path / "b.json")
    assert main(["match", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 f"--eps={eps}"]) == 3
    assert "precondition-violation" in capsys.readouterr().err


# -- fail-closed loading of entries and vertices ----------------------------


def _cli(capsys, tmp_path, command, obj, *extra):
    """Run a subcommand in-process on obj saved as JSON: (exit code,
    stderr).  An exception escaping main fails the calling test."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code = main([command, str(path), *extra])
    return code, capsys.readouterr().err


def _cert_obj():
    return io.certificate_to_obj(identity_certificate(module_G(),
                                                      Fraction(1, 2)))


def _first_nonzero(entries):
    return next(e for e in entries if any(any(r) for r in e["matrix"]))


@pytest.mark.parametrize("entry", [0.5, True])
def test_loader_rejects_non_integer_module_entries(entry, capsys, tmp_path):
    obj = io.module_to_obj(module_G())
    step = _first_nonzero(obj["steps"])
    if entry is True:
        step["matrix"] = [[True if x == 1 else x for x in r]
                          for r in step["matrix"]]
        assert any(True in r for r in step["matrix"])
    else:
        step["matrix"][0][0] += entry
    with pytest.raises(ValueError, match="integers"):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "decompose", obj)
    assert code == 2 and "malformed-input" in err


def test_loader_rejects_non_integer_morphism_entries():
    obj = _identity_of_G()
    _first_nonzero(obj["components"])["matrix"][0][0] = 1.0
    with pytest.raises(ValueError, match="integers"):
        io.from_obj(obj)


def test_loader_rejects_non_integer_certificate_entries(capsys, tmp_path):
    obj = _cert_obj()
    _first_nonzero(obj["f"])["matrix"][0][0] = 1.5
    with pytest.raises(ValueError, match="integers"):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "certify", obj)
    assert code == 2 and "malformed-input" in err


@pytest.mark.parametrize("sign", [1, -1])
def test_loader_rejects_module_entries_out_of_range(sign, capsys, tmp_path):
    # x + p and x - p would stand for x mod p: the step still commutes
    obj = io.module_to_obj(module_G())
    _first_nonzero(obj["steps"])["matrix"][0][0] += sign * obj["p"]
    with pytest.raises(ValueError, match=r"out of \[0, p\)"):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "decompose", obj)
    assert code == 2 and "malformed-input" in err


def test_loader_rejects_certificate_entries_out_of_range(capsys, tmp_path):
    obj = _cert_obj()
    _first_nonzero(obj["f"])["matrix"][0][0] -= obj["m_module"]["p"]
    with pytest.raises(ValueError, match=r"out of \[0, p\)"):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "certify", obj)
    assert code == 2 and "malformed-input" in err


@pytest.mark.parametrize("case", ["string", "fraction", "outside", "negative",
                                  "too-short", "too-long", "duplicate"])
def test_cli_certify_rejects_bad_component_vertex(case, capsys, tmp_path):
    obj = _cert_obj()
    shape = [len(ax) for ax in obj["grid"]]
    entry = obj["f"][0]
    entry["vertex"] = {"string": ["a", 0], "fraction": [0.5, 0],
                       "outside": [shape[0], 0], "negative": [-1, 0],
                       "too-short": [0], "too-long": [0, 0, 0],
                       "duplicate": obj["f"][1]["vertex"]}[case]
    with pytest.raises(ValueError):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "certify", obj)
    assert code == 2 and "malformed-input" in err


def test_loader_rejects_morphism_vertex_outside_source_grid():
    obj = _identity_of_G()
    obj["components"][0]["vertex"] = [len(obj["source"]["axes"][0]), 0]
    with pytest.raises(ValueError, match="outside"):
        io.from_obj(obj)


def test_cli_refuses_grids_without_axes(tmp_path):
    flat = {"type": "module", "p": 5, "axes": [], "dims": 1, "steps": []}
    module = tmp_path / "flat.json"
    module.write_text(json.dumps(flat))
    cert = tmp_path / "flat_cert.json"
    cert.write_text(json.dumps({"type": "certificate", "eps": "0/1",
                                "m_module": flat, "n_module": flat,
                                "grid": [], "f": [], "g": []}))
    m = str(module)
    for argv in (["validate", m], ["decompose", m],
                 ["match", m, m, "--eps", "1"], ["certify", str(cert)],
                 ["tack", m, m, "--delta", "1"],
                 ["approx-indec", m, "--eps", "1/2"]):
        r = _run(argv)
        assert r.returncode == 2, argv
        assert "malformed-input" in r.stderr and "Traceback" not in r.stderr


def test_loader_rejects_duplicate_module_step(capsys, tmp_path):
    obj = io.module_to_obj(module_G())
    obj["steps"].append(dict(obj["steps"][0]))
    with pytest.raises(ValueError, match="duplicate"):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "decompose", obj)
    assert code == 2 and "malformed-input" in err


def test_zero_denominator_is_malformed_input(capsys, tmp_path):
    with pytest.raises(ValueError, match="zero denominator"):
        io.parse_frac("1/0")
    obj = io.module_to_obj(module_G())
    obj["axes"][0][1] = "1/0"
    code, err = _cli(capsys, tmp_path, "decompose", obj)
    assert code == 2 and "malformed-input" in err


@pytest.mark.parametrize("value", ["0.5", "1e-3"])
def test_cli_rationals_are_num_den_or_integers(value, capsys, tmp_path):
    io.save(module_G(), tmp_path / "a.json")
    a = str(tmp_path / "a.json")
    for argv in (["match", a, a, "--eps", value],
                 ["tack", a, a, "--delta", value]):
        assert main(argv) == 2, argv
        assert "malformed-input" in capsys.readouterr().err


def test_cli_refuses_a_huge_exponent_without_computing_it():
    # Fraction("1e-10000000") would compute 10**10000000 in full
    t = time.perf_counter()
    with pytest.raises(CliError):
        _parse_frac("1e-10000000")
    assert time.perf_counter() - t < 1


def test_loader_refuses_huge_dimensions_before_allocating(capsys, tmp_path):
    # one vertex of dimension 10**9 needs no step, but its D x D blocks
    # would take 16 EB
    obj = {"type": "module", "p": 65521, "axes": [["0"], ["0"]],
           "dims": [[10 ** 9]], "steps": []}
    with pytest.raises(ValueError, match="limit"):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "decompose", obj)
    assert code == 2 and "malformed-input" in err


def test_loader_refuses_huge_evaluation_grids_before_verifying(capsys,
                                                                tmp_path):
    # two axes of 5000 coordinates take about 90 kB of JSON; verify would
    # build its tables over all 25 million vertices
    obj = _cert_obj()
    axis = [f"{i}/2" for i in range(-10, 4990)]
    obj["grid"] = [axis, list(axis)]
    with pytest.raises(ValueError, match="limit"):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "certify", obj)
    assert code == 2 and "malformed-input" in err


def _approx_proof(capsys, tmp_path):
    """The certificate object of `approx-indec --emit-proof` on
    random_module(2, 3, 2, seed=1) at eps 1/2."""
    path = tmp_path / "m.json"
    io.save(random_module(2, 3, 2, seed=1), path)
    assert main(["approx-indec", str(path), "--eps", "1/2",
                 "--emit-proof"]) == 0
    return json.loads(capsys.readouterr().out)["certificate"]


def test_certify_reads_the_one_grid_layout(capsys, tmp_path):
    # a proof in the layout without "g_grid": f and g on one grid, both
    # modules' coordinates shifted by 0, -eps and -2 eps
    obj = _approx_proof(capsys, tmp_path)
    c = io.from_obj(obj)
    wide = io.certificate_to_obj(O.widened(c))
    assert wide.pop("g_grid") == wide["grid"]
    assert [len(a) for a in wide["grid"]] == \
        list(O.one_grid(c.m_module, c.n_module, c.eps).shape)
    old = io.from_obj(wide)
    assert old.g_grid is old.grid and old.verify()
    assert _cli(capsys, tmp_path, "certify", wide)[0] == 0
    entry = _first_nonzero(wide["f"])
    entry["matrix"][0][0] = (entry["matrix"][0][0] + 1) % wide["m_module"]["p"]
    code, err = _cli(capsys, tmp_path, "certify", wide)
    assert code == 1 and "verification-failure" in err


def test_certify_refuses_a_g_grid_without_a_coordinate_of_n(capsys,
                                                            tmp_path):
    obj = _approx_proof(capsys, tmp_path)
    assert _cli(capsys, tmp_path, "certify", obj)[0] == 0
    # drop one of N's coordinates from g's grid, and the components there
    k = obj["g_grid"][0].index(obj["n_module"]["axes"][0][-1])
    del obj["g_grid"][0][k]
    obj["g"] = [dict(e, vertex=[e["vertex"][0] - (e["vertex"][0] > k)]
                     + e["vertex"][1:])
                for e in obj["g"] if e["vertex"][0] != k]
    code, err = _cli(capsys, tmp_path, "certify", obj)
    assert code == 1 and "too coarse" in err


def test_loader_refuses_a_huge_g_grid(capsys, tmp_path):
    obj = _cert_obj()
    axis = [f"{i}/2" for i in range(-10, 4990)]
    obj["g_grid"] = [axis, list(axis)]
    with pytest.raises(ValueError, match="limit"):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "certify", obj)
    assert code == 2 and "malformed-input" in err


def test_loader_rejects_non_natural_morphism(capsys, tmp_path):
    obj = _identity_of_G()
    io.from_obj(obj).validate()
    # twice the identity at one vertex breaks the squares around it
    entry = _first_nonzero(obj["components"])
    entry["matrix"] = [[2 * x for x in row] for row in entry["matrix"]]
    with pytest.raises(ValueError, match="naturality"):
        io.from_obj(obj)
    code, err = _cli(capsys, tmp_path, "validate", obj)
    assert code == 2 and "naturality" in err


# -- byte-stable output ------------------------------------------------------

# sha256 of the stdout of `approx-indec <m> --eps 1/2 --seed 0 --emit-proof`,
# of `decompose <m> --seed 0 --emit-proof` and of `approx-indec <m> --eps 1/2
# --seed 0` (the module alone); a change to these digests is a change to
# the CLI's output for a fixed seed.  The summands' bases follow the
# idempotents decompose finds, so a new splitting strategy changes the
# digests but none of STABLE_SHAPE below.  A new certificate layout
# changes only the first.
STABLE_OUTPUT = {
    "on-integers": (
        lambda: random_module(2, 3, 2, seed=0),
        "bd52d41ceaed9f7b37bb0d93f0c33679862ddfe9deafcb5bbd75e667cf63fb21",
        "a09c5adff3fe3d9fa32205a4bff5e782be70f918b23ec6c6afaa0e03297e57ae",
        "f3e90ed28e003b0fb0c85a0010e2b0ff45bf71515e433255f7aff5f215c0f329"),
    "off-lattice": (
        lambda: shift(random_module(2, 3, 2, seed=10), Fraction(-1, 7)),
        "bf2583e7866169225aba8b0157806622407ffdf193457601ab15f9eaa411b6de",
        "66f7bad0be42f3ccc10fba6e5cec088611e9b26800df4feee1e04f926a1d8f20",
        "52436d88827c148fcff2de4ff5d28362a73f04f25e75148b28c51b4ca4abaea6"),
    "negative": (
        lambda: shift(random_module(2, 3, 2, seed=21), Fraction(5, 3)),
        "c0ab2e5cde22cf053b0ed18c9fd9ba67bae1b61baddb405f42c0da8b71d66895",
        "88577f00a952d77e64a65c2cea243ebb83211b4787ea2e997755b977e2b2ab90",
        "e867d6fc2cd7e095e16474f644601e0c7523f8bcc9e99f655966131824bdc320"),
}

# what the outputs above must keep under any valid choice of idempotents:
# the summand count, sha256 of the JSON of the summands' sorted dims
# arrays, sha256 of the JSON of the approximation's dims array, and its
# certificate eps
STABLE_SHAPE = {
    "on-integers": (
        4, "b1ac1dfd04507d9bcf697cb816b80adbb86814068aed13cce2c0ba570cd431c4",
        "9e1014a911c31b6997f7dfc7caa073ee5ee7e8022b322d0389babf75efeb1b63"),
    "off-lattice": (
        5, "12b8cf2e30ea528400d1b84689082e58bd70bb5d34589329c70cd43fd7e3073c",
        "484bb4af9a428b1033fa45990b92395d93417f37e2acdee698b8de9efeacdbfb"),
    "negative": (
        5, "cb5adf993260a89a37ff6dc171d1d75715625a74203087c274239a3d2a013788",
        "0fe455e0a1d4ee4a3a483b583933a96a3e22317f5565e300d3f1aa72a17fdb14"),
}


def _json_sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(STABLE_OUTPUT))
def test_cli_proof_output_is_byte_stable(case, capsys, tmp_path):
    build, approx_sha, decompose_sha, module_sha = STABLE_OUTPUT[case]
    path = tmp_path / "m.json"
    io.save(build(), path)
    assert main(["approx-indec", str(path), "--eps", "1/2", "--seed", "0"]) \
        == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
        == module_sha
    outs = {}
    for argv in (["approx-indec", str(path), "--eps", "1/2"],
                 ["decompose", str(path)]):
        runs = []
        for _ in range(2):
            assert main(argv + ["--seed", "0", "--emit-proof"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], argv[0]
        outs[argv[0]] = runs[0]
    approx, dec = (json.loads(outs[c]) for c in ("approx-indec", "decompose"))
    k, summand_dims_sha, approx_dims_sha = STABLE_SHAPE[case]
    assert len(dec["summands"]) == k
    assert _json_sha(sorted(X["dims"] for X in dec["summands"])) \
        == summand_dims_sha
    assert _json_sha(approx["module"]["dims"]) == approx_dims_sha
    assert approx["certificate_eps"] == "9/20"
    for cmd, want in (("approx-indec", approx_sha),
                      ("decompose", decompose_sha)):
        assert hashlib.sha256(outs[cmd].encode()).hexdigest() == want, cmd


def _squares(side, *corners):
    """The direct sum of the side x side squares with the given lower
    corners, on the union of their grids."""
    mods = [interval_module(c, (c[0] + side, c[1] + side)) for c in corners]
    g = union_grid(*(X.grid for X in mods))
    return direct_sum(*(restriction_extension(X, g) for X in mods))[0]


# sha256 of the stdout of `match <a> <b> --eps <eps> --seed 0 --emit-proof`
# on inputs whose summands have several perfect matchings at that eps, so
# the digest pins which one the matcher picks as well as the pair and
# assembled certificates
STABLE_MATCH = {
    "four-squares": (
        lambda: (_squares(2, (0, 0), (0, 0), (3, 3), (0, 0)),
                 random_basis_change(
                     _squares(2, (3, 3), (0, 0), (0, 0), (0, 0)), 5)),
        "1/10",
        "94ea5b99067b60393de88037d11b56aa8ab7864115d7baee5445c0edbbe1bd49"),
    "three-vs-two": (
        lambda: (_squares(1, (0, 0), (3, 3), (6, 6)),
                 _squares(1, (0, 0), (3, 3))),
        "1",
        "f0cf7b65c0f82798000ed58528990e115d21eeb3c7e3da663347deedf436202b"),
    "basis-change": (
        lambda: (random_module(2, 3, 2, seed=2),
                 random_basis_change(random_module(2, 3, 2, seed=2), 3)),
        "1/2",
        "0d6356c9890cf87a6d5878a5c0c1d3ad19f8c0ae4ca22bcd090451b9399bc4c5"),
}


@pytest.mark.parametrize("case", sorted(STABLE_MATCH))
def test_cli_match_proof_output_is_byte_stable(case, capsys, tmp_path):
    build, eps, want = STABLE_MATCH[case]
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    for M, path in zip(build(), paths):
        io.save(M, path)
    assert main(["match", *paths, "--eps", eps, "--seed", "0",
                 "--emit-proof"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "matched"
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_matrix_reader_shares_equal_matrices_and_refuses_bools():
    read = io._matrix_reader(65521)
    a = read([[1, 2], [3, 4]])
    assert read([[1, 2], [3, 4]]) is a
    assert read([[1]]) is read([[1]]) is not read([[1, 0]])
    # True == 1 and False == 0, so a cache keyed by equal values would
    # hand back the integer matrices read before
    for rows in ([[True]], [[1, False]], [[False, 0], [0, 1]]):
        with pytest.raises(ValueError, match="integers"):
            read(rows)
    read([[0, 0], [0, 1]])
    with pytest.raises(ValueError, match="integers"):
        read([[False, 0], [0, 1]])


def test_loader_refuses_a_bool_step_equal_to_an_int_step():
    M = GridModule(Grid([[Fraction(0), Fraction(1), Fraction(2)]]),
                   np.array([1, 1, 1]), {((0,), 0): np.array([[1]]),
                                         ((1,), 0): np.array([[1]])})
    obj = io.module_to_obj(M)
    assert io.module_from_obj(json.loads(json.dumps(obj))).validate()
    obj["steps"][1]["matrix"] = [[True]]
    with pytest.raises(ValueError, match="integers"):
        io.module_from_obj(json.loads(json.dumps(obj)))
