"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

# metrics of the report that only some workloads have
REPORT_ONLY = {"approx": {"out_total_dim", "out_grid_vertices",
                          "cert_eps_ratio_max"},
               "openness": {"cert_eps_ratio_max"},
               "decompose": set(),
               "certify": {"proof_bytes_mean"}}


def test_declared_metrics_match_the_runner():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.per_layer_units()


@pytest.mark.parametrize("name", NAMES)
def test_tiny_untraced_run(name):
    result, report = run.run_workload(name, seed=0, seconds=0.01, trace=False,
                                      tiny=True, quiet=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert report["failed_ratio"]["value"] == 0
    want = ({"throughput_ops_per_s", "op_s_p50", "op_s_p90", "failed_ratio"}
            | {m["name"] for m in SPEC["end_to_end"]} | REPORT_ONLY[name])
    assert want <= set(report)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run(name):
    result, summaries = run.run_workload(name, seed=0, seconds=0.01,
                                         trace=True, tiny=True, quiet=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = summaries["ops"]["layers"]
    construct_s = layers["construct"]["s"]
    assert (construct_s > 0) == (name == "approx")
    if name == "decompose":
        assert layers["interleave"]["s"] == 0
    if name == "certify":
        assert summaries["setup"]["layers"]["construct"]["s"] > 0


def test_tampered_proof_is_rejected(tmp_path):
    w = workloads.Certify()
    state = w.setup(0, True, str(tmp_path))
    proof = state["proofs"][0]
    assert workloads._run_cli(["certify", proof["path"]])[0] == 0
    assert workloads._run_cli(["certify", proof["tampered"]])[0] == 1
