"""gridpersist benchmark: one workload per process, one op at a time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from `src/` of the checkout that
holds this file, and the run fails (exit 2, no result) when it is missing.

The client is a closed loop: one process, one thread, one op in flight.  It
walks the workload's corpus in rounds, in a seed-drawn order, and stops at
the end of the first round that ends after S seconds, so every run times
the same mix of inputs.  Each op gets fresh input objects built outside the
timed window, and its output is checked outside that window too.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the library's
layers (see tracing.py), replays the ops of an untraced half-length pass
with tracing on, and prints the per-layer metrics and the tracing overhead.
Earlier stdout lines hold the machine facts, one `op` line per op with the
sizes that drive its cost, and a `report` of every metric with its unit; the
last line is the JSON result.  The exit code is 1 when an output check
failed, after the result is printed.

The speed of a shared host drifts by 20-50% over minutes, in pure Python
as much as here, so raw op seconds of runs made minutes apart do not agree.
Each op is therefore paired with a fixed calibration kernel that calls no
library code, run just before and just after it for about a tenth of the
op's time.  op_calib_p50 is the median over ops of the op's seconds divided
by the seconds of one kernel round beside it; op_calib_mean divides the sum
of op seconds by the sum of those kernel round seconds.  The raw op seconds
and throughput are in the report.

setup_s is the import time plus the median of three set-ups, each with one
untimed warm-up op, in reference seconds: measured seconds times
REFERENCE_ROUND_S over the median kernel round time measured around the
set-ups, so host drift cancels here too.  The measured seconds are in the
`setup` line.  Proof files of `certify` live in `.perfbench_work/`
of the checkout while the run lasts.
"""

from __future__ import annotations

import os

# the library computes in int64 numpy; keep BLAS pools from starting threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

T_START = perf_counter()

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 3
# seconds of one calibration kernel round on the host the bounds were set on
# (2-vCPU Intel Xeon, Python 3.11, numpy 2.4); setup_s is scaled to it
REFERENCE_ROUND_S = 0.0045

# wrapped function -> its counters, as reported by a traced run
TRACED_FUNCTIONS = {
    "field": {"mmul": ["ops"], "rref": ["ops"]},
    "core": {"hom_space": ["unknowns"], "validate": [], "direct_sum": [],
             "is_isomorphic": []},
    "kan": {"restriction_extension": ["out_vertices"], "prune": [],
            "compress": [], "snap_to_lattice": []},
    "interleave": {"verify": ["grid_vertices"], "snap_certificate": [],
                   "local_change_certificate": [], "pair_sum_certificates": [],
                   "compose_chain": []},
    "decomp": {"end_algebra": ["dim", "input_total_dim"],
               "decompose": ["summands"], "is_indecomposable": [],
               "find_idempotent": []},
    "construct": {"tack": ["out_grid_vertices", "out_total_dim"],
                  "add_thin_corner": [], "add_antenna": [], "move_antenna": [],
                  "tack_pair": [], "iso_certificate": []},
    "match": {"is_eps_indecomposable": []},
    "io": {"load": ["bytes"], "certificate_from_obj": [],
           "certificate_to_obj": []},
    "cli": {"approx-indec": [], "certify": []},
}
COUNTER_UNITS = {"ops": "computed-ops", "bytes": "bytes"}


def end_to_end_units():
    return {"setup_s": ("s", "lower"),
            "op_calib_p50": ("calib", "lower"),
            "op_calib_mean": ("calib", "lower"),
            "peak_rss_mb": ("MB", "lower")}


def per_layer_units():
    empty = {"spans": 0, "functions": {}, "counts": {},
             "layers": {layer: {"s": 0.0, "self_s": 0.0, "errors": 0}
                        for layer in TRACED_FUNCTIONS}}
    return {k: u for k, (_, u) in layer_metrics(empty, 1.0, 1.0).items()}


def import_library():
    """Import gridpersist from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import gridpersist
    except ImportError as exc:
        print(f"perfbench: cannot import gridpersist from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if not Path(gridpersist.__file__).resolve().is_relative_to(src):
        print(f"perfbench: gridpersist came from {gridpersist.__file__}, "
              f"not from {src}", file=sys.stderr)
        sys.exit(2)


def machine_facts():
    import networkx
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "networkx": networkx.__version__, "commit": commit,
            "client": "one process, one thread, closed loop, one op in flight"}


CALIBRATION_MATRIX = np.random.default_rng(0).integers(0, 65521, size=(6, 6))


def calibration_s(rounds):
    """Seconds per round of a fixed kernel that calls no library code.

    A round mixes the kinds of work the library's inner loops do: Fraction
    arithmetic, dicts keyed by tuples, and small int64 matrix products mod p.
    """
    a = CALIBRATION_MATRIX
    t = perf_counter()
    for _ in range(rounds):
        memo = {}
        acc = Fraction(0)
        for i in range(1000):
            c = (a @ a) % 65521
            memo[(i % 97, i % 89)] = c.tobytes()
            acc += Fraction(i % 13, 1 + i % 7)
    return (perf_counter() - t) / rounds


def run_ops(w, state, rng=None, seconds=None, specs=None, tracer=None):
    """Run ops in whole rounds until `seconds` pass, or replay `specs`.

    Returns one record per op: spec, timed seconds, calibration kernel
    seconds, ok, sizes.
    """
    records = []
    # kernel rounds on each side of an op: a twentieth of the last op's time
    rounds = 3

    def one(spec):
        nonlocal rounds
        inp = w.build(state, spec)
        calib = calibration_s(rounds)
        if tracer is not None:
            tracer.on = True
        t = perf_counter()
        try:
            out = w.op(state, inp)
        except Exception:       # the loop goes on; the op counts as failed
            traceback.print_exc()
            records.append({"spec": spec, "s": perf_counter() - t,
                            "calib_s": calib, "ok": False, "sizes": {}})
            return
        finally:
            if tracer is not None:
                tracer.on = False
        dt = perf_counter() - t
        # kernel seconds on either side of the op, for the machine's speed
        # while the op ran
        calib = (calib + calibration_s(rounds)) / 2
        rounds = min(40, max(3, round(dt / calib / 20)))
        try:
            ok, sizes = w.check(state, spec, inp, out)
        except Exception:
            traceback.print_exc()
            ok, sizes = False, {}
        records.append({"spec": spec, "s": dt, "calib_s": calib,
                        "ok": bool(ok), "sizes": sizes})

    if specs is not None:
        for spec in specs:
            one(spec)
        return records
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        items = list(w.items(state))
        for j in rng.permutation(len(items)):
            one(w.draw(state, items[j], rng))
    return records


def report_metrics(records, setup_s):
    times = [r["s"] for r in records]
    failed = sum(not r["ok"] for r in records)
    sizes = [r["sizes"] for r in records]
    calib = [r["calib_s"] for r in records]
    report = {
        "setup_s": (setup_s, "s"),
        "op_calib_p50": (statistics.median(r["s"] / r["calib_s"]
                                           for r in records), "calib"),
        "op_calib_mean": (sum(times) / sum(calib), "calib"),
        "calib_s_p50": (statistics.median(calib), "s"),
        "throughput_ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (statistics.quantiles(times, n=10)[-1]
                     if len(times) >= 100 else None, "s"),
        "failed_ratio": (failed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "ops": (len(records), "count"),
    }
    # sizes that only some workloads record: name, size key, combine, unit
    for name, key, combine, unit in (
            ("out_total_dim", "out_total_dim", statistics.fmean, "count"),
            ("out_grid_vertices", "out_grid_vertices", statistics.fmean,
             "count"),
            ("cert_eps_ratio_max", "cert_eps_ratio", max, "ratio"),
            ("proof_bytes_mean", "proof_bytes", statistics.fmean, "bytes")):
        vals = [s[key] for s in sizes if key in s]
        if vals:
            report[name] = (combine(vals), unit)
    return report, failed


def layer_metrics(summary, traced_s, untraced_s):
    """{name: (value, unit)} of every per-layer metric, from a trace summary
    of the timed ops and the op seconds of the traced and untraced passes."""
    funcs, counts = summary["functions"], summary["counts"]
    out = {}
    for layer, fns in TRACED_FUNCTIONS.items():
        for fn, counters in fns.items():
            name = f"{layer}.{fn}"
            got = funcs.get(name, {"calls": 0, "s": 0.0})
            out[name + ".calls"] = (got["calls"], "count")
            out[name + ".s"] = (got["s"], "s")
            for c in counters:
                out[f"{name}.{c}"] = (counts.get(f"{name}.{c}", 0),
                                      COUNTER_UNITS.get(c, "count"))
        if layer == "interleave":
            out["interleave.cert_grid_vertices"] = (
                counts.get("interleave.cert_grid_vertices", 0), "count")
        stats = summary["layers"][layer]
        out[layer + ".s"] = (stats["s"], "s")
        out[layer + ".self_s"] = (stats["self_s"], "s")
        out[layer + ".errors"] = (stats["errors"], "count")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    out["trace.traced_op_s"] = (traced_s, "s")
    out["trace.untraced_op_s"] = (untraced_s, "s")
    out["trace.spans"] = (summary["spans"], "count")
    return out


def emit(kind, obj):
    print(kind, json.dumps(obj, sort_keys=True, default=str))


def run_workload(name, seed, seconds, trace, tiny=False, quiet=False):
    """Run one workload.

    Returns the result object of the last stdout line, and beside it the
    full report (--trace 0) or the trace summaries of set-up and ops.
    `tiny` shrinks the corpus to one small input and sets up once.
    """
    import workloads
    from tracing import Tracer

    say = (lambda *a: None) if quiet else emit
    w = workloads.WORKLOADS[name]()
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    import_s = perf_counter() - T_START
    try:
        say("machine", machine_facts())
        # set up several times (each with one untimed warm-up op) and keep
        # the median, so that setup_s is steady; the kernel runs before and
        # after every set-up
        reps, calib = [], [calibration_s(10)]
        warm_rng = np.random.default_rng([seed, 2])
        for _ in range(1 if tiny or trace else SETUP_REPEATS):
            t = perf_counter()
            state = w.setup(seed, tiny, str(workdir))
            first = next(iter(w.items(state)))
            w.op(state, w.build(state, w.draw(state, first, warm_rng)))
            reps.append(perf_counter() - t)
            calib.append(calibration_s(10))
        setup_raw_s = import_s + statistics.median(reps)
        setup_s = setup_raw_s * REFERENCE_ROUND_S / statistics.median(calib)
        say("setup", {"import_s": import_s, "setup_reps_s": reps,
                      "calib_s": calib, "setup_raw_s": setup_raw_s})

        rng = np.random.default_rng([seed, 0])
        if not trace:
            records = run_ops(w, state, rng=rng, seconds=seconds)
            for r in records:
                say("op", r)
            report, failed = report_metrics(records, setup_s)
            report = {k: {"value": v, "unit": u}
                      for k, (v, u) in report.items()}
            say("report", report)
            metrics = {k: report[k] for k in end_to_end_units()}
            return {"correct": failed == 0, "attempted": len(records),
                    "failed": failed, "metrics": metrics}, report

        plain = run_ops(w, state, rng=rng, seconds=seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.on = True
            state = w.setup(seed, tiny, str(workdir))
            tracer.on = False
            setup_summary = tracer.summary()
            tracer.reset()
            traced = run_ops(w, state, specs=[r["spec"] for r in plain],
                             tracer=tracer)
            op_summary = tracer.summary()
        finally:
            tracer.uninstall()
        for r in plain + traced:
            say("op", r)
        say("trace-setup", setup_summary)
        say("trace-ops", op_summary)
        traced_s = sum(r["s"] for r in traced)
        say("trace-shares", {layer: stats["s"] / traced_s
                             for layer, stats in op_summary["layers"].items()})
        values = layer_metrics(op_summary, traced_s,
                               sum(r["s"] for r in plain))
        failed = sum(not r["ok"] for r in plain + traced)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        return {"correct": failed == 0, "attempted": len(plain) + len(traced),
                "failed": failed, "metrics": metrics}, \
            {"setup": setup_summary, "ops": op_summary}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("approx", "openness", "decompose", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_library()
    result, _ = run_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
