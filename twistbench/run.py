"""twistlab benchmark: one closed-loop caller, one thread, answer-checked jobs.

    python3 twistbench/run.py --workload bar-Q --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; twistlab is imported from ``src/``.
The seeded choices are drawn once, untimed. Set-up (import plus building
the program's inputs from those choices) is repeated SETUP_REPS times and
its median reported. Then the workload's fixed job list runs pass after pass
until ``--seconds`` is used up (at least MIN_PASSES passes), each job's
answer checked after its timer stops. ``wall_s`` is the sum over jobs of
the median job time: the time to finish the job list once.

Times are reported in nominal seconds: on a shared machine the speed of
this process drifts by up to 2x within seconds, so a timer samples the
machine's speed throughout the run (speed.py) and each interval is
converted at the speed measured during it. Raw seconds are kept in the
run record.

With ``--trace 1`` one untimed warm-up pass is followed by alternating
untraced and traced passes; the traced ones record spans around the calls
into each module (see tracer.py) and give the per-layer metrics, the
untraced ones the baseline for ``tracing_overhead_s``. The last stdout
line is the JSON result; a record of inputs, per-job times and environment
goes to ``twistbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speed import Speedometer
from tracer import Tracer, layer_times
from workloads import WHY, WORKLOADS, Mismatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 7
MIN_PASSES = 3
HARD_LIMIT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# "<span>.s" is inclusive time, "<span>.self_s" excludes child spans, other
# names are counts from tracer.OBSERVERS or "<span>.calls"
PER_LAYER = [
    "hh_bar.self_s", "bar_coboundary_columns.s", "bar.cochain_dim_max",
    "bar.nnz", "hh_rsz.self_s", "rsz_layer.s", "hh_e_complex.self_s",
    "rsz.cochain_dim_sum", "sparse_rank.s", "sparse_rank.calls",
    "sparse_rank.nnz_in", "sparse_rank.rank_sum", "sparse_compose_zero.s",
    "Matrix.rank.s", "Matrix.kernel_basis.s", "Matrix.mul.s",
    "parallel_pairs.s", "enumerate_twisting_maps.s", "candidates", "found",
    "hit_ratio", "twisted_product.s", "jacobson_radical.s", "center.s",
    "is_separable.s", "change_of_basis.s", "classify_4dim.s",
    "classify_4dim.calls", "unknown", "orbit_report.self_s", "verify_pair.s",
    "build_duplicate.s", "main.self_s", "tracing_overhead_s",
]


def unit_of(metric):
    if metric.endswith(("_s", ".s")):
        return "s"
    return "ratio" if metric == "hit_ratio" else "count"


def set_up(make, plan, scratch, speed):
    """Import twistlab afresh and build the inputs from the plan."""
    for name in [m for m in sys.modules if m.split(".")[0] == "twistlab"]:
        del sys.modules[name]
    start = time.perf_counter()
    tl = importlib.import_module("twistlab")
    importlib.import_module("twistlab.cli")
    jobs = make(tl, plan, scratch)
    end = time.perf_counter()
    return (end - start, speed.nominal(start, end)), jobs


def run_pass(jobs, speed, tracer=None):
    """Run every job once. Returns raw and nominal seconds per job and the
    pass's raw and nominal length, plus failure records."""
    raw, scaled, failures = {}, {}, []
    pass_start = time.perf_counter()
    for job in jobs:
        start = time.perf_counter()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.root(f"job:{job.name}"):
                    out = job.run()
        except Exception:  # a job that raises is a failed job; keep going
            out = None
            failures.append({"job": job.name, "error": traceback.format_exc()})
        end = time.perf_counter()
        raw[job.name] = end - start
        scaled[job.name] = speed.nominal(start, end)
        if out is None:
            continue
        if tracer is not None:
            tracer.paused = True
        try:
            job.check(out)
        except Mismatch as exc:
            failures.append({"job": job.name, "wrong": str(exc)})
        except Exception:  # malformed output counts as a wrong answer
            failures.append({"job": job.name, "error": traceback.format_exc()})
        finally:
            if tracer is not None:
                tracer.paused = False
    pass_end = time.perf_counter()
    return {"raw": raw, "scaled": scaled,
            "pass_raw_s": pass_end - pass_start,
            "pass_scaled_s": speed.nominal(pass_start, pass_end)}, failures


def job_list_seconds(passes, key="scaled"):
    """Sum over jobs of the median time across the given passes."""
    names = passes[0][key].keys()
    return sum(statistics.median(p[key][name] for p in passes)
               for name in names)


def layer_metrics(tracer, record):
    """Per-layer values of one traced pass, times converted at the pass's
    mean speed."""
    factor = record["pass_scaled_s"] / record["pass_raw_s"]
    inclusive, self_time = layer_times(tracer.spans)
    out = {}
    for metric in PER_LAYER:
        if metric.endswith(".self_s"):
            out[metric] = factor * self_time.get(metric[: -len(".self_s")], 0.0)
        elif metric.endswith(".s"):
            out[metric] = factor * inclusive.get(metric[: -len(".s")], 0.0)
        elif metric not in ("hit_ratio", "tracing_overhead_s"):
            out[metric] = tracer.counts[metric]
    cand = out["candidates"]
    out["hit_ratio"] = out["found"] / cand if cand else 0.0
    return out


def measure(jobs, seconds, trace, speed):
    """Closed loop over passes until ``seconds`` is used up.

    Plain mode times every pass, at least MIN_PASSES of them; the median
    discounts the first pass, which pays for heap growth. Trace mode runs
    that first pass untimed, then alternates plain and traced passes, at
    least one of each.
    """
    tracer = Tracer() if trace else None
    plain, traced, warmups, layers, failures = [], [], [], [], []
    spans = None
    start = time.perf_counter()
    if trace:
        record, failures = run_pass(jobs, speed)
        warmups.append(record)
    while True:
        use_trace = trace and len(plain) > len(traced)
        history = (traced if use_trace else plain) or plain or warmups
        if history:
            estimate = statistics.median(sum(p["raw"].values())
                                         for p in history)
            finish = time.perf_counter() - start + estimate
            enough = bool(traced) if trace else len(plain) >= MIN_PASSES
            if (enough and finish > seconds) or finish > HARD_LIMIT_S:
                break
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                record, fails = run_pass(jobs, speed, tracer)
            finally:
                tracer.uninstall()
            traced.append(record)
            layers.append(layer_metrics(tracer, record))
            if spans is None:
                spans = tracer.spans
        else:
            record, fails = run_pass(jobs, speed)
            plain.append(record)
        failures.extend(fails)
    return {"plain": plain, "traced": traced, "warmups": warmups,
            "layers": layers, "failures": failures, "spans": spans,
            "missing": tracer.missing if tracer else []}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "twistlab" / "__init__.py").is_file():
        print(f"error: no twistlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the jobs run at the bar-complex budget users get by default
    budget_env = os.environ.pop("TWISTLAB_BUDGET", None)
    OUT_DIR.mkdir(exist_ok=True)
    draw, make = WORKLOADS[args.workload]
    info = draw(random.Random(args.seed))
    scratch = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
    try:
        with Speedometer() as speed:
            setups = []
            for _ in range(SETUP_REPS):
                seconds, jobs = set_up(make, info, scratch, speed)
                setups.append(seconds)
            for row in info.get("quivers", ()):
                print(f"quiver {row}", file=sys.stderr)
            result = measure(jobs, args.seconds, args.trace, speed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain, traced = result["plain"], result["traced"]
    passes = len(plain) + len(traced) + len(result["warmups"])
    attempted = len(jobs) * passes
    failed = len(result["failures"])
    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            if name == "tracing_overhead_s":
                value = job_list_seconds(traced) - job_list_seconds(plain)
            else:
                value = statistics.median(m[name] for m in result["layers"])
            metrics[name] = {"value": value, "unit": unit_of(name)}
    else:
        values = {
            "wall_s": job_list_seconds(plain),
            "setup_s": statistics.median(s for _, s in setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "why": WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "twistlab_budget_env_removed": budget_env,
        "inputs": info, "setup_raw_and_scaled_s": setups,
        "speed_samples": len(speed.costs),
        "speed_kernel_median_s": statistics.median(speed.costs),
        "raw_wall_s": job_list_seconds(plain, "raw") if plain else None,
        "warmup_passes": result["warmups"], "plain_passes": plain,
        "traced_passes": traced,
        "layers_per_traced_pass": result["layers"],
        "untraced_names": result["missing"],
        "failures": result["failures"], "jobs": len(jobs),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result["spans"] is not None:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for sid, parent, name, t0, t1, seq in result["spans"]:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "seq": seq}) + "\n")
    for fail in result["failures"]:
        print(f"FAILED {json.dumps(fail)}", file=sys.stderr)
    print(f"{args.workload}: {len(plain)}+{len(traced)} passes of {len(jobs)} "
          f"jobs, fail_ratio {failed}/{attempted}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
