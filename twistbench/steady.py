"""Steadiness self-check: two sets of runs of one commit, against the bounds.

    python3 twistbench/steady.py

Runs the BENCHMARK.json command RUNS times per workload in each of SETS
sets, every run with its own seed (set k uses seeds k*RUNS+1 .. (k+1)*RUNS)
and BENCHMARK.json's run_seconds. Per set, workload and end-to-end metric
it reports the median and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median. A
metric passes when every set's spread stays within its bound and each
later set's median differs from the first set's by at most the bound, in
either direction; spreads above a third of the bound are flagged as thin
margin. Exits 1 on a failed job, a wrong answer or a metric that does
not pass.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {}  # (set, workload, metric) -> list
    durations = []
    ok = True
    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in workloads:
                out, elapsed = run_once(bench["command"], w, seed,
                                        bench["run_seconds"])
                durations.append(elapsed)
                if not out["correct"] or out["failed"]:
                    print(f"WRONG ANSWER: {w} seed {seed}: {out}")
                    ok = False
                for name, m in out["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                print(f"set {s} seed {seed} {w} ({elapsed:.1f} s): "
                      + ", ".join(f"{k}={v['value']:.4g}"
                                  for k, v in out["metrics"].items()),
                      flush=True)

    rows = []
    for w in workloads:
        for name, m in metrics.items():
            bound = m["bound"]
            first = None
            for s in range(SETS):
                med, spr = spread(values[(s, w, name)])
                verdict = "ok"
                if spr > bound:
                    verdict, ok = "SPREAD>BOUND", False
                elif spr > bound / 3:
                    verdict = "thin-margin"
                drift = 0.0 if first is None else (med - first) / first
                if abs(drift) > bound:
                    verdict, ok = f"DRIFT {drift:+.3f}>BOUND", False
                first = med if first is None else first
                rows.append({"workload": w, "metric": name, "set": s,
                             "median": med, "spread": spr, "drift": drift,
                             "bound": bound, "verdict": verdict})
                print(f"{w:16s} {name:12s} set {s}: median {med:.4f} "
                      f"spread {spr:.3f} drift {drift:+.3f} (bound {bound}, "
                      f"target {bound / 3:.3f}) {verdict}")
    out_dir = ROOT / "twistbench" / "out"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out_dir / f"steady-{stamp}.json").write_text(json.dumps(
        {"runs": RUNS, "sets": SETS, "seconds": bench["run_seconds"],
         "rows": rows, "run_lengths_s": durations,
         "values": {"|".join(map(str, k)): v for k, v in values.items()}},
        indent=1))
    print(f"run length: median {statistics.median(durations):.1f} s, "
          f"max {max(durations):.1f} s")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
