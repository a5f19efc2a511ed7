"""Run every workload at seeds 1-10 and summarise each end-to-end metric.

    python3 bench/sweep.py
    python3 bench/sweep.py --record bench/history/NAME.json

Workloads and run length come from BENCHMARK.json. For every workload
and seed, bench/run.py runs in a fresh process, one run at a time, then
once traced at seed 1. Per metric the sweep prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound. ``--record`` writes every
run, the summary and the environment to one perf-history file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", type=Path, help="perf-history file to write")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    history = {"command": spec["command"], "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, env = run_once(workload, seed, seconds, 0)
            history.setdefault("env", env)
            runs.append({"seed": seed, **result})
            ok &= result["correct"]
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
        summary = {
            name: summarise([r["metrics"][name]["value"] for r in runs], bound)
            for name, bound in bounds.items()
        }
        for name, s in summary.items():
            print(f"  {workload} {name}: median {s['median']:.4g} IQR [{s['q1']:.4g}, {s['q3']:.4g}]"
                  f" spread {s['spread']:.3f} (bound {s['bound']}, third {s['bound'] / 3:.3f})")
        traced, _ = run_once(workload, TRACE_SEED, seconds, 1)
        ok &= traced["correct"]
        print(f"  {workload} traced run seed {TRACE_SEED}: correct={traced['correct']}")
        history["workloads"][workload] = {
            "runs": runs, "summary": summary, "traced": {"seed": TRACE_SEED, **traced}}
    if args.record is not None:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
