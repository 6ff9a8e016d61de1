"""Steadiness mode: repeat workloads over seeds, compare spreads with bounds.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]

Run i is a fresh ``run.py`` process with seed i and BENCHMARK.json's
``run_seconds``.  For every end-to-end metric it prints the median, the
quartiles and the quartile spread as a share of the median, next to the
metric's bound in BENCHMARK.json.  A spread within a third of the bound
is ``steady``; one over the bound is ``OVER BOUND`` and makes the exit
code 1.  The raw values go to .perfbench_out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed items")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    verdicts = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        start = time.perf_counter()
        for seed in range(1, args.runs + 1):
            metrics = run_once(workload, seed, seconds)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
        per_run = (time.perf_counter() - start) / args.runs
        (out / f"steady-{workload}.json").write_text(json.dumps(values, indent=1))
        print(f"== {workload}: {args.runs} runs, seeds 1..{args.runs}, {seconds} s each, "
              f"{per_run:.1f} s per run including set-up")
        print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
            verdicts.append(verdict)
            print(f"{name:18} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f}  {verdict}")
    return 1 if "OVER BOUND" in verdicts else 0


if __name__ == "__main__":
    raise SystemExit(main())
