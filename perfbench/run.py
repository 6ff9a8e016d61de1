"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the repository's src directory.  Set-up
(import in a fresh interpreter plus the workload's warm-up or cache
pre-fill) is repeated and its median reported as ``setup_s``.  The timed
phase then runs whole passes over the workload's items until the next
pass would overrun ``--seconds`` and at least MIN_SAMPLES item latencies
exist.  Every result is checked; the last line of stdout is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``, untraced and traced passes alternating).

Times are CPU seconds of this process and of any child process it has
waited for (``time.process_time`` plus ``RUSAGE_CHILDREN``), scaled to a
reference machine speed.  On the shared virtual machine the benchmark
was built on, the wall clock also counts time the host gives to other
guests, and even CPU time drifts by tens of percent from minute to
minute as neighbours contend for the core, and flips between a fast and
a slow state within fractions of a second.  A short fixed reference
kernel is timed before each pass, after each set-up repetition and,
within a pass, after an item whenever KERNEL_EVERY_S wall seconds have
passed since the last timing.  Each item's time is multiplied by
REFERENCE_KERNEL_S over the mean of the two kernel times around it.
The kernel never touches the package, so a change to the program moves
the scaled times exactly as it moves the CPU times.  Unscaled values,
the speed factor and the wall to CPU ratio are printed with every run.

CPU time is the program's time only while the program computes on one
thread and waits for nothing.  Threads that run in parallel, a worker
process that outlives its item, sleeping or blocking I/O all move the
wall clock away from the CPU clock, so a run whose median pass ran
outside WALL_CPU_BAND times its CPU time exits with code 2 and no
result: its figures would not be the program's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# A typical CPU time of reference_kernel() on the machine the benchmark
# was built on (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6);
# it only sets the scale of the reported times.
REFERENCE_KERNEL_S = 0.007
# Wall seconds of items after which a pass times the kernel again: short
# enough to follow the machine's speed, long enough that the kernel adds
# under a tenth to a pass.
KERNEL_EVERY_S = 0.1
MIN_SAMPLES = 100  # ten latencies beyond the 90th percentile
# Wall over CPU time of a median pass that leaves CPU time a fair measure.
WALL_CPU_BAND = (0.8, 1.6)
MAX_PHASE_SECONDS = 150.0  # keeps a run inside its time limit on a slow build

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("monoid.enumerate_level.calls", "count"),
    ("monoid.enumerate_level.self_s", "s"),
    ("monoid.enumerate_level.rows", "count"),
    ("monoid.is_member.calls", "count"),
    ("monoid.is_member.self_s", "s"),
    ("hilbert.hilbert_basis.calls", "count"),
    ("hilbert.hilbert_basis.self_s", "s"),
    ("hilbert.elements", "count"),
    ("hilbert.reduce_ticks", "count"),
    ("hilbert.is_decomposable.calls", "count"),
    ("hilbert.is_decomposable.self_s", "s"),
    ("cycles.check_condition.calls", "count"),
    ("cycles.check_condition.self_s", "s"),
    ("cycles.is_quasi_decomposable.calls", "count"),
    ("cycles.is_quasi_decomposable.self_s", "s"),
    ("cycles.quasi_hit_ratio", "ratio"),
    ("cycles.build_pool.self_s", "s"),
    ("cycles.standard_elements.self_s", "s"),
    ("cycles.verdict.calls", "count"),
    ("cycles.verdict.self_s", "s"),
    ("characters.enumerate_hodge_labels.calls", "count"),
    ("characters.enumerate_hodge_labels.self_s", "s"),
    ("characters.labels", "count"),
    ("characters.from_monoid.calls", "count"),
    ("characters.from_monoid.self_s", "s"),
    ("cache.get.calls", "count"),
    ("cache.get.self_s", "s"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes_read", "bytes"),
    ("cache.put.calls", "count"),
    ("cache.put.self_s", "s"),
    ("cache.bytes_written", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("cli.exit_nonzero", "count"),
    ("monoid.self_share", "ratio"),
    ("hilbert.self_share", "ratio"),
    ("cycles.self_share", "ratio"),
    ("characters.self_share", "ratio"),
    ("cache.self_share", "ratio"),
    ("cli.self_share", "ratio"),
    ("hot.cache_cli_share", "ratio"),
    ("trace.overhead_s", "s"),
)


class BenchmarkError(RuntimeError):
    """The run cannot give valid figures; it exits with code 2."""


def cpu_seconds() -> float:
    """CPU seconds of this process and of the child processes it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def import_package():
    """Import fermat_hodge from ./src and nowhere else."""
    init = SRC / "fermat_hodge" / "__init__.py"
    if not init.is_file():
        raise BenchmarkError(f"no package source at {init}; run from the repository root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fermat_hodge

    if Path(fermat_hodge.__file__).resolve() != init.resolve():
        raise BenchmarkError(f"fermat_hodge imported from {fermat_hodge.__file__}")


def import_seconds(module: str) -> float:
    """CPU seconds a fresh interpreter spends importing the package."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        f"t = time.process_time(); import {module}; "
        f"print(time.process_time() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    if proc.returncode:
        raise BenchmarkError(f"importing {module} failed:\n{proc.stderr}")
    return float(proc.stdout)


def _search(i: int, rem: int, acc: int) -> int:
    if i == 0:
        return acc + (rem == 0)
    for c in range(min(rem, 3) + 1):
        acc = _search(i - 1, rem - c, acc)
    return acc


def reference_kernel() -> float:
    """CPU seconds for a fixed mix of interpreter, numpy and JSON work.

    The mix follows what the workloads spend their time on: a recursive
    integer search, small-array numpy filters, JSON round trips with a
    sha256.  It never touches the package, so only the speed of the
    machine moves it.
    """
    start = cpu_seconds()
    _search(7, 8, 0)
    a = np.arange(4000, dtype=np.int64).reshape(200, 20)
    for _ in range(70):
        b = np.maximum(a - 7, 0)
        a = (a * 3 + 1) % 1009
        np.flatnonzero((b <= a).all(axis=1))
    payload = {"v": [",".join(str(j) for j in range(i, i + 30)) for i in range(300)]}
    for _ in range(7):
        text = json.dumps(payload, sort_keys=True)
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        json.loads(text)
    return cpu_seconds() - start


def speed(before: float, after: float) -> float:
    """Speed factor of the interval between two kernel timings."""
    return 2 * REFERENCE_KERNEL_S / (before + after)


class Runner:
    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.items = workload.items(seed)
        self.seconds = seconds
        self.attempted = 0
        self.errors: list[str] = []
        self.pass_walls: list[float] = []  # wall seconds of each pass's items
        self.kernels: list[list[float]] = []  # kernel timings of each pass

    def setup(self) -> tuple[float, float]:
        """Median set-up time over SETUP_REPEATS: (scaled, CPU seconds)."""
        times, scaled, kernel = [], [], reference_kernel()
        for _ in range(SETUP_REPEATS):
            seconds = import_seconds(self.workload.import_module)
            start = cpu_seconds()
            self.workload.prepare()
            times.append(seconds + cpu_seconds() - start)
            before, kernel = kernel, reference_kernel()
            scaled.append(times[-1] * speed(before, kernel))
        return statistics.median(scaled), statistics.median(times)

    def run_pass(self, tracer=None, budget_cls=None) -> tuple[list[float], list[float]]:
        """One pass over the items: per-item CPU seconds, unscaled and scaled."""
        w = self.workload
        w.begin_pass()
        latencies, scaled = [], []
        pass_wall = 0.0
        kernels = [reference_kernel()]
        timed_at = perf_counter()
        for n, item in enumerate(self.items, 1):
            if tracer is not None:
                tracer.item = (self.attempted, item.kind)
            budget = budget_cls() if budget_cls is not None else None
            self.attempted += 1
            wall, start = perf_counter(), cpu_seconds()
            try:
                result, error = w.run(item, budget), None
            except Exception:  # a raising item is a failed item; keep going
                result, error = None, f"{item.key}: {traceback.format_exc(limit=3)}"
            latencies.append(cpu_seconds() - start)
            pass_wall += perf_counter() - wall
            if n == len(self.items) or perf_counter() - timed_at >= KERNEL_EVERY_S:
                kernels.append(reference_kernel())
                timed_at = perf_counter()
                factor = speed(kernels[-2], kernels[-1])
                scaled.extend(t * factor for t in latencies[len(scaled):])
            if error is None:
                error = w.check(item, result)
                if tracer is not None:
                    tracer.counts.update(w.counts(result))
            if error:
                self.errors.append(error)
        w.end_pass()
        self.pass_walls.append(pass_wall)
        self.kernels.append(kernels)
        return latencies, scaled

    def phase(self, one_round, samples_per_round: int) -> None:
        """Repeat one_round until the next would overrun the phase."""
        rounds = 0
        start = perf_counter()
        while True:
            one_round()
            rounds += 1
            elapsed = perf_counter() - start
            per_round = elapsed / rounds
            if elapsed + per_round > MAX_PHASE_SECONDS:
                break
            if rounds * samples_per_round >= MIN_SAMPLES and elapsed + per_round > self.seconds:
                break


def end_to_end(runner: Runner, seed: int) -> dict:
    setup_s, setup_cpu_s = runner.setup()
    passes: list[list[float]] = []
    scaled: list[list[float]] = []

    def one_pass():
        cpu, scaled_cpu = runner.run_pass()
        passes.append(cpu)
        scaled.append(scaled_cpu)

    runner.phase(one_pass, len(runner.items))
    (OUT / f"latencies-{runner.workload.name}-seed{seed}.json").write_text(json.dumps({
        "items": [str(i.key) for i in runner.items],
        "passes": passes,
        "scaled": scaled,
        "pass_walls": runner.pass_walls,
        "kernels": runner.kernels,
    }))
    factors = [sum(f) / sum(p) for f, p in zip(scaled, passes)]
    ratios = [w / sum(p) for w, p in zip(runner.pass_walls, passes)]
    ratio = statistics.median(ratios)
    low, high = WALL_CPU_BAND
    if not low <= ratio <= high:
        raise BenchmarkError(
            f"the median pass ran {ratio:.3f}x its CPU time, outside {low}..{high}x: "
            "the program no longer runs on one busy thread, so CPU time does not "
            "measure it"
        )

    def timings(per_pass: list[list[float]]) -> dict:
        latencies = [t for p in per_pass for t in p]
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        return {
            "wall_s": statistics.median(sum(p) for p in per_pass),
            "throughput_per_s": len(latencies) / sum(latencies),
            "p50_ms": 1000 * cuts[49],
            "p90_ms": 1000 * cuts[89],
            "p99_ms": 1000 * cuts[98],
        }

    values = {"setup_s": setup_s, **timings(scaled)}
    cpu = {"setup_s": setup_cpu_s, **timings(passes)}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n = sum(len(p) for p in passes)
    print(f"samples {n} latencies over {len(passes)} passes; wall clock ran "
          f"{ratio:.3f}x the CPU time in the median pass "
          f"(range {min(ratios):.3f}..{max(ratios):.3f})")
    print(f"speed factor median {statistics.median(factors):.4f} "
          f"(range {min(factors):.4f}..{max(factors):.4f}); unscaled CPU values: "
          + ", ".join(f"{k} {v:.6g}" for k, v in cpu.items() if k != "p99_ms"))
    if n < MIN_SAMPLES:
        print(f"warning: p90_ms rests on {n} samples, fewer than ten beyond it",
              file=sys.stderr)
    p99 = values.pop("p99_ms")
    if n >= 1000:
        print(f"p99_ms {p99} ms (not in the result line)")
    else:
        print(f"p99_ms n/a ({n} samples; 1000 needed for ten beyond it)")
    return values


def per_layer(runner: Runner, seed: int) -> dict:
    from spans import Tracer

    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    hot_s: list[float] = []

    def pair():
        untraced.append(sum(runner.run_pass()[1]))
        with tracer.installed() as budget_cls:
            latencies, scaled = runner.run_pass(tracer, budget_cls)
        traced.append(sum(scaled))
        hot_s.extend(t for t, i in zip(latencies, runner.items) if i.kind == "hot")

    runner.setup()
    runner.phase(pair, MIN_SAMPLES)
    tracer.write(OUT / f"spans-{runner.workload.name}-seed{seed}.jsonl")

    n = len(traced)
    s = tracer.summary()
    counts, calls, self_s, layer_s = tracer.counts, s["calls"], s["self_s"], s["layer_s"]
    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls[base] / n
        elif field == "self_s":
            values[name] = self_s[base] / n
        elif field == "self_share":
            values[name] = layer_s[base] / max(sum(layer_s.values()), 1e-12)
        else:
            values[name] = counts[name] / n
    values["hilbert.reduce_ticks"] = s["reduce_ticks"] / n
    values["cycles.quasi_hit_ratio"] = counts["cycles.quasi_witnesses"] / max(
        calls["cycles.is_quasi_decomposable"], 1
    )
    values["cache.hit_ratio"] = counts["cache.hits"] / max(calls["cache.get"], 1)
    hot = s["kind_layer_s"]["hot"]
    values["hot.cache_cli_share"] = (hot["cache"] + hot["cli"]) / max(sum(hot_s), 1e-12)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"traced passes {n}, untraced passes {len(untraced)}, spans {len(tracer.spans)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
    except (BenchmarkError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    workload = WORKLOADS[args.workload](load_reference(), scratch)
    try:
        runner = Runner(workload, args.seed, args.seconds)
        if args.trace:
            values = per_layer(runner, args.seed)
            units = dict(PER_LAYER)
        else:
            values = end_to_end(runner, args.seed)
            units = dict(END_TO_END)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(runner.errors)
    for error in runner.errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"fail_frac {failed / runner.attempted} ({failed}/{runner.attempted})")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
