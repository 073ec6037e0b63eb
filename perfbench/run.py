#!/usr/bin/env python3
"""Benchmark for shadesearch: set-up time, relative round time and memory per workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py                     # every workload, one process each
    python3 perfbench/run.py --workload corpus-eval --seed 1 --seconds 20 --trace 0

A run checks its oracles on hand-worked inputs, sets the workload up from
--seed, runs one untimed warm-up round whose outputs become the reference,
and then runs whole rounds until they have taken --seconds. The set-up is
repeated between rounds, each time in a fresh directory; setup_s is the
median. A round's time is the sum of its timed sections, the program's calls.
round_rel is the median round time divided by the median time of a fixed
reference kernel (``calibrate``) that runs, untimed, before every section. A round whose outputs differ from the reference
counts all its operations as failed, and so does every round when the
reference fails the oracle checks at the end. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

With --trace 1, every other round runs with the tracer installed; the metrics
are then the per-layer figures of the traced rounds, and the overhead is the
median traced round minus the median untraced one. Spans and counts go to
.perfbench_out/trace-<workload>-seed<seed>.json, together with those of one
extra, traced set-up.
"""

import os

# Fixed run conditions: one BLAS/OpenMP thread. Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("corpus-eval", "large-index-query", "hires-shade")
END_TO_END = (("setup_s", "s"), ("round_rel", "calib"), ("peak_rss_mb", "MB"))


def calibrate() -> float:
    """Seconds one pass of a fixed reference kernel takes, shadesearch untouched.

    The kernel mixes what the program spends its time on: many small numpy
    calls, whole-array passes over a 512 x 512 array, and plain Python dict
    work. This machine's speed swings by up to 2x for seconds or minutes at a
    time; a round time divided by the kernel's median time in the same run
    cancels most of that swing, and no change to the program moves the kernel.
    It runs before every timed section of a round, so it samples the same
    stretch of time.
    """
    small = np.arange(15.0)
    big = np.arange(512.0 * 512.0).reshape(512, 512)
    start = perf_counter()
    total = 0.0
    for i in range(1500):
        total += float(np.sqrt(((small - i) ** 2).sum()))
    for _ in range(4):
        total += float(np.sqrt(big * big + 1.0).sum())
    counts: dict[int, int] = {}
    for i in range(40_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return perf_counter() - start


def import_program() -> None:
    """Import shadesearch from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import shadesearch
    except ImportError as exc:
        raise SystemExit(f"error: cannot import shadesearch from {src}: {exc}")
    if Path(shadesearch.__file__).resolve().parent != (src / "shadesearch").resolve():
        raise SystemExit(f"error: shadesearch was imported from {shadesearch.__file__}")


def run_conditions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import oracles
    import tracing
    import workloads

    oracles.self_test()
    wl = workloads.WORKLOADS[name](seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        setup_times = []

        def set_up(directory: Path):
            gc.collect()
            start = perf_counter()
            fresh = wl.setup(directory)
            setup_times.append(perf_counter() - start)
            return fresh

        def set_up_again():
            # Repeated set-ups are spread between rounds, so that their median
            # samples the same stretch of time as the rounds do.
            directory = work / f"setup{len(setup_times)}"
            set_up(directory)
            shutil.rmtree(directory)

        state = set_up(work / "setup0")
        # Warm-up: first calls, and the reference outputs.
        ref = wl.round(state, workloads.Stopwatch())
        tracer = tracing.Tracer() if trace else None
        rounds, times, traced_times, calibration = [], [], [], []
        while (sum(times) + sum(traced_times) < seconds or not times
               or (trace and not traced_times)):
            if len(setup_times) < wl.SETUP_REPEATS:
                set_up_again()
            traced = trace and len(rounds) % 2 == 1
            gc.collect()
            sw = workloads.Stopwatch(before=lambda: calibration.append(calibrate()))
            if traced:
                tracer.install()
            try:
                result = wl.round(state, sw)
            finally:
                if traced:
                    tracer.uninstall()
            result.keep = {}
            rounds.append(result)
            (traced_times if traced else times).append(sw.total())
        while len(setup_times) < wl.SETUP_REPEATS:
            set_up_again()
        if trace:  # one more, traced set-up, for the trace file only
            setup_tracer = tracing.Tracer()
            setup_tracer.install()
            try:
                set_up_again()
            finally:
                setup_tracer.uninstall()

        problems = wl.check(state, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.ops for r in rounds if problems or r.fingerprint != ref.fingerprint)
    round_s = statistics.median(times)
    calib_s = statistics.median(calibration)
    named = {"round_s": (round_s, "s"), "calib_ms": (1e3 * calib_s, "ms"),
             **wl.named_metrics(ref, rounds, round_s)}
    if trace:
        overhead = statistics.median(traced_times) - round_s
        metrics = tracing.layer_metrics(tracer, len(traced_times), overhead, overhead / round_s)
        units = {n: u for n, u, _ in tracing.LAYER_METRICS}
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        setup_layers = tracing.layer_metrics(setup_tracer, 1, 0.0, 0.0)
        trace_file.write_text(json.dumps({
            "workload": name, "seed": seed, "traced_rounds": len(traced_times),
            "conditions": run_conditions(), "spans": tracer.spans, "counts": tracer.counts,
            "setup": {"layers": {k: v for k, v in setup_layers.items() if v},
                      "spans": setup_tracer.spans, "counts": setup_tracer.counts},
        }))
    else:
        metrics = {"setup_s": statistics.median(setup_times), "round_rel": round_s / calib_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(END_TO_END)
    return {
        "problems": problems,
        "rounds": len(rounds),
        "named": named,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def run_one(args) -> int:
    import_program()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("conditions " + json.dumps(run_conditions()))
    print(f"rounds {out['rounds']}")
    for problem in out["problems"]:
        print(f"check failed: {problem}")
    for key, (value, unit) in out["named"].items():
        print(f"metric {key} {value:.6g} {unit}")
    print(json.dumps(out["result"]))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, "attempted", result["attempted"], "ops"))
        rows.append((name, "failed", result["failed"], "ops"))
        for key, m in result["metrics"].items():
            rows.append((name, key, m["value"], m["unit"]))
        for line in lines[:-1]:
            if line.startswith("metric "):
                _, key, value, unit = line.split(" ", 3)
                rows.append((name, key, float(value), unit))
            elif line.startswith(("conditions ", "check failed")):
                print(f"{name}: {line}")
    for name, key, value, unit in rows:
        print(f"{name:<18} {key:<36} {value:>14.6g} {unit}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="shadesearch benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload; without it every workload runs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
