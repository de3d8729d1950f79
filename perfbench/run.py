"""eacomp benchmark: seeded CLI workloads run in-process through
eacomp.cli.main, with every output file checked by independent oracles.

    python3 perfbench/run.py --workload rates-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from anywhere inside a checkout; it imports the package from the
checkout's src/ and writes only under the checkout's .perfbench/.

--trace 0 times the workload with the package untouched and prints the
end-to-end metrics. --trace 1 alternates untraced passes with traced ones
(public functions wrapped from outside, see spans.py) and prints the
per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; human-readable lines come
before it. --workload all runs each workload in its own process and
prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("rates-small", "rates-large", "simulate-blocks", "iepsilon-search")
# One BLAS thread (nproc is the ceiling): steadier timings on a shared
# machine, and the workloads' matrices are at most 1024 wide.
BLAS_THREADS = 1
SETUP_REPEATS = 7


def pin_blas():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import numpy as np

    import eacomp

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "numba_available": bool(eacomp.NUMBA_AVAILABLE),
        "backend": eacomp.active_backend(),
    }


@dataclass
class OpResult:
    latency: float  # seconds in cli.main
    problems: list[str]
    bits: float
    scaled: float = 0.0  # latency at reference machine speed


def run_op(cli, op) -> OpResult:
    """Run the op's commands through cli.main, then check its outputs.
    Only the commands are timed."""
    for path in op.outputs:
        if os.path.exists(path):
            os.unlink(path)
    latency, problems, bits = 0.0, [], 0.0
    for argv in op.commands:
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        except Exception:  # a crash is a failed op, not a failed benchmark
            code = "crash: " + traceback.format_exc(limit=3)
        latency += time.perf_counter() - t0
        if code != 0:
            problems.append(f"{' '.join(argv)} -> exit {code}")
            break
    if not problems:
        try:
            problems, bits = op.check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    for p in problems:
        print(f"FAILED {op.name}: {p}", file=sys.stderr)
    return OpResult(latency, problems, bits)


def setup(workload: str, seed: int, workdir: str):
    """Import the package, write the inputs, run the untimed warm-up op."""
    sys.path.insert(0, SRC)
    from eacomp import cli

    import workloads

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported eacomp from {cli.__file__}, not from {SRC}")

    ops, warm = workloads.build(workload, seed, workdir)
    return cli, ops, run_op(cli, warm)


def measure_setup(workload: str, seed: int, gauge) -> list[float]:
    """Wall times, at reference speed, of fresh processes that only set up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                        "--seed", str(seed), "--setup-only"], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=170)
        times.append(gauge.scale(time.perf_counter() - t0))
    return times


def run_pass(cli, ops, results: list[OpResult], gauge, tracer=None) -> float:
    """One pass over the op list; returns its total command time at
    reference speed."""
    t = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        r = run_op(cli, op)
        r.scaled = gauge.scale(r.latency)
        results.append(r)
        t += r.scaled
    return t


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples) at the highest percentile that has at
    least ten samples beyond it, or None with too few samples."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n, n


def timed(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    import workloads
    from gauge import SpeedGauge

    setups = measure_setup(workload, seed, SpeedGauge("interpreter", workdir))
    cli, ops, warm = setup(workload, seed, workdir)
    gauge = SpeedGauge(workloads.CALIBRATION[workload], workdir)
    results = [warm]
    wall, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(cli, ops, results, gauge)
        wall.append(time.perf_counter() - t0)
        # another pass only if that ends the run closer to the budget
        if time.perf_counter() - start + statistics.median(wall) / 2 > seconds:
            break
    timed_ops = results[1:]
    lat = [r.scaled for r in timed_ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "certified_bits": (sum(r.bits for r in timed_ops[: len(ops)]), "bits"),
    }
    t = tail(lat)
    note = (f"op_tail_ms: {t[0] * 1000.0:.3f} ms at p{t[1]:.1f} of {t[2]} ops" if t
            else f"op_tail_ms: not reported, {len(lat)} ops are too few")
    return {"results": results, "metrics": metrics,
            "notes": [note, f"passes: {len(wall)} x {len(ops)} ops", gauge.summary(),
                      "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setups)]}


def traced(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    import spans
    import workloads
    from gauge import SpeedGauge

    cli, ops, warm = setup(workload, seed, workdir)
    results = [warm]
    tracer = spans.Tracer()
    gauge = SpeedGauge(workloads.CALIBRATION[workload], workdir)
    plain, wrapped, start = [], [], time.perf_counter()
    while True:
        plain.append(run_pass(cli, ops, results, gauge))
        tracer.install()
        try:
            wrapped.append(run_pass(cli, ops, results, gauge, tracer))
        finally:
            tracer.uninstall()
        tracer.pass_index += 1
        pair = statistics.median(plain) + statistics.median(wrapped)
        if time.perf_counter() - start + pair / 2 > seconds:
            break
    metrics = spans.layer_metrics(tracer, len(ops), len(wrapped))
    metrics["trace.overhead_frac"] = (statistics.median(wrapped) / statistics.median(plain) - 1.0, "ratio")
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl")
    tracer.write(path, {"workload": workload, "seed": seed, "ops_per_pass": len(ops),
                        "environment": environment()})
    notes = [f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}",
             f"passes: {len(plain)} untraced + {len(wrapped)} traced x {len(ops)} ops", gauge.summary()]
    absent = sorted(tracer.missing | tracer.meter_errors)
    if absent:
        notes.append(f"absent (not found in this version): {', '.join(absent)}")
    return {"results": results, "metrics": metrics, "notes": notes}


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    ok = True
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        out = json.loads(lines[-1])
        ok &= out["correct"]
        print(f"== {w}: correct={out['correct']} attempted={out['attempted']} failed={out['failed']} "
              f"failed_frac={out['failed'] / out['attempted']:.4f}")
        for line in lines[:-1]:
            if not line.startswith("env "):
                print(f"   {line}")
        for name, m in out["metrics"].items():
            print(f"   {name:44s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eacomp", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/eacomp; run inside an eacomp checkout",
              file=sys.stderr)
        return 2
    pin_blas()
    if args.workload == "all":
        return run_all(args)

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        run = (traced if args.trace else timed)(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = run["results"]
    failed = sum(1 for r in results if r.problems)
    print("env " + json.dumps(environment(), sort_keys=True))
    for note in run["notes"]:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
