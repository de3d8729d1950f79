"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that
  1. the generator is deterministic: the same seed writes byte-identical
     sources, another seed writes different ones;
  2. the oracles agree with the program on the package's data/*.json;
  3. the exact counts of the trace (calls, eig work, sequences,
     evaluations) repeat between two traced runs of the same seed.
Exits 1 if any check fails.
"""

from __future__ import annotations

import filecmp
import glob
import json
import os
import shutil
import subprocess
import sys

import run

failures: list[str] = []


def report(name: str, problems: list[str]):
    print(f"{'PASS' if not problems else 'FAIL'} {name}", flush=True)
    for p in problems:
        print(f"     {p}")
    if problems:
        failures.append(name)


def check_generator(names, base):
    import workloads

    for w in names:
        dirs = {tag: os.path.join(base, f"{w}-{tag}") for tag in "abc"}
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            workloads.build(w, seed, dirs[tag])
        files = sorted(f for f in os.listdir(dirs["a"]) if f.endswith(".json"))
        same = filecmp.cmpfiles(dirs["a"], dirs["b"], files, shallow=False)[0]
        differ = filecmp.cmpfiles(dirs["a"], dirs["c"], files, shallow=False)[1]
        problems = []
        if len(same) != len(files):
            problems.append(f"seed 7 twice: {len(files) - len(same)} of {len(files)} files differ")
        if not differ:
            problems.append("seeds 7 and 8 wrote identical sources")
        report(f"generator determinism: {w} ({len(files)} sources)", problems)


def data_source(path: str):
    """A data file as a generator Source, with the sector structure and
    kind worked out by the oracle side, not by the program."""
    import numpy as np

    import gen
    import oracles

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)

    def vec(raw):
        return np.array([complex(*v) if isinstance(v, list) else complex(v) for v in raw])

    states = data["states"]
    probs = np.array([float(s["prob"]) for s in states])
    psi = np.stack([vec(s["psi"]) for s in states])
    sigma = np.stack([vec(s.get("sigma", [1.0])) for s in states])
    src = gen.Source(os.path.splitext(os.path.basename(path))[0], "", probs, psi, sigma, ())
    overlaps = np.abs(sigma.conj() @ sigma.T)
    if sigma.shape[1] == 1 or (np.abs(overlaps - 1.0) < 1e-10).all():
        kind = "blind"
    elif len(states) > 1 and (np.abs(overlaps - np.eye(len(states))) < 1e-10).all():
        kind = "visible"
    else:
        kind = "general"
    return gen.Source(src.name, kind, probs, psi, sigma, oracles.sectors_by_overlap(src))


def check_oracles(base):
    """Every data file through rates and region; blind ones through
    simulate; the side-information ones through iepsilon at eps = 0."""
    import workloads
    from eacomp import cli

    for path in sorted(glob.glob(os.path.join(run.ROOT, "data", "*.json"))):
        src = data_source(path)
        ops = [workloads.rates_op(src, base, regions=True)]
        if src.kind == "blind":
            ops.append(workloads.simulate_op(src, base, 0.8, [2, 3, 4]))
        else:
            ops.append(workloads.iepsilon_op(src, base, eps_grid=[0.0]))
        problems = []
        for op in ops:
            problems += run.run_op(cli, op).problems
        report(f"oracles agree with the program: {src.name} ({src.kind}, "
               f"{len(src.sectors)} components)", problems)


def check_exact_counts(names):
    import spans

    for w in names:
        outs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
                                   "--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1"],
                                  capture_output=True, text=True, timeout=600)
            outs.append(json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None)
        if None in outs:
            report(f"exact counts repeat: {w}", ["traced run failed"])
            continue
        problems = [] if all(o["correct"] for o in outs) else ["traced run reported incorrect output"]
        for name in spans.EXACT:
            a, b = (o["metrics"].get(name, {}).get("value") for o in outs)
            if a is None or a != b:
                problems.append(f"{name}: {a} then {b}")
        report(f"exact counts repeat: {w}", problems)


def main() -> int:
    names = run.WORKLOADS
    run.pin_blas()
    sys.path.insert(0, run.SRC)
    base = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(os.path.join(base, "out"), exist_ok=True)
    try:
        check_generator(names, base)
        check_oracles(base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    check_exact_counts(names)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
