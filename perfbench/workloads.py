"""The benchmark's workloads: seeded sources, the CLI commands of each op,
and the checks of each op's output files.

One op is the set of CLI commands a user runs for one source. A workload
is a fixed list of ops built from the seed; the runner repeats the whole
list, so every run sees the same mix.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import oracles

WHY = {
    "rates-small": (
        "about 150 small sources (blind one- and multi-sector, visible, general side information): "
        "fixed per-op cost of argparse, parsing, decomposition and repeated entropy profiles"
    ),
    "rates-large": (
        "visible and multi-sector side-information sources with 10-16 states, dA=4: the dense "
        "S(ACY) cross-check dominates, where the Gram route would do its work"
    ),
    "simulate-blocks": (
        "simulate sweeps on 2- and 3-signal qubit sources up to n=12: block_fidelity dominates, "
        "and the rates module is bypassed"
    ),
    "iepsilon-search": (
        "iepsilon at default search settings on the two side-information fixtures: the only "
        "isometry search; certified_bits guards its quality"
    ),
}

# The calibration kernel (gauge.py) shaped like each workload's work.
CALIBRATION = {
    "rates-small": "interpreter",
    "rates-large": "dense",
    "simulate-blocks": "arrays",
    "iepsilon-search": "mixed",
}

EPS_GRID = [0.0, 0.1]


@dataclass
class Op:
    name: str
    commands: list[list[str]]
    outputs: list[str]
    check: Callable[[], tuple[list[str], float]]  # problems, certified bits


def _write(src: gen.Source, workdir: str) -> str:
    path = os.path.join(workdir, f"{src.name}.json")
    src.write(path)
    return path


# Oracle values are computed on first use (functools.cache), after the
# op's commands ran, so they stay outside the timed region.


def rates_op(src: gen.Source, workdir: str, regions: bool) -> Op:
    """rates; with regions, also region --kind EQ, and --kind CE when blind."""
    path = _write(src, workdir)
    out = os.path.join(workdir, "out", src.name)
    ex = functools.cache(lambda: oracles.expected(src))
    commands = [["rates", path, "-o", f"{out}.rates.json"]]
    outputs = [f"{out}.rates.json"]
    kinds = []
    if regions:
        kinds = ["EQ", "CE"] if src.kind == "blind" else ["EQ"]
        for kind in kinds:
            commands.append(["region", path, "--kind", kind, "-o", f"{out}.{kind}.csv"])
            outputs += [f"{out}.{kind}.csv", f"{out}.{kind}.json"]

    def check():
        problems, q = oracles.check_rates(src, ex(), f"{out}.rates.json")
        for kind in kinds:
            problems += oracles.check_region(ex(), kind, f"{out}.{kind}.csv", f"{out}.{kind}.json")
        return problems, q

    return Op(src.name, commands, outputs, check)


def simulate_op(src: gen.Source, workdir: str, rate: float, ns: list[int]) -> Op:
    path = _write(src, workdir)
    out = os.path.join(workdir, "out", f"{src.name}.sim.csv")
    smallest = functools.cache(lambda: oracles.block_fidelity_bruteforce(src, ns[0], rate))
    commands = [["simulate", path, "--rate", repr(rate), "--n", ",".join(map(str, ns)), "-o", out]]
    return Op(src.name, commands, [out], lambda: oracles.check_simulate(ns, rate, smallest(), out))


def iepsilon_op(src: gen.Source, workdir: str, eps_grid: list[float] = EPS_GRID) -> Op:
    path = _write(src, workdir)
    out = os.path.join(workdir, "out", f"{src.name}.ieps.json")
    ex = functools.cache(lambda: oracles.expected(src))
    commands = [["iepsilon", path, "--eps", ",".join(map(repr, eps_grid)), "-o", out]]
    return Op(src.name, commands, [out], lambda: oracles.check_iepsilon(ex(), eps_grid, out))


# Every workload rotates fixed base sources by a seeded product unitary:
# the seed changes every number the program reads, but not the work, the
# entropies or the fidelities, so timings and certified_bits compare
# across seeds.
BASE_SEED = 20190118


def _rates_small(rng, workdir):
    base = np.random.default_rng([BASE_SEED, 0])
    ops = []
    for i in range(150):
        n, dim_a = int(base.integers(2, 7)), int(base.integers(2, 5))
        name = f"src{i:03d}"
        kind = i % 4
        if kind == 0:
            src = gen.blind_source(base, name, n, dim_a)
        elif kind == 1:
            src = gen.blind_source(base, name, n, dim_a, int(base.integers(2, min(dim_a, n, 3) + 1)))
        elif kind == 2:
            src = gen.visible_source(base, name, n, dim_a)
        else:
            sectors = 2 if n >= 3 and base.random() < 0.5 else 1
            sizes = [n] if sectors == 1 else gen.split(base, n, 2)
            src = gen.sideinfo_source(base, name, sizes, dim_a)
        ops.append(rates_op(gen.rotated(rng, src), workdir, regions=True))
    warm = rates_op(gen.blind_source(rng, "warmup", 2, 2), workdir, regions=True)
    return ops, warm


def _rates_large(rng, workdir):
    # Six visible and two side-information sources. Three of the visible
    # ones have N = 12, so the median op sits inside a group of equal ops.
    base = np.random.default_rng([BASE_SEED, 1])
    sources = [gen.visible_source(base, f"visible{n}-{i}", n, 4)
               for i, n in enumerate((10, 12, 12, 12, 14, 16))]
    sources += [gen.sideinfo_source(base, f"sectors{n}", [2] * (n // 2), 4) for n in (10, 16)]
    ops = [rates_op(gen.rotated(rng, s), workdir, regions=False) for s in sources]
    warm = rates_op(gen.visible_source(rng, "warmup", 4, 4), workdir, regions=False)
    return ops, warm


def _simulate_blocks(rng, workdir):
    # One pair and four triples: the median op sits inside the triples.
    base = np.random.default_rng([BASE_SEED, 2])
    ops = [simulate_op(gen.rotated(rng, gen.gapped_blind_source(base, "pair", 2)), workdir,
                       0.8, list(range(2, 13)))]
    for i in range(4):
        src = gen.rotated(rng, gen.gapped_blind_source(base, f"triple{i}", 3))
        ops.append(simulate_op(src, workdir, 0.75, list(range(2, 11))))
    warm = simulate_op(gen.gapped_blind_source(rng, "warmup", 2), workdir, 0.8, [2, 3])
    return ops, warm


def _iepsilon_search(rng, workdir):
    ops = [iepsilon_op(gen.rotated(rng, gen.fixture(name)), workdir)
           for name in ("sideinfo_triple", "visible_pair")]
    warm = iepsilon_op(gen.blind_source(rng, "warmup", 2, 2), workdir)
    return ops, warm


BUILDERS = {
    "rates-small": _rates_small,
    "rates-large": _rates_large,
    "simulate-blocks": _simulate_blocks,
    "iepsilon-search": _iepsilon_search,
}


def build(workload: str, seed: int, workdir: str) -> tuple[list[Op], Op]:
    """Write the workload's sources under workdir; return its ops and the
    untimed warm-up op. The same seed gives byte-identical sources."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    rng = np.random.default_rng([seed, list(BUILDERS).index(workload)])
    return BUILDERS[workload](rng, workdir)
