"""Outside-in tracing of the eacomp package.

The tracer rebinds public functions of eacomp modules to timing wrappers,
in every eacomp.* namespace that holds a reference to them (a function
imported with ``from .states import von_neumann_entropy`` lives on in
rates, iepsilon and others). Spans are kept in memory and written out at
the end. No file of the package is changed, and the untraced runs run
with every original binding restored.

A wrapped name that a later version of the package no longer has is
skipped, and the metrics that need it are reported as absent.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _eig_side(args, kwargs, result):
    return {"side": int(_arg(args, kwargs, 0, "m").entries.shape[0])}


def _sim_sizes(args, kwargs, result):
    e, code = _arg(args, kwargs, 0, "e"), _arg(args, kwargs, 1, "code")
    return {"sequences": len(e.support()) ** int(code.n), "rank": int(code.rank)}


def _evaluations(args, kwargs, result):
    return {"evaluations": int(result.evaluations)}


# module -> {function: meter}; a meter returns sizes recorded on the span.
WRAPPED = {
    "cli": {"main": None},
    "ensemble": {"load_ensemble": None, "reduced": None},
    "decomposition": {"irreducible_components": None},
    "rates": {"entropy_profile": None},
    "states": {"von_neumann_entropy": _eig_side},
    "region": {"eq_region": None, "ce_region": None, "boundary_polyline": None},
    "schumacher": {"build_code_space": None, "simulate_fidelity": _sim_sizes},
    "_accel": {"block_fidelity": None, "unitary_objective": None},
    "iepsilon": {"estimate_i_epsilon": _evaluations, "objective": None, "i_zero_bounds": None},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    pass_index: int
    sizes: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = 0
        self.pass_index = 0
        self.missing: set[str] = set()
        self.meter_errors: set[str] = set()
        self._bindings: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn, meter):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.op, tracer.pass_index)
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_time += span.duration
            if meter is not None:
                try:
                    span.sizes = meter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    tracer.meter_errors.add(name)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Rebind every wrapped function in every loaded eacomp namespace."""
        namespaces = [m for n, m in list(sys.modules.items()) if n == "eacomp" or n.startswith("eacomp.")]
        for module, funcs in WRAPPED.items():
            home = sys.modules.get(f"eacomp.{module}")
            for fname, meter in funcs.items():
                name = f"{module}.{fname}"
                original = getattr(home, fname, None) if home is not None else None
                if not callable(original):
                    self.missing.add(name)
                    continue
                wrapper = self._wrap(name, original, meter)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._bindings.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._bindings):
            setattr(ns, attr, original)
        self._bindings.clear()

    def available(self, name: str) -> bool:
        return name not in self.missing and name not in self.meter_errors

    def write(self, path: str, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op, "pass": s.pass_index,
                    "start": s.start - self._t0, "end": s.end - self._t0, **s.sizes,
                }) + "\n")


def layer_metrics(tracer: Tracer, ops_per_pass: int, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes.

    Times are milliseconds per op, averaged over every traced pass. Counts
    are totals over the first traced pass, i.e. over one pass of the
    workload's fixed op list, so they repeat exactly for a given seed.
    """
    ops = ops_per_pass * passes
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    sizes: dict[str, int] = {"eig_max_side": 0, "eig_work": 0, "sequences": 0, "rank": 0, "evaluations": 0}
    for s in tracer.spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_t[s.name] = self_t.get(s.name, 0.0) + s.self_time
        if s.pass_index != 0:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        if "side" in s.sizes:
            sizes["eig_max_side"] = max(sizes["eig_max_side"], s.sizes["side"])
            sizes["eig_work"] += s.sizes["side"] ** 3
        for key in ("sequences", "rank", "evaluations"):
            sizes[key] += s.sizes.get(key, 0)

    def ms(table, *names):
        return sum(table.get(n, 0.0) for n in names) * 1000.0 / ops

    # metric -> (value, unit, spans it needs)
    defs = {
        "cli.self_ms": (ms(self_t, "cli.main"), "ms", ["cli.main"]),
        "ensemble.load_ensemble_ms": (ms(total, "ensemble.load_ensemble"), "ms", ["ensemble.load_ensemble"]),
        "ensemble.reduced_calls": (calls.get("ensemble.reduced", 0), "count", ["ensemble.reduced"]),
        "ensemble.reduced_ms": (ms(total, "ensemble.reduced"), "ms", ["ensemble.reduced"]),
        "decomposition.irreducible_components_calls": (
            calls.get("decomposition.irreducible_components", 0), "count",
            ["decomposition.irreducible_components"]),
        "decomposition.irreducible_components_ms": (
            ms(total, "decomposition.irreducible_components"), "ms",
            ["decomposition.irreducible_components"]),
        "rates.entropy_profile_calls_per_op": (
            calls.get("rates.entropy_profile", 0) / ops_per_pass, "count", ["rates.entropy_profile"]),
        "rates.entropy_profile_self_ms": (ms(self_t, "rates.entropy_profile"), "ms", ["rates.entropy_profile"]),
        "states.von_neumann_entropy_calls": (
            calls.get("states.von_neumann_entropy", 0), "count", ["states.von_neumann_entropy"]),
        "states.von_neumann_entropy_ms": (
            ms(total, "states.von_neumann_entropy"), "ms", ["states.von_neumann_entropy"]),
        "states.eig_max_side": (sizes["eig_max_side"], "count", ["states.von_neumann_entropy"]),
        "states.eig_work": (sizes["eig_work"], "count", ["states.von_neumann_entropy"]),
        "region.ms": (
            ms(total, "region.eq_region", "region.ce_region", "region.boundary_polyline"), "ms",
            ["region.eq_region", "region.ce_region", "region.boundary_polyline"]),
        "schumacher.build_code_space_ms": (
            ms(total, "schumacher.build_code_space"), "ms", ["schumacher.build_code_space"]),
        "schumacher.simulate_fidelity_ms": (
            ms(total, "schumacher.simulate_fidelity"), "ms", ["schumacher.simulate_fidelity"]),
        "schumacher.sequences": (sizes["sequences"], "count", ["schumacher.simulate_fidelity"]),
        "schumacher.code_rank_sum": (sizes["rank"], "count", ["schumacher.simulate_fidelity"]),
        "accel.block_fidelity_ms": (ms(total, "_accel.block_fidelity"), "ms", ["_accel.block_fidelity"]),
        "accel.unitary_objective_calls": (
            calls.get("_accel.unitary_objective", 0), "count", ["_accel.unitary_objective"]),
        "accel.unitary_objective_ms": (
            ms(total, "_accel.unitary_objective"), "ms", ["_accel.unitary_objective"]),
        "iepsilon.evaluations": (sizes["evaluations"], "count", ["iepsilon.estimate_i_epsilon"]),
        "iepsilon.estimate_self_ms": (
            ms(self_t, "iepsilon.estimate_i_epsilon"), "ms", ["iepsilon.estimate_i_epsilon"]),
        "iepsilon.objective_ms": (ms(total, "iepsilon.objective"), "ms", ["iepsilon.objective"]),
        "iepsilon.i_zero_bounds_ms": (ms(total, "iepsilon.i_zero_bounds"), "ms", ["iepsilon.i_zero_bounds"]),
    }
    return {
        name: (float(value), unit)
        for name, (value, unit, needs) in defs.items()
        if all(tracer.available(n) for n in needs)
    }


# Metrics that count work rather than time; they must repeat exactly.
EXACT = (
    "ensemble.reduced_calls",
    "decomposition.irreducible_components_calls",
    "rates.entropy_profile_calls_per_op",
    "states.von_neumann_entropy_calls",
    "states.eig_max_side",
    "states.eig_work",
    "schumacher.sequences",
    "schumacher.code_rank_sum",
    "accel.unitary_objective_calls",
    "iepsilon.evaluations",
)
