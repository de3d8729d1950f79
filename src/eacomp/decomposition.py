"""Splitting a source into irreducible pieces.

Two signals belong to the same piece when their joint states on A (x) C
overlap, directly or through a chain of overlapping signals. The rate
formulas condition on the resulting component index Y, which is the
finest classical information any protocol can extract for free.

Zero-probability items are ignored throughout: they contribute nothing
to any rate and their conditional ensembles would be ill defined.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensemble import Ensemble, EnsembleItem
from .errors import LabelError
from .states import PureStateVector, basis_state, single

DEFAULT_OVERLAP_TOL = 1e-10


def overlap_graph(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> np.ndarray:
    """Boolean adjacency over items; edge iff |<joint_i|joint_j>| > tol.

    Rows and columns of zero-probability items are all False, as is the
    diagonal.
    """
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    n = e.size
    adj = np.zeros((n, n), dtype=bool)
    sup = e.support()
    psis = [it.psi.amplitudes for it in e.items]
    sigs = [it.sigma.amplitudes for it in e.items]
    for a in range(len(sup)):
        i = sup[a]
        for b in range(a + 1, len(sup)):
            j = sup[b]
            ov = abs(np.vdot(psis[i], psis[j])) * abs(np.vdot(sigs[i], sigs[j]))
            if ov > tol:
                adj[i, j] = adj[j, i] = True
    return adj


@dataclass(frozen=True)
class Component:
    """One irreducible piece: the labels it covers, its weight, and the
    conditional ensemble renormalized to probability one."""

    y: int
    labels: tuple[str, ...]
    weight: float
    sub_ensemble: Ensemble


@dataclass(frozen=True)
class Decomposition:
    components: tuple[Component, ...]
    tolerance: float

    @property
    def size(self) -> int:
        return len(self.components)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    @cached_property
    def _y_by_label(self) -> dict[str, int]:
        return {lbl: c.y for c in self.components for lbl in c.labels}

    def y_of(self, label: str) -> int:
        try:
            return self._y_by_label[label]
        except KeyError:
            raise LabelError(f"label {label!r} not covered by any component") from None

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "tolerance": self.tolerance,
            "num_components": self.size,
            "components": [
                {"y": c.y, "labels": list(c.labels), "weight": c.weight}
                for c in self.components
            ],
        }


def irreducible_components(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> Decomposition:
    """Connected components of the overlap graph, as conditional ensembles.

    Components are ordered by their smallest member label so the Y index
    does not depend on item order quirks.
    """
    adj = overlap_graph(e, tol)
    sup = list(e.support())
    seen = set()
    groups = []
    for start in sup:
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            i = queue.popleft()
            comp.append(i)
            for j in np.flatnonzero(adj[i]):
                j = int(j)
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        groups.append(sorted(comp))
    groups.sort(key=lambda g: min(e.items[i].label for i in g))

    comps = []
    for y, group in enumerate(groups):
        weight = float(sum(e.items[i].prob for i in group))
        items = tuple(
            EnsembleItem(
                e.items[i].label, e.items[i].prob / weight, e.items[i].psi, e.items[i].sigma
            )
            for i in group
        )
        comps.append(
            Component(y, tuple(e.items[i].label for i in group), weight, Ensemble(e.dim_a, e.dim_c, items))
        )
    return Decomposition(tuple(comps), tol)


def is_irreducible(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> bool:
    return irreducible_components(e, tol).size == 1


def extend_with_y(e: Ensemble, d: Decomposition) -> Ensemble:
    """Append |y(x)> to each sigma_x, making the component index explicit.

    The extension leaves every rate quantity unchanged because y(x) is a
    deterministic function of x that local operations could compute anyway.
    Zero-probability items are dropped (they have no component).
    """
    covered = {lbl for c in d.components for lbl in c.labels}
    sup_labels = {e.items[i].label for i in e.support()}
    if covered != sup_labels:
        raise LabelError(
            f"decomposition covers {sorted(covered)} but ensemble support is {sorted(sup_labels)}"
        )
    ny = d.size
    dim_c = e.dim_c * ny
    items = []
    for i in e.support():
        it = e.items[i]
        tag = basis_state(single("Y", ny), d.y_of(it.label))
        sigma = PureStateVector(
            single("C", dim_c), np.kron(it.sigma.amplitudes, tag.amplitudes), check=False
        )
        items.append(EnsembleItem(it.label, it.prob, it.psi, sigma))
    return Ensemble(e.dim_a, dim_c, tuple(items))


def decomposition_to_json_str(d: Decomposition) -> str:
    return json.dumps(d.to_json(), indent=2, sort_keys=True) + "\n"
