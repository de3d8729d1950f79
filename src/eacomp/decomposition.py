"""Splitting a source into irreducible pieces.

Two signals belong to the same piece when their joint states on A (x) C
overlap, directly or through a chain of overlapping signals: the graph
is |<psi_x|psi_x'>| |<sigma_x|sigma_x'>| > tol on the two overlap
matrices (`Ensemble.overlaps`), grown a whole frontier at a time. The rate
formulas condition on the resulting component index Y, which is the
finest classical information any protocol can extract for free.

Zero-probability items are ignored throughout: they contribute nothing
to any rate and their conditional ensembles would be ill defined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .ensemble import Ensemble, Overlaps, check_tolerance
from .errors import LabelError

DEFAULT_OVERLAP_TOL = 1e-10


def _support_graph(ov: Overlaps, tol: float) -> np.ndarray:
    """Adjacency over the support items: |<psi|psi'>| |<sigma|sigma'>| > tol."""
    check_tolerance(tol)
    link = np.triu(np.abs(ov.psi_gram) * np.abs(ov.sigma_gram) > tol, 1)
    return link | link.T


def overlap_graph(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> np.ndarray:
    """Boolean adjacency over items; edge iff |<joint_i|joint_j>| > tol.

    Rows and columns of zero-probability items are all False, as is the
    diagonal.
    """
    sup = list(e.overlaps.support)
    adj = np.zeros((e.size, e.size), dtype=bool)
    adj[np.ix_(sup, sup)] = _support_graph(e.overlaps, tol)
    return adj


def _connected_parts(link: np.ndarray) -> list[np.ndarray]:
    """Connected parts of a symmetric adjacency, each as ascending indices."""
    parts, unseen = [], np.ones(len(link), dtype=bool)
    while unseen.any():
        member = frontier = np.arange(len(link)) == np.argmax(unseen)
        while frontier.any():
            frontier = link[frontier].any(axis=0) & ~member
            member = member | frontier
        unseen &= ~member
        parts.append(np.flatnonzero(member))
    return parts


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
    ov = e.overlaps
    groups = [[ov.support[k] for k in part] for part in _connected_parts(_support_graph(ov, tol))]
    groups.sort(key=lambda g: min(e.items[i].label for i in g))

    comps = []
    for y, group in enumerate(groups):
        weight = float(sum(e.items[i].prob for i in group))
        items = tuple(replace(e.items[i], prob=e.items[i].prob / weight) for i in group)
        comps.append(
            Component(y, tuple(e.items[i].label for i in group), weight, Ensemble(e.dim_a, e.dim_c, items))
        )
    return Decomposition(tuple(comps), tol)


def is_irreducible(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> bool:
    return irreducible_components(e, tol).size == 1
