"""Splitting a source into irreducible pieces.

Two signals belong to the same piece when their joint states on A (x) C
overlap, directly or through a chain of overlapping signals: the graph
is |<psi_x|psi_x'>| |<sigma_x|sigma_x'>| > tol on the two overlap
matrices (`Ensemble.overlaps`), split by propagating the least index
along its edges until every part carries one label. The labels are
computed once per source and tolerance and kept on `Overlaps.roots`;
the decomposition and its checks read them. The rate formulas
condition on the resulting component index Y, which is the finest
classical information any protocol can extract for free.

Zero-probability items are ignored throughout: they contribute nothing
to any rate and their conditional ensembles would be ill defined.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensemble import DEFAULT_OVERLAP_TOL, Ensemble, Overlaps, check_tolerance
from .errors import ConsistencyError, LabelError


def _support_graph(ov: Overlaps, tol: float) -> np.ndarray:
    """Adjacency over the support items: |<psi|psi'>| |<sigma|sigma'>| > tol."""
    check_tolerance(tol)
    link = np.triu(np.abs(ov.psi_gram) * np.abs(ov.sigma_gram) > tol, 1)
    return link | link.T


def _part_labels(link: np.ndarray) -> np.ndarray:
    """The smallest index in each node's connected part of a symmetric
    adjacency: every label falls to its least neighbour's label, then to
    its own label's label, until nothing changes."""
    n = len(link)
    labels = np.arange(n)
    while True:
        new = np.minimum(labels, np.where(link, labels, n).min(axis=1, initial=n))
        new = new[new]
        if (new == labels).all():
            return labels
        labels = new


def _roots(ov: Overlaps, tol: float) -> np.ndarray:
    """The least support index in each support item's part of the overlap
    graph at tol, computed once and kept on ov."""
    if tol not in ov.roots:
        ov.roots[tol] = _part_labels(_support_graph(ov, tol))
    return ov.roots[tol]


@dataclass(frozen=True)
class Component:
    """One irreducible piece: its index y, the labels it covers and its
    weight; its conditional source is its rows of the support, with
    probabilities p_x / weight."""

    y: int
    labels: tuple[str, ...]
    weight: float


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

    def support_ys(self, e: Ensemble) -> np.ndarray:
        """The component index y of each support item of e, in support order."""
        return np.array([self.y_of(e.labels[i]) for i in e.overlaps.support], dtype=int)

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
    """Connected components of the overlap graph.

    Components are ordered by their smallest member label so the Y index
    does not depend on item order quirks.
    """
    ov = e.overlaps
    roots = _roots(ov, tol)
    order = np.argsort(roots, kind="stable")
    # ascending within each part, so each part starts at its root
    parts = np.split(order, np.flatnonzero(roots[order] == order))[1:]
    groups = [[ov.support[k] for k in part] for part in parts]
    groups.sort(key=lambda g: min(e.labels[i] for i in g))

    comps = [Component(y, tuple(e.labels[i] for i in g), float(sum(e.probs[g].tolist())))
             for y, g in enumerate(groups)]
    return Decomposition(tuple(comps), tol)


def overlaps_across_components(e: Ensemble, d: Decomposition) -> bool:
    """True when a joint overlap above the strict default tolerance joins
    two of d's components."""
    ys = d.support_ys(e)
    return bool((ys != ys[_roots(e.overlaps, DEFAULT_OVERLAP_TOL)]).any())


def check_components(e: Ensemble, d: Decomposition):
    """Raise ConsistencyError unless d is the component structure of e's
    overlap graph at d's tolerance: no edge joins two components, and
    each component is one connected part. Only a failing check builds
    the graph again, to name the first edge across components."""
    ov = e.overlaps
    ys = d.support_ys(e)
    roots = _roots(ov, d.tolerance)
    if (ys != ys[roots]).any():  # some part spans two components
        cross = _support_graph(ov, d.tolerance) & (ys[:, None] != ys[None, :])
        i, j = np.argwhere(cross)[0]
        raise ConsistencyError(
            f"decomposition does not match the overlap graph: items {e.labels[ov.support[i]]!r} "
            f"(y={ys[i]}) and {e.labels[ov.support[j]]!r} (y={ys[j]}) overlap above the "
            f"tolerance {d.tolerance} across components"
        )
    parts = Counter(ys[roots == np.arange(len(ys))].tolist())  # one root per part
    for c in d.components:
        if parts[c.y] != 1:
            raise ConsistencyError(
                f"decomposition does not match the overlap graph: component y={c.y} "
                f"covers {parts[c.y]} connected parts of it, not one"
            )
