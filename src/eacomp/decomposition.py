"""Splitting a source into irreducible pieces.

Two signals belong to the same piece when their joint states on A (x) C
overlap, directly or through a chain: the graph is |<psi_x|psi_x'>|
|<sigma_x|sigma_x'>| > tol, tested at most EDGE_BLOCK rows at a time
(`_edges`), so no N x N matrix is formed. A frontier search over those
row blocks, with no label propagation, labels each part by its least
index, seeding each unreached item in ascending order; `Overlaps.roots`
keeps the labels per tolerance for the decomposition and its checks. The
rate formulas condition on the component index Y, the finest classical
information any protocol can extract for free.

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
from .states import EDGE_BLOCK, check_side, overlaps_above


def _edges(ov: Overlaps, rows, tol: float, cols=slice(None)) -> np.ndarray:
    """The overlap graph at support indices rows and cols: |<psi|psi'>| |<sigma|sigma'>| > tol."""
    return overlaps_above(tol, rows, cols, ov.psi, ov.sigma)


def _roots(ov: Overlaps, tol: float) -> np.ndarray:
    """The least support index in each support item's part of the overlap
    graph at tol, kept on ov. The EDGE_BLOCK rows from a seed on are tested at
    once, each pair as the dense test reads it (upper triangle); a frontier past
    them is tested against the unreached items only, which BLAS may round an ulp off."""
    if tol in ov.roots:
        return ov.roots[tol]
    check_tolerance(tol)
    check_side(n := len(ov.probs))
    roots, hi = np.full(n, n), 0  # n: not reached yet
    for seed in (s for s in range(n) if roots[s] == n):
        if seed >= hi:
            lo, hi = seed, min(seed + EDGE_BLOCK, n)
            block, r = _edges(ov, slice(lo, hi), tol), np.arange(hi - lo)
            block[:, lo:hi] = np.where(r[:, None] < r, block[:, lo:hi], block[:, lo:hi].T)
        roots[seed] = seed
        frontier = (block[seed - lo] & (roots == n)).nonzero()[0]
        while frontier.size:
            roots[frontier] = seed
            k = frontier.searchsorted(hi)  # the frontier ascends
            hit = block[frontier[:k] - lo].any(axis=0)
            for i in range(k, frontier.size, EDGE_BLOCK):
                todo = (roots == n).nonzero()[0]
                hit[todo] |= _edges(ov, frontier[i:i + EDGE_BLOCK], tol, todo).any(axis=0)
            frontier = (hit & (roots == n)).nonzero()[0]
    ov.roots[tol] = roots
    return roots


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
        comps = [{"y": c.y, "labels": list(c.labels), "weight": c.weight} for c in self.components]
        return dict(schema_version=1, tolerance=self.tolerance, num_components=self.size, components=comps)


def irreducible_components(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> Decomposition:
    """Connected components of the overlap graph, ordered by their smallest
    member label so the Y index does not depend on item order quirks."""
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
    each component is one connected part. Only a failing check tests edges
    again, scanning rows in ascending order for the first across components."""
    ov = e.overlaps
    ys = d.support_ys(e)
    roots = _roots(ov, d.tolerance)
    if (ys != ys[roots]).any():  # some part spans two components
        for lo in range(0, len(ys), EDGE_BLOCK):
            cross = _edges(ov, slice(lo, lo + EDGE_BLOCK), d.tolerance) & (ys[lo:lo + EDGE_BLOCK, None] != ys)
            if cross.any():
                break
        i, j = np.argwhere(cross)[0] + (lo, 0)
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
