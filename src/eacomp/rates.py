"""Optimal compression rates for pure-state sources with encoder side
information.

With unlimited shared entanglement the cheapest faithful protocol sends

    Q = (S(A) + S(A|CY)) / 2    qubits per signal

and consumes E = (S(A) - S(A|CY)) / 2 = I(A:CY)/2 ebits per signal, where
Y is the irreducible-component index of the source. The blind special
case collapses to Q = S(A) - S(Y)/2, E = S(Y)/2, the visible one to
Q = E = S(A)/2, and trading the quantum channel for a classical one at
the blind corner costs C = 2 S(A) - S(Y) cbits with E = S(A) - S(Y) ebits.

A source is analysed once (`analyze`): one decomposition, one entropy
profile and the blind/visible flags, all read from the rows psi_x and
sigma_x of its support (`Ensemble.overlaps`). Every rate point is
arithmetic on that analysis, and every rate, region and bound function
takes the Analysis, never the Ensemble. `analyze` is the one place a
tolerance is given.

S(CY) and S(ACY) are each evaluated twice. The block path takes
H(q) + sum_y q_y S(.|y), each S(.|y) from component y's rows with
p(x|y) = p_x / q_y. The direct path sums -lambda log lambda over the raw,
unnormalised blocks of every component, from the raw items, the
label -> y map and each component's own rows, with no N x N matrix:
rho_ACY is block diagonal in y, and each block has the nonzero spectrum
of its Gram matrix sqrt(p_x p_x') <psi_x|psi_x'> <sigma_x|sigma_x'>
(without <psi_x|psi_x'> for S(CY); Jozsa & Schlienz, PRA 62, 012301,
2000). Each path forms its own blocks by the same routine; the check
holds the weighting (p(x|y) against raw p_x) and the final sums
independent. Disagreement beyond 1e-6 raises ConsistencyError since it
can only come from a bug. Every spectrum comes from states.mixture_spectra,
on the smaller of its Gram matrix and its marginal, and equal-size
blocks share one batched eigvalsh, so the cost is
sum_y min(k_y, dA dC)^3 over components of k_y states; MATRIX_CAP
bounds the support size. S(A), the whole support's mixture of psi_x
through the same routine, has one route only; it and the rest of the
profile must meet the entropy inequalities in _bound_faults, within the
same 1e-6, or the profile raises ConsistencyError as well. S(C) is no
part of the profile: only iepsilon's floor reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import (
    DEFAULT_OVERLAP_TOL,
    Decomposition,
    check_components,
    irreducible_components,
    overlaps_across_components,
)
from .ensemble import Ensemble
from .errors import ConsistencyError, EacompError
from .states import entropy_from_probs, mixture_spectra, row_entropies

CONSISTENCY_ATOL = 1e-6
CROSS_CHECK_ATOL = 1e-9
RATE_FLOOR = -1e-9
REPORT_CLAMP = 1e-12


@dataclass(frozen=True)
class EntropyProfile:
    """Entropies of the Y-extended source, in bits."""

    s_a: float
    s_y: float
    s_cy: float
    s_acy: float
    s_acy_direct: float
    s_a_given_cy: float
    i_a_cy: float
    h_x: float
    num_components: int
    component_weights: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "S_A": _clamp_tiny(self.s_a),
            "S_Y": _clamp_tiny(self.s_y),
            "S_CY": _clamp_tiny(self.s_cy),
            "S_ACY": _clamp_tiny(self.s_acy),
            "S_ACY_direct": _clamp_tiny(self.s_acy_direct),
            "S_A_given_CY": self.s_a_given_cy,
            "I_A_CY": _clamp_tiny(self.i_a_cy),
            "H_X": _clamp_tiny(self.h_x),
            "num_components": self.num_components,
            "component_weights": list(self.component_weights),
        }


def _clamp_tiny(v: float) -> float:
    return 0.0 if abs(v) < REPORT_CLAMP else float(v)


def _groups(ys: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The support split by component and grouped by component size: for
    each size k, the components' indices y (m,) and their support rows
    (m, k), each row ascending."""
    order = np.argsort(ys, kind="stable")
    sizes = np.bincount(ys)
    starts = np.cumsum(sizes) - sizes
    out = []
    for k in sorted(set(sizes[sizes > 0].tolist())):
        y = np.flatnonzero(sizes == k)
        out.append((y, order[starts[y][:, None] + np.arange(k)]))
    return out


def _conditional(probs: np.ndarray, ys: np.ndarray, d: Decomposition) -> np.ndarray:
    """p(x|y) = p_x / q_y for each support item, q_y the weight d gives its
    component."""
    q = np.zeros(ys.max() + 1)
    q[[c.y for c in d.components]] = [c.weight for c in d.components]
    return probs / q[ys]


def _spectra(ov: Ensemble, groups, probs: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Spectra of sum_x probs_x |v_x><v_x| over each component's rows, for
    v_x = sigma_x and for v_x = psi_x (x) sigma_x: for each, one stack per
    group of `_groups`, by mixture_spectra from the component's own rows.
    """
    out_c, out_ac = [], []
    for _, idx in groups:
        p, psi, sigma = probs[idx], ov.psi[idx], ov.sigma[idx]
        out_c.append(mixture_spectra(p, sigma))
        out_ac.append(mixture_spectra(p, psi, sigma))
    return out_c, out_ac


def _conditional_entropies(ov: Ensemble, groups, cond: np.ndarray) -> tuple[dict[int, float], dict[int, float]]:
    """S(C|y) and S(AC|y) of each component y, from its rows weighted by
    p(x|y)."""
    return tuple(
        {y: h for (ys, _), s in zip(groups, spectra) for y, h in zip(ys.tolist(), row_entropies(s).tolist())}
        for spectra in _spectra(ov, groups, cond)
    )


def _direct_entropies(ov: Ensemble, groups) -> tuple[float, float]:
    """S(CY) and S(ACY), each as -sum lambda log lambda over every
    component's raw block sum_x p_x |v_x><v_x|, each block formed from the
    component's own rows."""
    return tuple(
        entropy_from_probs(np.concatenate([s.ravel() for s in spectra]))
        for spectra in _spectra(ov, groups, ov.probs)
    )


def entropy_profile(e: Ensemble, decomposition: Decomposition) -> EntropyProfile:
    """Entropy profile of e over a decomposition of e.

    The decomposition is checked against e's overlap graph at its own
    tolerance first: the block and direct paths below share its label ->
    y map, so neither could see a merged or split component.
    """
    d = decomposition
    check_components(e, d)
    ov = e.overlaps
    ys = d.support_ys(e)
    q = d.weights
    s_y = entropy_from_probs(q)
    h_x = entropy_from_probs(ov.probs)
    s_a = entropy_from_probs(mixture_spectra(ov.probs, ov.psi))
    groups = _groups(ys)

    # Block path: S(CY) = H(q) + sum_y q_y S(C|y), same for ACY, each
    # S(.|y) from the component's rows, renormalised.
    s_c, s_ac = _conditional_entropies(ov, groups, _conditional(ov.probs, ys, d))
    s_cy = s_y + sum(c.weight * s_c[c.y] for c in d.components)
    s_acy = s_y + sum(c.weight * s_ac[c.y] for c in d.components)

    # Direct path: every component's raw block, from the raw items and the
    # label -> y map; no weight or renormalisation shared with the block
    # path.
    s_cy_direct, s_acy_direct = _direct_entropies(ov, groups)

    faults = [
        f"{name} disagrees between block ({block!r}) and direct ({direct!r}) evaluation"
        for name, block, direct in (("S(CY)", s_cy, s_cy_direct), ("S(ACY)", s_acy, s_acy_direct))
        if not abs(block - direct) <= CONSISTENCY_ATOL
    ]
    profile = EntropyProfile(
        s_a=s_a,
        s_y=s_y,
        s_cy=s_cy,
        s_acy=s_acy,
        s_acy_direct=s_acy_direct,
        s_a_given_cy=s_acy - s_cy,
        i_a_cy=s_a - (s_acy - s_cy),
        h_x=h_x,
        num_components=d.size,
        component_weights=tuple(float(w) for w in q),
    )
    faults += _bound_faults(profile, e.dim_a, e.dim_c)
    if faults:
        raise ConsistencyError("; ".join(faults))
    return profile


def _bound_faults(p: EntropyProfile, dim_a: int, dim_c: int) -> list[str]:
    """The entropy inequalities every profile meets, each one that fails
    beyond CONSISTENCY_ATOL as a message: Araki-Lieb and subadditivity
    on A and CY, S(Y) <= S(CY) <= S(Y) + log2 dC for the classical Y,
    and S(A) <= min(H(X), log2 dA) for a mixture of pure signals."""
    bounds = (
        ("|S(A) - S(CY)| <= S(ACY)", abs(p.s_a - p.s_cy), p.s_acy),
        ("S(ACY) <= S(A) + S(CY)", p.s_acy, p.s_a + p.s_cy),
        ("S(Y) <= S(CY)", p.s_y, p.s_cy),
        ("S(CY) <= S(Y) + log2 dC", p.s_cy, p.s_y + math.log2(dim_c)),
        ("S(A) <= H(X)", p.s_a, p.h_x),
        ("S(A) <= log2 dA", p.s_a, math.log2(dim_a)),
    )
    return [
        f"entropy bound {name} fails: {float(lo)!r} > {float(hi)!r}"
        for name, lo, hi in bounds
        if not lo <= hi + CONSISTENCY_ATOL
    ]


@dataclass(frozen=True)
class Analysis:
    """A source analysed once: its decomposition, entropy profile and kind."""

    source: Ensemble
    decomposition: Decomposition
    profile: EntropyProfile
    blind: bool
    visible: bool


def analyze(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> Analysis:
    """Decompose e and build its entropy profile, once each; both, and
    the blind/visible flags, read the support rows e builds once.

    tol is the overlap tolerance of the component graph and the flags;
    no rate, region or bound function takes one.
    """
    d = irreducible_components(e, tol)
    return Analysis(e, d, entropy_profile(e, d), e.is_blind(tol), e.is_visible(tol))


@dataclass(frozen=True)
class RatePoint:
    """Resource rates per source signal. Unused coordinates stay None.

    q: qubits sent, e: ebits consumed (negative means generated),
    c: classical bits sent.
    """

    q: float | None = None
    e: float | None = None
    c: float | None = None
    note: str = ""

    def __post_init__(self):
        for name, v in (("q", self.q), ("c", self.c)):
            if v is not None and v < RATE_FLOOR:
                raise EacompError(f"{name} rate {v!r} is negative")

    def to_json(self) -> dict:
        out = {}
        if self.q is not None:
            out["Q"] = _clamp_tiny(self.q)
        if self.e is not None:
            out["E"] = _clamp_tiny(self.e)
        if self.c is not None:
            out["C"] = _clamp_tiny(self.c)
        if self.note:
            out["note"] = self.note
        return out


def optimal_rates(a: Analysis) -> RatePoint:
    """Cheapest qubit rate under free entanglement, with the ebit rate
    the protocol actually consumes at that corner."""
    p = a.profile
    return RatePoint(
        q=0.5 * (p.s_a + p.s_a_given_cy),
        e=0.5 * p.i_a_cy,
        note="entanglement-assisted optimum",
    )


def _check_against_general(q: float, ee: float, a: Analysis, kind: str):
    """Raise unless the special rates (q, ee) agree with the general formula.
    It runs before the RatePoint is built, which refuses a negative q.

    A disagreement is a bug when the source is blind (visible) and no
    joint overlap above the strict default tolerance joins two of its
    components. Otherwise the user's looser tolerance made the
    specialization apply to a source whose entropies still see distinct
    side information or overlapping components, and that is reported as
    such.
    """
    general = optimal_rates(a)
    if abs(q - general.q) <= CROSS_CHECK_ATOL and abs(ee - general.e) <= CROSS_CHECK_ATOL:
        return
    e = a.source
    strict = e.is_blind() if kind == "blind" else e.is_visible()
    if strict and not overlaps_across_components(e, a.decomposition):
        raise ConsistencyError(
            f"{kind} specialization (Q={q!r}, E={ee!r}) disagrees with "
            f"general formula (Q={general.q!r}, E={general.e!r})"
        )
    raise EacompError(
        f"{kind} rates (Q={q!r}, E={ee!r}) differ from the general ones "
        f"(Q={general.q!r}, E={general.e!r}): the overlap tolerance {a.decomposition.tolerance} "
        f"(--tol) treats distinct side information as one state or overlapping signals as "
        f"separate components; use a smaller --tol"
    )


def blind_rates(a: Analysis) -> RatePoint:
    """No side information: Q = S(A) - S(Y)/2, E = S(Y)/2.

    Cross-checked against the general formula. A disagreement is a
    ConsistencyError (a bug) when the source is blind with separate
    components at the strict default tolerance; when it is blind only
    within the looser tolerance of its analysis, it is an EacompError
    naming --tol.
    """
    if not a.blind:
        raise EacompError("ensemble has nontrivial side information; blind formulas do not apply")
    p = a.profile
    q, ee = p.s_a - 0.5 * p.s_y, 0.5 * p.s_y
    _check_against_general(q, ee, a, "blind")
    return RatePoint(q=q, e=ee, note="blind specialization")


def visible_rates(a: Analysis) -> RatePoint:
    """Side information identifies the signal: Q = E = S(A)/2.

    Cross-checked against the general formula as blind_rates is: a bug
    at the strict default tolerance, an EacompError naming --tol when
    the source is visible only within the looser tolerance of its
    analysis.
    """
    if not a.visible:
        raise EacompError("side information does not identify the signal; visible formulas do not apply")
    p = a.profile
    q = ee = 0.5 * p.s_a
    _check_against_general(q, ee, a, "visible")
    return RatePoint(q=q, e=ee, note="visible specialization")


def classical_entanglement_corner(a: Analysis) -> RatePoint:
    """Blind corner after teleporting the whole quantum message:
    C = 2 S(A) - S(Y), E = S(A) - S(Y). Refused as blind_rates is when
    the blind point disagrees with the general formula."""
    blind_rates(a)
    p = a.profile
    return RatePoint(
        c=2.0 * p.s_a - p.s_y,
        e=p.s_a - p.s_y,
        note="classical-channel corner (blind)",
    )
