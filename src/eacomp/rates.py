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
profile and the blind/visible flags, all read from the source's two
overlap matrices [<psi_x|psi_x'>] and [<sigma_x|sigma_x'>] over its
support (`Ensemble.overlaps`). Every rate point is arithmetic on that
analysis; passing an Ensemble instead analyses it on entry, at the
default tolerance. `analyze` is the one place a tolerance is given.

S(CY) and S(ACY) are each evaluated twice: from each component's rows,
renormalised (`Overlaps.given`), and as the spectrum of the support-sized
Gram matrix of the Y-extended signals (raw items, label -> y map),
G_xy = sqrt(p_x p_y) <psi_x|psi_y> <sigma_x|sigma_y> [y(x) = y(y)]
(without <psi_x|psi_y> for S(CY)), which has the nonzero spectrum of
rho_ACY (Jozsa & Schlienz, PRA 62, 012301, 2000); disagreement beyond
1e-6 raises ConsistencyError since it can only come from a bug. Every
spectrum comes from the smaller of a Gram matrix and its marginal, so
MATRIX_CAP bounds the support size and, per component of k states,
min(k, dA dC).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .decomposition import (
    DEFAULT_OVERLAP_TOL,
    Decomposition,
    check_components,
    irreducible_components,
    overlaps_across_components,
)
from .ensemble import Ensemble
from .errors import ConsistencyError, EacompError, InfeasibleConversionError
from .states import DensityMatrix, entropy_from_probs, single, von_neumann_entropy

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


def _y_masked_gram(e: Ensemble, ys: np.ndarray, *overlaps: np.ndarray) -> DensityMatrix:
    """sqrt(p_x p_x') [y(x) = y(x')] times the given overlap matrices, one
    row per support item of e, whose component indices are ys (layout "X")."""
    amp = np.sqrt(e.overlaps.probs)
    gram = reduce(np.multiply, overlaps, np.outer(amp, amp))
    return DensityMatrix(single("X", len(ys)), gram * (ys[:, None] == ys[None, :]), check=False)


def gram_matrix(e: Ensemble, d: Decomposition) -> DensityMatrix:
    """Gram matrix of the Y-extended signals sqrt(p_x) |psi_x sigma_x y(x)>,
    one row per support item (layout "X").

    Its nonzero spectrum is that of rho_ACY; the [y(x) = y(y)] mask drops
    cross-component overlaps at or below the decomposition tolerance.
    """
    return _y_masked_gram(e, d.support_ys(e), e.overlaps.psi_gram, e.overlaps.sigma_gram)


def entropy_profile(e: Ensemble, decomposition: Decomposition | None = None) -> EntropyProfile:
    """Entropy profile of e over a decomposition of e, by default the one
    at the strict default tolerance.

    The decomposition is checked against e's overlap graph at its own
    tolerance first: the block and direct paths below share its label ->
    y map, so neither could see a merged or split component.
    """
    d = irreducible_components(e, DEFAULT_OVERLAP_TOL) if decomposition is None else decomposition
    check_components(e, d)
    ov = e.overlaps
    ys = d.support_ys(e)
    q = d.weights
    s_y = entropy_from_probs(q)
    h_x = entropy_from_probs(ov.probs)
    s_a = von_neumann_entropy(ov.density({"A"}))

    # Block path: S(CY) = H(q) + sum_y q_y S(C|y), same for ACY, each from
    # the component's rows, renormalised.
    blocks = [(c.weight, ov.given(ys == c.y, c.weight)) for c in d.components]
    s_cy = s_y + sum(w * von_neumann_entropy(sub.density({"C"})) for w, sub in blocks)
    s_acy = s_y + sum(w * von_neumann_entropy(sub.density({"A", "C"})) for w, sub in blocks)

    # Direct path: the whole Y-extended source at once, from the raw items
    # and the label -> y map; no weight or renormalisation shared with the
    # block path.
    s_cy_direct = von_neumann_entropy(_y_masked_gram(e, ys, ov.sigma_gram))
    s_acy_direct = von_neumann_entropy(gram_matrix(e, d))

    faults = [
        f"{name} disagrees between block ({block!r}) and direct ({direct!r}) evaluation"
        for name, block, direct in (("S(CY)", s_cy, s_cy_direct), ("S(ACY)", s_acy, s_acy_direct))
        if not abs(block - direct) <= CONSISTENCY_ATOL
    ]
    if faults:
        raise ConsistencyError("; ".join(faults))

    return EntropyProfile(
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


@dataclass(frozen=True)
class Analysis:
    """A source analysed once: its decomposition, entropy profile and kind."""

    source: Ensemble
    decomposition: Decomposition
    profile: EntropyProfile
    blind: bool
    visible: bool


def analyze(src, tol: float | None = None) -> Analysis:
    """Decompose src and build its entropy profile, once each; both, and
    the blind/visible flags, read the overlap matrices src builds once.

    tol is the overlap tolerance of the component graph and the flags
    (default DEFAULT_OVERLAP_TOL); no rate, region or bound function
    takes one. An Analysis is returned as it is, so every function
    taking a source accepts either form; a tol other than its own is
    refused with ValueError.
    """
    if isinstance(src, Analysis):
        if tol is not None and tol != src.decomposition.tolerance:
            raise ValueError(f"analysis is at tolerance {src.decomposition.tolerance}, not {tol}")
        return src
    tol = DEFAULT_OVERLAP_TOL if tol is None else tol
    d = irreducible_components(src, tol)
    return Analysis(src, d, entropy_profile(src, d), src.is_blind(tol), src.is_visible(tol))


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


def optimal_rates(src) -> RatePoint:
    """Cheapest qubit rate under free entanglement, with the ebit rate
    the protocol actually consumes at that corner."""
    p = analyze(src).profile
    return RatePoint(
        q=0.5 * (p.s_a + p.s_a_given_cy),
        e=0.5 * p.i_a_cy,
        note="entanglement-assisted optimum",
    )


def _check_against_general(point: RatePoint, a: Analysis, kind: str) -> RatePoint:
    """point, unless it disagrees with the general formula.

    A disagreement is a bug when the source is blind (visible) and no
    joint overlap above the strict default tolerance joins two of its
    components. Otherwise the user's looser tolerance made the
    specialization apply to a source whose entropies still see distinct
    side information or overlapping components, and that is reported as
    such.
    """
    general = optimal_rates(a)
    if abs(point.q - general.q) <= CROSS_CHECK_ATOL and abs(point.e - general.e) <= CROSS_CHECK_ATOL:
        return point
    e = a.source
    strict = e.is_blind() if kind == "blind" else e.is_visible()
    if strict and not overlaps_across_components(e, a.decomposition):
        raise ConsistencyError(
            f"{kind} specialization (Q={point.q!r}, E={point.e!r}) disagrees with "
            f"general formula (Q={general.q!r}, E={general.e!r})"
        )
    raise EacompError(
        f"{kind} rates (Q={point.q!r}, E={point.e!r}) differ from the general ones "
        f"(Q={general.q!r}, E={general.e!r}): the overlap tolerance {a.decomposition.tolerance} "
        f"(--tol) treats distinct side information as one state or overlapping signals as "
        f"separate components; use a smaller --tol"
    )


def blind_rates(src) -> RatePoint:
    """No side information: Q = S(A) - S(Y)/2, E = S(Y)/2.

    Cross-checked against the general formula. A disagreement is a
    ConsistencyError (a bug) when the source is blind with separate
    components at the strict default tolerance; when it is blind only
    within the looser tolerance of its analysis, it is an EacompError
    naming --tol.
    """
    a = analyze(src)
    if not a.blind:
        raise EacompError("ensemble has nontrivial side information; blind formulas do not apply")
    p = a.profile
    point = RatePoint(q=p.s_a - 0.5 * p.s_y, e=0.5 * p.s_y, note="blind specialization")
    return _check_against_general(point, a, "blind")


def visible_rates(src) -> RatePoint:
    """Side information identifies the signal: Q = E = S(A)/2.

    Cross-checked against the general formula as blind_rates is: a bug
    at the strict default tolerance, an EacompError naming --tol when
    the source is visible only within the looser tolerance of its
    analysis.
    """
    a = analyze(src)
    if not a.visible:
        raise EacompError("side information does not identify the signal; visible formulas do not apply")
    p = a.profile
    point = RatePoint(q=0.5 * p.s_a, e=0.5 * p.s_a, note="visible specialization")
    return _check_against_general(point, a, "visible")


def classical_entanglement_corner(src) -> RatePoint:
    """Blind corner after teleporting the whole quantum message:
    C = 2 S(A) - S(Y), E = S(A) - S(Y). Refused as blind_rates is when
    the blind point disagrees with the general formula."""
    a = analyze(src)
    blind_rates(a)
    p = a.profile
    return RatePoint(
        c=2.0 * p.s_a - p.s_y,
        e=p.s_a - p.s_y,
        note="classical-channel corner (blind)",
    )


def resource_convert(point: RatePoint, mode: str, amount: float) -> RatePoint:
    """Teleportation / dense-coding bookkeeping on a rate point.

    teleport a:   Q -= a, C += 2a, E += a
    dense_code a: C -= a, Q += a/2, E += a/2

    Missing coordinates count as 0. Driving Q or C negative is refused.
    """
    if amount < 0:
        raise ValueError(f"amount must be nonnegative, got {amount}")
    q = point.q or 0.0
    ee = point.e or 0.0
    c = point.c or 0.0
    if mode == "teleport":
        q, c, ee = q - amount, c + 2.0 * amount, ee + amount
        if q < RATE_FLOOR:
            raise InfeasibleConversionError(f"teleporting {amount} would leave Q = {q!r} < 0")
    elif mode == "dense_code":
        c, q, ee = c - amount, q + 0.5 * amount, ee + 0.5 * amount
        if c < RATE_FLOOR:
            raise InfeasibleConversionError(f"dense coding {amount} would leave C = {c!r} < 0")
    else:
        raise ValueError(f"mode must be 'teleport' or 'dense_code', got {mode!r}")
    snap = lambda v: 0.0 if RATE_FLOOR <= v < 0.0 else v
    return replace(point, q=snap(q), e=ee, c=snap(c))
