"""Dense reference computations for the tests.

Everything above the Gram section works on full density matrices built
item by item, with no overlap matrices and no Gram spectra, so it shares
no arithmetic with the package's analysis. The Gram section keeps the
support-sized forms the analysis once used, as oracles for its
per-component spectra: the [y = y']-masked N x N Gram matrix and the
renormalised rows of one component.
"""

from functools import reduce

import numpy as np

from eacomp.decomposition import Decomposition
from eacomp.ensemble import Ensemble, Overlaps
from eacomp.errors import LabelError
from eacomp.states import DensityMatrix, SubsystemLayout, partial_trace, single


def extend_with_y(e: Ensemble, d: Decomposition) -> Ensemble:
    """Append |y(x)> to each sigma_x, making the component index explicit.

    The extension leaves every rate quantity unchanged because y(x) is a
    deterministic function of x that local operations could compute anyway.
    Zero-probability items are dropped (they have no component).
    """
    covered = {lbl for c in d.components for lbl in c.labels}
    sup_labels = {e.labels[i] for i in e.support()}
    if covered != sup_labels:
        raise LabelError(
            f"decomposition covers {sorted(covered)} but ensemble support is {sorted(sup_labels)}"
        )
    sup = list(e.support())
    tags = np.eye(d.size)
    sigma = [np.kron(e.sigma[i], tags[d.y_of(e.labels[i])]) for i in sup]
    return Ensemble([e.labels[i] for i in sup], e.probs[sup], e.psi[sup], sigma)


def entropy(m: DensityMatrix) -> float:
    evs = np.clip(np.linalg.eigvalsh(m.entries), 0.0, None)
    evs = evs[evs > 1e-300]
    return float(-(evs * np.log2(evs)).sum())


def dense_profile(e: Ensemble, d: Decomposition) -> dict:
    """S_A, S_Y, S_CY, S_ACY and S_A_given_CY from rho_{A C Y} of the
    Y-extended source, assembled as sum_x p_x |v_x><v_x| and reduced by
    partial traces."""
    ext = extend_with_y(e, d)
    dims = (e.dim_a, e.dim_c, d.size)
    rho = np.zeros((np.prod(dims),) * 2, dtype=complex)
    for prob, psi, sigma in zip(ext.probs, ext.psi, ext.sigma):
        v = np.kron(psi, sigma)
        rho += prob * np.outer(v, v.conj())
    acy = DensityMatrix(SubsystemLayout(("A", "C", "Y"), dims), rho)
    out = {
        "S_A": entropy(partial_trace(acy, {"A"})),
        "S_Y": entropy(partial_trace(acy, {"Y"})),
        "S_CY": entropy(partial_trace(acy, {"C", "Y"})),
        "S_ACY": entropy(acy),
    }
    out["S_A_given_CY"] = out["S_ACY"] - out["S_CY"]
    return out


def components(e: Ensemble, tol: float) -> list[set[str]]:
    """Label sets of the connected parts of the joint-overlap graph, from a
    pairwise loop and a union-find."""
    sup = list(e.support())
    parent = {i: i for i in sup}

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    joint = {i: np.kron(e.psi[i], e.sigma[i]) for i in sup}
    for a in sup:
        for b in sup:
            if a < b and abs(np.vdot(joint[a], joint[b])) > tol:
                parent[root(a)] = root(b)
    groups = {}
    for i in sup:
        groups.setdefault(root(i), set()).add(e.labels[i])
    return sorted(groups.values(), key=min)


# ---------------------------------------------------------------------------
# Gram section


def y_masked_gram(e: Ensemble, ys: np.ndarray, *overlaps: np.ndarray) -> DensityMatrix:
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
    return y_masked_gram(e, d.support_ys(e), e.overlaps.psi_gram, e.overlaps.sigma_gram)


def given(ov: Overlaps, rows, weight: float) -> Overlaps:
    """The items at rows, a boolean mask over the support, with their
    probabilities divided by weight: one component, renormalised."""
    return Overlaps(tuple(k for k, keep in zip(ov.support, rows) if keep), ov.probs[rows] / weight,
                    ov.psi[rows], ov.sigma[rows])
