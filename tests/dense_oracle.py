"""Dense reference computations for the tests.

Everything above the Gram section works on full density matrices built
item by item, with no overlap matrices and no Gram spectra, so it shares
no arithmetic with the package's analysis. The Gram section keeps the
support-sized forms the analysis once used, as oracles for its
per-component spectra: the [y = y']-masked N x N Gram matrix and the
renormalised rows of one component. The last section keeps earlier
per-row, graph-rebuilding, prefix-tree and fsum forms of package
routines, as oracles for their array forms.
"""

import math
from collections import Counter
from dataclasses import replace
from functools import reduce

import numpy as np

from eacomp._accel import _distinct, _products
from eacomp.decomposition import DEFAULT_OVERLAP_TOL, Component, Decomposition, _part_labels, _support_graph
from eacomp.ensemble import PROB_ATOL, Ensemble, Overlaps
from eacomp.errors import ConsistencyError, EacompError, LabelError
from eacomp.states import (
    DensityMatrix,
    SubsystemLayout,
    _require_same_layout,
    eig_hermitian,
    partial_trace,
    single,
)


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


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity, trace-norm convention (1 for identical states)."""
    _require_same_layout(a.layout, b.layout)
    evs, vecs = eig_hermitian(a)
    sqrt_a = (vecs * np.sqrt(evs)) @ vecs.conj().T
    inner = sqrt_a @ b.entries @ sqrt_a
    w = np.linalg.eigvalsh(inner)
    f = float(np.sqrt(np.clip(w, 0.0, None)).sum())
    return min(max(f, 0.0), 1.0)


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


# ---------------------------------------------------------------------------
# Earlier forms


def validate_per_row(e: Ensemble) -> list[str]:
    """ensemble.validate as one loop over the rows: a line per fault, a
    non-finite probability or amplitude not also reported as a bad
    probability sum or norm, and the support's sum only when the whole
    sum is within tolerance."""
    out = []
    probs = e.probs.tolist()
    for i, (label, prob) in enumerate(zip(e.labels, probs)):
        where = f"item {i} ({label!r})"
        if not math.isfinite(prob):
            out.append(f"{where}: probability {prob!r} is not finite")
        elif prob < -PROB_ATOL:
            out.append(f"{where}: negative probability {prob!r}")
        for name, amps in (("psi", e.psi[i]), ("sigma", e.sigma[i])):
            bad = np.flatnonzero(~np.isfinite(amps))
            for k in bad:
                out.append(f"{where}: {name} has non-finite amplitudes: "
                           f"amplitude {k} = {amps[k]} is not finite")
            if bad.size:
                continue
            nrm = float(np.linalg.norm(amps))
            if abs(nrm - 1.0) > 1e-9:
                out.append(f"{where}: {name} norm deviates from 1 by {abs(nrm - 1.0):.3e}")
    if all(map(math.isfinite, probs)):
        total = float(sum(probs))
        support = float(sum(p for p in probs if p > 0.0))
        if not abs(total - 1.0) <= PROB_ATOL:
            out.append(f"probability sum deviates from 1 by {abs(total - 1.0):.3e}")
        elif not abs(support - 1.0) <= PROB_ATOL:
            out.append(f"probability sum over the support deviates from 1 by {abs(support - 1.0):.3e}")
    for lbl in sorted(set(l for l in e.labels if e.labels.count(l) > 1)):
        out.append(f"duplicate label {lbl!r}")
    return out


def _links(e: Ensemble, d: Decomposition, tol: float):
    """The component index of each support item of e, the overlap graph
    at tol over them, and the edges of that graph that join two of d's
    components."""
    ys = d.support_ys(e)
    link = _support_graph(e.overlaps, tol)
    return ys, link, link & (ys[:, None] != ys[None, :])


def overlaps_across_components(e: Ensemble, d: Decomposition) -> bool:
    """decomposition.overlaps_across_components from a fresh overlap graph:
    True when a joint overlap above the strict default tolerance joins two
    of d's components."""
    return bool(_links(e, d, DEFAULT_OVERLAP_TOL)[2].any())


def check_components(e: Ensemble, d: Decomposition):
    """decomposition.check_components from a fresh overlap graph: raise
    ConsistencyError unless d is the component structure of e's overlap
    graph at d's tolerance: no edge joins two components, and each
    component is one connected part."""
    ov = e.overlaps
    ys, link, cross = _links(e, d, d.tolerance)
    if cross.any():
        i, j = np.argwhere(cross)[0]
        raise ConsistencyError(
            f"decomposition does not match the overlap graph: items {e.labels[ov.support[i]]!r} "
            f"(y={ys[i]}) and {e.labels[ov.support[j]]!r} (y={ys[j]}) overlap above the "
            f"tolerance {d.tolerance} across components"
        )
    labels = _part_labels(link)
    parts = Counter(ys[labels == np.arange(len(ys))].tolist())  # one root per part
    for c in d.components:
        if parts[c.y] != 1:
            raise ConsistencyError(
                f"decomposition does not match the overlap graph: component y={c.y} "
                f"covers {parts[c.y]} connected parts of it, not one"
            )


def mutated(e: Ensemble, d: Decomposition) -> list[Decomposition]:
    """d, and d with its components merged into one, its first component
    of several labels split in two, its indices y moved off 0..k-1, and an
    extra component over e's zero-probability labels, where those exist."""
    comps = d.components
    out = [d, replace(d, components=(Component(0, sum((c.labels for c in comps), ()), 1.0),)),
           replace(d, components=tuple(replace(c, y=2 * c.y + 3) for c in comps))]
    big = next((c for c in comps if len(c.labels) > 1), None)
    if big is not None:
        halves = (replace(big, labels=big.labels[:1]), Component(len(comps), big.labels[1:], 0.0))
        out.append(replace(d, components=tuple(c for c in comps if c is not big) + halves))
    zero = tuple(lbl for lbl, p in zip(e.labels, e.probs.tolist()) if not p > 0.0)
    if zero:
        out.append(replace(d, components=comps + (Component(len(comps), zero, 0.0),)))
    return out


def outcomes(module, e: Ensemble, d: Decomposition) -> list:
    """What module's check_components and overlaps_across_components make
    of d: each one's result, or the type and message of what it raised."""
    out = []
    for check in (module.check_components, module.overlaps_across_components):
        try:
            out.append(check(e, d))
        except EacompError as exc:
            out.append((type(exc), str(exc)))
    return out


def _sequence_table(cols) -> np.ndarray:
    """prod_i cols[i][x_i] for every sequence x, flattened in C order."""
    out = np.ones(1)
    for c in cols:
        out = np.multiply.outer(out, c).ravel()
    return out


def prefix_tree_block_fidelity(probs: np.ndarray, g: np.ndarray, sel: np.ndarray) -> float:
    """_accel.block_fidelity with p_pass(x^n) = sum_k prod_i g[x_i, sel[k, i]]
    as a prefix-tree contraction: with the rows sorted, the rows below each
    code prefix of length m are contiguous, and that prefix holds the sum of
    their suffix products as a table over x_{m+1..n}. Stepping from m + 1 to
    m multiplies each node by g[:, its last index] and adds siblings."""
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    g = np.ascontiguousarray(g, dtype=np.float64)
    sel = np.ascontiguousarray(sel, dtype=np.int64)
    rank, n = sel.shape
    rows = sel[np.lexsort(sel.T[::-1])]
    heads = np.arange(rank)  # first row of each node at the current depth
    table = np.ones((rank, 1))
    for m in range(n - 1, -1, -1):
        last = g[:, rows[heads, m]].T
        table = (last[:, :, None] * table[:, None, :]).reshape(len(heads), -1)
        prefixes = rows[heads, :m]
        first = np.ones(len(heads), dtype=bool)
        first[1:] = (prefixes[1:] != prefixes[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        table = np.add.reduceat(table, starts, axis=0)
        heads = heads[starts]
    ppass = table[0]

    fail = _sequence_table([g[:, k] for k in sel[0]])
    pseq = _sequence_table([probs] * n)
    np.clip(ppass, 0.0, 1.0, out=ppass)
    fv = np.sqrt(ppass * ppass + (1.0 - ppass) * fail)
    np.clip(fv, 0.0, 1.0, out=fv)
    total = math.fsum((pseq * fv).tolist())
    return min(max(total, 0.0), 1.0)


def fsum_block_fidelity(probs: np.ndarray, g: np.ndarray, sel: np.ndarray) -> float:
    """_accel.block_fidelity with a fresh array for every elementwise step
    and math.fsum over the ns^n terms: the kernel's bit-for-bit oracle."""
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    g = np.ascontiguousarray(g, dtype=np.float64)
    sel = np.ascontiguousarray(sel, dtype=np.int64)
    n = sel.shape[1]
    h = n // 2

    heads, head_of = _distinct(sel[:, :h], g.shape[1])
    tails, tail_of = _distinct(sel[:, h:], g.shape[1])
    counts = np.zeros((len(heads), len(tails)))
    np.add.at(counts, (head_of, tail_of), 1.0)
    u, v = _products(g, heads), _products(g, tails)
    ppass = (u.T @ (counts @ v)).ravel()

    # row 0's head and tail products are rows of u and v already
    fail = np.multiply.outer(u[head_of[0]], v[tail_of[0]]).ravel()
    pseq = np.multiply.outer(_sequence_table([probs] * h), _sequence_table([probs] * (n - h))).ravel()
    np.clip(ppass, 0.0, 1.0, out=ppass)
    fv = np.sqrt(ppass * ppass + (1.0 - ppass) * fail)
    np.clip(fv, 0.0, 1.0, out=fv)
    total = math.fsum(memoryview(pseq * fv))
    return min(max(total, 0.0), 1.0)
