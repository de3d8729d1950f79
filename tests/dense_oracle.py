"""Dense reference computations for the tests.

Everything above the Gram section works on full density matrices built
item by item and reduced by reshape-and-trace partial traces, with no
overlap matrices and no Gram spectra, so it shares no arithmetic with
the package's analysis. The Gram section keeps the support-sized forms
the analysis once used, as oracles for its per-component spectra: the
[y = y']-masked N x N Gram matrix, the renormalised rows of one
component, and the one-matrix route to S(A). The last section keeps earlier per-row, graph-rebuilding,
prefix-tree and fsum forms of package routines, as oracles for their
array forms, the dense N x N overlap graph and its label propagation,
as the oracle for the partition's blocked frontier search, the inline
joint product as the oracle for overlaps_above, sigma's N x N Gram
matrix as the oracle for is_visible's blocked scan, the per-code
simulator (np.unique keys, products folded for each code, every index
tuple enumerated) as the oracle for the per-curve tables, and the
one-isometry kernel and the one-walk-at-a-time isometry search, as
oracles for the stacked kernel and the lockstep search.
"""

import math
from collections import Counter
from dataclasses import replace
from functools import reduce

import numpy as np

from eacomp._accel import BlockFidelity, _entropy_pull, _exact_sum
from eacomp.decomposition import DEFAULT_OVERLAP_TOL, Component, Decomposition
from eacomp.ensemble import PROB_ATOL, Ensemble, Overlaps, check_tolerance, reduced
from eacomp.errors import ConsistencyError, DimensionLimitError, EacompError, LabelError, LayoutMismatchError
from eacomp.iepsilon import (
    ARMIJO,
    CONV_TOL,
    FEASIBILITY_SLACK,
    KICK,
    VERIFY_ATOL,
    IEpsilonEstimate,
    IsometrySearchConfig,
    _gaussian,
    _tangent,
    _Target,
    _witness,
    identity_isometry,
    objective,
)
from eacomp.schumacher import CodeSpace, _check_sequences, _checked_rank
from eacomp.states import DensityMatrix, eig_hermitian, gram, mixture, von_neumann_entropy


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


def partial_trace(m: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Trace out of m, an operator on the product of factors of the given
    dims, every factor whose index is not in keep; the kept factors stay
    in their order."""
    k = len(dims)
    keep = sorted(set(keep))
    perm = keep + [i for i in range(k) if i not in keep]
    tens = np.asarray(m).reshape(tuple(dims) * 2).transpose(perm + [k + i for i in perm])
    dk = math.prod(dims[i] for i in keep)
    dt = math.prod(dims) // dk
    return np.einsum("iaja->ij", tens.reshape(dk, dt, dk, dt))


def entropy(m: np.ndarray) -> float:
    evs = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    evs = evs[evs > 1e-300]
    return float(-(evs * np.log2(evs)).sum())


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity, trace-norm convention (1 for identical states)."""
    if a.entries.shape != b.entries.shape:
        raise LayoutMismatchError(f"matrix sides differ: {a.entries.shape[0]} vs {b.entries.shape[0]}")
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
    DensityMatrix(rho)  # refuses a rho that is not Hermitian with unit trace
    out = {
        "S_A": entropy(partial_trace(rho, dims, {0})),
        "S_Y": entropy(partial_trace(rho, dims, {2})),
        "S_CY": entropy(partial_trace(rho, dims, {1, 2})),
        "S_ACY": entropy(rho),
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
    row per support item of e, whose component indices are ys."""
    amp = np.sqrt(e.overlaps.probs)
    gram = reduce(np.multiply, overlaps, np.outer(amp, amp))
    return DensityMatrix(gram * (ys[:, None] == ys[None, :]), check=False)


def gram_matrix(e: Ensemble, d: Decomposition) -> DensityMatrix:
    """Gram matrix of the Y-extended signals sqrt(p_x) |psi_x sigma_x y(x)>,
    one row per support item.

    Its nonzero spectrum is that of rho_ACY; the [y(x) = y(y)] mask drops
    cross-component overlaps at or below the decomposition tolerance.
    """
    return y_masked_gram(e, d.support_ys(e), gram(e.overlaps.psi), gram(e.overlaps.sigma))


def density_s_a(e: Ensemble) -> float:
    """S(A) by the route entropy_profile took before states.mixture_spectra
    (Overlaps.density): the support's dimA x dimA marginal when it has at
    least dimA items, else its Gram matrix sqrt(p_x p_x') <psi_x|psi_x'>,
    each as one DensityMatrix."""
    ov = e.overlaps
    if len(ov.probs) >= e.dim_a:
        m = mixture(ov.probs, ov.psi)
    else:
        amp = np.sqrt(ov.probs)
        m = np.outer(amp, amp) * gram(ov.psi)
    return von_neumann_entropy(DensityMatrix(m, check=False))


def given(ov: Overlaps, rows, weight: float) -> Overlaps:
    """The items at rows, a boolean mask over the support, with their
    probabilities divided by weight: one component, renormalised."""
    return Overlaps(tuple(k for k, keep in zip(ov.support, rows) if keep), ov.probs[rows] / weight,
                    ov.psi[rows], ov.sigma[rows])


# ---------------------------------------------------------------------------
# Earlier forms


def validate_per_row(labels, probs, psi, sigma) -> list[str]:
    """ensemble.validate as one loop over the raw rows of a source, which
    the Ensemble constructor would refuse with these lines: a line per
    fault, a non-finite probability or amplitude not also reported as a
    bad probability sum or norm, and the support's sum only when the whole
    sum is within tolerance."""
    out = []
    labels = list(labels)
    probs = np.asarray(probs, dtype=np.float64).tolist()
    psi, sigma = np.asarray(psi, dtype=np.complex128), np.asarray(sigma, dtype=np.complex128)
    for i, (label, prob) in enumerate(zip(labels, probs)):
        where = f"item {i} ({label!r})"
        if not math.isfinite(prob):
            out.append(f"{where}: probability {prob!r} is not finite")
        elif prob < -PROB_ATOL:
            out.append(f"{where}: negative probability {prob!r}")
        for name, amps in (("psi", psi[i]), ("sigma", sigma[i])):
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
    for lbl in sorted(set(l for l in labels if labels.count(l) > 1)):
        out.append(f"duplicate label {lbl!r}")
    return out


def _support_graph(ov: Overlaps, tol: float) -> np.ndarray:
    """Adjacency over the support items: |<psi|psi'>| |<sigma|sigma'>| > tol."""
    check_tolerance(tol)
    link = np.triu(np.abs(gram(ov.psi)) * np.abs(gram(ov.sigma)) > tol, 1)
    return link | link.T


def edges(ov: Overlaps, rows, tol, cols=slice(None)) -> np.ndarray:
    """decomposition._edges as it formed the overlap graph at support
    indices rows and cols before states.overlaps_above."""
    return np.abs(ov.psi[rows].conj() @ ov.psi[cols].T) * np.abs(ov.sigma[rows].conj() @ ov.sigma[cols].T) > tol


def is_visible(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> bool:
    """Ensemble.is_visible from sigma's whole Gram matrix, each pair read
    from its upper triangle."""
    check_tolerance(tol)
    n = len(e.overlaps.probs)
    if n < 2 or e.dim_c < n:
        return False
    g = gram(e.overlaps.sigma)
    return not (np.abs(g[np.triu_indices(len(g), 1)]) > tol).any()


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


def overlap_graph(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> np.ndarray:
    """Boolean adjacency over items, edge iff |<joint_i|joint_j>| > tol; the
    diagonal and the rows and columns of zero-probability items are False."""
    sup = list(e.overlaps.support)
    adj = np.zeros((e.size, e.size), dtype=bool)
    adj[np.ix_(sup, sup)] = _support_graph(e.overlaps, tol)
    return adj


def irreducible_components(e: Ensemble, tol: float = DEFAULT_OVERLAP_TOL) -> Decomposition:
    """decomposition.irreducible_components from the dense overlap graph and
    label propagation: each part's items ascending, the parts ordered by
    their least label, each weight summed over its items in that order."""
    ov = e.overlaps
    labels = _part_labels(_support_graph(ov, tol))
    groups = [[ov.support[k] for k in np.flatnonzero(labels == root)] for root in np.unique(labels)]
    groups.sort(key=lambda g: min(e.labels[i] for i in g))
    return Decomposition(tuple(Component(y, tuple(e.labels[i] for i in g), float(sum(e.probs[g].tolist())))
                               for y, g in enumerate(groups)), tol)


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


def _products(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """prod_i g[x_i, rows[r, i]] for each row r and every sequence x over
    its columns, flattened in C order: shape (len(rows), ns**width)."""
    table = np.ones((len(rows), 1))
    for col in rows.T:
        table = (table[:, :, None] * g[:, col].T[:, None, :]).reshape(len(rows), -1)
    return table


def _distinct(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, and the position of each row among them, found
    on one mixed-radix integer key per row (entries in [0, base))."""
    keys = rows @ base ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inverse


def per_code_block_fidelity(probs: np.ndarray, g: np.ndarray, sel: np.ndarray) -> BlockFidelity:
    """_accel.block_fidelity with every table built for this one code: the
    distinct heads and tails from np.unique, their products folded from
    the code's own rows. The per-curve tables' bit-for-bit oracle."""
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
    ppass = u.T @ (counts @ v)  # (ns^h, ns^(n-h)), sequences in C order

    # row 0's head and tail products are rows of u and v already
    u0, v0 = u[head_of[0]], v[tail_of[0]]
    ph, pt = _sequence_table([probs] * h), _sequence_table([probs] * (n - h))
    mean_pass = float(ph @ ppass @ pt)
    mean_fail = float((ph @ u0) * (v0 @ pt))

    np.clip(ppass, 0.0, 1.0, out=ppass)
    mean_clipped_pass = float(ph @ ppass @ pt)
    fv = np.multiply.outer(u0, v0, out=np.empty_like(ppass))
    tmp = np.subtract(1.0, ppass, out=np.empty_like(ppass))
    tmp *= fv
    np.multiply(ppass, ppass, out=fv)
    fv += tmp
    np.sqrt(fv, out=fv)
    np.clip(fv, 0.0, 1.0, out=fv)
    fv *= np.multiply.outer(ph, pt, out=tmp)
    fidelity = min(max(_exact_sum(fv, tmp), 0.0), 1.0)
    return BlockFidelity(fidelity, mean_pass, mean_fail, mean_clipped_pass)


def enumerating_code_space(e: Ensemble, n: int, rank: int, spectrum: tuple) -> CodeSpace:
    """schumacher._code_space from every index tuple of n copies, in an
    n x dA^n array, with the count of each index taken per tuple."""
    da = e.dim_a
    weights, vectors = spectrum

    # Every index tuple in lexicographic order, one row per copy: row i
    # runs through 0..da-1 once per period, holding each index for
    # da**(n-1-i) tuples. (np.indices gives the same but needs n + 1 axes,
    # and numpy stops at 64.)
    indices = np.empty((n, da**n), dtype=np.int64)
    for i, row in enumerate(indices):
        row.reshape(da**i, da, -1)[...] = np.arange(da)[:, None]
    # Weigh each index tuple as prod_j w_j ** count_j, the same float
    # operations for every tuple of one type, so equal-weight products tie
    # exactly and the stable sort keeps them in lexicographic order.
    flat = np.ones(indices.shape[1])
    for j, w in enumerate(weights):
        flat *= w ** np.count_nonzero(indices == j, axis=0)
    order = np.argsort(-flat, kind="stable")
    kept = order[:rank]
    selected = np.ascontiguousarray(indices[:, kept].T, dtype=np.int64)
    return CodeSpace(
        n=n,
        rank=rank,
        eigen_weights=weights,
        eigen_vectors=vectors,
        selected=selected,
        selected_weights=flat[kept].copy(),
    )


def per_code_curve(e: Ensemble, ns, rate_q: float) -> tuple[list, list, list]:
    """schumacher.fidelity_curve's loop with a fresh code and fresh tables
    for each block length: the codes, the kernel's results and the
    warnings, as per_code_block_fidelity and enumerating_code_space give
    them."""
    codes, results, warnings = [], [], []
    spectrum = None
    for n in ns:
        try:
            rank = _checked_rank(e, int(n), rate_q)
            _check_sequences(e, int(n))
            if spectrum is None:
                spectrum = eig_hermitian(reduced(e, {"A"}))
            code = enumerating_code_space(e, int(n), rank, spectrum)
            g = np.abs(e.overlaps.psi @ code.eigen_vectors.conj()) ** 2
            codes.append(code)
            results.append(per_code_block_fidelity(e.overlaps.probs, g, code.selected))
        except DimensionLimitError as exc:
            warnings.append(f"n={n}: {exc}")
    return codes, results, warnings


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


def single_unitary_objective(v, phis, probs, da: int, dc: int, dw: int):
    """_accel.unitary_objective for one isometry v: the stacked kernel's
    bit-for-bit oracle, slice by slice."""
    nx, d_in = phis.shape
    dcw = dw * dc
    xis = phis @ v.T  # row x is V phi_x

    # b[x] is the (C W) x A matrix of signal x's output; its C W marginal
    # is b b^dagger, and the mixture's is B B^dagger for the columns
    # B = [sqrt(p_x) b[x]] stacked side by side.
    roots = np.sqrt(probs)
    b = xis.reshape(nx, dw, da, dc).transpose(0, 1, 3, 2).reshape(nx, dcw, da)
    stacked = (roots[:, None, None] * b).transpose(1, 0, 2).reshape(dcw, nx * da)

    s_x, pull_x = _entropy_pull(b)
    s_mix, pull = _entropy_pull(stacked)
    mi = float(s_mix) - float(probs @ s_x)
    ov = np.einsum("xk,xwk->xw", phis.conj(), xis.reshape(nx, dw, d_in))
    f = (np.abs(ov) ** 2).sum(axis=1)
    fid = float(probs @ np.sqrt(np.clip(f, 0.0, 1.0)))

    # dS(m m^dagger) = -2 Re Tr[((log2(m m^dagger) + 1/ln 2) m)^dagger dm],
    # and the 1/ln 2 terms of S(B B^dagger) and sum_x p_x S(b b^dagger)
    # cancel: dI/db[x] = 2 p_x (log2(b b^dagger) - log2(B B^dagger)) b[x]
    pull = pull.reshape(dcw, nx, da).transpose(1, 0, 2)  # sqrt(p_x) log2(B B^dagger) b[x]
    g_b = 2.0 * (probs[:, None, None] * pull_x - roots[:, None, None] * pull)
    g_xis = g_b.reshape(nx, dw, dc, da).transpose(0, 1, 3, 2).reshape(nx, -1)

    # F = sum_x p_x sqrt(f_x), f_x = sum_w |<phi_x| V_w |phi_x>|^2
    weight = np.divide(probs, np.sqrt(f), out=np.zeros_like(f), where=f > 0.0)
    g_ov = (weight[:, None] * ov)[:, :, None] * phis[:, None, :]
    return mi, fid, g_xis.T @ phis.conj(), g_ov.reshape(nx, -1).T @ phis.conj()


def single_penalised_objective(v, phis, probs, dims: tuple[int, int, int], need: float, penalty: float):
    """(I, fidelity, I - penalty * max(0, need - fidelity)^2, its Euclidean
    gradient in V) for the isometry v; dims = (dimA, dimC, |W|)."""
    mi, fid, g_mi, g_fid = single_unitary_objective(v, phis, probs, *dims)
    short = max(0.0, need - fid)
    return mi, fid, mi - penalty * short**2, g_mi + (2.0 * penalty * short) * g_fid


def single_retract(m: np.ndarray) -> np.ndarray:
    """The isometry Q of m = QR with R's diagonal positive; m = V + tZ for
    a tangent Z has full column rank, (V + tZ)^dagger (V + tZ) >= 1."""
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sequential_search(
    t: _Target, eps: float, config: IsometrySearchConfig, warm_starts: tuple[np.ndarray, ...] = ()
) -> IEpsilonEstimate:
    """iepsilon._search as it was before its walks ran in lockstep: every
    start scored one at a time, then each walk run to its end before the
    next begins. The lockstep search must return exactly this."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    e = t.source
    probs, phis = e.overlaps.probs, e.overlaps.joint
    d_in = e.dim_a * e.dim_c
    env_dim = config.resolve_env_dim(e.dim_a, e.dim_c)
    dims = (e.dim_a, e.dim_c, env_dim)

    need = 1.0 - eps
    ceiling = t.s_cy if eps == 0 else t.h_x
    evaluations = 0
    # per start: (I, fidelity, isometry) of its best feasible candidate
    bests: list[tuple[float, float, np.ndarray | None]] = []

    def score(v):
        nonlocal evaluations
        evaluations += 1
        return single_penalised_objective(v, phis, probs, dims, need, config.penalty)

    def keep(r, v, mi, fid) -> bool:
        """Record a candidate of start r; True once it reaches the ceiling."""
        if fid < need - FEASIBILITY_SLACK:
            return False
        if mi > bests[r][0]:
            bests[r] = (mi, fid, v)
        return mi >= ceiling - FEASIBILITY_SLACK

    def walk(r, v, cur) -> bool:
        """Riemannian gradient ascent of the penalised objective from start
        r, with Armijo backtracking; True once it reaches the ceiling."""
        _, _, pen, g = cur
        step = 1.0
        for it in range(config.max_iters):
            z = _tangent(v, g)
            slope = float(np.vdot(z, z).real)
            if it == 0 and slope < CONV_TOL:
                # a stationary start (the identity on a blind source):
                # leave it along a random tangent direction
                z = _tangent(v, _gaussian(np.random.default_rng([config.seed, r]), v.shape))
                v = single_retract(v + (KICK / np.linalg.norm(z)) * z)
                mi, fid, pen, g = score(v)
                if keep(r, v, mi, fid):
                    return True
                continue
            while True:
                cand = single_retract(v + step * z)
                mi, fid, cand_pen, g = score(cand)
                if keep(r, cand, mi, fid):
                    return True
                if cand_pen >= pen + ARMIJO * step * slope:
                    break
                step /= 2.0
                if step * slope < CONV_TOL:  # no step left to gain CONV_TOL
                    return False
            gain = cand_pen - pen
            v, pen = cand, cand_pen
            if gain < CONV_TOL:
                break
            step *= 2.0
        return False

    identity = identity_isometry(d_in, env_dim)
    starts = [identity]
    witness = _witness(t, env_dim)
    if witness is not None:
        starts.append(witness)
    # estimate_grid passes the previous optimum back, often the identity
    # or the witness itself
    warm = 0
    for w in warm_starts:
        if not any(np.array_equal(w, s) for s in starts):
            starts.append(np.asarray(w, dtype=np.complex128))
            warm += 1
    for r in range(config.restarts - 1 - warm):
        rng = np.random.default_rng([config.seed, 1000 + r])
        starts.append(single_retract(_gaussian(rng, identity.shape)))

    scored = []
    for v0 in starts:
        bests.append((-np.inf, 0.0, None))
        cur = score(v0)
        scored.append((v0, cur))
        if keep(len(bests) - 1, v0, cur[0], cur[1]):
            break
    else:  # no start at the ceiling
        for r, (v0, cur) in enumerate(scored):
            if walk(r, v0, cur):
                break

    # the first start with the largest value, as a sequential search would keep
    best_mi, best_fid, best_v = max(bests, key=lambda b: b[0])
    if best_v is None:
        # Cannot happen for eps >= 0: the identity start is feasible.
        raise ConsistencyError("no feasible candidate found, identity start included")

    ref_mi, ref_fid = objective(e, best_v)
    if abs(ref_mi - best_mi) > VERIFY_ATOL or abs(ref_fid - best_fid) > VERIFY_ATOL:
        raise ConsistencyError(
            f"search kernel ({best_mi!r}, {best_fid!r}) and dense evaluation "
            f"({ref_mi!r}, {ref_fid!r}) disagree beyond {VERIFY_ATOL}"
        )
    floor = von_neumann_entropy(reduced(e, {"C"}))
    return IEpsilonEstimate(
        eps=float(eps),
        value=ref_mi,
        fidelity=ref_fid,
        isometry=best_v,
        env_dim=env_dim,
        identity_floor=floor,
        restart_values=tuple(float(b[0]) for b in bests),
        evaluations=evaluations,
        fallback_identity=best_v is identity,
    )
