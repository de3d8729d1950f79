"""Hot numerical kernels, one numpy implementation each.

Kernels:
  block_fidelity     expected decoding fidelity of a projective code,
                     enumerated exactly over classical sequences
  unitary_objective  mutual information and average fidelity of the
                     channel induced by exp(iH) restricted to the input
                     block (W-major output ordering, environment first).
                     Only the signal vectors are evolved: by a scaled
                     Taylor series of exp(iH) for generators of side
                     TAYLOR_MIN_DIM and more, by eigh below. Both
                     entropies come from the spectra of small Gram
                     matrices, never from the C W marginals themselves.
"""

from __future__ import annotations

import math

import numpy as np

# There is one backend. These two names stay because callers report it:
# the benchmark's environment line and the `iepsilon` JSON report.
NUMBA_AVAILABLE = False


def active_backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# block_fidelity: probs (ns,), g[x, k] = |<e_k|psi_x>|^2 single-copy overlap
# table, sel (rank, n) per-copy eigenvector indices of the retained product
# basis. Row 0 of sel is the single largest-weight product vector, onto which
# every failed measurement collapses. No n-copy vectors are ever formed.


def _sequence_table(cols) -> np.ndarray:
    """prod_i cols[i][x_i] for every sequence x, flattened in C order."""
    out = cols[0]
    for c in cols[1:]:
        out = np.multiply.outer(out, c).ravel()
    return out


def block_fidelity(probs: np.ndarray, g: np.ndarray, sel: np.ndarray) -> float:
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    g = np.ascontiguousarray(g, dtype=np.float64)
    sel = np.ascontiguousarray(sel, dtype=np.int64)
    rank, n = sel.shape

    # p_pass(x^n) = sum_k prod_i g[x_i, sel[k, i]] as a prefix-tree
    # contraction: with the rows sorted, the rows below each code prefix
    # of length m are contiguous, and that prefix holds the sum of their
    # suffix products as a table over x_{m+1..n}. Stepping from m + 1 to
    # m multiplies each node by g[:, its last index] and adds siblings.
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


# ---------------------------------------------------------------------------
# unitary_objective: h is a (dim, dim) Hermitian generator with
# dim = dw * da * dc; the candidate isometry is the first da*dc columns of
# exp(iH), mapping the joint input onto environment-major output indices
# w * (da * dc) + a * dc + c. phis holds the joint input vectors padded
# with zeros to length dim, one row per positive-probability signal.
# Returns (I(X : C W') in bits, average fidelity on A C).

# Below this generator side one eigh, applied to the rows, is cheaper than
# the Taylor series, whose cost grows with ||H||_F (a median of about 2 in
# the search). Median ratio Taylor/eigh of one evaluation at ||H||_F = 2,
# nx = 3, over 4 interleaved rounds (numpy 2.4, OpenBLAS on one thread,
# 2-vCPU Xeon): 1.69 at dim 8, 1.47 at 12, 1.15 at 16, 0.98 at 20, 0.81
# at 24, 0.96 at 27, 0.77 at 32, 0.37 at 64 (eigh 0.8-1.0 ms there).
TAYLOR_MIN_DIM = 20

# Each Taylor step applies exp(iH/s) with ||H/s||_2 <= ||H||_F/s <= THETA,
# so no term exceeds THETA^k/k! <= e^THETA times the rows: that bounds the
# cancellation. A larger THETA needs fewer steps of more terms each: over
# the generators the search visits on the side-information fixtures, 4
# took 22 products per evaluation on average, 2 took 29 and 6 took 22.
THETA = 4.0
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_terms(t: float) -> int:
    """Fewest terms m of sum_k (iA)^k / k! with ||A||_2 <= t whose tail
    sum_{k >= m} t^k / k! <= (t^m / m!) / (1 - t / (m + 1)) is below the
    unit roundoff (relative to the rows it is applied to)."""
    m, term = 1, t  # term = t^m / m!
    while m + 1 <= t or term / (1.0 - t / (m + 1)) > _UNIT_ROUNDOFF:
        m += 1
        term *= t / m
    return m


def _evolve_rows(h: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """phis @ exp(iH).T, i.e. exp(iH) applied to each row of phis."""
    if h.shape[0] < TAYLOR_MIN_DIM:
        evs, vecs = np.linalg.eigh(h)
        return ((phis @ vecs.conj()) * np.exp(1j * evs)) @ vecs.T
    # exp(iH) = exp(iH/s)^s with ||H/s||_F <= THETA (Al-Mohy & Higham 2011)
    norm = float(np.linalg.norm(h))  # Frobenius
    steps = max(1, math.ceil(norm / THETA))
    terms = _taylor_terms(norm / steps)
    a = h.T * (1j / steps)
    rows = phis
    for _ in range(steps):
        term = rows
        for k in range(1, terms):
            term = (term @ a) * (1.0 / k)
            rows = rows + term
    return rows


def _entropy_rows(evs: np.ndarray) -> np.ndarray:
    safe = np.where(evs > 1e-15, evs, 1.0)  # 1 log 1 = 0 drops the rest
    return -(safe * np.log2(safe)).sum(axis=-1)


def _gram_spectra(m: np.ndarray) -> np.ndarray:
    """Nonzero spectra of m m^dagger over the last two axes, taken from
    m^dagger m when that side is smaller (the two share them)."""
    mh = m.conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(m @ mh if m.shape[-2] <= m.shape[-1] else mh @ m)


def unitary_objective(h, phis, probs, da: int, dc: int, dw: int) -> tuple[float, float]:
    h = np.ascontiguousarray(h, dtype=np.complex128)
    phis = np.ascontiguousarray(phis, dtype=np.complex128)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    d_in = da * dc
    nx = phis.shape[0]
    xis = _evolve_rows(h, phis)
    dcw = dw * dc

    # b[x] is the (C W) x A matrix of signal x's output; its C W marginal
    # is b b^dagger, and the mixture's is B B^dagger for the columns
    # B = [sqrt(p_x) b[x]] stacked side by side.
    b = xis.reshape(nx, dw, da, dc).transpose(0, 1, 3, 2).reshape(nx, dcw, da)
    stacked = (np.sqrt(probs)[:, None, None] * b).transpose(1, 0, 2).reshape(dcw, nx * da)
    cond = float(probs @ _entropy_rows(_gram_spectra(b)))
    mi = float(_entropy_rows(_gram_spectra(stacked))) - cond

    ov = np.einsum("xk,xwk->xw", phis[:, :d_in].conj(), xis.reshape(nx, dw, d_in))
    f = np.clip((np.abs(ov) ** 2).sum(axis=1), 0.0, 1.0)
    fid = float(probs @ np.sqrt(f))
    return mi, fid
