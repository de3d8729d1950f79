"""Hot numerical kernels, one numpy implementation each.

Kernels:
  block_fidelity     expected decoding fidelity of a projective code,
                     enumerated exactly over classical sequences
  unitary_objective  mutual information and average fidelity of the
                     channel induced by exp(iH) restricted to the input
                     block (W-major output ordering, environment first)
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


def _entropy_rows(evs: np.ndarray) -> np.ndarray:
    safe = np.where(evs > 1e-15, evs, 1.0)
    return -(np.where(evs > 1e-15, evs * np.log2(safe), 0.0)).sum(axis=-1)


def unitary_objective(h, phis, probs, da: int, dc: int, dw: int) -> tuple[float, float]:
    h = np.ascontiguousarray(h, dtype=np.complex128)
    phis = np.ascontiguousarray(phis, dtype=np.complex128)
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    d_in = da * dc
    nx = phis.shape[0]
    evs, vecs = np.linalg.eigh(h)
    u = (vecs * np.exp(1j * evs)) @ vecs.conj().T
    xis = phis @ u.T
    dcw = dw * dc

    b = xis.reshape(nx, dw, da, dc).transpose(0, 1, 3, 2).reshape(nx, dcw, da)
    ms = b @ b.conj().transpose(0, 2, 1)
    mix = np.tensordot(probs, ms, axes=1)
    cond = float(probs @ _entropy_rows(np.linalg.eigvalsh(ms)))
    mi = float(_entropy_rows(np.linalg.eigvalsh(mix))) - cond

    ov = np.einsum("xk,xwk->xw", phis[:, :d_in].conj(), xis.reshape(nx, dw, d_in))
    f = np.clip((np.abs(ov) ** 2).sum(axis=1), 0.0, 1.0)
    fid = float(probs @ np.sqrt(f))
    return mi, fid
