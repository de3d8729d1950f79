"""Hot numerical kernels, one numpy implementation each.

Kernels:
  block_fidelity     expected decoding fidelity of a projective code,
                     enumerated exactly over classical sequences
  unitary_objective  mutual information and average fidelity of the
                     channel of an isometry V (W-major output ordering,
                     environment first), and their gradients in V. One product V phi_x per signal; both
                     entropies come from the spectra of small Gram
                     matrices, never from the C W marginals themselves,
                     and the entropy gradients from their eigenvectors.
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
# unitary_objective: v is a (dw * da * dc, da * dc) isometry mapping the
# joint input onto environment-major output indices w * (da * dc) +
# a * dc + c; phis holds the joint input vectors, one row per
# positive-probability signal. Returns (I(X : C W') in bits, average
# fidelity on A C, and their Euclidean gradients G in V,
# d(value) = Re Tr(G^dagger dV), valid off the isometries too).


def _entropy_pull(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(m m^dagger) in bits over the last two axes, and log2(m m^dagger) m,
    both from m^dagger m when that side is smaller (the two share their
    nonzero spectra, f(m m^dagger) m = m f(m^dagger m), and zero
    eigenvalues drop out)."""
    mh = m.conj().swapaxes(-1, -2)
    left = m.shape[-2] <= m.shape[-1]
    evs, u = np.linalg.eigh(m @ mh if left else mh @ m)
    safe = np.where(evs > 1e-15, evs, 1.0)  # 1 log 1 = 0 drops the rest
    logs = np.log2(safe)
    f = (u * logs[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return -(safe * logs).sum(axis=-1), (f @ m if left else m @ f)


def unitary_objective(v, phis, probs, da: int, dc: int, dw: int):
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
