"""Hot numerical kernels, one numpy implementation each.

Kernels:
  block_fidelity     expected decoding fidelity of a projective code,
                     enumerated exactly over classical sequences, with
                     the pass probabilities of all of them from one
                     matrix product over code rows split at n/2, the
                     fidelity terms formed in place, and their sum
                     rounded once by error-free extraction passes (Rump,
                     Ogita & Oishi), which end as soon as a proven bound
                     on the float sum of the residuals (Higham) settles
                     the rounding, after one pass on nearly every sum; it
                     also returns the sequence means that schumacher
                     checks against the code's eigenvalue weights. The
                     per-copy tables it reads (SequenceTables) are built
                     once per source and kept across the codes of a
                     curve: half-sequence probabilities, and the product
                     of every head or tail key of each width
  unitary_objective  mutual information and average fidelity of the
                     channels of a stack of isometries V (W-major output
                     ordering, environment first), and their gradients
                     in V. One product V phi_x per signal; both
                     entropies come from the spectra of small Gram
                     matrices, never from the C W marginals themselves,
                     and the entropy gradients from their eigenvectors.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import limits

# There is one backend. These two names stay because callers report it:
# the benchmark's environment line and the `iepsilon` JSON report.
NUMBA_AVAILABLE = False


def active_backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# block_fidelity: SequenceTables on probs (ns,) and the single-copy overlap
# table g[x, k] = |<e_k|psi_x>|^2, and sel (rank, n), the per-copy
# eigenvector indices of the retained product basis. Row 0 of sel is the
# single largest-weight product vector, onto which every failed measurement
# collapses. No n-copy vectors are ever formed.
#
# p_pass(x^n) = sum_k prod_i g[x_i, sel[k, i]] splits at h = n // 2: each
# code row is a head sel[k, :h] and a tail sel[k, h:], and with C[p, q] the
# number of rows with distinct head p and distinct tail q,
#
#     p_pass(x^n) = sum_{p, q} U[p, x_1..x_h] C[p, q] V[q, x_h+1..x_n],
#
# where U (P x ns^h) and V (Q x ns^(n-h)) hold each distinct head's and
# tail's product over every half sequence, rows of the tables' products of
# that width taken in ascending key order. A duplicated code row counts
# twice, as it does in the sum over k: C counts rows, not distinct pairs.
# The whole table is one matrix product U^T (C V), in C order of x^n. No
# table is wider than ns^n, and P * Q <= dimA^n (at most CODE_DIM_CAP for a
# code of schumacher's), since heads and tails are distinct; the same bound
# keeps the integer keys that find them far from overflow, and the presence
# arrays over them (dimA^h and dimA^(n-h) entries) small.


def _products(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """prod_i g[x_i, rows[r, i]] for each row r and every sequence x over
    its columns, flattened in C order: shape (len(rows), ns**width)."""
    table = np.ones((len(rows), 1))
    for col in rows.T:
        table = (table[:, :, None] * g[:, col].T[:, None, :]).reshape(len(rows), -1)
    return table


def _distinct(rows: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct mixed-radix keys of the rows (entries in [0, base)) in
    ascending order, and the position of each row's key among them, read
    off a presence array over the base**width keys."""
    width = rows.shape[1]
    keys = rows @ base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    present = np.zeros(base**width, dtype=bool)
    present[keys] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


class SequenceTables:
    """The per-copy tables of one source (probs, g), built on first use and
    kept across the codes block_fidelity is given with them: the
    probability of each sequence of w copies, and the products of each
    head or tail key of width w.

    The product table of width w has a row for every key in [0, dA^w),
    folded from the width w - 1 table by one more column, the step
    _products takes, so each row is bit-identical to the one _products
    folds for that key alone. A table is kept while dA^w * ns^w <=
    SEQUENCE_CAP; past that, each call folds only the rows its code uses.
    """

    def __init__(self, probs: np.ndarray, g: np.ndarray):
        self.probs = np.ascontiguousarray(probs, dtype=np.float64)
        self.g = np.ascontiguousarray(g, dtype=np.float64)
        self._sequences = [np.ones(1)]
        self._products = [np.ones((1, 1))]

    def sequences(self, width: int) -> np.ndarray:
        """prod_i probs[x_i] for every sequence x of width copies, in C order."""
        tables = self._sequences
        while len(tables) <= width:
            tables.append(np.multiply.outer(tables[-1], self.probs).ravel())
        return tables[width]

    def products(self, keys: np.ndarray, width: int) -> np.ndarray:
        """prod_i g[x_i, k_i] over the base-dA digits k of each key and every
        sequence x of width copies, in C order: (len(keys), ns**width)."""
        ns, da = self.g.shape
        tables = self._products
        while len(tables) <= width and (da * ns) ** len(tables) <= limits.SEQUENCE_CAP:
            last = tables[-1]
            tables.append((last[:, None, :, None] * self.g.T[None, :, None, :]).reshape(len(last) * da, -1))
        if width < len(tables):
            return tables[width][keys]
        return _products(self.g, keys[:, None] // da ** np.arange(width - 1, -1, -1, dtype=np.int64) % da)


def _exact_sum(r: np.ndarray, q: np.ndarray) -> float:
    """sum(r) rounded once to the nearest double, ties to even: the value
    math.fsum returns. r holds finite nonnegative terms and is overwritten
    by residuals; q is scratch of r's shape.

    Each pass takes the largest residual m < 2^e and N + 1 <= 2^k, sets
    sigma = 2^(e+k) and splits every residual exactly into
    q = (sigma + r) - sigma and r - q (Rump, Ogita & Oishi, "Accurate
    floating-point summation", SIAM J. Sci. Comput. 31, 2008, Lemma 3.3):
    each q is a multiple of 2^(e+k-53) with |q| <= 2^e, so every partial
    sum of the q's is such a multiple below sigma in size, and q.sum() is
    exact in any order; the parts are these exact sums. The new residuals
    are rounding errors of sigma + r, each at most 2^(e+k-53) in size, so
    sum|r| < 2^(e+2k-53).

    The pass then sums the residuals in floating point, t = r.sum(). In
    any order t is within gamma_(N-1) sum|r| of their exact sum (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., 2002,
    section 4.2), and gamma_(N-1) <= 2(N-1) 2^-53 for N < 2^50, so within
    N(N-1) 2^(e+k-105) <= err = N^2 2^(e+k-105) (N^2 becomes a double
    with an error below N). The true sum thus lies within err of
    sum(parts) + t, and once fsum rounds sum(parts) + t - err and
    sum(parts) + t + err to one double, that is its rounding too (t and
    err go to fsum as separate items: t +- err in floating point would
    round). An exact tie never settles that way, and small sums often land
    on one, so t is taken as exact where it is: every term is a multiple
    of the ulp of the smallest positive term, and so is every residual and
    every partial sum of them, so while 2^(e+2k-53) <= 2^53 ulp each
    partial sum is a double. That test holds wherever err would round to
    0; where err rounds to a subnormal, t's error, a multiple of 2^-1074
    within the bound, is within err still. A pass that settles nothing is
    followed by another, on residuals that shrink by 2^(52-k) or more a
    pass; they are multiples of 2^-1074, so at most about 2100 / (52 - k)
    passes reach all zeros, where the loop ends.
    """
    lo, hi = float(r.min()), float(r.max())
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError(f"terms must be finite and nonnegative, got range [{lo}, {hi}]")
    k = r.size.bit_length()
    if k > 50:
        raise ValueError(f"{r.size} terms are too many to sum exactly")
    if lo == 0.0:
        lo = float(r.min(initial=hi, where=r > 0.0))
    ulp = math.ulp(lo)
    parts = []
    while True:
        e = math.frexp(hi)[1]
        if e + k > 1023:
            raise OverflowError(f"terms up to {hi} overflow an exact sum of {r.size}")
        sigma = math.ldexp(1.0, e + k)
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        parts.append(float(q.sum()))
        t = float(r.sum())
        if math.ldexp(sigma, k - 106) <= ulp:  # t is exact
            return math.fsum(parts + [t])
        err = math.ldexp(r.size * r.size, e + k - 105)
        if (total := math.fsum(parts + [t, -err])) == math.fsum(parts + [t, err]):
            return total
        hi = max(float(r.max()), -float(r.min()))
        if hi == 0.0:
            return math.fsum(parts)


class BlockFidelity(NamedTuple):
    """block_fidelity's result: the expected fidelity, and the sequence
    means that schumacher checks against the code's eigenvalue weights."""

    fidelity: float
    mean_pass: float  # sum_x p(x^n) p_pass(x^n), before any clipping
    mean_fail: float  # sum_x p(x^n) f_fail(x^n)
    mean_clipped_pass: float  # sum_x p(x^n) min(p_pass(x^n), 1), a floor under F


def block_fidelity(tables: SequenceTables, sel: np.ndarray) -> BlockFidelity:
    """Expected fidelity of the code sel on the source of tables, with its
    sequence means."""
    sel = np.ascontiguousarray(sel, dtype=np.int64)
    n = sel.shape[1]
    h = n // 2

    heads, head_of = _distinct(sel[:, :h], tables.g.shape[1])
    tails, tail_of = _distinct(sel[:, h:], tables.g.shape[1])
    counts = np.bincount(head_of * len(tails) + tail_of, minlength=len(heads) * len(tails))
    counts = counts.reshape(len(heads), len(tails)).astype(np.float64)
    u, v = tables.products(heads, h), tables.products(tails, n - h)
    ppass = u.T @ (counts @ v)  # (ns^h, ns^(n-h)), sequences in C order

    # row 0's head and tail products are rows of u and v already
    u0, v0 = u[head_of[0]], v[tail_of[0]]
    ph, pt = tables.sequences(h), tables.sequences(n - h)
    mean_pass = float(ph @ ppass @ pt)
    mean_fail = float((ph @ u0) * (v0 @ pt))

    # The terms pseq * sqrt(p^2 + (1 - p) f), clipped as before, in two
    # buffers; each step is the same float operation as the fresh-array
    # form, operands at most swapped, so every term is bit-identical.
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


# ---------------------------------------------------------------------------
# unitary_objective: v is a stack (B, dw * da * dc, da * dc) of isometries,
# each mapping the joint input onto environment-major output indices
# w * (da * dc) + a * dc + c; phis holds the joint input vectors, one row
# per positive-probability signal. Returns, for each isometry, I(X : C W')
# in bits, the average fidelity on A C, and their Euclidean gradients G in
# V, d(value) = Re Tr(G^dagger dV), valid off the isometries too. Every
# step acts on each slice alone (stacked matmul, eigh and einsum, and one
# vector dot product per slice), so a slice's results are those of a stack
# of one; no array is larger than B * max(signals, da * dc) * dw * da * dc
# entries.


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
    nb = v.shape[0]
    nx, d_in = phis.shape
    dcw = dw * dc
    xis = phis @ v.swapaxes(-1, -2)  # row x of slice i is V_i phi_x

    # b[i, x] is the (C W) x A matrix of signal x's output; its C W
    # marginal is b b^dagger, and the mixture's is B B^dagger for the
    # columns B = [sqrt(p_x) b[i, x]] stacked side by side.
    roots = np.sqrt(probs)
    b = xis.reshape(nb, nx, dw, da, dc).transpose(0, 1, 2, 4, 3).reshape(nb, nx, dcw, da)
    stacked = (roots[:, None, None] * b).transpose(0, 2, 1, 3).reshape(nb, dcw, nx * da)

    s_x, pull_x = _entropy_pull(b)
    s_mix, pull = _entropy_pull(stacked)
    mi = s_mix - np.array([probs @ s for s in s_x])
    ov = np.einsum("xk,bxwk->bxw", phis.conj(), xis.reshape(nb, nx, dw, d_in))
    f = (np.abs(ov) ** 2).sum(axis=-1)
    fid = np.array([probs @ r for r in np.sqrt(np.clip(f, 0.0, 1.0))])

    # dS(m m^dagger) = -2 Re Tr[((log2(m m^dagger) + 1/ln 2) m)^dagger dm],
    # and the 1/ln 2 terms of S(B B^dagger) and sum_x p_x S(b b^dagger)
    # cancel: dI/db[x] = 2 p_x (log2(b b^dagger) - log2(B B^dagger)) b[x]
    pull = pull.reshape(nb, dcw, nx, da).transpose(0, 2, 1, 3)  # sqrt(p_x) log2(B B^dagger) b[x]
    g_b = 2.0 * (probs[:, None, None] * pull_x - roots[:, None, None] * pull)
    g_xis = g_b.reshape(nb, nx, dw, dc, da).transpose(0, 1, 2, 4, 3).reshape(nb, nx, -1)

    # F = sum_x p_x sqrt(f_x), f_x = sum_w |<phi_x| V_w |phi_x>|^2
    weight = np.divide(probs, np.sqrt(f), out=np.zeros_like(f), where=f > 0.0)
    g_ov = (weight[..., None] * ov)[..., None] * phis[:, None, :]
    conj = phis.conj()
    return mi, fid, g_xis.swapaxes(-1, -2) @ conj, g_ov.reshape(nb, nx, -1).swapaxes(-1, -2) @ conj
