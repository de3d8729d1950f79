"""Density matrices and the linear algebra on them.

A DensityMatrix wraps a read-only copy of a square array; reduced returns
one, built with check=False, and eig_hermitian and von_neumann_entropy
take one. Gram matrices and mixtures are plain arrays.

The package's one check of a matrix side against MATRIX_CAP is
check_side, run before any matrix is formed. Over rows v_x (the last
axis, with any leading stack axes), gram forms the overlaps
[<v_x|v_x'>], overlaps_above (the one threshold on them, read EDGE_BLOCK
rows at a time) |<v_x|v_x'>| > tol, mixture the sum_x p_x |v_x><v_x| and
product_rows the rows v_x (x) w_x of a product state. mixture_spectra is
the one route to the spectrum of such a mixture, given the factor rows of
its signals: from the smaller of its Gram matrix and its marginal, for
S(A), the I_eps floor S(C) and every component block of the entropy profile.

All entropies are base-2 (bits). Eigenvalues of density matrices are
clamped to [0, 1] after a tolerance check; anything below -1e-9 is
rejected as not a state rather than silently clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import limits
from .errors import (
    DimensionLimitError,
    LayoutMismatchError,
    IsometryError,
    NotAStateError,
)

NORM_ATOL = 1e-9
HERMITICITY_ATOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
ISOMETRY_ATOL = 1e-8
EDGE_BLOCK = 512  # rows per overlaps_above call: EDGE_BLOCK x N pairs tested at a time


def frozen_copy(a, dtype=np.complex128) -> np.ndarray:
    """A read-only copy of a as dtype."""
    a = np.array(a, dtype=dtype, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    Hermiticity and trace are checked at construction unless check is
    false; positivity whenever a spectrum is requested.
    """

    entries: np.ndarray = field(repr=False)
    check: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = frozen_copy(self.entries)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise LayoutMismatchError(f"matrix shape {m.shape} is not square")
        d = m.shape[0]
        check_side(d)
        if self.check:
            if not np.isfinite(m).all():
                raise NotAStateError("matrix has non-finite entries")
            herm = float(np.max(np.abs(m - m.conj().T))) if d else 0.0
            if not herm <= HERMITICITY_ATOL:
                raise NotAStateError(f"matrix deviates from Hermitian by {herm!r}")
            tr = complex(np.trace(m))
            if not abs(tr - 1.0) <= NORM_ATOL:
                raise NotAStateError(f"trace {tr!r} deviates from 1 beyond {NORM_ATOL}")


def check_side(side: int):
    """Refuse a matrix side above MATRIX_CAP."""
    if side > limits.MATRIX_CAP:
        raise DimensionLimitError(f"matrix side {side} exceeds cap {limits.MATRIX_CAP}")


def gram(rows: np.ndarray) -> np.ndarray:
    """[<v_x|v_x'>] of each stacked row set, refused above MATRIX_CAP
    before the product."""
    check_side(rows.shape[-2])
    return rows.conj() @ np.swapaxes(rows, -1, -2)


def overlaps_above(tol, rows, cols, *factors: np.ndarray) -> np.ndarray:
    """prod_f |<f_x|f_x'>| > tol over the factors' rows f, for x in rows and x' in cols."""
    return reduce(np.multiply, (np.abs(f[rows].conj() @ f[cols].T) for f in factors)) > tol


def mixture(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_x probs_x |v_x><v_x| of each stacked row set."""
    return np.swapaxes(probs[..., None] * rows, -1, -2) @ rows.conj()


def product_rows(*factors: np.ndarray) -> np.ndarray:
    """The rows v_x (x) w_x (x) ... of the factors' rows v_x, w_x, ...,
    each stacked as the factors are."""
    return reduce(lambda v, w: (v[..., :, None] * w[..., None, :]).reshape(*v.shape[:-1], -1), factors)


def _clamped(evs: np.ndarray) -> np.ndarray:
    """evs clamped to [0, 1]; NotAStateError when one is below EIGENVALUE_FLOOR."""
    lo = float(evs.min()) if evs.size else 0.0
    if lo < EIGENVALUE_FLOOR:
        raise NotAStateError(f"negative eigenvalue {lo!r} below tolerance {EIGENVALUE_FLOOR}")
    return np.clip(evs, 0.0, 1.0)


def clamped_spectra(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix in a
    stack of them (one batched eigvalsh), clamped to [0, 1] after the
    negativity check."""
    return _clamped(np.linalg.eigvalsh(m))


def mixture_spectra(probs: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """Clamped ascending spectra of sum_x probs_x |v_x><v_x| over each
    stacked group of k signals, in one eigvalsh. Signal v_x is the product
    of row x of each factor (psi, sigma, or both for A (x) C), so its
    length, the marginal's side, is the product of the factors' lengths.

    A group gives its k x k Gram matrix [sqrt(probs_x probs_x') <v_x|v_x'>],
    the product of the factors' grams, when k is below the side, and its
    marginal from the product_rows otherwise (a tie takes the marginal);
    the two share their nonzero spectrum (Jozsa & Schlienz, PRA 62,
    012301, 2000). Only the chosen side is formed, and min(k, side) is
    refused above MATRIX_CAP before it is.
    """
    k = probs.shape[-1]
    side = math.prod(f.shape[-1] for f in factors)
    check_side(min(k, side))
    if k < side:
        amp = np.sqrt(probs)
        m = (amp[..., :, None] * amp[..., None, :]) * reduce(np.multiply, map(gram, factors))
    else:
        m = mixture(probs, product_rows(*factors))
    return clamped_spectra(m)


def eig_hermitian(m: DensityMatrix):
    """Spectrum of a density matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with eigenvector columns matching
    the eigenvalue order. Eigenvalues are clamped to [0, 1] after the
    negativity check.
    """
    evs, vecs = np.linalg.eigh(m.entries)
    return _clamped(evs)[::-1].copy(), vecs[:, ::-1].copy()


def entropy_from_probs(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0 if nz.size else 0.0


def row_entropies(p: np.ndarray) -> np.ndarray:
    """entropy_from_probs of each row of a 2-D array, with the same sums:
    a row with an entry at or below zero is passed to it on its own."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -(p * np.log2(p)).sum(axis=1) + 0.0
    for i in np.flatnonzero((p <= 0.0).any(axis=1)):
        out[i] = entropy_from_probs(p[i])
    return out


def von_neumann_entropy(m: DensityMatrix) -> float:
    """S(m) in bits."""
    return entropy_from_probs(clamped_spectra(m.entries))


def check_isometry(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] < v.shape[1] or not v.shape[1]:
        raise IsometryError(
            f"isometry must be tall or square with at least one column, got shape {v.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf entry makes err NaN or inf
        err = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))
    if not err <= ISOMETRY_ATOL:  # NaN fails too
        raise IsometryError(f"columns deviate from orthonormal by {err!r}")
    return v
