"""Finite-blocklength typical-subspace compression, simulated exactly.

The encoder projects n copies of the average signal state onto the span
of the 2^(nQ) heaviest eigenvector products of the single-copy state; on
failure the block collapses onto the single heaviest product vector. For
product inputs both the pass probability and the failure overlap factor
across copies, so the whole expected-fidelity sum runs on small per-copy
lookup tables instead of 2^n-dimensional vectors:

    p_pass(x^n) = sum_{k in code} prod_i g[x_i, k_i]
    F(x^n)      = sqrt(p_pass^2 + (1 - p_pass) * f_fail)

with g[x, k] = |<e_k|psi_x>|^2 and f_fail the k = top-product term. The
average over sequences x^n is enumerated exhaustively (no sampling), so
results are deterministic and permutation symmetry comes out exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limits
from ._accel import block_fidelity
from .ensemble import Ensemble, reduced
from .errors import DimensionLimitError, EacompError
from .region import csv_number
from .states import eig_hermitian


@dataclass(frozen=True)
class CodeSpace:
    """The retained product basis for an (n, rate_q) typical-subspace code.

    selected holds one row of per-copy eigenvector indices for each kept
    basis vector, heaviest first with lexicographic tie-break, so the
    code spaces at growing rank are nested and independent of enumeration
    order. Row 0 doubles as the failure state.
    """

    n: int
    rate_q: float
    rank: int
    eigen_weights: np.ndarray
    eigen_vectors: np.ndarray
    selected: np.ndarray
    selected_weights: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigen_weights.shape[0] ** self.n)


def code_rank(n: int, rate_q: float, dim_single: int) -> int:
    """floor(2^(nQ)) kept vectors, clamped to [1, dim_single^n].

    Raises DimensionLimitError when the block dimension dim_single^n or
    the block length n exceeds CODE_DIM_CAP.
    """
    cap = limits.CODE_DIM_CAP
    # dim_single**n > cap is settled without forming dim_single**n for a
    # huge n: for dim_single >= 2 it holds once n passes cap's bit length.
    # n is capped too, since at dim_single = 1 it is the only size that grows.
    if (dim_single > 1 and n > cap.bit_length()) or dim_single**n > cap:
        raise DimensionLimitError(f"block dimension {dim_single}^{n} exceeds cap {cap}; lower n")
    if n > cap:
        raise DimensionLimitError(f"block length {n} exceeds cap {cap}; lower n")
    full = dim_single**n
    if n * rate_q >= math.log2(full):  # also keeps 2^(nQ) from overflowing
        return full
    return max(1, int(math.floor(2.0 ** (n * rate_q) + 1e-9)))


def build_code_space(e: Ensemble, n: int, rate_q: float) -> CodeSpace:
    """Diagonalize the average signal state and keep the heaviest products.

    Only defined for sources without usable side information (the encoder
    acts on A alone).
    """
    return _code_space(e, n, rate_q, None)


def _code_space(e: Ensemble, n: int, rate_q: float, spectrum: tuple | None) -> CodeSpace:
    """build_code_space, with the eigendecomposition (weights, vectors) of
    the average signal state given, or taken here when spectrum is None.
    The checks run in the same order either way."""
    if not e.is_blind():
        raise EacompError("block simulation works on the A register; side information must be trivial")
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if rate_q < 0:
        raise ValueError(f"qubit rate must be >= 0, got {rate_q}")
    da = e.dim_a
    rank = code_rank(n, rate_q, da)
    weights, vectors = eig_hermitian(reduced(e, {"A"})) if spectrum is None else spectrum

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
        rate_q=float(rate_q),
        rank=rank,
        eigen_weights=weights,
        eigen_vectors=vectors,
        selected=selected,
        selected_weights=flat[kept].copy(),
    )


def simulate_fidelity(e: Ensemble, code: CodeSpace) -> float:
    """Expected decoding fidelity of the code on n iid signals."""
    ov = e.overlaps
    if e.dim_a != code.eigen_vectors.shape[0]:
        raise EacompError(
            f"code built for dimension {code.eigen_vectors.shape[0]}, ensemble has {e.dim_a}"
        )
    if len(ov.probs) ** code.n > limits.SEQUENCE_CAP:
        raise DimensionLimitError(
            f"{len(ov.probs)}^{code.n} sequences exceed cap {limits.SEQUENCE_CAP}; lower n"
        )
    g = np.abs(ov.psi @ code.eigen_vectors.conj()) ** 2
    return block_fidelity(ov.probs, g, code.selected)


@dataclass(frozen=True)
class FidelityCurve:
    rate_q: float
    points: tuple[tuple[int, float], ...]
    warnings: tuple[str, ...]

    def csv(self) -> str:
        lines = ["n,Q,fidelity"]
        lines.extend(f"{n},{csv_number(self.rate_q, 6)},{csv_number(f, 10)}" for n, f in self.points)
        return "\n".join(lines) + "\n"


def fidelity_curve(e: Ensemble, ns, rate_q: float) -> FidelityCurve:
    """Fidelity at one rate across block lengths, skipping capped sizes."""
    points = []
    warnings = []
    spectrum = None  # the average state's, from the first code built
    for n in ns:
        try:
            code = _code_space(e, int(n), rate_q, spectrum)
            spectrum = code.eigen_weights, code.eigen_vectors
            points.append((int(n), simulate_fidelity(e, code)))
        except DimensionLimitError as exc:
            warnings.append(f"n={n}: {exc}")
    return FidelityCurve(float(rate_q), tuple(points), tuple(warnings))
