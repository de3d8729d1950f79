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

A curve shares its per-copy work across its block lengths (_Curve): the
average state is diagonalised once, g and the kernel's sequence tables
are built once, and the type counts of the index tuples grow one copy at
a time from the last block length built. Each code and each point is
bit-identical to one built alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import limits
from ._accel import BlockFidelity, SequenceTables, block_fidelity
from .ensemble import Ensemble, reduced
from .errors import ConsistencyError, DimensionLimitError, EacompError
from .region import csv_number
from .states import eig_hermitian


@dataclass(frozen=True)
class CodeSpace:
    """The retained product basis of a typical-subspace code on n copies:
    its rank heaviest eigenvector products of the average signal state.

    selected holds one row of per-copy eigenvector indices for each kept
    basis vector, heaviest first with lexicographic tie-break, so the
    code spaces at growing rank are nested and independent of enumeration
    order. Row 0 doubles as the failure state.
    """

    n: int
    rank: int
    eigen_weights: np.ndarray
    eigen_vectors: np.ndarray
    selected: np.ndarray
    selected_weights: np.ndarray


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
    return _code_space(e, n, _checked_rank(e, n, rate_q), _Curve(e))


def _checked_rank(e: Ensemble, n: int, rate_q: float) -> int:
    """code_rank for the A register of e, after the checks on e, n and
    rate_q, in the order every code build runs them."""
    if not e.is_blind():
        raise EacompError("block simulation works on the A register; side information must be trivial")
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if rate_q < 0:
        raise ValueError(f"qubit rate must be >= 0, got {rate_q}")
    return code_rank(n, rate_q, e.dim_a)


def _check_sequences(e: Ensemble, n: int) -> None:
    ns = e.overlaps.size
    # ns**n is formed only once n is small: n passed code_rank's caps
    if ns ** n > limits.SEQUENCE_CAP:
        raise DimensionLimitError(f"{ns}^{n} sequences exceed cap {limits.SEQUENCE_CAP}; lower n")


class _Curve:
    """What the codes of one curve share: the eigendecomposition (weights,
    vectors) of e's average signal state unless spectrum is a code's, the
    type counts of the index tuples at the last block length built, and, on
    first use, the kernel's tables on g and the clamp's lost trace."""

    def __init__(self, e: Ensemble, spectrum: tuple | None = None):
        self.e = e
        self.weights, self.vectors = eig_hermitian(reduced(e, {"A"})) if spectrum is None else spectrum
        self._n, self._counts = 0, np.zeros((e.dim_a, 1), dtype=np.int64)

    @cached_property
    def tables(self) -> SequenceTables:
        ov = self.e.overlaps
        return SequenceTables(ov.probs, np.abs(ov.psi @ self.vectors.conj()) ** 2)

    @cached_property
    def lost(self) -> float:
        ov = self.e.overlaps
        return abs(float(ov.probs @ np.sum(np.abs(ov.psi) ** 2, axis=1)) - float(np.sum(self.weights)))

    def type_counts(self, n: int) -> np.ndarray:
        """counts[j, t]: how many copies hold index j in the t-th of the
        dA^n index tuples in lexicographic order. Extended one copy at a
        time from the last block length counted, unless that was longer."""
        da = self.e.dim_a
        if n < self._n:
            self._n, self._counts = 0, np.zeros((da, 1), dtype=np.int64)
        eye = np.eye(da, dtype=np.int64)
        for _ in range(n - self._n):  # tuple t, then index d, is tuple t * da + d
            self._counts = (self._counts[:, :, None] + eye[:, None, :]).reshape(da, -1)
        self._n = n
        return self._counts


def _code_space(e: Ensemble, n: int, rank: int, curve: _Curve) -> CodeSpace:
    """The code of the given rank on n copies of curve's average signal state."""
    da = e.dim_a
    # Weigh each index tuple, in lexicographic order, as prod_j w_j ** count_j,
    # the same float operations for every tuple of one type, so equal-weight
    # products tie exactly and the stable sort keeps them in lexicographic
    # order.
    flat = np.ones(da**n)
    for w, count in zip(curve.weights, curve.type_counts(n)):
        flat *= w ** count
    order = np.argsort(-flat, kind="stable")
    kept = order[:rank]
    # copy i of the t-th tuple holds digit i of t in base da, most significant first
    selected = kept[:, None] // da ** np.arange(n - 1, -1, -1, dtype=np.int64) % da
    return CodeSpace(
        n=n,
        rank=rank,
        eigen_weights=curve.weights,
        eigen_vectors=curve.vectors,
        selected=selected,
        selected_weights=flat[kept].copy(),
    )


def simulate_fidelity(e: Ensemble, code: CodeSpace, curve: _Curve | None = None) -> float:
    """Expected decoding fidelity of the code on n iid signals. curve is
    what fidelity_curve shares across its codes; without it the code's own
    eigendecomposition starts a fresh one."""
    if e.dim_a != code.eigen_vectors.shape[0]:
        raise EacompError(
            f"code built for dimension {code.eigen_vectors.shape[0]}, ensemble has {e.dim_a}"
        )
    _check_sequences(e, code.n)
    curve = curve or _Curve(e, (code.eigen_weights, code.eigen_vectors))
    result = block_fidelity(curve.tables, code.selected)
    _check_tables(code, result, curve.lost)
    return result.fidelity


# Two exact facts tie the kernel's tables to the code's weights by the
# eigenvalue route, prod_i lambda_{sel[k, i]}, since sum_x p_x g[x, k] =
# lambda_k for g taken in the eigenbasis of the average state: the sequence
# mean of p_pass is Tr(Pi rho^n), the sum of the weights, and that of f_fail
# is the weight of row 0. Also sqrt(p^2 + (1 - p) f) >= p for p in [0, 1]
# (Jozsa & Schumacher, J. Mod. Opt. 41, 2343, 1994), so F is at least the
# mean of min(p_pass, 1), capped at 1 as F is; that floor is Tr(Pi rho^n)
# on a normalised source, where p_pass <= 1. Each side sums at most
# SEQUENCE_CAP nonnegative terms, or rank products of n eigenvalues, to at
# most about 1, so rounding moves it by well under TABLE_ATOL (6e-15 at most
# on the data files and random sources); a wrong table or weight moves it by
# the size of a weight.
#
# eig_hermitian clamps eigenvalues to [0, 1], and validate leaves Tr rho a
# little above 1 (the support's probabilities sum to within 1e-9 of 1, and
# each norm is within 1e-9 of 1, so by about 3e-9 at most). Then the top
# eigenvalue is clamped to 1 and each copy's factor of a weight may fall
# short of the table's by the trace lost to the clamp, d: the means may
# exceed their weights by a factor up to (1 + d)^n, which widens the check.
TABLE_ATOL = 1e-9


def _check_tables(code: CodeSpace, result: BlockFidelity, lost: float) -> None:
    growth = math.expm1(code.n * math.log1p(lost))
    trace = float(np.sum(code.selected_weights))  # Tr(Pi rho^n)
    for what, got, want in (("pass probability", result.mean_pass, trace),
                            ("failure overlap", result.mean_fail, float(code.selected_weights[0]))):
        if not abs(got - want) <= TABLE_ATOL + want * growth:
            raise ConsistencyError(
                f"mean {what} {got} over the sequences disagrees with {want} from the eigenvalues"
            )
    floor = min(result.mean_clipped_pass, 1.0)
    if not result.fidelity >= floor - TABLE_ATOL:
        raise ConsistencyError(f"fidelity {result.fidelity} is below its floor {floor}, the mean capped p_pass")


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
    """Fidelity at one rate across block lengths, skipping capped sizes.
    A size is refused on its caps before its code is built."""
    points = []
    warnings = []
    curve = None  # shared by the codes, from the first code built on
    for n in ns:
        try:
            rank = _checked_rank(e, int(n), rate_q)
            # simulate_fidelity checks this too, but only once the code is
            # built, and _code_space sorts all dA^n index tuples
            _check_sequences(e, int(n))
            curve = curve or _Curve(e)
            code = _code_space(e, int(n), rank, curve)
            points.append((int(n), simulate_fidelity(e, code, curve)))
        except DimensionLimitError as exc:
            warnings.append(f"n={n}: {exc}")
    return FidelityCurve(float(rate_q), tuple(points), tuple(warnings))
