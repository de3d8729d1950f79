"""Vectors, density matrices, and the linear algebra on them.

A SubsystemLayout names the tensor factors of a Hilbert space, so partial
traces and marginals are requested by label ("A", "C", ...) instead of by
axis index. States are immutable: the wrapped arrays are copies with the
writeable flag cleared.

All entropies are base-2 (bits). Eigenvalues of density matrices are
clamped to [0, 1] after a tolerance check; anything below -1e-9 is
rejected as not a state rather than silently clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import limits
from .errors import (
    DimensionLimitError,
    LabelError,
    LayoutMismatchError,
    IsometryError,
    NotAStateError,
)

NORM_ATOL = 1e-9
HERMITICITY_ATOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
ISOMETRY_ATOL = 1e-8


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered labeled tensor factors of a Hilbert space."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.dims) or not self.labels:
            raise LabelError("layout needs matching, nonempty labels and dims")
        if len(set(self.labels)) != len(self.labels):
            raise LabelError(f"duplicate subsystem labels: {self.labels}")
        if any((not isinstance(d, int)) or d < 1 for d in self.dims):
            raise LayoutMismatchError(f"dims must be positive integers: {self.dims}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"unknown subsystem {label!r}; have {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def tensor(self, other: "SubsystemLayout") -> "SubsystemLayout":
        return SubsystemLayout(self.labels + other.labels, self.dims + other.dims)

    def restricted(self, keep) -> "SubsystemLayout":
        """Sub-layout with the kept labels, in this layout's order."""
        keep = set(keep)
        unknown = keep - set(self.labels)
        if unknown:
            raise LabelError(f"unknown subsystem labels {sorted(unknown)}")
        if not keep:
            raise LabelError("must keep at least one subsystem")
        pairs = [(l, d) for l, d in zip(self.labels, self.dims) if l in keep]
        return SubsystemLayout(tuple(l for l, _ in pairs), tuple(d for _, d in pairs))


def single(label: str, dim: int) -> SubsystemLayout:
    return SubsystemLayout((label,), (dim,))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.complex128, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureStateVector:
    """Unit vector on a labeled tensor-product space."""

    layout: SubsystemLayout
    amplitudes: np.ndarray = field(repr=False)
    check: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        amps = _freeze(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.shape[0] != self.layout.total_dim:
            raise LayoutMismatchError(
                f"vector has {amps.shape} entries, layout wants {self.layout.total_dim}"
            )
        if amps.shape[0] > limits.VECTOR_CAP:
            raise DimensionLimitError(
                f"vector dimension {amps.shape[0]} exceeds cap {limits.VECTOR_CAP}"
            )
        if self.check:
            nrm = float(np.linalg.norm(amps))
            if not abs(nrm - 1.0) <= NORM_ATOL:  # NaN fails too
                raise NotAStateError(f"vector norm {nrm!r} deviates from 1 beyond {NORM_ATOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureStateVector") -> complex:
        _require_same_layout(self.layout, other.layout)
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(layout_or_dim, index: int, label: str = "C") -> PureStateVector:
    """Computational basis vector |index> (dim may be given bare)."""
    layout = layout_or_dim
    if isinstance(layout_or_dim, int):
        layout = single(label, layout_or_dim)
    if not 0 <= index < layout.total_dim:
        raise LayoutMismatchError(f"basis index {index} out of range for dim {layout.total_dim}")
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[index] = 1.0
    return PureStateVector(layout, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    Hermiticity and trace are checked at construction; positivity is
    checked lazily whenever a spectrum is requested.
    """

    layout: SubsystemLayout
    entries: np.ndarray = field(repr=False)
    check: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = _freeze(self.entries)
        object.__setattr__(self, "entries", m)
        d = self.layout.total_dim
        if m.shape != (d, d):
            raise LayoutMismatchError(f"matrix shape {m.shape} does not match layout dim {d}")
        if d > limits.MATRIX_CAP:
            raise DimensionLimitError(f"matrix side {d} exceeds cap {limits.MATRIX_CAP}")
        if self.check:
            if not np.isfinite(m).all():
                raise NotAStateError("matrix has non-finite entries")
            herm = float(np.max(np.abs(m - m.conj().T))) if d else 0.0
            if not herm <= HERMITICITY_ATOL:
                raise NotAStateError(f"matrix deviates from Hermitian by {herm!r}")
            tr = complex(np.trace(m))
            if not abs(tr - 1.0) <= NORM_ATOL:
                raise NotAStateError(f"trace {tr!r} deviates from 1 beyond {NORM_ATOL}")

    @property
    def dim(self) -> int:
        return self.layout.total_dim


def _require_same_layout(a: SubsystemLayout, b: SubsystemLayout):
    if a.labels != b.labels or a.dims != b.dims:
        raise LayoutMismatchError(f"layouts differ: {a} vs {b}")


def tensor(a, b):
    """Kronecker product of two vectors or two density matrices."""
    if isinstance(a, PureStateVector) and isinstance(b, PureStateVector):
        return PureStateVector(
            a.layout.tensor(b.layout), np.kron(a.amplitudes, b.amplitudes), check=False
        )
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.layout.tensor(b.layout), np.kron(a.entries, b.entries), check=False)
    raise LayoutMismatchError("tensor requires two vectors or two density matrices")


def partial_trace(m: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in keep.

    The result keeps the original ordering of the surviving factors and
    preserves the trace exactly up to rounding.
    """
    sub = m.layout.restricted(keep)
    dims = m.layout.dims
    k = len(dims)
    keep_axes = sorted(m.layout.axis(l) for l in set(keep))
    drop_axes = [i for i in range(k) if i not in keep_axes]
    if not drop_axes:
        return DensityMatrix(sub, m.entries, check=False)

    tens = m.entries.reshape(dims + dims)
    perm = keep_axes + drop_axes
    tens = tens.transpose(perm + [k + p for p in perm])
    dk = math.prod(dims[i] for i in keep_axes)
    dt = math.prod(dims[i] for i in drop_axes)
    tens = tens.reshape(dk, dt, dk, dt)
    out = np.einsum("iaja->ij", tens)
    return DensityMatrix(sub, out, check=False)


def _clamped_spectrum(m: DensityMatrix) -> np.ndarray:
    evs = np.linalg.eigvalsh(m.entries)
    lo = float(evs.min()) if evs.size else 0.0
    if lo < EIGENVALUE_FLOOR:
        raise NotAStateError(f"negative eigenvalue {lo!r} below tolerance {EIGENVALUE_FLOOR}")
    return np.clip(evs, 0.0, 1.0)


def eig_hermitian(m: DensityMatrix):
    """Spectrum of a density matrix, eigenvalues descending.

    Returns (eigenvalues, eigenvectors) with eigenvector columns matching
    the eigenvalue order. Eigenvalues are clamped to [0, 1] after the
    negativity check.
    """
    evs, vecs = np.linalg.eigh(m.entries)
    lo = float(evs.min()) if evs.size else 0.0
    if lo < EIGENVALUE_FLOOR:
        raise NotAStateError(f"negative eigenvalue {lo!r} below tolerance {EIGENVALUE_FLOOR}")
    evs = np.clip(evs, 0.0, 1.0)
    return evs[::-1].copy(), vecs[:, ::-1].copy()


def entropy_from_probs(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0 if nz.size else 0.0


def von_neumann_entropy(m: DensityMatrix) -> float:
    """S(m) in bits."""
    return entropy_from_probs(_clamped_spectrum(m))


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity, trace-norm convention (1 for identical states)."""
    _require_same_layout(a.layout, b.layout)
    evs, vecs = eig_hermitian(a)
    sqrt_a = (vecs * np.sqrt(evs)) @ vecs.conj().T
    inner = sqrt_a @ b.entries @ sqrt_a
    w = np.linalg.eigvalsh(inner)
    f = float(np.sqrt(np.clip(w, 0.0, None)).sum())
    return min(max(f, 0.0), 1.0)


def pure_fidelity(psi: PureStateVector, m: DensityMatrix) -> float:
    """F(|psi><psi|, m) = sqrt(<psi|m|psi>), cheaper than the general form."""
    _require_same_layout(psi.layout, m.layout)
    val = float(np.real(np.vdot(psi.amplitudes, m.entries @ psi.amplitudes)))
    return math.sqrt(min(max(val, 0.0), 1.0))


def check_isometry(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise IsometryError(f"isometry must be tall or square, got shape {v.shape}")
    gram = v.conj().T @ v
    err = float(np.max(np.abs(gram - np.eye(v.shape[1]))))
    if err > ISOMETRY_ATOL:
        raise IsometryError(f"columns deviate from orthonormal by {err!r}")
    return v


def apply_isometry(v: np.ndarray, state, out_layout: SubsystemLayout | None = None):
    """Apply V (or a unitary) to a vector or density matrix.

    out_layout names the output space; it may be omitted when V is square,
    in which case the input layout is reused.
    """
    v = check_isometry(v)
    d_out, d_in = v.shape
    if state.layout.total_dim != d_in:
        raise LayoutMismatchError(f"isometry input dim {d_in} vs state dim {state.layout.total_dim}")
    if out_layout is None:
        if d_out != d_in:
            raise LayoutMismatchError("out_layout is required when the isometry enlarges the space")
        out_layout = state.layout
    elif out_layout.total_dim != d_out:
        raise LayoutMismatchError(
            f"out_layout dim {out_layout.total_dim} does not match isometry output {d_out}"
        )
    if isinstance(state, PureStateVector):
        amps = v @ state.amplitudes
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > 1e-7:
            raise NotAStateError(f"isometry output norm {nrm!r} drifted from 1")
        return PureStateVector(out_layout, amps, check=False)
    if isinstance(state, DensityMatrix):
        out = v @ state.entries @ v.conj().T
        return DensityMatrix(out_layout, out, check=False)
    raise LayoutMismatchError("state must be a PureStateVector or DensityMatrix")
