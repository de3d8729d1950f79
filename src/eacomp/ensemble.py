"""Classical-quantum sources: labeled ensembles of pure signal states.

An Ensemble holds a source as rows, one per classical letter x: its
label, its probability p(x), its signal state psi_x on A (a row of the
N x dimA array psi) and the side-information state sigma_x on C held by
the encoder (a row of the N x dimC array sigma). dimC = 1 models the
blind setting (no side information); sigma_x = |x> models the visible
setting.

The JSON interchange format is

    {"dimA": 2, "dimC": 1,
     "states": [{"label": "0", "prob": 0.5, "psi": [[1.0, 0.0], [0.0, 0.0]]},
                ...]}

with amplitudes as [re, im] pairs (bare reals accepted). "sigma" may be
omitted exactly when dimC = 1; a top-level "visible": true generates
sigma_x = |x> with dimC = number of states.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import limits
from .errors import (
    DimensionLimitError,
    EnsembleFormatError,
    LabelError,
    LayoutMismatchError,
    EacompError,
)
from .states import (EDGE_BLOCK, NORM_ATOL, DensityMatrix, check_isometry, check_side, frozen_copy, mixture,
                     overlaps_above, product_rows)

PROB_ATOL = 1e-9
# default overlap tolerance of the component graph and the blind/visible flags
DEFAULT_OVERLAP_TOL = 1e-10


def check_tolerance(tol: float):
    """Reject an overlap tolerance that is negative or not finite."""
    if not 0.0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be a finite nonnegative number, got {tol}")


@dataclass(frozen=True, eq=False)
class Ensemble:
    """The source {p_x, psi_x (x) sigma_x} as rows: labels (N,), probs
    (N,), psi (N, dimA) and sigma (N, dimC), each a read-only copy. Rows
    that validate() faults are refused with EnsembleFormatError of its
    lines, so every builder returns only sources that have a rate. The
    analysis reads `joint`, the rows psi_x (x) sigma_x built on first
    read, and `roots`, the partition at each tolerance (see
    decomposition), on the support source `overlaps`."""

    labels: tuple[str, ...]
    probs: np.ndarray
    psi: np.ndarray
    sigma: np.ndarray
    roots: dict[float, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for name, dtype in (("probs", np.float64), ("psi", np.complex128), ("sigma", np.complex128)):
            object.__setattr__(self, name, frozen_copy(getattr(self, name), dtype))
        n = len(self.labels)
        if not n:
            raise EnsembleFormatError(["ensemble has no states"])
        if self.probs.shape != (n,) or self.psi.ndim != 2 or self.sigma.ndim != 2 \
                or len(self.psi) != n or len(self.sigma) != n:
            raise LayoutMismatchError(
                f"{n} labels need probs of shape ({n},) and psi, sigma of {n} rows; got "
                f"{self.probs.shape}, {self.psi.shape} and {self.sigma.shape}"
            )
        for dim in (self.dim_a, self.dim_c):
            if dim > limits.VECTOR_CAP:
                raise DimensionLimitError(f"vector dimension {dim} exceeds cap {limits.VECTOR_CAP}")
        problems = validate(self)
        if problems:
            raise EnsembleFormatError(problems)

    @property
    def dim_a(self) -> int:
        return self.psi.shape[1]

    @property
    def dim_c(self) -> int:
        return self.sigma.shape[1]

    @property
    def size(self) -> int:
        return len(self.labels)

    def support(self) -> tuple[int, ...]:
        """Indices of items with strictly positive probability."""
        return tuple(np.flatnonzero(self.probs > 0.0).tolist())

    @cached_property
    def overlaps(self) -> Ensemble:
        """The support as a source: self when every p > 0, else the Ensemble
        of the positive rows. Built on first use and shared by every
        analysis of this ensemble."""
        sup = list(self.support())
        if len(sup) == self.size:
            return self
        # the gate cannot refuse these rows: they are this source's, none is
        # negative, they sum as validate's support sum did (the same list in
        # the same order), and their labels are some of its unique labels
        return Ensemble([self.labels[k] for k in sup], self.probs[sup], self.psi[sup], self.sigma[sup])

    @cached_property
    def joint(self) -> np.ndarray:
        return product_rows(self.psi, self.sigma)

    def is_blind(self, tol: float = DEFAULT_OVERLAP_TOL) -> bool:
        """True when the encoder side information carries nothing.

        Either dimC = 1, or every sigma_x on the support is the same state
        up to phase within tol: 1 - |<sigma_0|sigma_x>| <= tol.
        """
        check_tolerance(tol)
        if self.dim_c == 1:
            return True
        sigma = self.overlaps.sigma
        return not (1.0 - np.abs(sigma[:1].conj() @ sigma.T) > tol).any()

    def is_visible(self, tol: float = DEFAULT_OVERLAP_TOL) -> bool:
        """True when the side information identifies x: sigmas pairwise orthogonal,
        read from the upper triangle, EDGE_BLOCK rows at a time, up to the first pair above tol."""
        check_tolerance(tol)
        n = len(sigma := self.overlaps.sigma)
        if n < 2 or self.dim_c < n:
            return False
        check_side(n)
        return not any(np.triu(overlaps_above(tol, slice(lo, lo + EDGE_BLOCK), slice(None), sigma), lo + 1).any()
                       for lo in range(0, n, EDGE_BLOCK))


def _stacked_rows(states) -> np.ndarray:
    """The states stacked as rows; each must have the first one's shape."""
    rows = [np.asarray(s, dtype=np.complex128) for s in states]
    for i, row in enumerate(rows):
        if row.shape != rows[0].shape:
            raise LayoutMismatchError(f"state {i} has shape {row.shape}, state 0 has {rows[0].shape}")
    return np.array(rows)


def make_blind(states, probs, labels=None) -> Ensemble:
    """Ensemble with trivial side information (dimC = 1), labelled 0, 1, ... by default."""
    psi = _stacked_rows(states)
    labels = map(str, range(len(psi))) if labels is None else labels
    return Ensemble(labels, probs, psi, np.ones((len(psi), 1)))


def make_visible(states, probs, labels=None) -> Ensemble:
    """Ensemble whose side information is a classical copy of the label."""
    psi = _stacked_rows(states)
    labels = map(str, range(len(psi))) if labels is None else labels
    return Ensemble(labels, probs, psi, np.eye(len(psi)))


def validate(e: Ensemble) -> list[str]:
    """Value diagnostics; empty list means the ensemble is well formed.

    One line per fault: a non-finite probability or amplitude is not also
    reported as a bad probability sum or norm. The support (the positive
    probabilities) must sum to 1 as well, so that probabilities within
    PROB_ATOL below 0, which it leaves out, cannot offset an excess; that
    line is left out when the whole sum is already reported.
    """
    # One array pass finds the rows that may have a fault; only those go
    # through the per-row checks that word the lines. The screen's norms
    # sum in another order than the per-row ones and differ by a few ulps,
    # so it also passes on every row within _NORM_SCREEN of the threshold.
    faulty = ~np.isfinite(e.probs) | (e.probs < -PROB_ATOL)
    for rows in (e.psi, e.sigma):
        with np.errstate(invalid="ignore", over="ignore"):  # NaN or inf flags the row
            dev = np.abs(np.linalg.norm(rows, axis=1) - 1.0)
        faulty |= ~(dev <= NORM_ATOL - _NORM_SCREEN)
    out = []
    for i in np.flatnonzero(faulty).tolist():
        out.extend(_row_faults(e, i))
    if np.isfinite(e.probs).all():
        total = float(sum(e.probs.tolist()))
        support = float(sum(e.probs[e.probs > 0.0].tolist()))
        if not abs(total - 1.0) <= PROB_ATOL:
            out.append(f"probability sum deviates from 1 by {abs(total - 1.0):.3e}")
        elif not abs(support - 1.0) <= PROB_ATOL:
            out.append(f"probability sum over the support deviates from 1 by {abs(support - 1.0):.3e}")
    for lbl in sorted(l for l, count in Counter(e.labels).items() if count > 1):
        out.append(f"duplicate label {lbl!r}")
    return out


# the margin of validate's array screen below NORM_ATOL
_NORM_SCREEN = 1e-10


def _row_faults(e: Ensemble, i: int) -> list[str]:
    """validate's lines for row i."""
    out = []
    label, prob = e.labels[i], float(e.probs[i])
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
        if abs(nrm - 1.0) > NORM_ATOL:
            out.append(f"{where}: {name} norm deviates from 1 by {abs(nrm - 1.0):.3e}")
    return out


def reduced(e: Ensemble, keep) -> DensityMatrix:
    """Marginal of the average state on a nonempty subset of {A, C},
    refused above MATRIX_CAP before it is formed."""
    keep, dims = set(keep), {"A": e.dim_a, "C": e.dim_c}
    if not keep or keep - dims.keys():
        raise LabelError(f"keep must be a nonempty subset of {{'A', 'C'}}, got {sorted(keep)}")
    check_side(math.prod(dims[k] for k in keep))
    ov = e.overlaps
    rows = ov.joint if len(keep) == 2 else ov.psi if "A" in keep else ov.sigma
    return DensityMatrix(mixture(ov.probs, rows), check=False)


def tensor_power(e: Ensemble, n: int) -> Ensemble:
    """n independent copies, in C order of the copies' item indices (item
    k of two copies holds items k // N, k % N). For n >= 2 the labels are
    joined with commas, each with its backslashes and commas escaped by a
    backslash, so distinct sequences keep distinct labels."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if e.size**n > limits.SEQUENCE_CAP:
        raise DimensionLimitError(
            f"{e.size}^{n} sequences exceed cap {limits.SEQUENCE_CAP}; lower n"
        )
    da, dc = e.dim_a**n, e.dim_c**n
    if da > limits.VECTOR_CAP or dc > limits.VECTOR_CAP:
        raise DimensionLimitError(f"copy dimensions {da}x{dc} exceed cap {limits.VECTOR_CAP}")
    factors = [l.replace("\\", "\\\\").replace(",", "\\,") for l in e.labels] if n > 1 else e.labels
    labels, probs, psi, sigma = list(factors), e.probs, e.psi, e.sigma
    for _ in range(n - 1):
        labels = [f"{a},{b}" for a in labels for b in factors]
        probs = (probs[:, None] * e.probs).ravel()
        psi = (psi[:, None, :, None] * e.psi[None, :, None, :]).reshape(len(labels), -1)
        sigma = (sigma[:, None, :, None] * e.sigma[None, :, None, :]).reshape(len(labels), -1)
    return Ensemble(labels, probs, psi, sigma)


def cnot_unitary() -> np.ndarray:
    """Two-qubit CNOT on A (x) C with A as control."""
    u = np.zeros((4, 4), dtype=np.complex128)
    for a in range(2):
        for c in range(2):
            u[a * 2 + (c ^ a), a * 2 + c] = 1.0
    return u


def apply_product_unitary(e: Ensemble, u: np.ndarray) -> Ensemble:
    """Rewrite each joint signal under a unitary on A (x) C.

    Only works when every output stays a product across the A/C cut; a
    transformed state with a second Schmidt coefficient above tolerance
    is rejected, since it could not be split back into psi' and sigma'.
    """
    u = np.asarray(u, dtype=np.complex128)
    d = e.dim_a * e.dim_c
    if u.shape != (d, d):
        raise LayoutMismatchError(f"unitary shape {u.shape} does not match A(x)C dim {d}")
    check_isometry(u)
    joints = product_rows(e.psi, e.sigma)
    # u times each joint as a column rounds as the per-signal u @ w does; joints @ u.T would not
    w = u @ joints[:, :, None]
    left, s, right = np.linalg.svd(w.reshape(e.size, e.dim_a, e.dim_c))
    entangled = np.flatnonzero(s[:, 1:2] > 1e-9)
    if entangled.size:
        i = entangled[0]
        raise EacompError(
            f"unitary entangles item {i} ({e.labels[i]!r}) across A/C "
            f"(second Schmidt coefficient {s[i, 1]:.3e}); cannot keep the product form"
        )
    return Ensemble(e.labels, e.probs, left[:, :, 0] * s[:, :1], right[:, 0, :])


# ---------------------------------------------------------------------------
# JSON interchange


_REAL_TYPES = {int, float}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_positive_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _float(v) -> float:
    """float(v), with ints too large for a float as infinities for validate() to reject."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _whole_vector(raw: list) -> np.ndarray | None:
    """raw in one float64 conversion, when every entry is exactly an int or
    a float, or every entry an [re, im] list of them; None otherwise, and
    when an int is too large for a float. The values are those the
    per-amplitude loop of _vector gives."""
    kinds = set(map(type, raw))
    pairs = kinds == {list} and {type(p) for v in raw for p in v} <= _REAL_TYPES
    if not (pairs or kinds <= _REAL_TYPES):
        return None
    try:
        a = np.array(raw, dtype=np.float64)
    except (OverflowError, ValueError):  # an int too large for a float; ragged pairs
        return None
    if not pairs:
        return a.astype(np.complex128)
    if a.shape != (len(raw), 2):
        return None
    # re + 1j * im would turn an infinite part into nan
    out = np.empty(len(raw), dtype=np.complex128)
    out.real, out.imag = a[:, 0], a[:, 1]
    return out


def _vector(raw, dim: int, where: str, problems: list[str]) -> np.ndarray | None:
    """Amplitudes as [re, im] pairs or bare reals; None after a structural fault."""
    if not isinstance(raw, list) or len(raw) != dim:
        problems.append(f"{where}: expected {dim} amplitudes")
        return None
    out = _whole_vector(raw)
    if out is not None:
        return out
    out = np.zeros(dim, dtype=np.complex128)
    whole = True
    for k, v in enumerate(raw):
        if _is_number(v):
            out[k] = _float(v)
        elif isinstance(v, list) and len(v) == 2 and all(_is_number(p) for p in v):
            out[k] = complex(_float(v[0]), _float(v[1]))
        else:
            problems.append(f"{where}: amplitude must be a number or [re, im] pair, got {v!r}")
            whole = False
    return out if whole else None


def matrix_from_json(raw, where: str) -> np.ndarray:
    """A square matrix given as rows of amplitudes in the forms _vector
    accepts; raises EnsembleFormatError, one line per fault, on a bad
    shape or entry and on a non-finite one."""
    if not isinstance(raw, list):
        raise EnsembleFormatError([f"{where}: expected a list of rows"])
    problems: list[str] = []
    rows = [_vector(row, len(raw), f"{where} row {i}", problems) for i, row in enumerate(raw)]
    if problems:
        raise EnsembleFormatError(problems)
    m = np.array(rows, dtype=np.complex128).reshape(len(raw), len(raw))
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        raise EnsembleFormatError([f"{where} row {i}: amplitude {k} = {m[i, k]} is not finite" for i, k in bad])
    return m


def ensemble_from_json(data: dict) -> Ensemble:
    """Parse and validate the interchange dict; raises EnsembleFormatError.

    The parser checks structure (keys, types, shapes); the Ensemble it
    builds checks the values. Its lines follow the structural ones, and a
    file whose structure is broken reports only the structural faults.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        raise EnsembleFormatError(["top level must be an object"])
    allowed = {"dimA", "dimC", "states", "visible"}
    for key in sorted(set(data) - allowed):
        problems.append(f"unknown key {key!r}")
    visible = data.get("visible", False)
    if not isinstance(visible, bool):
        problems.append("'visible' must be a boolean")
        visible = False
    states = data.get("states")
    if not isinstance(states, list) or not states:
        raise EnsembleFormatError(problems + ["'states' must be a nonempty array"])
    dim_a = data.get("dimA")
    if not _is_positive_int(dim_a):
        raise EnsembleFormatError(problems + ["'dimA' must be a positive integer"])
    dim_c = data.get("dimC", len(states) if visible else 1)
    if not _is_positive_int(dim_c):
        raise EnsembleFormatError(problems + ["'dimC' must be a positive integer"])
    if visible and dim_c != len(states):
        problems.append(f"visible ensembles need dimC = number of states ({len(states)})")

    rows = []
    for i, raw in enumerate(states):
        where = f"state {i}"
        if not isinstance(raw, dict):
            problems.append(f"{where}: must be an object")
            continue
        for key in sorted(set(raw) - {"label", "prob", "psi", "sigma"}):
            problems.append(f"{where}: unknown key {key!r}")
        label = raw.get("label", str(i))
        if not isinstance(label, str):
            problems.append(f"{where}: label must be a string")
            label = str(i)
        prob = raw.get("prob")
        if not _is_number(prob):
            problems.append(f"{where}: prob must be a number")
            prob = None
        psi = _vector(raw.get("psi"), dim_a, f"{where} psi", problems)
        if visible:
            if "sigma" in raw:
                problems.append(f"{where}: sigma conflicts with top-level 'visible'")
            sigma = np.zeros(dim_c, dtype=np.complex128)
            sigma[i if i < dim_c else 0] = 1.0
        elif "sigma" in raw:
            sigma = _vector(raw["sigma"], dim_c, f"{where} sigma", problems)
        elif dim_c == 1:
            sigma = np.ones(1, dtype=np.complex128)
        else:
            problems.append(f"{where}: sigma required when dimC > 1")
            sigma = None
        if prob is not None and psi is not None and sigma is not None:
            rows.append((label, _float(prob), psi, sigma))

    # a complete state above VECTOR_CAP is refused even when other states
    # have structural faults
    try:
        e = Ensemble(*zip(*rows)) if rows else None
    except EnsembleFormatError as exc:
        raise EnsembleFormatError(problems + (exc.violations if len(rows) == len(states) else [])) from None
    if problems:
        raise EnsembleFormatError(problems)
    return e


def ensemble_to_json(e: Ensemble) -> dict:
    """Inverse of ensemble_from_json (sigma kept explicit unless dimC = 1)."""

    def pairs(v: np.ndarray):
        return [[float(a.real), float(a.imag)] for a in v]

    states = []
    for label, prob, psi, sigma in zip(e.labels, e.probs.tolist(), e.psi, e.sigma):
        entry = {"label": label, "prob": prob, "psi": pairs(psi)}
        if e.dim_c > 1:
            entry["sigma"] = pairs(sigma)
        states.append(entry)
    return {"dimA": e.dim_a, "dimC": e.dim_c, "states": states}


def load_ensemble(path) -> Ensemble:
    """Read an ensemble JSON file. json.JSONDecodeError propagates."""
    with open(path, "r", encoding="utf-8") as fh:
        return ensemble_from_json(json.load(fh))


def save_ensemble(e: Ensemble, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ensemble_to_json(e), fh, indent=2, sort_keys=True)
        fh.write("\n")
