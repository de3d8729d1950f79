"""Classical-quantum sources: labeled ensembles of pure signal states.

An Ensemble pairs each classical letter x with a probability p(x), a
signal state psi_x on A, and a side-information state sigma_x on C held
by the encoder. dimC = 1 models the blind setting (no side information);
sigma_x = |x> models the visible setting.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import limits
from .errors import (
    DimensionLimitError,
    EnsembleFormatError,
    IsometryError,
    LabelError,
    LayoutMismatchError,
    EacompError,
)
from .states import (
    DensityMatrix,
    PureStateVector,
    SubsystemLayout,
    basis_state,
    single,
)

PROB_ATOL = 1e-9
# default overlap tolerance of the component graph and the blind/visible flags
DEFAULT_OVERLAP_TOL = 1e-10


def check_tolerance(tol: float):
    """Reject an overlap tolerance that is negative or not finite."""
    if not 0.0 <= tol < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be a finite nonnegative number, got {tol}")


@dataclass(frozen=True)
class EnsembleItem:
    label: str
    prob: float
    psi: PureStateVector
    sigma: PureStateVector


@dataclass(frozen=True)
class Ensemble:
    dim_a: int
    dim_c: int
    items: tuple[EnsembleItem, ...]

    def __post_init__(self):
        if not self.items:
            raise EnsembleFormatError(["ensemble has no states"])
        for i, it in enumerate(self.items):
            if it.psi.dim != self.dim_a:
                raise LayoutMismatchError(f"item {i}: psi dim {it.psi.dim} != dimA {self.dim_a}")
            if it.sigma.dim != self.dim_c:
                raise LayoutMismatchError(f"item {i}: sigma dim {it.sigma.dim} != dimC {self.dim_c}")

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(it.label for it in self.items)

    @property
    def probs(self) -> np.ndarray:
        return np.array([it.prob for it in self.items])

    def support(self) -> tuple[int, ...]:
        """Indices of items with strictly positive probability."""
        return tuple(i for i, it in enumerate(self.items) if it.prob > 0.0)

    @cached_property
    def overlaps(self) -> "Overlaps":
        """The support stacked row by row; built on first use and shared by
        every analysis of this ensemble (its overlap matrices on first read)."""
        sup = self.support()
        psi = np.array([self.items[i].psi.amplitudes for i in sup], dtype=np.complex128)
        sigma = np.array([self.items[i].sigma.amplitudes for i in sup], dtype=np.complex128)
        psi, sigma = psi.reshape(len(sup), self.dim_a), sigma.reshape(len(sup), self.dim_c)
        return Overlaps(sup, np.array([self.items[i].prob for i in sup]), psi, sigma)

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
        """True when the side information identifies x: sigmas pairwise orthogonal."""
        check_tolerance(tol)
        n = len(self.overlaps.probs)
        if n < 2 or self.dim_c < n:
            return False
        g = self.overlaps.sigma_gram
        return not (np.abs(g[np.triu_indices(len(g), 1)]) > tol).any()


@dataclass(frozen=True, eq=False)
class Overlaps:
    """A source's support: item indices, probabilities, the rows psi_x and
    sigma_x, and the overlap matrices [<psi_x|psi_x'>] and [<sigma_x|sigma_x'>].
    Every rate quantity is invariant under U_A (x) U_C, so it depends on
    the source only through p and these two matrices. Each is built on
    first read, and refused above MATRIX_CAP before it is formed."""

    support: tuple[int, ...]
    probs: np.ndarray
    psi: np.ndarray
    sigma: np.ndarray

    @cached_property
    def psi_gram(self) -> np.ndarray:
        return _gram(self.psi)

    @cached_property
    def sigma_gram(self) -> np.ndarray:
        return _gram(self.sigma)

    def given(self, rows, weight: float) -> "Overlaps":
        """The items at rows, a boolean mask over the support, with their
        probabilities divided by weight: one component, renormalised."""
        return Overlaps(tuple(k for k, keep in zip(self.support, rows) if keep), self.probs[rows] / weight,
                        self.psi[rows], self.sigma[rows])

    def vectors(self, keep) -> np.ndarray:
        """Rows v_x = psi_x, sigma_x or psi_x (x) sigma_x as keep is {A},
        {C} or {A, C}."""
        keep = set(keep)
        if not keep or keep - {"A", "C"}:
            raise LabelError(f"keep must be a nonempty subset of {{'A', 'C'}}, got {sorted(keep)}")
        if keep == {"A"}:
            return self.psi
        if keep == {"C"}:
            return self.sigma
        return (self.psi[:, :, None] * self.sigma[:, None, :]).reshape(len(self.probs), -1)

    def marginal(self, keep) -> DensityMatrix:
        """sum_x p_x |v_x><v_x| on the kept factors, as one matrix product."""
        v = self.vectors(keep)
        pairs = [(l, m.shape[1]) for l, m in (("A", self.psi), ("C", self.sigma)) if l in keep]
        layout = SubsystemLayout(tuple(l for l, _ in pairs), tuple(d for _, d in pairs))
        return DensityMatrix(layout, (self.probs[:, None] * v).T @ v.conj(), check=False)

    def density(self, keep) -> DensityMatrix:
        """The marginal on keep, or the Gram matrix [sqrt(p_x p_x') <v_x|v_x'>]
        (layout "X") when that side is smaller. The two share their nonzero
        spectrum, so either gives the entropy."""
        v = self.vectors(keep)
        if len(v) >= v.shape[1]:
            return self.marginal(keep)
        amp = np.sqrt(self.probs)
        return DensityMatrix(single("X", len(v)), np.outer(amp, amp) * (v.conj() @ v.T), check=False)


def _gram(rows: np.ndarray) -> np.ndarray:
    """[<v_x|v_x'>] over the rows, refused above MATRIX_CAP before the product."""
    if len(rows) > limits.MATRIX_CAP:
        raise DimensionLimitError(f"matrix side {len(rows)} exceeds cap {limits.MATRIX_CAP}")
    return rows.conj() @ rows.T


def _as_pure(vec, dim: int, label: str) -> PureStateVector:
    if isinstance(vec, PureStateVector):
        if vec.dim != dim:
            raise LayoutMismatchError(f"state dim {vec.dim} != {dim}")
        return PureStateVector(single(label, dim), vec.amplitudes, check=False)
    return PureStateVector(single(label, dim), np.asarray(vec, dtype=np.complex128))


def make_blind(states, probs, labels=None) -> Ensemble:
    """Ensemble with trivial side information (dimC = 1)."""
    states = list(states)
    dim_a = len(np.asarray(states[0], dtype=np.complex128).ravel()) if not isinstance(
        states[0], PureStateVector
    ) else states[0].dim
    labels = list(labels) if labels is not None else [str(i) for i in range(len(states))]
    trivial = basis_state(single("C", 1), 0)
    items = tuple(
        EnsembleItem(labels[i], float(probs[i]), _as_pure(states[i], dim_a, "A"), trivial)
        for i in range(len(states))
    )
    return Ensemble(dim_a, 1, items)


def make_visible(states, probs, labels=None) -> Ensemble:
    """Ensemble whose side information is a classical copy of the label."""
    states = list(states)
    n = len(states)
    dim_a = len(np.asarray(states[0], dtype=np.complex128).ravel()) if not isinstance(
        states[0], PureStateVector
    ) else states[0].dim
    labels = list(labels) if labels is not None else [str(i) for i in range(n)]
    items = tuple(
        EnsembleItem(
            labels[i],
            float(probs[i]),
            _as_pure(states[i], dim_a, "A"),
            basis_state(single("C", n), i),
        )
        for i in range(n)
    )
    return Ensemble(dim_a, n, items)


def _is_finite(v) -> bool:
    """True for a finite real; ints too large for a float count as infinite."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def validate(e: Ensemble) -> list[str]:
    """Value diagnostics; empty list means the ensemble is well formed.

    One line per fault: a non-finite probability or amplitude is not also
    reported as a bad probability sum or norm.
    """
    out = []
    for i, it in enumerate(e.items):
        where = f"item {i} ({it.label!r})"
        if not _is_finite(it.prob):
            out.append(f"{where}: probability {it.prob!r} is not finite")
        elif it.prob < -PROB_ATOL:
            out.append(f"{where}: negative probability {it.prob!r}")
        for name, state in (("psi", it.psi), ("sigma", it.sigma)):
            amps = state.amplitudes
            bad = np.flatnonzero(~np.isfinite(amps))
            for k in bad:
                out.append(f"{where}: {name} has non-finite amplitudes: "
                           f"amplitude {k} = {amps[k]} is not finite")
            if bad.size:
                continue
            nrm = float(np.linalg.norm(amps))
            if abs(nrm - 1.0) > 1e-9:
                out.append(f"{where}: {name} norm deviates from 1 by {abs(nrm - 1.0):.3e}")
    if all(_is_finite(it.prob) for it in e.items):
        total = float(sum(it.prob for it in e.items))
        if not abs(total - 1.0) <= PROB_ATOL:
            out.append(f"probability sum deviates from 1 by {abs(total - 1.0):.3e}")
    labels = [it.label for it in e.items]
    for lbl in sorted(set(l for l in labels if labels.count(l) > 1)):
        out.append(f"duplicate label {lbl!r}")
    return out


def reduced(e: Ensemble, keep) -> DensityMatrix:
    """Marginal of the average state on a nonempty subset of {A, C}."""
    return e.overlaps.marginal(keep)


def tensor_power(e: Ensemble, n: int) -> Ensemble:
    """n independent copies, labels joined with commas."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if e.size**n > limits.SEQUENCE_CAP:
        raise DimensionLimitError(
            f"{e.size}^{n} sequences exceed cap {limits.SEQUENCE_CAP}; lower n"
        )
    da, dc = e.dim_a**n, e.dim_c**n
    if da > limits.VECTOR_CAP or dc > limits.VECTOR_CAP:
        raise DimensionLimitError(f"copy dimensions {da}x{dc} exceed cap {limits.VECTOR_CAP}")
    items = []
    for combo in np.ndindex(*([e.size] * n)):
        parts = [e.items[i] for i in combo]
        prob = math.prod(p.prob for p in parts)
        psi = parts[0].psi.amplitudes
        sig = parts[0].sigma.amplitudes
        for p in parts[1:]:
            psi = np.kron(psi, p.psi.amplitudes)
            sig = np.kron(sig, p.sigma.amplitudes)
        items.append(
            EnsembleItem(
                ",".join(p.label for p in parts),
                prob,
                PureStateVector(single("A", da), psi, check=False),
                PureStateVector(single("C", dc), sig, check=False),
            )
        )
    return Ensemble(da, dc, tuple(items))


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
    err = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
    if not err <= 1e-8:  # NaN fails too
        raise IsometryError(f"matrix deviates from unitary by {err!r}")
    items = []
    for i, it in enumerate(e.items):
        w = u @ np.kron(it.psi.amplitudes, it.sigma.amplitudes)
        mat = w.reshape(e.dim_a, e.dim_c)
        left, s, right = np.linalg.svd(mat)
        if s.size > 1 and s[1] > 1e-9:
            raise EacompError(
                f"unitary entangles item {i} ({it.label!r}) across A/C "
                f"(second Schmidt coefficient {s[1]:.3e}); cannot keep the product form"
            )
        items.append(
            EnsembleItem(
                it.label,
                it.prob,
                PureStateVector(single("A", e.dim_a), left[:, 0] * s[0], check=False),
                PureStateVector(single("C", e.dim_c), right[0, :], check=False),
            )
        )
    return Ensemble(e.dim_a, e.dim_c, tuple(items))


# ---------------------------------------------------------------------------
# JSON interchange


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v) -> float:
    """float(v), with ints too large for a float as infinities for validate() to reject."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _vector(raw, dim: int, where: str, problems: list[str]) -> np.ndarray | None:
    """Amplitudes as [re, im] pairs or bare reals; None after a structural fault."""
    if not isinstance(raw, list) or len(raw) != dim:
        problems.append(f"{where}: expected {dim} amplitudes")
        return None
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

    The parser checks structure (keys, types, shapes). Once every state is
    built, the values are checked by validate(); a file whose structure is
    broken reports only the structural faults.
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
    if not isinstance(dim_a, int) or dim_a < 1:
        raise EnsembleFormatError(problems + ["'dimA' must be a positive integer"])
    dim_c = data.get("dimC", len(states) if visible else 1)
    if not isinstance(dim_c, int) or dim_c < 1:
        raise EnsembleFormatError(problems + ["'dimC' must be a positive integer"])
    if visible and dim_c != len(states):
        problems.append(f"visible ensembles need dimC = number of states ({len(states)})")

    items = []
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
            items.append(
                EnsembleItem(
                    label,
                    _float(prob),
                    PureStateVector(single("A", dim_a), psi, check=False),
                    PureStateVector(single("C", dim_c), sigma, check=False),
                )
            )

    if len(items) < len(states):
        raise EnsembleFormatError(problems)
    e = Ensemble(dim_a, dim_c, tuple(items))
    problems.extend(validate(e))
    if problems:
        raise EnsembleFormatError(problems)
    return e


def ensemble_to_json(e: Ensemble) -> dict:
    """Inverse of ensemble_from_json (sigma kept explicit unless dimC = 1)."""

    def pairs(v: np.ndarray):
        return [[float(a.real), float(a.imag)] for a in v]

    states = []
    for it in e.items:
        entry = {"label": it.label, "prob": it.prob, "psi": pairs(it.psi.amplitudes)}
        if e.dim_c > 1:
            entry["sigma"] = pairs(it.sigma.amplitudes)
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
