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

    def joint_vector(self, i: int) -> PureStateVector:
        """psi_x tensor sigma_x for item i."""
        it = self.items[i]
        layout = SubsystemLayout(("A", "C"), (self.dim_a, self.dim_c))
        return PureStateVector(layout, np.kron(it.psi.amplitudes, it.sigma.amplitudes), check=False)

    def is_blind(self, tol: float = 1e-10) -> bool:
        """True when the encoder side information carries nothing.

        Either dimC = 1, or every sigma_x on the support is the same state
        up to phase within tol.
        """
        if self.dim_c == 1:
            return True
        sup = self.support()
        if not sup:
            return True
        ref = self.items[sup[0]].sigma.amplitudes
        for i in sup[1:]:
            ov = abs(np.vdot(ref, self.items[i].sigma.amplitudes))
            if 1.0 - ov > tol:
                return False
        return True

    def is_visible(self, tol: float = 1e-10) -> bool:
        """True when the side information identifies x: sigmas pairwise orthogonal."""
        sup = self.support()
        if len(sup) < 2:
            return False
        if self.dim_c < len(sup):
            return False
        for a in range(len(sup)):
            for b in range(a + 1, len(sup)):
                ov = abs(
                    np.vdot(
                        self.items[sup[a]].sigma.amplitudes,
                        self.items[sup[b]].sigma.amplitudes,
                    )
                )
                if ov > tol:
                    return False
        return True


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


def require_valid(e: Ensemble):
    violations = validate(e)
    if violations:
        raise EnsembleFormatError(violations)


@dataclass(frozen=True)
class SourceState:
    """The classical-quantum-quantum source as one density matrix on X, A, C."""

    density: DensityMatrix
    classical_labels: tuple[str, ...] = ("X",)


def source_state(e: Ensemble) -> SourceState:
    """sum_x p(x) |x><x| (x) psi_x (x) sigma_x, block diagonal in x."""
    nx, da, dc = e.size, e.dim_a, e.dim_c
    dac = da * dc
    big = np.zeros((nx * dac, nx * dac), dtype=np.complex128)
    for i, it in enumerate(e.items):
        if it.prob == 0.0:
            continue
        w = np.kron(it.psi.amplitudes, it.sigma.amplitudes)
        big[i * dac : (i + 1) * dac, i * dac : (i + 1) * dac] = it.prob * np.outer(w, w.conj())
    layout = SubsystemLayout(("X", "A", "C"), (nx, da, dc))
    return SourceState(DensityMatrix(layout, big, check=False))


def reduced(e: Ensemble, keep) -> DensityMatrix:
    """Marginal of the average state on a nonempty subset of {A, C}."""
    keep = set(keep)
    if not keep or keep - {"A", "C"}:
        raise LabelError(f"keep must be a nonempty subset of {{'A', 'C'}}, got {sorted(keep)}")
    labels = tuple(l for l in ("A", "C") if l in keep)
    dims = tuple({"A": e.dim_a, "C": e.dim_c}[l] for l in labels)
    d = math.prod(dims)
    acc = np.zeros((d, d), dtype=np.complex128)
    for it in e.items:
        if it.prob == 0.0:
            continue
        if keep == {"A"}:
            v = it.psi.amplitudes
        elif keep == {"C"}:
            v = it.sigma.amplitudes
        else:
            v = np.kron(it.psi.amplitudes, it.sigma.amplitudes)
        acc += it.prob * np.outer(v, v.conj())
    return DensityMatrix(SubsystemLayout(labels, dims), acc, check=False)


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
    if err > 1e-8:
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
