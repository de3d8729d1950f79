"""Independent checks of the program's output files.

Nothing here imports the program. Entropies come from numpy spectra of
matrices the benchmark assembles itself, using the sector structure the
generator built in (or, for files of unknown structure, a union-find over
the joint overlaps). The block simulator is checked against an explicit
n-copy reconstruction.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from gen import Source

ATOL = 1e-9
CSV_ATOL = 2e-6  # region polylines are printed with 6 decimals
OVERLAP_TOL = 1e-10


def entropy(probs) -> float:
    p = np.asarray(probs, dtype=np.float64)
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def gram_entropy(weights: np.ndarray, vectors: np.ndarray) -> float:
    """S(sum_i w_i |v_i><v_i|) from the spectrum of the Gram matrix
    sqrt(w_i w_j) <v_i|v_j>, which shares the nonzero spectrum."""
    s = np.sqrt(weights)
    g = (vectors.conj() @ vectors.T) * np.outer(s, s)
    return entropy(np.linalg.eigvalsh(g))


def sectors_by_overlap(src: Source, tol: float = OVERLAP_TOL):
    """Connected components of the joint-overlap graph (union-find)."""
    n = len(src.probs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(n), 2):
        ov = abs(np.vdot(src.psi[i], src.psi[j])) * abs(np.vdot(src.sigma[i], src.sigma[j]))
        if ov > tol:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in groups.values())


@dataclass(frozen=True)
class Expected:
    s_a: float
    s_c: float
    s_y: float
    s_cy: float
    s_acy: float
    weights: tuple[float, ...]

    @property
    def q(self) -> float:
        return 0.5 * (self.s_a + self.s_acy - self.s_cy)

    @property
    def e(self) -> float:
        return 0.5 * (self.s_a - self.s_acy + self.s_cy)


def expected(src: Source) -> Expected:
    p = src.probs
    rho_a = (src.psi.T * p) @ src.psi.conj()  # the dA x dA marginal
    s_a = entropy(np.linalg.eigvalsh(rho_a))
    weights = tuple(float(sum(p[i] for i in g)) for g in src.sectors)
    s_y = entropy(weights)
    s_c_blocks = s_ac_blocks = 0.0
    for g, w in zip(src.sectors, weights):
        idx = list(g)
        cond = p[idx] / w
        joint = np.stack([np.kron(src.psi[i], src.sigma[i]) for i in idx])
        s_c_blocks += w * gram_entropy(cond, src.sigma[idx])
        s_ac_blocks += w * gram_entropy(cond, joint)
    s_c = gram_entropy(p, src.sigma)
    return Expected(s_a, s_c, s_y, s_y + s_c_blocks, s_y + s_ac_blocks, weights)


def _close(problems: list[str], what: str, got, want: float, atol: float = ATOL):
    if got is None or not math.isfinite(float(got)) or abs(float(got) - want) > atol:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def check_rates(src: Source, ex: Expected, path: str) -> tuple[list[str], float]:
    """Component structure, entropies and every rate point of a rates
    report. Returns the problems and the reported optimal qubit rate."""
    problems: list[str] = []
    r = _read_json(path)
    dec = r["decomposition"]
    if dec["num_components"] != len(src.sectors):
        problems.append(f"num_components {dec['num_components']} != {len(src.sectors)}")
    elif not np.allclose(sorted(dec["weights"]), sorted(ex.weights), rtol=0, atol=1e-12):
        problems.append(f"component weights {dec['weights']} != {list(ex.weights)}")
    prof = r["entropy_profile"]
    for key, want in (("S_A", ex.s_a), ("S_Y", ex.s_y), ("S_CY", ex.s_cy), ("S_ACY", ex.s_acy)):
        _close(problems, key, prof.get(key), want)
    rates = r["rates"]
    _close(problems, "optimal Q", rates["optimal"].get("Q"), ex.q)
    _close(problems, "optimal E", rates["optimal"].get("E"), ex.e)
    _close(problems, "unassisted Q", rates["unassisted"].get("Q"), ex.s_a)
    if src.kind == "blind":
        if "blind" not in rates or "classical_corner" not in rates:
            problems.append("blind source without blind rates or classical corner")
        else:
            _close(problems, "blind Q", rates["blind"].get("Q"), ex.s_a - 0.5 * ex.s_y)
            _close(problems, "blind E", rates["blind"].get("E"), 0.5 * ex.s_y)
            _close(problems, "corner C", rates["classical_corner"].get("C"), 2 * ex.s_a - ex.s_y)
            _close(problems, "corner E", rates["classical_corner"].get("E"), ex.s_a - ex.s_y)
    elif "blind" in rates:
        problems.append(f"{src.kind} source reported as blind")
    if src.kind == "visible":
        if "visible" not in rates:
            problems.append("visible source without visible rates")
        else:
            _close(problems, "visible Q", rates["visible"].get("Q"), 0.5 * ex.s_a)
            _close(problems, "visible E", rates["visible"].get("E"), 0.5 * ex.s_a)
    elif "visible" in rates:
        problems.append(f"{src.kind} source reported as visible")
    return problems, float(rates["optimal"]["Q"])


def check_region(ex: Expected, kind: str, csv_path: str, spec_path: str) -> list[str]:
    problems: list[str] = []
    spec = _read_json(spec_path)
    header, rows = _read_csv(csv_path)
    if not rows:
        problems.append(f"{kind} polyline is empty")
    if kind == "EQ":
        _close(problems, "EQ q_min", spec.get("q_min"), ex.q)
        _close(problems, "EQ sum_min", spec.get("sum_min"), ex.s_a)
        if header != ["E", "Q"]:
            problems.append(f"EQ header {header}")
        for e, q in rows:
            if q < ex.q - CSV_ATOL or q + e < ex.s_a - CSV_ATOL:
                problems.append(f"EQ vertex ({e}, {q}) outside the region")
                break
    else:
        _close(problems, "CE c_min", spec.get("c_min"), 2 * ex.s_a - ex.s_y)
        _close(problems, "CE e_min", spec.get("e_min"), ex.s_a - ex.s_y)
        if header != ["C", "E"]:
            problems.append(f"CE header {header}")
        for c, e in rows:
            if c < 2 * ex.s_a - ex.s_y - CSV_ATOL or abs(e - (ex.s_a - ex.s_y)) > CSV_ATOL:
                problems.append(f"CE vertex ({c}, {e}) off the boundary")
                break
    return problems


def block_fidelity_bruteforce(src: Source, n: int, rate: float) -> float:
    """Expected fidelity of the floor(2^(nQ)) typical-subspace code, from
    explicit n-copy vectors: project onto the kept product eigenvectors,
    collapse onto the heaviest one on failure, average sqrt(<psi|out|psi>)."""
    rho = (src.psi.T * src.probs) @ src.psi.conj()
    w, v = np.linalg.eigh(rho)
    w, v = w[::-1], v[:, ::-1]
    d = len(w)
    rank = max(1, min(int(math.floor(2.0 ** (n * rate) + 1e-9)), d**n))
    tuples = list(itertools.product(range(d), repeat=n))
    weight = [math.prod(float(w[i]) for i in t) for t in tuples]
    kept = sorted(range(len(tuples)), key=lambda j: (-weight[j], j))[:rank]

    def kron(vectors):
        out = np.ones(1, dtype=np.complex128)
        for x in vectors:
            out = np.kron(out, x)
        return out

    basis = np.stack([kron([v[:, i] for i in tuples[j]]) for j in kept], axis=1)
    proj = basis @ basis.conj().T
    top = basis[:, 0]
    total = 0.0
    for seq in itertools.product(range(len(src.probs)), repeat=n):
        psi = kron([src.psi[x] for x in seq])
        kept_part = proj @ psi
        p_pass = float(np.vdot(psi, kept_part).real)
        out = np.outer(kept_part, kept_part.conj()) + (1.0 - p_pass) * np.outer(top, top.conj())
        fid = math.sqrt(max(float(np.vdot(psi, out @ psi).real), 0.0))
        total += math.prod(float(src.probs[x]) for x in seq) * fid
    return total


def check_simulate(ns: list[int], rate: float, smallest_fid: float, path: str) -> tuple[list[str], float]:
    """Sweep shape, fidelity range, brute-force agreement at the smallest n.
    Returns the problems and sum(n * Q * F) over the sweep."""
    problems: list[str] = []
    header, rows = _read_csv(path)
    if header != ["n", "Q", "fidelity"]:
        problems.append(f"simulate header {header}")
    if [int(r[0]) for r in rows] != ns:
        problems.append(f"simulate block lengths {[r[0] for r in rows]} != {ns}")
        return problems, 0.0
    for n, q, f in rows:
        if not 0.0 <= f <= 1.0:
            problems.append(f"fidelity {f} at n={n} outside [0, 1]")
        _close(problems, f"rate at n={n}", q, rate, 1e-6)
    _close(problems, f"fidelity at n={ns[0]} vs brute force", rows[0][2], smallest_fid, 1e-9)
    return problems, float(sum(n * q * f for n, q, f in rows))


def check_iepsilon(ex: Expected, eps_grid: list[float], path: str) -> tuple[list[str], float]:
    """Feasibility, floor and ceiling of every estimate. Returns the
    problems and the sum of certified estimates."""
    problems: list[str] = []
    r = _read_json(path)
    bounds = r["bounds"]
    _close(problems, "floor I(X:C)", bounds.get("floor_I_X_C"), ex.s_c)
    _close(problems, "ceiling S(CY)", bounds.get("ceiling_S_CY"), ex.s_cy)
    ests = r["estimates"]
    if [float(x["eps"]) for x in ests] != eps_grid:
        problems.append(f"eps grid {[x['eps'] for x in ests]} != {eps_grid}")
        return problems, 0.0
    for x in ests:
        eps, val, fid = float(x["eps"]), float(x["estimate"]), float(x["fidelity"])
        if fid < 1.0 - eps - ATOL:
            problems.append(f"eps={eps}: fidelity {fid} below 1 - eps")
        if val < ex.s_c - ATOL:
            problems.append(f"eps={eps}: estimate {val} below floor {ex.s_c}")
        if eps == 0.0 and val > ex.s_cy + 1e-6:
            problems.append(f"eps=0: estimate {val} above ceiling {ex.s_cy}")
    return problems, float(sum(float(x["estimate"]) for x in ests))
