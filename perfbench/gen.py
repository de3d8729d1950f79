"""Seeded source generator.

Every source is built so that its component structure is known without
asking the program: states of different sectors live in mutually
orthogonal subspaces (of A for blind sources, of C for sources with side
information), and states inside one sector are generic, hence pairwise
non-orthogonal. The sector list therefore *is* the irreducible
decomposition, and the sector weights give S(Y) and the component count.

Only numpy is used here; the program receives the sources as ensemble
JSON files and nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Source:
    name: str
    kind: str  # "blind", "visible" or "general"
    probs: np.ndarray  # (N,)
    psi: np.ndarray  # (N, dA) complex
    sigma: np.ndarray  # (N, dC) complex
    sectors: tuple[tuple[int, ...], ...]  # state indices per component

    @property
    def dim_a(self) -> int:
        return self.psi.shape[1]

    @property
    def dim_c(self) -> int:
        return self.sigma.shape[1]

    def to_json(self) -> dict:
        def pairs(v):
            return [[float(a.real), float(a.imag)] for a in v]

        states = []
        for i, p in enumerate(self.probs):
            entry = {"label": f"s{i:02d}", "prob": float(p), "psi": pairs(self.psi[i])}
            if self.dim_c > 1:
                entry["sigma"] = pairs(self.sigma[i])
            states.append(entry)
        return {"dimA": self.dim_a, "dimC": self.dim_c, "states": states}

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def haar_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_probs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Probabilities bounded away from 0, summing to 1 to rounding."""
    p = 0.2 / n + 0.8 * rng.dirichlet(np.full(n, 2.0))
    return p / p.sum()


def _embed(rng: np.random.Generator, dim: int, lo: int, hi: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[lo:hi] = haar_vector(rng, hi - lo)
    return v


def split(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    """Random composition of total into parts positive sizes."""
    cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False)) if parts > 1 else []
    edges = [0, *[int(c) for c in cuts], total]
    return [b - a for a, b in zip(edges, edges[1:])]


def _sector_assignment(sizes: list[int]) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    owner, sectors, start = [], [], 0
    for k, s in enumerate(sizes):
        owner.extend([k] * s)
        sectors.append(tuple(range(start, start + s)))
        start += s
    return owner, tuple(sectors)


def blind_source(rng, name: str, n: int, dim_a: int, sectors: int = 1) -> Source:
    """No side information; sector k lives in its own block of A."""
    sizes = split(rng, n, sectors)
    blocks = split(rng, dim_a, sectors)
    owner, groups = _sector_assignment(sizes)
    edges = np.cumsum([0, *blocks])
    psi = np.stack([_embed(rng, dim_a, edges[k], edges[k + 1]) for k in owner])
    sigma = np.ones((n, 1), dtype=np.complex128)
    return Source(name, "blind", random_probs(rng, n), psi, sigma, groups)


def visible_source(rng, name: str, n: int, dim_a: int) -> Source:
    """Side states are the columns of a random unitary: pairwise orthogonal."""
    psi = np.stack([haar_vector(rng, dim_a) for _ in range(n)])
    sigma = haar_unitary(rng, n).T.copy()
    return Source(name, "visible", random_probs(rng, n), psi, sigma, tuple((i,) for i in range(n)))


def sideinfo_source(rng, name: str, sizes: list[int], dim_a: int, block: int = 2) -> Source:
    """General side information: sector k's side states live in its own
    block of C; inside a sector they are random, so neither blind nor
    visible as long as some sector holds two states."""
    if max(sizes) < 2:
        raise ValueError("a side-information source needs a sector with two states")
    owner, groups = _sector_assignment(sizes)
    dim_c = block * len(sizes)
    psi = np.stack([haar_vector(rng, dim_a) for _ in owner])
    sigma = np.stack([_embed(rng, dim_c, block * k, block * (k + 1)) for k in owner])
    return Source(name, "general", random_probs(rng, len(owner)), psi, sigma, groups)


_H = 2.0**-0.5
# The two side-information fixtures of the package's data directory:
# sideinfo_triple (one component: |0>|0>, |1>|0>, |+>|+>) and
# visible_pair (|0>|0>, |+>|1>).
FIXTURES = {
    "sideinfo_triple": ("general", [0.45, 0.45, 0.1], [[1, 0], [0, 1], [_H, _H]],
                        [[1, 0], [1, 0], [_H, _H]], ((0, 1, 2),)),
    "visible_pair": ("visible", [0.5, 0.5], [[1, 0], [_H, _H]], [[1, 0], [0, 1]], ((0,), (1,))),
}


def rotated(rng, src: Source) -> Source:
    """src under a random product unitary U_A (x) U_C. Every entropy, the
    decomposition and I_eps are invariant, and so are the typical-subspace
    fidelities up to which members of a class of equal-weight products
    rounding lets the code keep (about 1e-4 at n = 5 for three qubit
    signals). Only the numbers the program reads change with the seed."""
    ua, uc = haar_unitary(rng, src.dim_a), haar_unitary(rng, src.dim_c)
    return Source(src.name, src.kind, src.probs, src.psi @ ua.T, src.sigma @ uc.T, src.sectors)


def fixture(name: str) -> Source:
    kind, probs, psi, sigma, sectors = FIXTURES[name]
    return Source(name, kind, np.array(probs), np.array(psi, dtype=np.complex128),
                  np.array(sigma, dtype=np.complex128), sectors)


def gapped_blind_source(rng, name: str, n: int, min_gap: float = 0.1) -> Source:
    """A qubit blind source whose average state has a clear eigenvalue gap,
    so the typical-subspace code is unambiguous."""
    while True:
        src = blind_source(rng, name, n, 2)
        rho = (src.psi.T * src.probs) @ src.psi.conj()
        w = np.linalg.eigvalsh(rho)
        if w[1] - w[0] >= min_gap:
            return src
