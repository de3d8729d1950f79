import itertools
import math

import numpy as np

from eacomp import _accel
from eacomp._accel import block_fidelity, unitary_objective


def rand_block_inputs(rng, ns=3, d=3, n=4, rank=7):
    probs = rng.dirichlet(np.ones(ns))
    # rows of g are measurement distributions over d outcomes
    g = rng.dirichlet(np.ones(d), size=ns)
    sel = np.zeros((rank, n), dtype=np.int64)
    sel[1:] = rng.integers(0, d, size=(rank - 1, n))
    return probs, g, sel


def enumerated_fidelity(probs, g, sel):
    """Sum over every sequence of p(x^n) F(x^n), one code row at a time."""
    total = 0.0
    for seq in itertools.product(range(len(probs)), repeat=sel.shape[1]):
        ppass = min(sum(math.prod(g[x, k] for x, k in zip(seq, row)) for row in sel), 1.0)
        fail = math.prod(g[x, k] for x, k in zip(seq, sel[0]))
        total += math.prod(probs[x] for x in seq) * math.sqrt(ppass**2 + (1.0 - ppass) * fail)
    return total


def rand_objective_inputs(rng, da=2, dc=2, dw=3, nx=3):
    d_in = da * dc
    dim = dw * d_in
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2
    probs = rng.dirichlet(np.ones(nx))
    phis = np.zeros((nx, dim), dtype=np.complex128)
    for i in range(nx):
        v = rng.standard_normal(d_in) + 1j * rng.standard_normal(d_in)
        phis[i, :d_in] = v / np.linalg.norm(v)
    return h, phis, probs, da, dc, dw


class TestBlockFidelityAgreement:
    def test_matches_sequence_enumeration(self):
        rng = np.random.default_rng(99)
        for trial in range(30):
            probs, g, sel = rand_block_inputs(
                rng,
                ns=int(rng.integers(1, 4)),
                d=int(rng.integers(1, 4)),
                n=int(rng.integers(1, 6)),
                rank=int(rng.integers(1, 12)),
            )
            if len(sel) > 2:
                sel[-1] = sel[1]  # a duplicated row counts twice
            assert abs(block_fidelity(probs, g, sel) - enumerated_fidelity(probs, g, sel)) <= 1e-12, trial

    def test_range(self):
        rng = np.random.default_rng(100)
        for _ in range(5):
            probs, g, sel = rand_block_inputs(rng)
            assert 0.0 <= block_fidelity(probs, g, sel) <= 1.0


class TestObjectiveAgreement:
    def test_zero_generator_is_identity_channel(self):
        rng = np.random.default_rng(102)
        h, phis, probs, da, dc, dw = rand_objective_inputs(rng)
        mi, fid = unitary_objective(np.zeros_like(h), phis, probs, da, dc, dw)
        assert abs(fid - 1.0) < 1e-12
        assert mi >= -1e-12

    def test_mutual_information_bounds(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            h, phis, probs, da, dc, dw = rand_objective_inputs(rng)
            mi, fid = unitary_objective(h, phis, probs, da, dc, dw)
            h_x = -(probs * np.log2(probs)).sum()
            assert -1e-9 <= mi <= h_x + 1e-9
            assert 0.0 <= fid <= 1.0 + 1e-12

    def test_evolved_rows_match_eigh_at_large_norms(self, monkeypatch):
        # the Taylor route splits exp(iH) into steps of norm <= THETA;
        # without the split it loses digits to cancellation at these norms
        rng = np.random.default_rng(104)
        for dim in (8, 27, 64):
            phis = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
            for norm in (0.0, 1.0, 30.0, 300.0):
                m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                h = (m + m.conj().T) / 2
                h *= norm / np.linalg.norm(h)
                evs, vecs = np.linalg.eigh(h)
                ref = phis @ ((vecs * np.exp(1j * evs)) @ vecs.conj().T).T
                for min_dim in (0, 10**9):
                    monkeypatch.setattr(_accel, "TAYLOR_MIN_DIM", min_dim)
                    got = _accel._evolve_rows(h, phis)
                    assert np.abs(got - ref).max() < 1e-12, (dim, norm, min_dim)
