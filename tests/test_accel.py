import itertools
import math

import numpy as np

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
    m = rng.standard_normal((dw * d_in, d_in)) + 1j * rng.standard_normal((dw * d_in, d_in))
    v, _ = np.linalg.qr(m)
    probs = rng.dirichlet(np.ones(nx))
    phis = rng.standard_normal((nx, d_in)) + 1j * rng.standard_normal((nx, d_in))
    phis /= np.linalg.norm(phis, axis=1)[:, None]
    return v, phis, probs, da, dc, dw


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
    def test_identity_is_identity_channel(self):
        rng = np.random.default_rng(102)
        v, phis, probs, da, dc, dw = rand_objective_inputs(rng)
        mi, fid = unitary_objective(np.eye(*v.shape), phis, probs, da, dc, dw)[:2]
        assert abs(fid - 1.0) < 1e-12
        assert mi >= -1e-12

    def test_mutual_information_bounds(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            v, phis, probs, da, dc, dw = rand_objective_inputs(rng)
            mi, fid = unitary_objective(v, phis, probs, da, dc, dw)[:2]
            h_x = -(probs * np.log2(probs)).sum()
            assert -1e-9 <= mi <= h_x + 1e-9
            assert 0.0 <= fid <= 1.0 + 1e-12
