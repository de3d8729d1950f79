import itertools
import math

import numpy as np
import pytest

from dense_oracle import prefix_tree_block_fidelity
from eacomp._accel import block_fidelity, unitary_objective
from eacomp.ensemble import make_blind
from eacomp.schumacher import build_code_space


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


class TestBlockFidelityOracle:
    """The head/tail kernel against the prefix-tree kernel it replaced."""

    def assert_agrees(self, probs, g, sel):
        assert abs(block_fidelity(probs, g, sel) - prefix_tree_block_fidelity(probs, g, sel)) <= 1e-14

    def test_random_codes(self):
        rng = np.random.default_rng(104)
        for _ in range(300):
            ns, d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 8))
            probs, g, sel = rand_block_inputs(rng, ns=ns, d=d, n=n, rank=int(rng.integers(1, 40)))
            sel[0] = rng.integers(0, d, size=n)  # unsorted rows, any failure row
            dups = rng.integers(0, len(sel), size=int(rng.integers(0, 4)))
            sel = np.concatenate([sel, sel[dups]])  # a duplicated row counts twice
            if ns > 1 and rng.random() < 0.3:
                probs[rng.integers(ns)] = 0.0
                probs /= probs.sum()
            self.assert_agrees(probs, g, sel)

    @pytest.mark.parametrize("ns,d,n", [(3, 3, 1), (3, 1, 6), (1, 3, 5), (1, 1, 1), (2, 2, 1)])
    def test_degenerate_sizes(self, ns, d, n):
        rng = np.random.default_rng(105)
        for rank in (1, 2, 5):
            probs, g, sel = rand_block_inputs(rng, ns=ns, d=d, n=n, rank=rank)
            self.assert_agrees(probs, g, sel)

    @pytest.mark.parametrize("ns,d,n", [(2, 2, 7), (3, 3, 4), (3, 2, 5)])
    def test_full_code(self, ns, d, n):
        rng = np.random.default_rng(106)
        probs, g, _ = rand_block_inputs(rng, ns=ns, d=d, n=n)
        sel = np.array(list(itertools.product(range(d), repeat=n)))
        rng.shuffle(sel)
        assert abs(block_fidelity(probs, g, sel) - 1.0) <= 1e-14
        self.assert_agrees(probs, g, sel)

    def test_codes_of_random_sources(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            ns, da = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            states = rng.standard_normal((ns, da)) + 1j * rng.standard_normal((ns, da))
            states /= np.linalg.norm(states, axis=1)[:, None]
            e = make_blind(states, rng.dirichlet(np.ones(ns)))
            code = build_code_space(e, int(rng.integers(1, 8)), float(rng.uniform(0.2, 1.4)))
            g = np.abs(e.overlaps.psi @ code.eigen_vectors.conj()) ** 2
            self.assert_agrees(e.overlaps.probs, g, code.selected)


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
