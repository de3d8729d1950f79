import itertools
import math

import numpy as np
import pytest

from eacomp import limits
from eacomp.ensemble import make_blind, make_visible
from eacomp.errors import DimensionLimitError, EacompError
from eacomp.schumacher import build_code_space, code_rank, fidelity_curve, simulate_fidelity

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def blind_pair():
    return make_blind([[1, 0], PLUS], [0.5, 0.5])


def blind_qutrit():
    v0 = np.array([1, 0, 0], dtype=complex)
    v1 = np.array([0.6, 0.8, 0], dtype=complex)
    v2 = np.array([0, 0.28, 0.96], dtype=complex)
    return make_blind([v0, v1, v2], [0.5, 0.25, 0.25])


def brute_force_fidelity(e, n, rate_q):
    """Reference by explicit n-copy construction, shares no code with the
    package beyond the ensemble accessors."""
    da = e.dim_a
    sup = e.support()
    probs = [e.items[i].prob for i in sup]
    psis = [e.items[i].psi.amplitudes for i in sup]
    rho = sum(p * np.outer(v, v.conj()) for p, v in zip(probs, psis))
    evs, vecs = np.linalg.eigh(rho)
    evs, vecs = evs[::-1], vecs[:, ::-1]
    w = evs.copy()
    for _ in range(n - 1):
        w = np.multiply.outer(w, evs)
    order = np.argsort(-w.ravel(), kind="stable")
    rank = max(1, min(int(math.floor(2.0 ** (n * rate_q) + 1e-9)), da**n))
    cols = []
    for idx in order[:rank]:
        digits = np.unravel_index(idx, (da,) * n)
        v = vecs[:, digits[0]]
        for d in digits[1:]:
            v = np.kron(v, vecs[:, d])
        cols.append(v)
    basis = np.stack(cols, axis=1)
    proj = basis @ basis.conj().T
    phi0 = cols[0]
    total = 0.0
    for seq in itertools.product(range(len(probs)), repeat=n):
        pp = math.prod(probs[i] for i in seq)
        psi = psis[seq[0]]
        for i in seq[1:]:
            psi = np.kron(psi, psis[i])
        p_pass = min(float(np.real(np.vdot(psi, proj @ psi))), 1.0)
        f_fail = abs(np.vdot(phi0, psi)) ** 2
        total += pp * math.sqrt(p_pass**2 + (1 - p_pass) * f_fail)
    return total


class TestCodeRank:
    def test_values(self):
        assert code_rank(3, 0.0, 2) == 1
        assert code_rank(3, 1.0, 2) == 8
        assert code_rank(2, 0.5, 2) == 2
        assert code_rank(1, 0.7, 2) == 1
        assert code_rank(2, 10.0, 2) == 4  # clamped to the full space
        # floor robust against representation dust: 3 * (1/3) slightly below 1
        assert code_rank(3, 1.0 / 3.0, 2) == 2


class TestCodeSpace:
    def test_structure(self):
        code = build_code_space(blind_pair(), 4, 0.7)
        assert code.rank == 6
        assert code.selected.shape == (6, 4)
        np.testing.assert_array_equal(code.fail_index, [0, 0, 0, 0])
        # weights are the products of the single-copy spectrum, descending
        w = code.eigen_weights
        assert w[0] >= w[1]
        expect = np.sort(np.multiply.outer(np.multiply.outer(np.multiply.outer(w, w), w), w).ravel())[::-1]
        np.testing.assert_allclose(code.selected_weights, expect[:6], atol=1e-15)

    def test_nesting(self):
        e = blind_pair()
        small = build_code_space(e, 5, 0.4)
        big = build_code_space(e, 5, 0.9)
        assert small.rank < big.rank
        np.testing.assert_array_equal(big.selected[: small.rank], small.selected)

    def test_requires_blind(self):
        with pytest.raises(EacompError):
            build_code_space(make_visible([[1, 0], PLUS], [0.5, 0.5]), 2, 1.0)

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            build_code_space(blind_pair(), 0, 0.5)
        with pytest.raises(ValueError):
            build_code_space(blind_pair(), 2, -0.1)

    def test_dimension_cap(self):
        old = limits.CODE_DIM_CAP
        limits.CODE_DIM_CAP = 2**4
        try:
            with pytest.raises(DimensionLimitError, match="lower n"):
                build_code_space(blind_pair(), 5, 0.5)
        finally:
            limits.CODE_DIM_CAP = old


class TestSimulate:
    def test_matches_brute_force_qubit(self):
        e = blind_pair()
        s_a = 0.6008760366928562
        for n in (1, 2, 3, 4):
            for q in (s_a + 0.1, s_a - 0.15, 0.33, 1.0):
                fast = simulate_fidelity(e, build_code_space(e, n, q))
                slow = brute_force_fidelity(e, n, q)
                assert abs(fast - slow) < 1e-12, (n, q)

    def test_matches_brute_force_qutrit(self):
        e = blind_qutrit()
        for n in (1, 2, 3):
            for q in (0.4, 1.0, math.log2(3)):
                fast = simulate_fidelity(e, build_code_space(e, n, q))
                slow = brute_force_fidelity(e, n, q)
                assert abs(fast - slow) < 1e-12, (n, q)

    def test_full_rank_is_lossless(self):
        e = blind_qutrit()
        for n in (1, 2, 3, 4):
            code = build_code_space(e, n, math.log2(3))
            assert code.rank == 3**n
            assert abs(simulate_fidelity(e, code) - 1.0) <= 1e-9

    def test_monotone_in_rank(self):
        e = blind_pair()
        n = 6
        prev = 0.0
        for q in np.linspace(0.0, 1.0, 13):
            f = simulate_fidelity(e, build_code_space(e, n, q))
            assert f >= prev - 1e-12
            prev = f

    def test_permutation_invariance(self):
        e = make_blind([[1, 0], PLUS, [0, 1]], [0.5, 0.3, 0.2])
        shuffled = make_blind([[0, 1], [1, 0], PLUS], [0.2, 0.5, 0.3])
        for q in (0.5, 0.9):
            code_a = build_code_space(e, 4, q)
            code_b = build_code_space(shuffled, 4, q)
            assert abs(simulate_fidelity(e, code_a) - simulate_fidelity(shuffled, code_b)) < 1e-12

    def test_rotation_invariance(self):
        # a unitary on A leaves every fidelity unchanged; equal-weight
        # products must then be ranked by the lexicographic tie-break, not
        # by rounding, which moved these fidelities by up to 1.7e-4
        e = make_blind([[1, 0], PLUS, [0.6, 0.8j]], [0.5, 0.3, 0.2])
        ns = range(1, 11)
        ref = fidelity_curve(e, ns, 0.75).points
        rng = np.random.default_rng(5)
        for _ in range(6):
            u, _r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            rotated = make_blind([u @ it.psi.amplitudes for it in e.items], [0.5, 0.3, 0.2])
            for (n, f), (_n, g) in zip(ref, fidelity_curve(rotated, ns, 0.75).points):
                assert abs(f - g) <= 1e-12, n

    def test_zero_prob_items_ignored(self):
        e = make_blind([[1, 0], PLUS], [0.5, 0.5])
        padded = make_blind([[1, 0], PLUS, [0, 1]], [0.5, 0.5, 0.0])
        code_a = build_code_space(e, 3, 0.6)
        code_b = build_code_space(padded, 3, 0.6)
        assert abs(simulate_fidelity(e, code_a) - simulate_fidelity(padded, code_b)) < 1e-14

    def test_sequence_cap(self):
        old = limits.SEQUENCE_CAP
        limits.SEQUENCE_CAP = 7
        try:
            e = blind_pair()
            code = build_code_space(e, 3, 0.5)
            with pytest.raises(DimensionLimitError, match="lower n"):
                simulate_fidelity(e, code)
        finally:
            limits.SEQUENCE_CAP = old

    def test_code_ensemble_dim_mismatch(self):
        code = build_code_space(blind_pair(), 2, 0.5)
        with pytest.raises(EacompError):
            simulate_fidelity(blind_qutrit(), code)


class TestCurve:
    def test_points_and_csv(self):
        e = blind_pair()
        curve = fidelity_curve(e, [1, 2, 3], 0.7)
        assert [n for n, _ in curve.points] == [1, 2, 3]
        text = curve.csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,Q,fidelity"
        assert lines[1].startswith("1,0.700000,")
        for (n, f), line in zip(curve.points, lines[1:]):
            assert line == f"{n},0.700000,{f:.10f}"

    def test_capped_sizes_skipped_with_warning(self):
        old = limits.CODE_DIM_CAP
        limits.CODE_DIM_CAP = 2**3
        try:
            curve = fidelity_curve(blind_pair(), [2, 3, 6], 0.5)
            assert [n for n, _ in curve.points] == [2, 3]
            assert len(curve.warnings) == 1 and "n=6" in curve.warnings[0]
        finally:
            limits.CODE_DIM_CAP = old
