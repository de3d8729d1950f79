import math

import numpy as np
import pytest

from dense_oracle import entropy, fidelity, partial_trace
from eacomp.ensemble import Ensemble
from eacomp.errors import LayoutMismatchError, NotAStateError
from eacomp.iepsilon import objective
from eacomp import limits, states
from eacomp.errors import DimensionLimitError
from eacomp.states import (
    DensityMatrix,
    clamped_spectra,
    eig_hermitian,
    entropy_from_probs,
    gram,
    mixture,
    mixture_spectra,
    von_neumann_entropy,
)

RNG = np.random.default_rng(20240811)


def rand_state(dim, rng=RNG):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rand_density(d, rng=RNG):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = m @ m.conj().T
    return DensityMatrix(m / np.trace(m))


def pure(v):
    v = np.asarray(v, dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()))


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestStates:
    def test_norm_check(self):
        DensityMatrix(np.diag([0.5, 0.5]))
        with pytest.raises(NotAStateError):
            DensityMatrix(np.diag([0.5, 0.6]))
        # escape hatch for callers that guarantee normalization themselves
        DensityMatrix(np.diag([0.5, 0.6]), check=False)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(NotAStateError):
            DensityMatrix(np.array([[np.nan, 0], [0, 0.5]]))
        with pytest.raises(NotAStateError):  # unit trace, NaN off the diagonal
            DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))
        with pytest.raises(NotAStateError):  # inf - inf in a Hermiticity check would warn
            DensityMatrix(np.array([[np.inf, 0], [0, 0.5]]))

    def test_immutable(self):
        m = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0

    def test_density_checks(self):
        DensityMatrix(np.eye(2) / 2)
        with pytest.raises(NotAStateError):
            DensityMatrix(np.eye(2))
        with pytest.raises(NotAStateError):
            DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))
        with pytest.raises(LayoutMismatchError):
            DensityMatrix(np.ones((2, 3)) / 2)


class TestTensorAndTrace:
    # the array partial trace of the test oracles, the reference for the
    # dense entropy profile and for objective's fidelity term
    def test_partial_trace_product(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rand_density(2, rng).entries
            c = rand_density(3, rng).entries
            joint = np.kron(a, c)
            np.testing.assert_allclose(partial_trace(joint, (2, 3), {0}), a, atol=1e-12)
            np.testing.assert_allclose(partial_trace(joint, (2, 3), {1}), c, atol=1e-12)

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(6)
        dims = (2, 3, 2)
        for _ in range(5):
            m = rand_density(12, rng).entries
            for keep in ({0}, {1, 2}, {0, 2}):
                out = partial_trace(m, dims, keep)
                assert abs(np.trace(out) - 1.0) < 1e-10
                side = math.prod(dims[i] for i in keep)
                assert out.shape == (side, side)

    def test_partial_trace_entangled(self):
        # Bell pair: each side is maximally mixed
        bell = pure(np.array([1, 0, 0, 1]) / np.sqrt(2)).entries
        np.testing.assert_allclose(partial_trace(bell, (2, 2), {0}), np.eye(2) / 2, atol=1e-12)

    def test_keep_everything(self):
        m = rand_density(3).entries
        np.testing.assert_allclose(partial_trace(m, (3,), {0}), m, atol=0)


class TestSpectraAndEntropy:
    def test_descending_and_clamped(self):
        m = DensityMatrix(np.diag([0.25, 0.75]))
        evs, vecs = eig_hermitian(m)
        assert evs[0] == 0.75 and evs[1] == 0.25
        np.testing.assert_allclose(np.abs(vecs[:, 0]), [0, 1], atol=1e-12)
        rec = (vecs * evs) @ vecs.conj().T
        np.testing.assert_allclose(rec, m.entries, atol=1e-12)

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.2, -0.2])
        m = DensityMatrix(bad, check=False)
        with pytest.raises(NotAStateError):
            eig_hermitian(m)
        with pytest.raises(NotAStateError):
            von_neumann_entropy(m)

    def test_tiny_negative_clamped(self):
        m = DensityMatrix(np.diag([1.0 + 1e-12, -1e-12]), check=False)
        evs, _ = eig_hermitian(m)
        assert evs[1] == 0.0
        assert von_neumann_entropy(m) == 0.0

    def test_entropy_values(self):
        assert von_neumann_entropy(pure(np.eye(4)[2])) == 0.0
        m = DensityMatrix(np.eye(2) / 2)
        assert abs(von_neumann_entropy(m) - 1.0) < 1e-12
        m = DensityMatrix(np.diag([0.9, 0.1]))
        assert abs(von_neumann_entropy(m) - h2(0.9)) < 1e-12

    def test_entropy_basis_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rand_density(4, rng)
            w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u, _ = np.linalg.qr(w)
            rotated = DensityMatrix(u @ m.entries @ u.conj().T, check=False)
            assert abs(von_neumann_entropy(m) - von_neumann_entropy(rotated)) < 1e-10

    def test_entropy_additive_on_products(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rand_density(3, rng)
            c = rand_density(2, rng)
            joint = DensityMatrix(np.kron(a.entries, c.entries))
            s = von_neumann_entropy(joint)
            assert abs(s - von_neumann_entropy(a) - von_neumann_entropy(c)) < 1e-10

    def test_entropy_from_probs(self):
        assert entropy_from_probs([1.0]) == 0.0
        assert abs(entropy_from_probs([0.5, 0.5]) - 1.0) < 1e-15
        assert entropy_from_probs([0.5, 0.5, 0.0]) == entropy_from_probs([0.5, 0.5])
        assert not math.copysign(1.0, entropy_from_probs([1.0])) < 0  # no -0.0


class TestMixtureSpectra:
    @pytest.fixture
    def formed(self, monkeypatch):
        """The names of the states.gram and states.mixture calls made, in order."""
        called = []
        for name in ("gram", "mixture"):
            f = getattr(states, name)
            monkeypatch.setattr(states, name, lambda *a, f=f, name=name: called.append(name) or f(*a))
        return called

    @pytest.mark.parametrize("side", [1, 2, 3, 6])
    def test_matches_the_dense_marginal(self, side, formed):
        # groups of k rows for k below, on and above the side, stacked in
        # twos and threes, with probabilities summing to 1 or not; only the
        # chosen side is formed
        rng = np.random.default_rng(30 + side)
        for k in (side - 1, side, side + 1):
            if k < 1:
                continue
            for m in (1, 2, 3):
                rows = rng.standard_normal((m, k, side)) + 1j * rng.standard_normal((m, k, side))
                rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
                probs = rng.dirichlet(np.ones(k), size=m) * rng.uniform(0.2, 1.0, (m, 1))
                formed.clear()
                spectra = mixture_spectra(probs, rows)
                assert formed == (["gram"] if k < side else ["mixture"])
                assert spectra.shape == (m, min(k, side))
                for p, v, spectrum in zip(probs, rows, spectra):
                    dense = sum(px * np.outer(vx, vx.conj()) for px, vx in zip(p, v))
                    assert abs(entropy_from_probs(spectrum) - entropy(dense)) <= 1e-12, (side, k, m)

    @pytest.mark.parametrize("k", [2, 5, 6, 9])
    def test_two_factors_keep_the_product_bits(self, k, formed):
        # psi (x) sigma on C^2 (x) C^3, in stacks of 3 groups of k: the
        # Gram side is (amp (x) amp) * (gram(psi) * gram(sigma)), the
        # marginal mixture(p, joint) over Overlaps.joint's rows
        rng = np.random.default_rng(40 + k)
        e = Ensemble([str(x) for x in range(3 * k)], np.full(3 * k, 1 / (3 * k)),
                     [rand_state(2, rng) for _ in range(3 * k)], [rand_state(3, rng) for _ in range(3 * k)])
        ov, idx = e.overlaps, np.arange(3 * k).reshape(3, k)
        p = rng.dirichlet(np.ones(k), size=3)
        got = mixture_spectra(p, ov.psi[idx], ov.sigma[idx])
        assert formed == (["gram", "gram"] if k < 6 else ["mixture"])
        if k < 6:
            amp = np.sqrt(p)
            m = (amp[..., :, None] * amp[..., None, :]) * (gram(ov.psi[idx]) * gram(ov.sigma[idx]))
        else:
            m = mixture(p, ov.joint[idx])
        assert np.array_equal(got, clamped_spectra(m))

    def test_side_refused_above_the_cap(self, monkeypatch, formed):
        # the smaller side is checked, so three rows of length 10^4 pass
        # a cap of 3 on their Gram side, and four do not, before either
        # side is formed
        monkeypatch.setattr(limits, "MATRIX_CAP", 3)
        rows = np.eye(4, 10**4)
        s = mixture_spectra(np.full(3, 1 / 3), rows[:3])
        np.testing.assert_allclose(s, np.full(3, 1 / 3), rtol=0, atol=1e-15)
        formed.clear()
        with pytest.raises(DimensionLimitError, match="^matrix side 4 exceeds cap 3$"):
            mixture_spectra(np.full(4, 1 / 4), rows)
        assert formed == []


class TestFidelity:
    def test_identical(self):
        m = rand_density(3)
        assert abs(fidelity(m, m) - 1.0) < 1e-9

    def test_orthogonal_pure(self):
        a = pure(np.eye(2)[0])
        b = pure(np.eye(2)[1])
        assert fidelity(a, b) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rand_density(3, rng)
            b = rand_density(3, rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-9

    def test_pure_matches_general(self):
        # objective's fidelity term is the pure-state form sqrt(<phi|rho|phi>)
        # of each signal's Uhlmann fidelity with its output on A (x) C. The
        # general path takes sqrt of a rank-1 matrix, which costs half the
        # digits; agreement at 1e-7 is the realistic expectation
        rng = np.random.default_rng(10)
        for da, dc, dw in ((2, 1, 3), (2, 2, 2), (3, 1, 4)):
            d = da * dc
            p = rng.dirichlet(np.ones(3))
            e = Ensemble(("a", "b", "c"), p, [rand_state(da, rng) for _ in p], [rand_state(dc, rng) for _ in p])
            phis = e.overlaps.joint
            for _ in range(4):
                z = rng.standard_normal((dw * d, d)) + 1j * rng.standard_normal((dw * d, d))
                v = np.linalg.qr(z)[0]
                want = sum(px * fidelity(pure(phi), DensityMatrix(partial_trace(
                    pure(v @ phi).entries, (dw, d), {1}), check=False)) for px, phi in zip(p, phis))
                assert abs(objective(e, v)[1] - want) < 1e-7

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        a = rand_density(3, rng)
        b = rand_density(3, rng)
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(w)
        ra = DensityMatrix(u @ a.entries @ u.conj().T, check=False)
        rb = DensityMatrix(u @ b.entries @ u.conj().T, check=False)
        assert abs(fidelity(a, b) - fidelity(ra, rb)) < 1e-9

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatchError):
            fidelity(rand_density(2), rand_density(3))
