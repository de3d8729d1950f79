import math

import numpy as np
import pytest

from dense_oracle import fidelity
from eacomp import limits
from eacomp.errors import (
    DimensionLimitError,
    LabelError,
    LayoutMismatchError,
    NotAStateError,
)
from eacomp.states import (
    DensityMatrix,
    PureStateVector,
    SubsystemLayout,
    eig_hermitian,
    entropy_from_probs,
    partial_trace,
    pure_fidelity,
    single,
    von_neumann_entropy,
)

RNG = np.random.default_rng(20240811)


def rand_state(dim, rng=RNG):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rand_density(layout, rng=RNG):
    d = layout.total_dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = m @ m.conj().T
    return DensityMatrix(layout, m / np.trace(m))


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class TestLayout:
    def test_basic(self):
        lay = SubsystemLayout(("A", "C"), (2, 3))
        assert lay.total_dim == 6
        assert lay.axis("C") == 1

    def test_restricted_keeps_order(self):
        lay = SubsystemLayout(("X", "A", "C"), (3, 2, 2))
        sub = lay.restricted({"C", "X"})
        assert sub.labels == ("X", "C")
        assert sub.dims == (3, 2)

    def test_errors(self):
        with pytest.raises(LabelError):
            SubsystemLayout(("A", "A"), (2, 2))
        with pytest.raises(LabelError):
            SubsystemLayout(("A",), (2, 2))
        with pytest.raises(LayoutMismatchError):
            SubsystemLayout(("A",), (0,))
        with pytest.raises(LabelError):
            single("A", 2).axis("B")
        with pytest.raises(LabelError):
            single("A", 2).restricted(set())


class TestStates:
    def test_norm_check(self):
        PureStateVector(single("A", 2), [1, 0])
        with pytest.raises(NotAStateError):
            PureStateVector(single("A", 2), [1, 1])
        # escape hatch for callers that guarantee normalization themselves
        PureStateVector(single("A", 2), [1, 1], check=False)

    def test_non_finite_entries_rejected(self):
        lay = single("A", 2)
        for bad in (np.nan, np.inf):
            with pytest.raises(NotAStateError):
                PureStateVector(lay, [bad, 0])
        with pytest.raises(NotAStateError):
            DensityMatrix(lay, np.array([[np.nan, 0], [0, 0.5]]))
        with pytest.raises(NotAStateError):  # unit trace, NaN off the diagonal
            DensityMatrix(lay, np.array([[0.5, np.nan], [np.nan, 0.5]]))
        with pytest.raises(NotAStateError):  # inf - inf in a Hermiticity check would warn
            DensityMatrix(lay, np.array([[np.inf, 0], [0, 0.5]]))

    def test_immutable(self):
        psi = PureStateVector(single("A", 2), np.eye(2)[0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2.0

    def test_density_checks(self):
        lay = single("A", 2)
        DensityMatrix(lay, np.eye(2) / 2)
        with pytest.raises(NotAStateError):
            DensityMatrix(lay, np.eye(2))
        with pytest.raises(NotAStateError):
            DensityMatrix(lay, np.array([[0.5, 0.5], [-0.5, 0.5]]))
        with pytest.raises(LayoutMismatchError):
            DensityMatrix(lay, np.eye(3) / 3)

    def test_vector_cap(self):
        old = limits.VECTOR_CAP
        limits.VECTOR_CAP = 4
        try:
            with pytest.raises(DimensionLimitError):
                PureStateVector(single("A", 8), np.eye(8)[0])
        finally:
            limits.VECTOR_CAP = old

    def test_basis_and_overlap(self):
        e0 = PureStateVector(single("A", 2), np.eye(2)[0])
        e1 = PureStateVector(single("A", 2), np.eye(2)[1])
        assert np.vdot(e0.amplitudes, e1.amplitudes) == 0
        assert np.vdot(e0.amplitudes, e0.amplitudes) == 1


class TestTensorAndTrace:
    def test_partial_trace_product(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rand_density(single("A", 2), rng)
            c = rand_density(single("C", 3), rng)
            joint = DensityMatrix(SubsystemLayout(("A", "C"), (2, 3)), np.kron(a.entries, c.entries))
            back_a = partial_trace(joint, {"A"})
            back_c = partial_trace(joint, {"C"})
            np.testing.assert_allclose(back_a.entries, a.entries, atol=1e-12)
            np.testing.assert_allclose(back_c.entries, c.entries, atol=1e-12)

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(6)
        lay = SubsystemLayout(("X", "A", "C"), (2, 3, 2))
        for _ in range(5):
            m = rand_density(lay, rng)
            for keep in ({"X"}, {"A", "C"}, {"X", "C"}):
                out = partial_trace(m, keep)
                assert abs(np.trace(out.entries) - 1.0) < 1e-10
                assert out.layout.labels == tuple(l for l in lay.labels if l in keep)

    def test_partial_trace_entangled(self):
        # Bell pair: each side is maximally mixed
        bell = PureStateVector(
            SubsystemLayout(("A", "C"), (2, 2)), np.array([1, 0, 0, 1]) / np.sqrt(2)
        )
        half = partial_trace(bell.density(), {"A"})
        np.testing.assert_allclose(half.entries, np.eye(2) / 2, atol=1e-12)

    def test_keep_everything(self):
        m = rand_density(single("A", 3))
        same = partial_trace(m, {"A"})
        np.testing.assert_allclose(same.entries, m.entries, atol=0)


class TestSpectraAndEntropy:
    def test_descending_and_clamped(self):
        m = DensityMatrix(single("A", 2), np.diag([0.25, 0.75]))
        evs, vecs = eig_hermitian(m)
        assert evs[0] == 0.75 and evs[1] == 0.25
        np.testing.assert_allclose(np.abs(vecs[:, 0]), [0, 1], atol=1e-12)
        rec = (vecs * evs) @ vecs.conj().T
        np.testing.assert_allclose(rec, m.entries, atol=1e-12)

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.2, -0.2])
        m = DensityMatrix(single("A", 2), bad, check=False)
        with pytest.raises(NotAStateError):
            eig_hermitian(m)
        with pytest.raises(NotAStateError):
            von_neumann_entropy(m)

    def test_tiny_negative_clamped(self):
        m = DensityMatrix(single("A", 2), np.diag([1.0 + 1e-12, -1e-12]), check=False)
        evs, _ = eig_hermitian(m)
        assert evs[1] == 0.0
        assert von_neumann_entropy(m) == 0.0

    def test_entropy_values(self):
        assert von_neumann_entropy(PureStateVector(single("A", 4), np.eye(4)[2]).density()) == 0.0
        m = DensityMatrix(single("A", 2), np.eye(2) / 2)
        assert abs(von_neumann_entropy(m) - 1.0) < 1e-12
        m = DensityMatrix(single("A", 2), np.diag([0.9, 0.1]))
        assert abs(von_neumann_entropy(m) - h2(0.9)) < 1e-12

    def test_entropy_basis_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rand_density(single("A", 4), rng)
            w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u, _ = np.linalg.qr(w)
            rotated = DensityMatrix(single("A", 4), u @ m.entries @ u.conj().T, check=False)
            assert abs(von_neumann_entropy(m) - von_neumann_entropy(rotated)) < 1e-10

    def test_entropy_additive_on_products(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rand_density(single("A", 3), rng)
            c = rand_density(single("C", 2), rng)
            joint = DensityMatrix(SubsystemLayout(("A", "C"), (3, 2)), np.kron(a.entries, c.entries))
            s = von_neumann_entropy(joint)
            assert abs(s - von_neumann_entropy(a) - von_neumann_entropy(c)) < 1e-10

    def test_entropy_from_probs(self):
        assert entropy_from_probs([1.0]) == 0.0
        assert abs(entropy_from_probs([0.5, 0.5]) - 1.0) < 1e-15
        assert entropy_from_probs([0.5, 0.5, 0.0]) == entropy_from_probs([0.5, 0.5])
        assert not math.copysign(1.0, entropy_from_probs([1.0])) < 0  # no -0.0


class TestFidelity:
    def test_identical(self):
        m = rand_density(single("A", 3))
        assert abs(fidelity(m, m) - 1.0) < 1e-9

    def test_orthogonal_pure(self):
        a = PureStateVector(single("A", 2), np.eye(2)[0]).density()
        b = PureStateVector(single("A", 2), np.eye(2)[1]).density()
        assert fidelity(a, b) < 1e-9

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rand_density(single("A", 3), rng)
            b = rand_density(single("A", 3), rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-9

    def test_pure_matches_general(self):
        # the general path takes sqrt of a rank-1 matrix, which costs half
        # the digits; agreement at 1e-7 is the realistic expectation
        rng = np.random.default_rng(10)
        for _ in range(10):
            psi = PureStateVector(single("A", 4), rand_state(4, rng))
            m = rand_density(single("A", 4), rng)
            assert abs(pure_fidelity(psi, m) - fidelity(psi.density(), m)) < 1e-7

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        a = rand_density(single("A", 3), rng)
        b = rand_density(single("A", 3), rng)
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(w)
        ra = DensityMatrix(single("A", 3), u @ a.entries @ u.conj().T, check=False)
        rb = DensityMatrix(single("A", 3), u @ b.entries @ u.conj().T, check=False)
        assert abs(fidelity(a, b) - fidelity(ra, rb)) < 1e-9

    def test_layout_mismatch(self):
        with pytest.raises(LayoutMismatchError):
            fidelity(rand_density(single("A", 2)), rand_density(single("C", 2)))
