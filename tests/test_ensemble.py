import contextlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dense_oracle
from dense_oracle import partial_trace, validate_per_row
from eacomp import ensemble as ensemble_mod
from eacomp import limits
from eacomp.ensemble import (
    Ensemble,
    apply_product_unitary,
    cnot_unitary,
    ensemble_from_json,
    ensemble_to_json,
    load_ensemble,
    make_blind,
    make_visible,
    reduced,
    save_ensemble,
    tensor_power,
    validate,
)
from eacomp.errors import (
    DimensionLimitError,
    EacompError,
    EnsembleFormatError,
    IsometryError,
    LabelError,
    LayoutMismatchError,
)
from eacomp.rates import analyze
from eacomp.states import gram, mixture_spectra

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def rand_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@contextlib.contextmanager
def traced_peak():
    """Yields a one-element list that holds, on exit, the peak bytes
    allocated inside the block."""
    peak = [0]
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak[0] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def refusal(labels, probs, psi, sigma) -> list[str]:
    """The lines the Ensemble constructor refuses these rows with; none
    when it builds them."""
    try:
        Ensemble(labels, probs, psi, sigma)
    except EnsembleFormatError as exc:
        return exc.violations
    return []


def blind_pair():
    return make_blind([[1, 0], PLUS], [0.5, 0.5])


def sideinfo_triple(t=0.05):
    return Ensemble(("0", "1", "2"), [0.5 - t, 0.5 - t, 2 * t],
                    [[1, 0], [0, 1], PLUS], [[1, 0], [1, 0], PLUS])


class TestConstructors:
    def test_blind(self):
        e = blind_pair()
        assert e.dim_c == 1
        assert e.is_blind() and not e.is_visible()
        assert e.labels == ("0", "1")
        assert validate(e) == []

    def test_visible(self):
        e = make_visible([[1, 0], PLUS], [0.5, 0.5])
        assert e.dim_c == 2
        assert e.is_visible() and not e.is_blind()
        np.testing.assert_allclose(e.sigma[1], [0, 1])

    def test_identical_sigmas_count_as_blind(self):
        e = sideinfo_triple()
        assert not e.is_blind()
        same = Ensemble(e.labels, e.probs, e.psi, [e.sigma[0]] * e.size)
        assert same.is_blind()

    def test_support_skips_zero_prob(self):
        e = make_blind([[1, 0], [0, 1], PLUS], [0.5, 0.0, 0.5])
        assert e.support() == (0, 2)

    def test_dim_mismatch(self):
        e = blind_pair()
        for probs, psi, sigma in [(e.probs, e.psi, np.ones((3, 1))), (e.probs[:1], e.psi, e.sigma),
                                  (e.probs, e.psi[0], e.sigma)]:
            with pytest.raises(LayoutMismatchError):
                Ensemble(e.labels, probs, psi, sigma)
        with pytest.raises(EnsembleFormatError, match="ensemble has no states"):
            Ensemble((), [], np.zeros((0, 2)), np.zeros((0, 1)))

    def test_vector_cap(self, monkeypatch):
        e = make_visible([[1], [1]], [0.5, 0.5])
        monkeypatch.setattr(limits, "VECTOR_CAP", 1)
        with pytest.raises(DimensionLimitError, match="^vector dimension 2 exceeds cap 1$"):
            Ensemble(e.labels, e.probs, e.psi, e.sigma)
        with pytest.raises(DimensionLimitError, match="^vector dimension 2 exceeds cap 1$"):
            Ensemble(e.labels, e.probs, e.sigma, e.psi)

    def test_rows_are_read_only_copies(self):
        psi = np.array([[1, 0], PLUS], dtype=complex)
        e = make_blind(psi, [0.5, 0.5])
        psi[0, 0] = 0.0
        assert e.psi[0, 0] == 1.0
        for rows in (e.probs, e.psi, e.sigma):
            with pytest.raises(ValueError):
                rows[0] = 0.0

    def test_equality_is_identity(self):
        e = blind_pair()
        assert e == e and e != blind_pair()
        assert {e: 1}[e] == 1

    def test_constructors_refuse_bad_states(self):
        with pytest.raises(EnsembleFormatError, match="psi norm deviates from 1"):
            make_blind([[1, 0], [1, 1]], [0.5, 0.5])
        with pytest.raises(LayoutMismatchError):
            make_visible([[1, 0], [1, 0, 0]], [0.5, 0.5])

    @pytest.mark.parametrize("probs, labels", [
        ([0.5, 0.7], None),
        ([math.nan, 0.5], None),
        ([0.5, 0.5], ["a", "a"]),
    ], ids=["sum", "nan", "duplicate-label"])
    @pytest.mark.parametrize("make, sigma", [
        (make_blind, np.ones((2, 1))),
        (make_visible, np.eye(2)),
    ], ids=["blind", "visible"])
    def test_constructors_refuse_what_validate_reports(self, make, sigma, probs, labels):
        states = [[1, 0], PLUS]
        expected = refusal(labels or ["0", "1"], probs, states, sigma)
        assert expected
        assert expected == validate_per_row(labels or ["0", "1"], probs, states, sigma)
        with pytest.raises(EnsembleFormatError) as err:
            make(states, probs, labels)
        assert err.value.violations == expected

    @pytest.mark.parametrize("probs, psi, labels", [
        ([0.5, 0.7], [[1, 0], [0, 1]], ["0", "1"]),
        ([math.nan, 0.5], [[1, 0], [0, 1]], ["0", "1"]),
        ([0.5, 0.5], [[1, 0], [0, 1]], ["a", "a"]),
        ([0.5, 0.5], [[1, 0], [1, 1]], ["0", "1"]),
    ], ids=["sum", "nan", "duplicate-label", "norm"])
    def test_bare_constructor_refuses_what_validate_reports(self, probs, psi, labels):
        # the analysis never runs: the rows are refused before it is called
        with pytest.raises(EnsembleFormatError) as err:
            analyze(Ensemble(labels, probs, psi, np.ones((2, 1))))
        assert err.value.violations == validate_per_row(labels, probs, psi, np.ones((2, 1)))
        assert err.value.violations


class TestValidate:
    def test_flags_problems(self):
        msgs = refusal(("x", "x"), [0.7, 0.7], [[1, 1], [1, 0]], [[1], [1]])
        assert any("psi norm" in m for m in msgs)
        assert any("probability sum" in m for m in msgs)
        assert any("duplicate label" in m for m in msgs)

    def test_flags_non_finite(self):
        msgs = refusal(("p", "q"), [float("nan"), 0.5], [[1, 0], [np.inf, 0]], [[1], [1]])
        assert any("'p'): probability nan is not finite" in m for m in msgs)
        assert any("'q'): psi has non-finite amplitudes" in m for m in msgs)

    def test_clean(self):
        assert validate(sideinfo_triple()) == []

    def test_support_sum(self):
        # probabilities at -1e-9 may not offset an excess on the support;
        # the support's line is left out when the whole sum is off too
        for probs, want in (([0.5 + 3e-9, 0.5, -1e-9, -1e-9, -1e-9],
                             ["probability sum over the support deviates from 1 by 3.000e-09"]),
                            ([0.5 + 3e-9, 0.5, -1e-9, 0.0, 0.0], ["probability sum deviates from 1 by 2.000e-09"]),
                            ([0.5, 0.5, -5e-10, 0.0, 0.0], [])):
            rows = (tuple("abcde"), probs, [[1, 0]] * 5, [[1]] * 5)
            assert refusal(*rows) == want == validate_per_row(*rows)

    def test_matches_per_row_loop(self):
        # fuzzed rows: non-finite amplitudes and probabilities, norms a hair
        # either side of the 1e-9 threshold, negative probabilities around
        # -1e-9, and duplicate labels
        rng = np.random.default_rng(108)
        kinds, near = set(), []
        for _ in range(400):
            n = int(rng.integers(1, 7))
            probs = rng.dirichlet(np.ones(n))
            psi = np.array([rand_unit(rng, 3) for _ in range(n)])
            sigma = np.array([rand_unit(rng, 2) for _ in range(n)])
            for i in range(n):
                rows = psi if rng.random() < 0.5 else sigma
                fault = rng.integers(0, 6)
                if fault == 0:
                    rows[i] *= 1.0 + rng.choice([1.0, -1.0]) * 1e-9 * (1.0 + rng.uniform(-1e-6, 1e-6))
                    near.append(abs(np.linalg.norm(rows[i]) - 1.0) > 1e-9)
                elif fault == 1:
                    k, bad = rng.integers(rows.shape[1]), rng.choice([np.nan, np.inf, -np.inf])
                    rows[i, k] = complex(bad, rows[i, k].imag) if rng.random() < 0.5 else complex(rows[i, k].real, bad)
                elif fault == 2:
                    probs[i] = rng.choice([np.nan, np.inf, -np.inf, -0.1, -1e-9 * (1.0 + rng.uniform(-1e-6, 1e-6))])
                elif fault == 3:
                    rows[i] *= 1.0 + rng.uniform(-3e-9, 3e-9)
            labels = [str(rng.integers(0, n + 2)) for _ in range(n)]
            lines = refusal(labels, probs, psi, sigma)
            assert lines == validate_per_row(labels, probs, psi, sigma)
            kinds |= {line.split(": ", 1)[-1].split(" ")[0] for line in lines}
        assert {"probability", "negative", "psi", "sigma", "duplicate"} <= kinds
        assert any(near) and not all(near)  # norms just past and just inside the threshold


class TestSupportRows:
    def test_full_support_views_the_source(self):
        # a wide source is held once: its support rows are the source's own
        # read-only arrays, and a zero-probability item keeps compact copies
        full = sideinfo_triple()
        padded = Ensemble(("0", "1", "2", "z"), [*full.probs, 0.0], [*full.psi, [1, 0]], [*full.sigma, [0, 1]])
        for name in ("probs", "psi", "sigma"):
            assert np.shares_memory(getattr(full.overlaps, name), getattr(full, name))
            assert not np.shares_memory(getattr(padded.overlaps, name), getattr(padded, name))
            np.testing.assert_array_equal(getattr(padded.overlaps, name), getattr(full.overlaps, name))
        for rows in (full.overlaps.psi, full.overlaps.sigma):
            assert not rows.flags.writeable

    def test_full_support_is_the_source(self):
        e = sideinfo_triple()
        assert e.overlaps is e

    def test_support_of_a_padded_source_is_the_source_of_its_positive_rows(self):
        full = sideinfo_triple()
        padded = Ensemble(("0", "z", "1", "2", "w"), [full.probs[0], 0.0, *full.probs[1:], -1e-12],
                          [full.psi[0], PLUS, *full.psi[1:], [1, 0]], [full.sigma[0], [1, 0], *full.sigma[1:], PLUS])
        ov = padded.overlaps
        assert type(ov) is Ensemble and ov.labels == full.labels
        for name in ("probs", "psi", "sigma"):
            assert np.array_equal(getattr(ov, name), getattr(full, name))
        assert ov.overlaps is ov

    def test_the_support_has_no_type_of_its_own(self):
        assert "Overlaps" not in vars(ensemble_mod)


def near_visible(rng, n, noise):
    """n states on A = C^2 with sigma_x = U_C |x> on C^(n + 1), each
    sigma perturbed by noise and renormalised."""
    shape = (n, n + 1)
    sigma = rand_unitary(rng, n + 1)[:, :n].T + noise * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Ensemble([str(x) for x in range(n)], rng.dirichlet(np.ones(n)), [rand_unit(rng, 2) for _ in range(n)],
                    sigma / np.linalg.norm(sigma, axis=1, keepdims=True))


def upper_overlaps(e) -> np.ndarray:
    """|<sigma_x|sigma_x'>| for x < x' over e's support, as the dense read forms them."""
    g = np.abs(gram(e.overlaps.sigma))
    return g[np.triu_indices(len(g), 1)]


class TestVisibleScan:
    """is_visible reads sigma's pairs EDGE_BLOCK rows at a time through
    states.overlaps_above and decides as sigma's whole Gram matrix did
    (dense_oracle.is_visible)."""

    def test_sources_match_the_gram_read(self):
        rng = np.random.default_rng(34)
        cases = [make_visible([rand_unit(rng, 2) for _ in range(n)], rng.dirichlet(np.ones(n))) for n in (2, 5, 9)]
        cases += [rand_source(rng, 2, dim_c, n) for n in (2, 3, 6) for dim_c in (n, n + 2) for _ in range(5)]
        cases += [near_visible(rng, n, noise) for n in (2, 7, 20) for noise in (0.0, 1e-14, 1e-11, 1e-8)]
        cases += [blind_pair(), sideinfo_triple()]
        for e in cases:
            for tol in (0.0, 1e-12, 1e-10, 1e-3, 0.5):
                assert e.is_visible(tol) == dense_oracle.is_visible(e, tol), (e.size, tol)

    @pytest.mark.parametrize("tol", [1e-10, 1e-3])
    def test_near_threshold_pairs(self, tol):
        # sigma pairs at tol (1 + 1e-6) and tol (1 - 1e-6), as near_visible_1e-10 of the goldens
        hi, lo = tol * (1 + 1e-6), tol * (1 - 1e-6)
        rows = np.array([[1, 0, 0], [hi, np.sqrt(1 - hi * hi), 0], [lo, 0, np.sqrt(1 - lo * lo)]])
        sources = [Ensemble([str(x) for x in range(len(sigma))], np.full(len(sigma), 1 / len(sigma)),
                            np.eye(2)[np.arange(len(sigma)) % 2], sigma)
                   for sigma in (rows, rows[[0, 2]], rows[[2, 0]])]
        for e in sources:
            for t in (tol, hi, lo, np.nextafter(lo, 0.0)):
                assert e.is_visible(t) == dense_oracle.is_visible(e, t), (e.size, t)
        assert not sources[0].is_visible(tol) and sources[0].is_visible(hi) and sources[1].is_visible(tol)

    @pytest.mark.parametrize("block", [2, 3, 7])
    def test_blocks_at_every_product(self, monkeypatch, block):
        # N above EDGE_BLOCK, tol at each pair's product and just below the largest
        rng = np.random.default_rng(block)
        monkeypatch.setattr(ensemble_mod, "EDGE_BLOCK", block)
        for noise in (1e-14, 1e-10):
            e = near_visible(rng, 16, noise)
            products = upper_overlaps(e)
            for tol in (*products, np.nextafter(products.max(), 0.0), float(np.median(products))):
                assert e.is_visible(tol) == dense_oracle.is_visible(e, tol), tol
            assert e.is_visible(products.max()) and not e.is_visible(np.nextafter(products.max(), 0.0))

    def test_peak_stays_below_one_gram_matrix(self, monkeypatch):
        n = 1024
        rng = np.random.default_rng(1024)
        e = make_visible([rand_unit(rng, 4) for _ in range(n)], np.full(n, 1 / n))
        e.overlaps  # built beforehand, as an analysis builds them for its partition
        monkeypatch.setattr(ensemble_mod, "EDGE_BLOCK", 64)
        with traced_peak() as peak:
            assert e.is_visible()
        assert peak[0] < n * n * 16

    def test_first_block_with_a_pair_above_tol_ends_the_scan(self, monkeypatch):
        calls = []
        real = ensemble_mod.overlaps_above
        monkeypatch.setattr(ensemble_mod, "overlaps_above", lambda *args: calls.append(args[1]) or real(*args))
        monkeypatch.setattr(ensemble_mod, "EDGE_BLOCK", 2)
        e = rand_source(np.random.default_rng(3), 2, 8, 8)
        assert abs(gram(e.overlaps.sigma)[0, 1]) > 1e-10
        assert not e.is_visible()
        assert calls == [slice(0, 2)]
        e = near_visible(np.random.default_rng(3), 8, 0.0)
        calls.clear()
        assert e.is_visible()
        assert calls == [slice(lo, lo + 2) for lo in range(0, 8, 2)]


class TestReduced:
    def test_marginals(self):
        e = sideinfo_triple(0.05)
        rho_a = reduced(e, {"A"})
        expect = np.array([[0.5, 0.05], [0.05, 0.5]])
        np.testing.assert_allclose(rho_a.entries, expect, atol=1e-12)
        rho_c = reduced(e, {"C"})
        expect_c = np.array([[0.95, 0.05], [0.05, 0.05]])
        np.testing.assert_allclose(rho_c.entries, expect_c, atol=1e-12)

    def test_joint_consistent_with_parts(self):
        e = sideinfo_triple()
        rho_ac = reduced(e, {"A", "C"})
        np.testing.assert_allclose(
            partial_trace(rho_ac.entries, (e.dim_a, e.dim_c), {0}), reduced(e, {"A"}).entries, atol=1e-12
        )

    def test_bad_keep(self):
        e = blind_pair()
        with pytest.raises(LabelError):
            reduced(e, set())
        with pytest.raises(LabelError):
            reduced(e, {"A", "X"})


    def test_marginal_refused_before_it_is_formed(self, monkeypatch):
        # the 2000 x 2000 marginal on C would take 64 MB
        rng = np.random.default_rng(3)
        e = Ensemble(("a", "b"), [0.5, 0.5], np.eye(2), [rand_unit(rng, 2000) for _ in range(2)])
        monkeypatch.setattr(limits, "MATRIX_CAP", 100)
        with pytest.raises(DimensionLimitError, match="^matrix side 2000 exceeds cap 100$"):
            with traced_peak() as peak:
                reduced(e, {"C"})
        assert peak[0] < 2 * 2**20

    def test_gram_side_forms_no_joint_rows(self):
        # the spectrum of the mixture on A (x) C as the entropy profile
        # asks for it: three states give a 3 x 3 Gram side
        rng = np.random.default_rng(4)
        e = Ensemble(("a", "b", "c"), np.ones(3) / 3, [rand_unit(rng, 256) for _ in range(3)],
                     [rand_unit(rng, 256) for _ in range(3)])
        ov = e.overlaps
        joint_bytes = 3 * 256 * 256 * 16
        with traced_peak() as peak:
            spectrum = mixture_spectra(ov.probs, ov.psi, ov.sigma)
        assert spectrum.shape == (3,)
        assert peak[0] < joint_bytes / 10
        joints = np.array([np.kron(a, c) for a, c in zip(e.psi, e.sigma)])
        np.testing.assert_allclose(spectrum, np.linalg.eigvalsh((joints.conj() @ joints.T) / 3), rtol=0, atol=1e-15)


def rand_source(rng, dim_a, dim_c, n):
    """n random signals; each but the first has probability zero with chance 0.3."""
    probs = rng.dirichlet(np.ones(n))
    probs[1:][rng.random(n - 1) < 0.3] = 0.0
    return Ensemble([f"x{i}" for i in range(n)], probs / probs.sum(),
                    [rand_unit(rng, dim_a) for _ in range(n)], [rand_unit(rng, dim_c) for _ in range(n)])


def rand_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / abs(np.diag(r)))


def kron_chain_power(e, n):
    """tensor_power as a loop over index tuples, each copy an np.kron chain."""
    labels, probs, psi, sigma = [], [], [], []
    p = e.probs.tolist()
    for combo in np.ndindex(*([e.size] * n)):
        labels.append(",".join(e.labels[i] for i in combo))
        probs.append(math.prod(p[i] for i in combo))
        a, c = e.psi[combo[0]], e.sigma[combo[0]]
        for i in combo[1:]:
            a, c = np.kron(a, e.psi[i]), np.kron(c, e.sigma[i])
        psi.append(a)
        sigma.append(c)
    return tuple(labels), np.array(probs), np.array(psi), np.array(sigma)


def per_item_unitary(e, u):
    """apply_product_unitary as a loop over items: u @ kron(psi, sigma) and
    one SVD each. Returns the new rows, or the index of the first item the
    unitary entangles."""
    psi, sigma = [], []
    for i in range(e.size):
        w = u @ np.kron(e.psi[i], e.sigma[i])
        left, s, right = np.linalg.svd(w.reshape(e.dim_a, e.dim_c))
        if s.size > 1 and s[1] > 1e-9:
            return i
        psi.append(left[:, 0] * s[0])
        sigma.append(right[0, :])
    return np.array(psi), np.array(sigma)


class TestTensorPower:
    def test_matches_kron_chain(self):
        rng = np.random.default_rng(11)
        for dim_a, dim_c, size in [(2, 1, 3), (3, 2, 4), (1, 3, 2), (2, 2, 5)]:
            e = rand_source(rng, dim_a, dim_c, size)
            for n in (1, 2, 3):
                got = tensor_power(e, n)
                labels, probs, psi, sigma = kron_chain_power(e, n)
                assert got.labels == labels
                assert np.array_equal(got.probs, probs)
                assert np.array_equal(got.psi, psi) and np.array_equal(got.sigma, sigma)
    def test_n1_is_same(self):
        e = blind_pair()
        e1 = tensor_power(e, 1)
        assert e1.labels == e.labels
        np.testing.assert_allclose(e1.psi[1], e.psi[1])

    def test_square(self):
        e = tensor_power(blind_pair(), 2)
        assert e.size == 4 and e.dim_a == 4 and e.dim_c == 1
        assert e.labels == ("0,0", "0,1", "1,0", "1,1")
        assert abs(sum(e.probs) - 1) < 1e-12
        np.testing.assert_allclose(e.psi[1], np.kron([1, 0], PLUS), atol=1e-15)

    def test_label_separator_avoids_collisions(self):
        e = make_blind([[1, 0], PLUS], [0.5, 0.5], labels=["1", "11"])
        sq = tensor_power(e, 2)
        assert len(set(sq.labels)) == 4

    def test_commas_in_labels_are_escaped(self):
        e = make_blind([[1, 0], PLUS], [0.5, 0.5], labels=["a", "a,a"])
        assert tensor_power(e, 1).labels == ("a", "a,a")
        sq = tensor_power(e, 2)
        assert sq.labels == ("a,a", "a,a\\,a", "a\\,a,a", "a\\,a,a\\,a")
        assert len(set(sq.labels)) == 4
        e = make_blind([[1, 0], PLUS], [0.5, 0.5], labels=["\\", "\\,"])
        assert len(set(tensor_power(e, 3).labels)) == 8

    def test_caps(self, monkeypatch):
        old = limits.SEQUENCE_CAP
        limits.SEQUENCE_CAP = 8
        try:
            with pytest.raises(DimensionLimitError):
                tensor_power(blind_pair(), 4)
        finally:
            limits.SEQUENCE_CAP = old
        with pytest.raises(ValueError):
            tensor_power(blind_pair(), 0)
        monkeypatch.setattr(limits, "VECTOR_CAP", 65536)
        with pytest.raises(DimensionLimitError, match="^copy dimensions 90000x1 exceed cap 65536$"):
            tensor_power(make_blind([np.eye(300)[0]], [1.0]), 2)


class TestProductUnitary:
    def test_matches_per_item_loop(self):
        rng = np.random.default_rng(12)
        for dim_a, dim_c, size in [(2, 1, 3), (3, 2, 4), (1, 3, 2), (2, 2, 5), (4, 3, 6)]:
            e = rand_source(rng, dim_a, dim_c, size)
            for _ in range(3):
                u = np.kron(rand_unitary(rng, dim_a), rand_unitary(rng, dim_c))
                got = apply_product_unitary(e, u)
                psi, sigma = per_item_unitary(e, u)
                assert got.labels == e.labels and np.array_equal(got.probs, e.probs)
                assert np.array_equal(got.psi, psi) and np.array_equal(got.sigma, sigma)

    def test_cnot_matches_per_item_loop(self):
        # CNOT keeps |a>|s> a product when a is a basis state or s is |+> or |->
        rng = np.random.default_rng(13)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        for _ in range(10):
            e = rand_source(rng, 2, 2, 5)
            psi, sigma = [], []
            for k in range(e.size):
                if rng.random() < 0.5:
                    psi.append(np.exp(2j * np.pi * rng.random()) * np.eye(2)[rng.integers(2)])
                    sigma.append(e.sigma[k])
                else:
                    psi.append(e.psi[k])
                    sigma.append((PLUS, minus)[rng.integers(2)])
            e = Ensemble(e.labels, e.probs, psi, sigma)
            got = apply_product_unitary(e, cnot_unitary())
            want_psi, want_sigma = per_item_unitary(e, cnot_unitary())
            assert got.labels == e.labels and np.array_equal(got.probs, e.probs)
            assert np.array_equal(got.psi, want_psi) and np.array_equal(got.sigma, want_sigma)

    def test_entangler_names_first_item(self):
        # CNOT keeps |0>|0> a product and sends |+>|0> (items b and c) to a Bell state
        e = Ensemble(("a", "b", "c"), [0.2, 0.3, 0.5], [[1, 0], PLUS, PLUS], [[1, 0]] * 3)
        assert per_item_unitary(e, cnot_unitary()) == 1
        with pytest.raises(EacompError, match=r"^unitary entangles item 1 \('b'\) across A/C"):
            apply_product_unitary(e, cnot_unitary())

    def test_cnot_on_triple(self):
        e2 = apply_product_unitary(sideinfo_triple(), cnot_unitary())
        # |0>|0> -> |0>|0>, |1>|0> -> |1>|1>, |+>|+> -> |+>|+>
        got = list(zip(np.abs(e2.psi), np.abs(e2.sigma)))
        np.testing.assert_allclose(got[0][0], [1, 0], atol=1e-12)
        np.testing.assert_allclose(got[0][1], [1, 0], atol=1e-12)
        np.testing.assert_allclose(got[1][0], [0, 1], atol=1e-12)
        np.testing.assert_allclose(got[1][1], [0, 1], atol=1e-12)
        np.testing.assert_allclose(got[2][0], np.abs(PLUS), atol=1e-12)
        np.testing.assert_allclose(got[2][1], np.abs(PLUS), atol=1e-12)

    def test_joint_state_preserved(self):
        e = sideinfo_triple()
        u = cnot_unitary()
        e2 = apply_product_unitary(e, u)
        for psi, sigma, psi2, sigma2 in zip(e.psi, e.sigma, e2.psi, e2.sigma):
            before = u @ np.kron(psi, sigma)
            after = np.kron(psi2, sigma2)
            # equal up to global phase
            assert abs(abs(np.vdot(before, after)) - 1) < 1e-10

    def test_rejects_entangler(self):
        # Hadamard on A then CNOT sends |00> to a Bell state
        had = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = cnot_unitary() @ np.kron(had, np.eye(2))
        with pytest.raises(EacompError, match="entangles"):
            apply_product_unitary(sideinfo_triple(), u)

    def test_rejects_non_unitary(self):
        with pytest.raises(IsometryError):
            apply_product_unitary(sideinfo_triple(), np.eye(4) * 0.5)
        with pytest.raises(IsometryError, match="nan"):
            apply_product_unitary(sideinfo_triple(), np.full((4, 4), np.nan))
        u = np.eye(4)
        u[1, 2] = np.inf
        with pytest.raises(IsometryError, match="deviate from orthonormal"):
            apply_product_unitary(sideinfo_triple(), u)  # a RuntimeWarning would fail the test too
        with pytest.raises(LayoutMismatchError):
            apply_product_unitary(blind_pair(), np.eye(4))


class TestJson:
    def test_round_trip(self, tmp_path):
        for e in (blind_pair(), sideinfo_triple(), make_visible([[1, 0], PLUS], [0.5, 0.5])):
            path = tmp_path / "e.json"
            save_ensemble(e, path)
            back = load_ensemble(path)
            assert back.dim_a == e.dim_a and back.dim_c == e.dim_c
            assert back.labels == e.labels
            assert (abs(back.probs - e.probs) < 1e-15).all()
            for a, b in ((back.psi, e.psi), (back.sigma, e.sigma)):
                for row_a, row_b in zip(a, b):
                    np.testing.assert_allclose(row_a, row_b, atol=1e-15)

    def test_sigma_omitted_means_blind(self):
        e = ensemble_from_json(
            {
                "dimA": 2,
                "dimC": 1,
                "states": [
                    {"label": "a", "prob": 1.0, "psi": [[1, 0], [0, 0]]},
                ],
            }
        )
        assert e.is_blind()

    def test_visible_flag(self):
        e = ensemble_from_json(
            {
                "dimA": 2,
                "visible": True,
                "states": [
                    {"label": "a", "prob": 0.5, "psi": [[1, 0], [0, 0]]},
                    {"label": "b", "prob": 0.5, "psi": [[0, 0], [1, 0]]},
                ],
            }
        )
        assert e.dim_c == 2 and e.is_visible()

    def test_bare_real_amplitudes(self):
        e = ensemble_from_json(
            {"dimA": 2, "states": [{"label": "a", "prob": 1.0, "psi": [1, 0]}]}
        )
        assert e.psi[0, 0] == 1.0

    def test_violations_collected(self):
        with pytest.raises(EnsembleFormatError) as err:
            ensemble_from_json(
                {
                    "dimA": 2,
                    "dimC": 1,
                    "bogus": 1,
                    "states": [
                        {"label": "a", "prob": 0.9, "psi": [[1, 0], [1, 0]]},
                        {"label": "a", "prob": 0.9, "psi": [[1, 0], [0, 0]], "junk": 2},
                    ],
                }
            )
        text = "\n".join(err.value.violations)
        assert "unknown key 'bogus'" in text
        assert "unknown key 'junk'" in text
        assert "psi norm" in text
        assert "probability sum" in text
        assert "duplicate label" in text

    @pytest.mark.parametrize("change, line", [
        ({"visible": 1}, "'visible' must be a boolean"),
        ({"visible": True, "dimC": 3}, "visible ensembles need dimC = number of states (2)"),
        ({"states": [1, {"prob": 1.0, "psi": [1, 0]}]}, "state 0: must be an object"),
        ({"visible": True, "states": [{"prob": 0.5, "psi": [1, 0], "sigma": [1, 0]},
                                      {"prob": 0.5, "psi": [0, 1]}]},
         "state 0: sigma conflicts with top-level 'visible'"),
    ], ids=["visible-type", "visible-dimC", "state-type", "visible-sigma"])
    def test_structural_violation_reported(self, change, line):
        pair = {"dimA": 2, "states": [{"prob": 0.5, "psi": [1, 0]}, {"prob": 0.5, "psi": [0, 1]}]}
        with pytest.raises(EnsembleFormatError) as err:
            ensemble_from_json({**pair, **change})
        assert line in err.value.violations

    def test_int_too_large_for_float_is_not_finite(self):
        with pytest.raises(EnsembleFormatError, match="is not finite"):
            ensemble_from_json(
                {"dimA": 2, "states": [{"label": "a", "prob": 10**400, "psi": [1, 0]}]}
            )
        with pytest.raises(EnsembleFormatError, match="is not finite"):
            ensemble_from_json(
                {"dimA": 2, "states": [{"label": "a", "prob": 1.0, "psi": [[1, 0], [10**400, 0]]}]}
            )

    def test_parser_reports_what_validate_reports(self):
        psis = [[1, 1], [np.inf, np.nan], [1, 0]]
        probs = [-0.1, 0.6, 0.7]
        labels = ["a", "a", "c"]
        with pytest.raises(EnsembleFormatError) as err:
            ensemble_from_json({"dimA": 2, "states": [
                {"label": l, "prob": p, "psi": v} for l, p, v in zip(labels, probs, psis)]})
        in_memory = refusal(labels, probs, psis, [[1]] * 3)
        # negative prob, norm, one line per non-finite amplitude, sum, duplicate
        assert len(err.value.violations) == 6
        assert set(err.value.violations) == set(in_memory)

    def test_sigma_required_when_dimc_gt1(self):
        with pytest.raises(EnsembleFormatError, match="sigma required"):
            ensemble_from_json(
                {"dimA": 2, "dimC": 2, "states": [{"label": "a", "prob": 1.0, "psi": [[1, 0], [0, 0]]}]}
            )

    def test_malformed_top_level(self):
        with pytest.raises(EnsembleFormatError):
            ensemble_from_json({"dimA": 0, "states": [{"prob": 1.0, "psi": [1, 0]}]})
        with pytest.raises(EnsembleFormatError):
            ensemble_from_json({"dimA": 2, "states": []})
        with pytest.raises(EnsembleFormatError):
            ensemble_from_json([1, 2])

    @pytest.mark.parametrize("key", ["dimA", "dimC"])
    def test_boolean_dimension_refused(self, key):
        # a JSON true is a Python int, and must not pass as dimension 1
        data = {"dimA": 1, "dimC": 1, "states": [{"label": "a", "prob": 1.0, "psi": [[1.0, 0.0]]}]}
        with pytest.raises(EnsembleFormatError, match=f"'{key}' must be a positive integer"):
            ensemble_from_json({**data, key: True})

    def test_json_decode_error_propagates(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{ nope")
        with pytest.raises(json.JSONDecodeError):
            load_ensemble(p)

    def test_to_json_omits_trivial_sigma(self):
        d = ensemble_to_json(blind_pair())
        assert "sigma" not in d["states"][0]
        d = ensemble_to_json(sideinfo_triple())
        assert "sigma" in d["states"][0]


DATA = Path(__file__).resolve().parent.parent / "data"


def per_amplitude(monkeypatch):
    """Turn off _vector's whole-row conversion, leaving its per-amplitude loop."""
    monkeypatch.setattr(ensemble_mod, "_whole_vector", lambda raw: None)


def random_rows(rng, count):
    """Amplitude rows in every accepted form: [re, im] pairs and bare reals,
    as floats, ints, signed zeros, infinities, NaN and ints near and past
    the float range."""
    specials = [0, 1, -1, -0.0, 2**53 + 1, 2**63 + 1, -(2**64) - 3, 2**1023, 2**1024 - 1,
                10**400, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]
    for _ in range(count):
        dim = int(rng.integers(1, 7))

        def real():
            r = rng.random()
            if r < 0.2:
                return specials[int(rng.integers(len(specials)))]
            if r < 0.4:
                return int(rng.integers(-5, 6))
            return float(rng.standard_normal())

        if rng.random() < 0.5:
            yield [[real(), real()] for _ in range(dim)]
        else:
            yield [real() for _ in range(dim)]


class TestWholeRowParsing:
    """The whole-row conversion in _vector gives the rows, and the error
    lines, of the per-amplitude loop it short-cuts."""

    @staticmethod
    def parse_both(monkeypatch, raw, dim):
        fast_problems, slow_problems = [], []
        fast = ensemble_mod._vector(raw, dim, "row", fast_problems)
        with monkeypatch.context() as m:
            per_amplitude(m)
            slow = ensemble_mod._vector(raw, dim, "row", slow_problems)
        return fast, fast_problems, slow, slow_problems

    def test_rows_of_the_data_files(self, monkeypatch):
        for path in sorted(DATA.glob("*.json")):
            doc = json.loads(path.read_text())
            for state in doc["states"]:
                for key, dim in (("psi", doc["dimA"]), ("sigma", doc.get("dimC", 1))):
                    if key in state:
                        assert ensemble_mod._whole_vector(state[key]) is not None
                        fast, _, slow, _ = self.parse_both(monkeypatch, state[key], dim)
                        assert fast.tobytes() == slow.tobytes(), (path.name, key)

    def test_seeded_random_rows(self, monkeypatch):
        rng = np.random.default_rng(1402)
        for raw in random_rows(rng, 400):
            fast, fast_problems, slow, slow_problems = self.parse_both(monkeypatch, raw, len(raw))
            assert fast_problems == slow_problems == []
            assert fast.dtype == slow.dtype == np.complex128
            assert fast.tobytes() == slow.tobytes(), raw

    def test_seeded_random_files(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(1403)
        for k in range(20):
            e = rand_source(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            doc = ensemble_to_json(e)
            if k % 2:  # bare reals where the amplitude is real
                for state in doc["states"]:
                    state["psi"] = [re if im == 0.0 else [re, im] for re, im in state["psi"]]
            path = tmp_path / "e.json"
            path.write_text(json.dumps(doc))
            fast = load_ensemble(path)
            with monkeypatch.context() as m:
                per_amplitude(m)
                slow = load_ensemble(path)
            for name in ("probs", "psi", "sigma"):
                assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()

    @pytest.mark.parametrize("psi", [
        [True, 0],
        [[1, False], [0, 0]],
        ["1", 0],
        [["0.5", 0], [0.5, 0]],
        [1, 10**400],
        [[10**400, 0], [0, -(2**1024)]],
        [math.nan, 1],
        [[math.inf, 0], [0, -math.inf]],
        [1],
        [1, 0, 0],
        [[1, 0, 0], [0, 0, 0]],
        [[1], [0]],
        [[1, 0], [0]],
        [[1, 0], 0],
        [0.6, [0.8, 0]],
        [[1, [0]], [0, 0]],
        [None, 1],
        "10",
    ], ids=lambda psi: repr(psi)[:40])
    def test_same_error_lines(self, monkeypatch, psi):
        doc = {"dimA": 2, "states": [{"label": "a", "prob": 1.0, "psi": psi}]}
        outcomes = []
        for whole in (True, False):
            with monkeypatch.context() as m:
                if not whole:
                    per_amplitude(m)
                try:
                    e = ensemble_from_json(doc)
                    outcomes.append(e.psi.tobytes())
                except EnsembleFormatError as exc:
                    outcomes.append(exc.violations)
        assert outcomes[0] == outcomes[1]
