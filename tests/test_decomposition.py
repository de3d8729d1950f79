from unittest import mock

import numpy as np
import pytest

import dense_oracle
from dense_oracle import extend_with_y, given, overlap_graph
from eacomp import decomposition
from eacomp.decomposition import (
    DEFAULT_OVERLAP_TOL,
    Component,
    Decomposition,
    check_components,
    irreducible_components,
    overlaps_across_components,
)
from eacomp.ensemble import Ensemble, make_blind, make_visible
from eacomp.errors import ConsistencyError, LabelError
from eacomp.rates import analyze, optimal_rates
from eacomp.states import gram, overlaps_above
from test_ensemble import traced_peak

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def sideinfo_triple(t=0.05):
    return Ensemble(("0", "1", "2"), [0.5 - t, 0.5 - t, 2 * t],
                    [[1, 0], [0, 1], PLUS], [[1, 0], [1, 0], PLUS])


def two_sector_blind():
    # items 0,1 live on span{e0,e1}; items 2,3 on span{e2,e3}
    v0 = np.zeros(4, complex)
    v0[0] = 1
    v1 = np.zeros(4, complex)
    v1[:2] = PLUS
    v2 = np.zeros(4, complex)
    v2[2] = 1
    v3 = np.zeros(4, complex)
    v3[2:] = PLUS
    return make_blind([v0, v1, v2, v3], [0.3, 0.3, 0.2, 0.2], labels=["a0", "a1", "b0", "b1"])


class TestOverlapGraph:
    def test_triple_edges(self):
        adj = overlap_graph(sideinfo_triple())
        # 0-1 orthogonal on A; both connect to 2 through the |+>|+> overlaps
        assert not adj[0, 1]
        assert adj[0, 2] and adj[1, 2]
        assert not adj.diagonal().any()
        np.testing.assert_array_equal(adj, adj.T)

    def test_sigma_orthogonality_cuts_edges(self):
        # identical psi, orthogonal sigma: joint overlap is zero
        e = make_visible([[1, 0], [1, 0]], [0.5, 0.5])
        adj = overlap_graph(e)
        assert not adj.any()

    def test_zero_prob_isolated(self):
        e = make_blind([[1, 0], PLUS, [0, 1]], [0.6, 0.0, 0.4])
        adj = overlap_graph(e)
        assert not adj[1].any() and not adj[:, 1].any()

    def test_tolerance_threshold(self):
        eps = 1e-6
        tilted = np.array([1.0, eps]) / np.sqrt(1 + eps * eps)
        e = make_blind([[1, 0], [0, 1], tilted], [0.4, 0.4, 0.2])
        assert overlap_graph(e, tol=1e-10)[1, 2]
        assert not overlap_graph(e, tol=1e-3)[1, 2]
        with pytest.raises(ValueError):
            overlap_graph(e, tol=-1.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tol):
        e = sideinfo_triple()
        checks = (overlap_graph, irreducible_components, analyze, Ensemble.is_blind, Ensemble.is_visible)
        for check in checks:
            with pytest.raises(ValueError, match="finite nonnegative"):
                check(e, tol)


class TestComponents:
    def test_irreducible_triple(self):
        d = irreducible_components(sideinfo_triple())
        assert d.size == 1
        assert d.components[0].labels == ("0", "1", "2")
        assert abs(d.components[0].weight - 1.0) < 1e-12
        assert irreducible_components(sideinfo_triple()).size == 1

    def test_two_sectors(self):
        d = irreducible_components(two_sector_blind())
        assert d.size == 2
        assert d.components[0].labels == ("a0", "a1")
        assert d.components[1].labels == ("b0", "b1")
        np.testing.assert_allclose(d.weights, [0.6, 0.4], atol=1e-12)
        assert d.y_of("b1") == 1
        with pytest.raises(LabelError):
            d.y_of("nope")

    def test_conditional_probs_renormalized(self):
        e = two_sector_blind()
        d = irreducible_components(e)
        c = d.components[0]
        sub = given(e.overlaps, d.support_ys(e) == c.y, c.weight)
        np.testing.assert_allclose(sub.probs, [0.5, 0.5], atol=1e-12)
        assert abs(sum(sub.probs) - 1) < 1e-12

    def test_item_order_invariance(self):
        e = two_sector_blind()
        p = [3, 0, 2, 1]
        shuffled = Ensemble([e.labels[i] for i in p], e.probs[p], e.psi[p], e.sigma[p])
        d1 = irreducible_components(e)
        d2 = irreducible_components(shuffled)
        assert [set(c.labels) for c in d1.components] == [set(c.labels) for c in d2.components]
        np.testing.assert_allclose(d1.weights, d2.weights, atol=1e-12)

    def test_zero_prob_dropped(self):
        e = make_blind([[1, 0], [0, 1], PLUS], [0.6, 0.4, 0.0])
        d = irreducible_components(e)
        assert d.size == 2
        assert all("2" not in c.labels for c in d.components)

    def test_perturbation_invariance(self):
        rng = np.random.default_rng(404)
        e = two_sector_blind()
        psi = []
        for v in e.psi:
            v = v + 1e-11 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            psi.append(v / np.linalg.norm(v))
        d = irreducible_components(Ensemble(e.labels, e.probs, psi, e.sigma))
        assert [c.labels for c in d.components] == [("a0", "a1"), ("b0", "b1")]

    def test_single_state(self):
        e = make_blind([[1, 0]], [1.0])
        d = irreducible_components(e)
        assert d.size == 1 and d.components[0].weight == 1.0

    def test_to_json(self):
        d = irreducible_components(two_sector_blind())
        j = d.to_json()
        assert j["num_components"] == 2
        assert j["components"][0]["labels"] == ["a0", "a1"]
        assert j["schema_version"] == 1


class TestExtendWithY:
    def test_rates_unchanged(self):
        # the component label is computable for free, so appending it to the
        # side information must not move any entropy the rates depend on
        e = two_sector_blind()
        ext = extend_with_y(e, irreducible_components(e))
        a1, a2 = analyze(e), analyze(ext)
        p1, p2 = a1.profile, a2.profile
        assert abs(p1.s_a - p2.s_a) < 1e-10
        assert abs(p1.s_cy - p2.s_cy) < 1e-10
        assert abs(p1.s_acy - p2.s_acy) < 1e-10
        r1, r2 = optimal_rates(a1), optimal_rates(a2)
        assert abs(r1.q - r2.q) < 1e-10 and abs(r1.e - r2.e) < 1e-10


class TestVisibleDecomposition:
    def test_visible_splits_fully(self):
        # orthogonal sigmas isolate every signal
        e = make_visible([[1, 0], PLUS, [0, 1]], [0.3, 0.4, 0.3])
        d = irreducible_components(e)
        assert d.size == 3
        assert all(len(c.labels) == 1 for c in d.components)


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def near_threshold(tol):
    # on C^3: items 0 and 1 overlap at tol (1 + 1e-6), just above it, and
    # item 2 overlaps item 0 at tol (1 - 1e-6) and item 1 at about tol^2
    hi, lo = tol * (1 + 1e-6), tol * (1 - 1e-6)
    states = [[1, 0, 0], [hi, np.sqrt(1 - hi * hi), 0], [lo, 0, np.sqrt(1 - lo * lo)]]
    return make_blind(states, [0.5, 0.3, 0.2], labels=["p", "q", "r"])


class TestOnePartition:
    """The parts of the overlap graph are computed once per source and
    tolerance; the checks read them and agree with the forms that rebuild
    the graph."""

    def assert_checks_match_oracles(self, e, tol):
        d = irreducible_components(e, tol)
        for m in dense_oracle.mutated(e, d):
            assert dense_oracle.outcomes(decomposition, e, m) == dense_oracle.outcomes(dense_oracle, e, m)
        return d

    def test_rotated_orthogonal_sectors(self):
        # U_A (x) U_C leaves the cross-sector overlaps at rounding level
        rng = np.random.default_rng(1808)
        e = two_sector_blind()
        for sigma in (e.sigma, np.array([[1, 0], [1, 0], PLUS, PLUS])):
            u_a, u_c = haar_unitary(rng, 4), haar_unitary(rng, sigma.shape[1])
            rotated = Ensemble(e.labels, e.probs, e.psi @ u_a.T, sigma @ u_c.T)
            # at tol 0 the rounding merges the sectors, in both forms alike
            assert self.assert_checks_match_oracles(rotated, 0.0).size == 1
            for tol in (DEFAULT_OVERLAP_TOL, 0.5):
                d = self.assert_checks_match_oracles(rotated, tol)
                assert [c.labels for c in d.components] == [("a0", "a1"), ("b0", "b1")]

    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-3])
    def test_near_threshold(self, tol):
        d = self.assert_checks_match_oracles(near_threshold(tol), tol)
        assert [c.labels for c in d.components] == [("p", "q"), ("r",)]

    def test_mutated_decompositions(self):
        e = make_blind([[1, 0, 0], PLUS.tolist() + [0], [0, 1, 0], [0, 0, 1]], [0.4, 0.3, 0.3, 0.0],
                       labels=["a", "b", "c", "z"])
        d = self.assert_checks_match_oracles(e, DEFAULT_OVERLAP_TOL)
        assert [c.labels for c in d.components] == [("a", "b", "c")]
        got = [dense_oracle.outcomes(decomposition, e, m) for m in dense_oracle.mutated(e, d)]
        covers = "decomposition does not match the overlap graph: component y=1 covers 0 connected parts of it, not one"
        assert got == [
            [None, False],  # d
            [None, False],  # merged: d is one component already
            [None, False],  # y = 3: any indices will do
            [(ConsistencyError, "decomposition does not match the overlap graph: items 'a' (y=0) and "
              "'b' (y=1) overlap above the tolerance 1e-10 across components"), True],  # split
            [(ConsistencyError, covers), False],  # a component over 'z' alone
        ]

    def test_one_graph_per_tolerance(self, monkeypatch):
        # one edge block per pass at N = 4: one call per partition or scan
        builds = []
        real = decomposition._edges
        monkeypatch.setattr(decomposition, "_edges",
                            lambda ov, rows, tol, *cols: builds.append(tol) or real(ov, rows, tol, *cols))
        e = two_sector_blind()
        a = analyze(e)
        assert builds == [DEFAULT_OVERLAP_TOL]
        analyze(e)
        assert not overlaps_across_components(e, a.decomposition)
        check_components(e, a.decomposition)
        assert builds == [DEFAULT_OVERLAP_TOL]
        analyze(e, 0.5)
        assert builds == [DEFAULT_OVERLAP_TOL, 0.5]
        # only a failing check tests edges again, to name the overlap
        _, b = a.decomposition.components
        split = Decomposition((Component(0, ("a0",), 0.3), b, Component(2, ("a1",), 0.3)), DEFAULT_OVERLAP_TOL)
        with pytest.raises(ConsistencyError, match=r"'a0' \(y=0\) and 'a1' \(y=2\) overlap"):
            check_components(e, split)
        assert builds == [DEFAULT_OVERLAP_TOL, 0.5, DEFAULT_OVERLAP_TOL]


def assert_dense_decomposition(e, tol, blocks=(2, 3, decomposition.EDGE_BLOCK)):
    """irreducible_components of a fresh copy of e, at each edge block size,
    is the dense oracle's Decomposition: labels, order and weight bits."""
    want = dense_oracle.irreducible_components(e, tol)
    for size in blocks:
        with mock.patch.object(decomposition, "EDGE_BLOCK", size):
            got = irreducible_components(Ensemble(e.labels, e.probs, e.psi, e.sigma), tol)
        assert got == want, size
        assert [c.weight.hex() for c in got.components] == [c.weight.hex() for c in want.components]
    return want


def unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def ring_sectors(rng, size, sectors=3):
    """Blind items on sectors 2-dimensional subspaces of A under a Haar
    U_A: item x is cos(phi_x) e_a + sin(phi_x) e_b of its sector, so two
    items of a sector overlap by |cos(phi_x - phi_x')|, and a tol near 1
    leaves each sector a ring of short edges, many frontiers deep. The
    rows are shuffled, so every part spans every edge block."""
    phi = rng.uniform(0, np.pi, sectors * size)
    sec = rng.permutation(np.repeat(np.arange(sectors), size))
    psi = np.zeros((len(phi), 2 * sectors))
    psi[np.arange(len(phi)), 2 * sec], psi[np.arange(len(phi)), 2 * sec + 1] = np.cos(phi), np.sin(phi)
    return make_blind(psi @ haar_unitary(rng, 2 * sectors).T, rng.dirichlet(np.ones(len(phi))))


class TestFrontierSearch:
    """The partition tests the graph's rows in blocks and searches them
    from each unreached item in ascending order; it gives the Decomposition
    of the dense graph and its label propagation, bit for bit, and forms
    no N x N matrix."""

    @pytest.mark.parametrize("tol", [0.0, DEFAULT_OVERLAP_TOL, 1e-3, 0.5])
    def test_rotated_sectors(self, tol):
        rng = np.random.default_rng(1808)
        e = two_sector_blind()
        for sigma in (e.sigma, np.array([[1, 0], [1, 0], PLUS, PLUS])):
            u_a, u_c = haar_unitary(rng, 4), haar_unitary(rng, sigma.shape[1])
            assert_dense_decomposition(Ensemble(e.labels, e.probs, e.psi @ u_a.T, sigma @ u_c.T), tol)

    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-3])
    def test_near_threshold(self, tol):
        e = near_threshold(tol)
        for t in (0.0, tol, tol * (1 - 2e-6), tol * (1 + 2e-6)):
            assert_dense_decomposition(e, t)

    def test_more_rows_than_two_edge_blocks(self):
        rng = np.random.default_rng(31)
        e = ring_sectors(rng, 400)
        assert len(e.overlaps.probs) > 2 * decomposition.EDGE_BLOCK
        sizes = {tol: assert_dense_decomposition(e, tol, blocks=(64, decomposition.EDGE_BLOCK)).size
                 for tol in (0.0, DEFAULT_OVERLAP_TOL, 0.99, 0.99999)}
        # rounding merges the sectors at tol 0; near 1 the rings break up
        assert sizes[0.0] == 1 and sizes[DEFAULT_OVERLAP_TOL] == sizes[0.99] == 3
        assert 3 < sizes[0.99999] < len(e.overlaps.probs)

    def test_a_frontier_past_the_block_spans_several_blocks(self):
        # item 0 overlaps each a_i by 0.71, the a_i overlap each other by
        # 0.5 and each its own b_i by 0.5: at tol 0.4 and blocks of 2 or 3
        # rows, the b_i are found only through a far frontier of five a_i
        m = 6
        eye = np.eye(2 * m + 1)
        a = [(eye[0] + eye[i]) / np.sqrt(2) for i in range(1, m + 1)]
        b = [(eye[i] + eye[m + i]) / np.sqrt(2) for i in range(1, m + 1)]
        e = make_blind([eye[0], *a, *b], np.full(2 * m + 1, 1 / (2 * m + 1)))
        assert assert_dense_decomposition(e, 0.4).size == 1

    def test_a_pair_is_read_from_its_upper_triangle(self):
        # BLAS may round <v_x|v_x'> and <v_x'|v_x> apart; at a tol equal to
        # any product, the graph within one edge block is the dense one
        rng = np.random.default_rng(0)
        for _ in range(30):
            e = Ensemble([str(x) for x in range(5)], np.full(5, 0.2), unit_rows(rng, 5, 3), unit_rows(rng, 5, 2))
            products = np.abs(gram(e.overlaps.psi)) * np.abs(gram(e.overlaps.sigma))
            for tol in np.unique(products[~np.eye(5, dtype=bool)]).tolist():
                assert_dense_decomposition(e, tol, blocks=(decomposition.EDGE_BLOCK,))

    def test_checks_scan_every_edge_block(self):
        # a failing check names the first edge across components, in the
        # first block of rows that holds one
        e = ring_sectors(np.random.default_rng(31), 20)
        with mock.patch.object(decomposition, "EDGE_BLOCK", 7):
            for tol in (DEFAULT_OVERLAP_TOL, 0.99):
                for m in dense_oracle.mutated(e, irreducible_components(e, tol)):
                    want = dense_oracle.outcomes(dense_oracle, e, m)
                    assert dense_oracle.outcomes(decomposition, e, m) == want

    @pytest.mark.parametrize("size", [2, 7, 64, decomposition.EDGE_BLOCK])
    def test_edge_blocks_are_the_dense_products(self, size):
        # thresholds at the dense products and at the doubles just below
        # them pin each block's products bit for bit (blocks of 2+ rows)
        ov = ring_sectors(np.random.default_rng(31), 400).overlaps
        dense = np.abs(gram(ov.psi)) * np.abs(gram(ov.sigma))
        assert len(dense) % size != 1
        for lo in range(0, len(dense), size):
            rows = slice(lo, lo + size)
            assert not decomposition._edges(ov, rows, dense[rows]).any()
            assert decomposition._edges(ov, rows, np.nextafter(dense[rows], -np.inf)).all()

    @pytest.mark.parametrize("size", [2, 7, 64, decomposition.EDGE_BLOCK])
    def test_overlaps_above_is_the_joint_graph(self, size):
        # over psi and sigma, the one thresholded product gives _edges' bits,
        # and the inline product _edges formed before, against every column
        # and against a set of them, at the block's products and just below
        rng = np.random.default_rng(34)
        psi = ring_sectors(rng, 200).psi
        ov = Ensemble([str(x) for x in range(len(psi))], np.full(len(psi), 1 / len(psi)), psi,
                      unit_rows(rng, len(psi), 3)).overlaps
        todo = np.flatnonzero(rng.random(len(psi)) < 0.5)
        for lo in range(0, len(psi), size):
            rows = slice(lo, lo + size)
            for cols in (slice(None), todo):
                products = (np.abs(ov.psi[rows].conj() @ ov.psi[cols].T)
                            * np.abs(ov.sigma[rows].conj() @ ov.sigma[cols].T))
                for tol in (products, np.nextafter(products, -np.inf), DEFAULT_OVERLAP_TOL, 0.5):
                    got = overlaps_above(tol, rows, cols, ov.psi, ov.sigma)
                    assert np.array_equal(got, decomposition._edges(ov, rows, tol, cols))
                    assert np.array_equal(got, dense_oracle.edges(ov, rows, tol, cols))

    def test_analysis_forms_no_overlap_matrix(self):
        # one component of 256 items on A (x) C = C^2 (x) C^2: every
        # spectrum takes its marginal side, and the partition its rows, 16
        # at a time, so the peak stays below one N x N complex matrix
        n = 256
        rng = np.random.default_rng(64)
        e = Ensemble([str(x) for x in range(n)], np.full(n, 1 / n), unit_rows(rng, n, 2), unit_rows(rng, n, 2))
        with mock.patch.object(decomposition, "EDGE_BLOCK", 16), traced_peak() as peak:
            assert analyze(e).decomposition.size == 1
        assert peak[0] < n * n * 16

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_refused(self, tol):
        e = sideinfo_triple()
        with pytest.raises(ValueError, match="finite nonnegative"):
            irreducible_components(e, tol)
        assert not e.overlaps.roots
