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
from eacomp.rates import analyze, entropy_profile, optimal_rates

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
        p1 = entropy_profile(e)
        p2 = entropy_profile(ext)
        assert abs(p1.s_a - p2.s_a) < 1e-10
        assert abs(p1.s_cy - p2.s_cy) < 1e-10
        assert abs(p1.s_acy - p2.s_acy) < 1e-10
        r1, r2 = optimal_rates(e), optimal_rates(ext)
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
        builds = []
        real = decomposition._support_graph
        monkeypatch.setattr(decomposition, "_support_graph", lambda ov, tol: builds.append(tol) or real(ov, tol))
        e = two_sector_blind()
        a = analyze(e)
        assert builds == [DEFAULT_OVERLAP_TOL]
        entropy_profile(e)
        assert not overlaps_across_components(e, a.decomposition)
        check_components(e, a.decomposition)
        assert builds == [DEFAULT_OVERLAP_TOL]
        analyze(e, 0.5)
        assert builds == [DEFAULT_OVERLAP_TOL, 0.5]
        # only a failing check builds the graph again, to name the overlap
        _, b = a.decomposition.components
        split = Decomposition((Component(0, ("a0",), 0.3), b, Component(2, ("a1",), 0.3)), DEFAULT_OVERLAP_TOL)
        with pytest.raises(ConsistencyError, match=r"'a0' \(y=0\) and 'a1' \(y=2\) overlap"):
            check_components(e, split)
        assert builds == [DEFAULT_OVERLAP_TOL, 0.5, DEFAULT_OVERLAP_TOL]
