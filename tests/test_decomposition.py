import numpy as np
import pytest

from dense_oracle import extend_with_y, given
from eacomp.decomposition import (
    irreducible_components,
    is_irreducible,
    overlap_graph,
)
from eacomp.ensemble import Ensemble, make_blind, make_visible
from eacomp.errors import LabelError
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
        assert is_irreducible(sideinfo_triple())

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
