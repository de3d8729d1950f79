import numpy as np
import pytest

from eacomp import _accel
from eacomp._accel import unitary_objective
from eacomp.ensemble import Ensemble, EnsembleItem, make_blind, make_visible
from eacomp.errors import EacompError, IsometryError
from eacomp.iepsilon import (
    IsometrySearchConfig,
    check_lemma_properties,
    estimate_grid,
    estimate_i_epsilon,
    i_zero_bounds,
    identity_isometry,
    objective,
)
from eacomp.states import PureStateVector, single

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)

FAST = IsometrySearchConfig(restarts=2, max_iters=50)


def blind_pair():
    return make_blind([[1, 0], PLUS], [0.5, 0.5])


def sideinfo_triple(t=0.05):
    items = []
    for lbl, pr, psi, sig in [
        ("0", 0.5 - t, [1, 0], [1, 0]),
        ("1", 0.5 - t, [0, 1], [1, 0]),
        ("2", 2 * t, PLUS, PLUS),
    ]:
        items.append(
            EnsembleItem(
                lbl,
                pr,
                PureStateVector(single("A", 2), np.asarray(psi, complex)),
                PureStateVector(single("C", 2), np.asarray(sig, complex)),
            )
        )
    return Ensemble(2, 2, tuple(items))


def random_source(rng, da, dc, nx):
    """nx random pure signals on A and C with Dirichlet probabilities."""

    def unit(d):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    probs = rng.dirichlet(np.ones(nx))
    items = tuple(
        EnsembleItem(
            str(i),
            float(p),
            PureStateVector(single("A", da), unit(da)),
            PureStateVector(single("C", dc), unit(dc)),
        )
        for i, p in enumerate(probs)
    )
    return Ensemble(da, dc, items)


def rand_isometry(rng, d_out, d_in):
    m = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    q, _ = np.linalg.qr(m)
    return q[:, :d_in]


class TestConfig:
    def test_env_dim_resolution(self):
        cfg = IsometrySearchConfig()
        assert cfg.resolve_env_dim(2, 1) == 4  # (2*1)^2 below the cap
        assert cfg.resolve_env_dim(2, 2) == 16
        assert cfg.resolve_env_dim(3, 3) == 16  # capped
        assert IsometrySearchConfig(env_cap=100).resolve_env_dim(3, 3) == 81

    def test_env_dim_bounds(self):
        assert IsometrySearchConfig(env_dim=2).resolve_env_dim(2, 1) == 2
        with pytest.raises(ValueError):
            IsometrySearchConfig(env_dim=5).resolve_env_dim(2, 1)
        with pytest.raises(ValueError):
            IsometrySearchConfig(env_dim=0).resolve_env_dim(2, 1)

    def test_guards(self):
        with pytest.raises(ValueError):
            IsometrySearchConfig(restarts=0)
        with pytest.raises(ValueError):
            IsometrySearchConfig(step_decay=1.5)


class TestObjective:
    def test_identity_extracts_i_x_c(self):
        e = sideinfo_triple()
        v = identity_isometry(4, 3)
        mi, fid = objective(e, v)
        floor, _ = i_zero_bounds(e)
        assert abs(mi - floor) < 1e-10
        assert abs(fid - 1.0) < 1e-12

    def test_identity_blind_is_zero(self):
        mi, fid = objective(blind_pair(), identity_isometry(2, 4))
        assert abs(mi) < 1e-12 and abs(fid - 1.0) < 1e-12

    def test_swap_to_environment(self):
        # route the signal coherently into W and hand |0> to the receiver:
        # W then holds the states themselves, so I(X:W) is their Holevo
        # information S(A), and the receiver sees only the overlap with |0>
        e = blind_pair()
        d_in = 2
        v = np.zeros((4, 2), dtype=complex)
        # output index = w * d_in + a; send a -> w, set a' = 0
        v[0 * d_in + 0, 0] = 1.0
        v[1 * d_in + 0, 1] = 1.0
        mi, fid = objective(e, v)
        assert abs(mi - 0.6008760366928562) < 1e-10
        assert abs(fid - (0.5 * 1.0 + 0.5 * np.sqrt(0.5))) < 1e-10

    def test_copy_to_environment(self):
        # a basis copy |a> -> |a>|a> dephases the signal: W carries the
        # measured outcome, worth H(W) - H(W|X) = h2(3/4) - 1/2 here
        e = blind_pair()
        d_in = 2
        v = np.zeros((4, 2), dtype=complex)
        v[0 * d_in + 0, 0] = 1.0  # |0> -> w=0, a'=0
        v[1 * d_in + 1, 1] = 1.0  # |1> -> w=1, a'=1
        mi, fid = objective(e, v)
        pw = np.array([0.75, 0.25])
        h_w = -(pw * np.log2(pw)).sum()
        assert abs(mi - (h_w - 0.5)) < 1e-10
        assert abs(fid - (0.5 * 1.0 + 0.5 * np.sqrt(0.5))) < 1e-10

    def test_matches_kernel_on_random_generators(self, monkeypatch):
        # dims d_in * dw from 4 to 64 straddle the eigh/Taylor threshold;
        # the two forced settings also run one route at every size
        for min_dim in (_accel.TAYLOR_MIN_DIM, 0, 10**9):
            monkeypatch.setattr(_accel, "TAYLOR_MIN_DIM", min_dim)
            rng = np.random.default_rng(7)
            for da, dc, nx in [(2, 1, 3), (3, 1, 4), (2, 2, 3), (2, 2, 5)]:
                e = random_source(rng, da, dc, nx)
                d_in = da * dc
                probs = np.array([it.prob for it in e.items])
                for dw in sorted({2, d_in**2, 16}):
                    dim = dw * d_in
                    phis = np.zeros((nx, dim), dtype=complex)
                    for i in range(nx):
                        phis[i, :d_in] = e.joint_vector(i).amplitudes
                    for norm in (1.0, 4.0, 20.0, 100.0):
                        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                        h = (m + m.conj().T) / 2
                        h *= norm / np.linalg.norm(h)
                        mi_k, fid_k = unitary_objective(h, phis, probs, da, dc, dw)
                        evs, vecs = np.linalg.eigh(h)
                        u = (vecs * np.exp(1j * evs)) @ vecs.conj().T
                        mi_r, fid_r = objective(e, u[:, :d_in])
                        case = (min_dim, da, dc, nx, dw, norm)
                        assert abs(mi_k - mi_r) < 1e-10, case
                        assert abs(fid_k - fid_r) < 1e-10, case

    def test_rejects_bad_shapes(self):
        e = blind_pair()
        with pytest.raises(IsometryError):
            objective(e, np.ones((4, 2)))
        with pytest.raises(EacompError):
            objective(e, identity_isometry(3, 2)[:, :1].reshape(6, 1))
        rng = np.random.default_rng(8)
        with pytest.raises(EacompError):
            objective(e, rand_isometry(rng, 7, 2))  # 7 not a multiple of 2


class TestEstimator:
    def test_floor_and_feasibility(self):
        e = sideinfo_triple()
        for eps in (0.0, 0.1):
            est = estimate_i_epsilon(e, eps, FAST)
            assert est.value >= est.identity_floor - 1e-9
            assert est.fidelity >= 1.0 - eps - 1e-9
            v = est.isometry
            np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-9)

    def test_blind_zero_eps_is_tiny(self):
        est = estimate_i_epsilon(blind_pair(), 0.0, FAST)
        assert est.value <= 1e-3
        assert est.fidelity >= 1.0 - 1e-9

    def test_single_state_always_zero(self):
        e = make_blind([[1, 0]], [1.0])
        for eps in (0.0, 0.2):
            est = estimate_i_epsilon(e, eps, FAST)
            assert est.value == 0.0

    def test_visible_pair_saturates_h_x(self):
        e = make_visible([[1, 0], PLUS], [0.5, 0.5])
        est = estimate_i_epsilon(e, 0.0, IsometrySearchConfig(restarts=1, max_iters=10))
        assert abs(est.value - 1.0) < 1e-9
        assert est.fallback_identity

    def test_deterministic(self):
        e = blind_pair()
        a = estimate_i_epsilon(e, 0.1, FAST)
        b = estimate_i_epsilon(e, 0.1, FAST)
        assert a.value == b.value
        assert a.fidelity == b.fidelity
        np.testing.assert_array_equal(a.isometry, b.isometry)
        c = estimate_i_epsilon(e, 0.1, IsometrySearchConfig(restarts=2, max_iters=50, seed=5))
        assert c.value != a.value  # different seed explores differently

    def test_eps_guard(self):
        with pytest.raises(ValueError):
            estimate_i_epsilon(blind_pair(), -0.1, FAST)

    def test_reducible_blind_extracts_component_bit(self):
        # orthogonal states: the component label is a free bit once eps > 0
        e = make_blind([[1, 0], [0, 1]], [0.5, 0.5])
        est = estimate_i_epsilon(e, 0.1, FAST)
        assert est.value > 0.5


class TestGrid:
    def test_monotone_chain(self):
        e = blind_pair()
        ests = estimate_grid(e, [0.0, 0.05, 0.1, 0.2], FAST)
        values = [est.value for est in ests]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12  # warm start keeps the chain non-decreasing
        assert values[-1] > 0.1  # something real is extracted at eps = 0.2

    def test_search_trajectory_is_pinned(self):
        # recorded from the search when every evaluation diagonalised H
        # and formed all of exp(iH); a kernel change that moves one step
        # of the search moves these numbers
        ests = estimate_grid(sideinfo_triple(), [0.0, 0.1], FAST)
        assert [est.evaluations for est in ests] == [133, 125]
        for est, value, fid in zip(
            ests, [0.27451479891986763, 0.444205423503934], [1.0, 0.9757720431356492]
        ):
            assert abs(est.value - value) <= 1e-12
            assert abs(est.fidelity - fid) <= 1e-12

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            estimate_grid(blind_pair(), [0.1, 0.0], FAST)


class TestLemmaReport:
    def test_blind_pair_report(self):
        rep = check_lemma_properties(blind_pair(), [0.0, 0.1, 0.2], FAST)
        assert rep.floor == 0.0 and rep.ceiling == 0.0
        assert rep.floor_ok and rep.ceiling_at_zero_ok
        assert rep.monotone_ok and not rep.monotone_violations
        assert rep.subadditive_ok
        assert rep.pair_estimate_at_zero <= 2 * rep.ceiling + 1e-3
        j = rep.to_json()
        assert j["estimates"] == list(rep.estimates)

    def test_triple_report(self):
        rep = check_lemma_properties(sideinfo_triple(), [0.0, 0.1], FAST)
        assert rep.floor_ok
        assert rep.ceiling_at_zero_ok
        assert rep.continuity_gap >= 0.0
