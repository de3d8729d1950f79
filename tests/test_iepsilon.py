import inspect
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from eacomp import cli, iepsilon, limits
from test_ensemble import rand_unit, traced_peak
from test_properties import sources
from eacomp._accel import unitary_objective
from eacomp.ensemble import Ensemble, load_ensemble, make_blind, make_visible, reduced, save_ensemble
from eacomp.errors import ConsistencyError, DimensionLimitError, EacompError, IsometryError
from eacomp.iepsilon import (
    CONV_TOL,
    FEASIBILITY_SLACK,
    MAX_RESTARTS,
    STACK_ENTRIES,
    IsometrySearchConfig,
    _retract,
    _search,
    _target,
    check_lemma_properties,
    estimate_grid,
    estimate_i_epsilon,
    i_zero_bounds,
    identity_isometry,
    objective,
    penalised_objective,
)
from eacomp.rates import analyze
from eacomp.region import boundary_polyline
from eacomp.states import check_isometry, entropy_from_probs, von_neumann_entropy

DATA = Path(__file__).resolve().parent.parent / "data"

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)

FAST = IsometrySearchConfig(restarts=2, max_iters=50)


def blind_pair():
    return make_blind([[1, 0], PLUS], [0.5, 0.5])


def sideinfo_triple(t=0.05):
    return Ensemble(("0", "1", "2"), [0.5 - t, 0.5 - t, 2 * t],
                    [[1, 0], [0, 1], PLUS], [[1, 0], [1, 0], PLUS])


def random_source(rng, da, dc, nx):
    """nx random pure signals on A and C with Dirichlet probabilities."""

    def unit(d):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    probs = rng.dirichlet(np.ones(nx))
    rows = [(unit(da), unit(dc)) for _ in range(nx)]
    return Ensemble([str(i) for i in range(nx)], probs, [a for a, _ in rows], [c for _, c in rows])


# (dimA, dimC, signals) of the kernel checks
KERNEL_DIMS = [(2, 1, 3), (3, 1, 4), (2, 2, 3), (2, 2, 5)]


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
        for bad in (
            {"penalty": float("nan")},
            {"penalty": float("inf")},
            {"penalty": -1.0},
            {"max_iters": -3},
            {"env_cap": 0},
            {"env_dim": 0},
            {"restarts": MAX_RESTARTS + 1},
        ):
            with pytest.raises(ValueError):
                IsometrySearchConfig(**bad)

    def test_conv_tol_is_a_constant(self):
        # no caller set it: the report still shows it, but no config holds it
        with pytest.raises(TypeError):
            IsometrySearchConfig(conv_tol=1e-3)
        assert IsometrySearchConfig().to_json()["conv_tol"] == CONV_TOL
        assert [f.name for f in fields(IsometrySearchConfig)] == [
            "restarts", "max_iters", "penalty", "env_dim", "env_cap", "seed"]

    def test_cli_defaults_are_the_config_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["iepsilon", "s.json", "--eps", "0"])
        for f in fields(IsometrySearchConfig):
            assert getattr(args, f.name) == f.default, f.name
        args = parser.parse_args(["region", "s.json", "--kind", "EQ"])
        for name in ("lo", "hi", "samples"):
            assert getattr(args, name) == inspect.signature(boundary_polyline).parameters[name].default, name

    def test_negative_seed_is_refused(self):
        # numpy's own refusal came only once a random start or kick was
        # drawn, and restarts = 1 on a non-blind source draws neither
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            IsometrySearchConfig(seed=-1)
        assert IsometrySearchConfig(seed=0).seed == 0


class TestObjective:
    def test_identity_extracts_i_x_c(self):
        e = sideinfo_triple()
        v = identity_isometry(4, 3)
        mi, fid = objective(e, v)
        floor, _ = i_zero_bounds(analyze(e))
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

    def test_matches_kernel_on_random_isometries(self):
        # output dims d_in * dw from 4 to 64
        rng = np.random.default_rng(7)
        for da, dc, nx in KERNEL_DIMS:
            e = random_source(rng, da, dc, nx)
            d_in = da * dc
            probs, phis = e.overlaps.probs, e.overlaps.joint
            for dw in sorted({2, d_in**2, 16}):
                for trial in range(4):
                    v = rand_isometry(rng, dw * d_in, d_in)
                    mi_r, fid_r = objective(e, v)
                    mi, fid = (x[0] for x in unitary_objective(v[None], phis, probs, da, dc, dw)[:2])
                    case = (da, dc, nx, dw, trial)
                    assert abs(mi - mi_r) < 1e-10, case
                    assert abs(fid - fid_r) < 1e-10, case

    @pytest.mark.parametrize("need", [0.0, 1.0], ids=["penalty-inactive", "penalty-active"])
    def test_gradients_match_central_differences(self, need):
        # the Euclidean gradients of I, F and the penalised objective, read
        # along random directions and along each gradient itself
        rng = np.random.default_rng(11)
        h = 1e-5
        for da, dc, nx in KERNEL_DIMS:
            e = random_source(rng, da, dc, nx)
            d_in = da * dc
            probs, phis = e.overlaps.probs, e.overlaps.joint
            for dw in sorted({2, d_in**2, 16}):
                dims = (da, dc, dw)
                v = rand_isometry(rng, dw * d_in, d_in)
                (mi, fid, pen, g_pen), = penalised_objective(v[None], phis, probs, dims, need, 64.0)
                assert (pen < mi) == (need > fid)
                _, _, (g_mi,), (g_fid,) = unitary_objective(v[None], phis, probs, *dims)

                def values(w):
                    return np.array(penalised_objective(w[None], phis, probs, dims, need, 64.0)[0][:3])

                for g, k in ((g_mi, 0), (g_fid, 1), (g_pen, 2)):
                    scale = np.linalg.norm(g)
                    dirs = [g / scale] + [
                        rand_isometry(rng, dw * d_in, d_in) - v for _ in range(3)
                    ]
                    for dv in dirs:
                        fd = (values(v + h * dv)[k] - values(v - h * dv)[k]) / (2 * h)
                        exact = np.vdot(g, dv).real
                        case = (da, dc, nx, dw, k)
                        assert abs(fd - exact) <= 1e-6 * scale * np.linalg.norm(dv), case

    def test_rejects_bad_shapes(self):
        e = blind_pair()
        with pytest.raises(IsometryError):
            objective(e, np.ones((4, 2)))
        with pytest.raises(EacompError):
            objective(e, identity_isometry(3, 2)[:, :1].reshape(6, 1))
        rng = np.random.default_rng(8)
        with pytest.raises(EacompError):
            objective(e, rand_isometry(rng, 7, 2))  # 7 not a multiple of 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        v = identity_isometry(2, 2)
        v[3, 1] = bad
        with pytest.raises(IsometryError, match="deviate from orthonormal"):
            check_isometry(v)
        with pytest.raises(IsometryError, match="deviate from orthonormal"):
            objective(blind_pair(), v)

    def test_rejects_isometries_without_columns(self):
        with pytest.raises(IsometryError, match="tall or square"):
            objective(load_ensemble(DATA / "blind_pair.json"), np.zeros((0, 0)))
        with pytest.raises(IsometryError, match="tall or square"):
            check_isometry(np.zeros((3, 0)))

    def test_output_refused_before_it_is_formed(self, monkeypatch):
        # one 2000 x 2000 output state would take 64 MB
        e = blind_pair()
        v = identity_isometry(2, 1000)
        monkeypatch.setattr(limits, "MATRIX_CAP", 100)
        with pytest.raises(DimensionLimitError, match="^matrix side 2000 exceeds cap 100$"):
            with traced_peak() as peak:
                objective(e, v)
        assert peak[0] < 2 * 2**20


class TestEstimator:
    def test_floor_is_s_c_from_the_smaller_side(self):
        # N >= dimC: the marginal on C, to the bit; N < dimC: the Gram
        # side, within rounding of it
        rng = np.random.default_rng(23)
        for dc in (1, 2, 3, 5):
            for nx in (2, 3, 4, 6):
                e = random_source(rng, 2, dc, nx)
                marginal = von_neumann_entropy(reduced(e, {"C"}))
                a = analyze(e)
                floor, _ = i_zero_bounds(a)
                if nx >= dc:
                    assert floor == marginal
                else:
                    assert abs(floor - marginal) <= 1e-13
                assert estimate_grid(a, [0.0], FAST)[0].identity_floor == floor

    def test_one_target_and_one_floor_per_grid(self, monkeypatch):
        # the analysis takes its spectra through rates' own binding
        calls = {"_target": 0, "mixture_spectra": 0}
        for name in calls:
            def counted(*args, real=getattr(iepsilon, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(iepsilon, name, counted)
        ests = estimate_grid(analyze(load_ensemble(DATA / "sideinfo_triple.json")), [0.0, 0.05, 0.1, 0.2], FAST)
        assert len(ests) == 4
        assert calls == {"_target": 1, "mixture_spectra": 1}

    @pytest.mark.parametrize("run, targets", [
        (lambda path: iepsilon.i_zero_bounds(analyze(load_ensemble(path))), 0),
        (lambda path: cli.main(["iepsilon", str(path), "--eps", "0,0.05,0.1,0.2"]), 1),
        (lambda path: cli.main(["iepsilon", str(path), "--eps", "0,0.05,0.1,0.2", "--check-lemma"]), 1),
    ], ids=["bounds", "grid", "check-lemma"])
    def test_search_sources_built(self, monkeypatch, capsys, run, targets):
        # the bounds build no search target; a command builds one, whose
        # floor and ceilings --check-lemma reads and squares for the
        # two-copy pair, and whose bounds the report reads
        calls = {"_target": 0, "i_zero_bounds": 0}
        for name in calls:
            def counted(*args, real=getattr(iepsilon, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(iepsilon, name, counted)
        run(DATA / "sideinfo_triple.json")
        capsys.readouterr()
        assert calls == {"_target": targets, "i_zero_bounds": 1}

    def test_search_refused_before_it_is_formed(self, monkeypatch):
        # two states with dimC = 2000: the analysis and S(C) take their
        # 2 x 2 Gram sides, and the search's 16 * 2 * 2000 output side is
        # refused before the 4 GB identity start is formed
        rng = np.random.default_rng(24)
        e = Ensemble(("a", "b"), [0.5, 0.5], np.eye(2), [rand_unit(rng, 2000) for _ in range(2)])
        monkeypatch.setattr(limits, "MATRIX_CAP", 100)
        with pytest.raises(DimensionLimitError, match="^matrix side 64000 exceeds cap 100$"):
            with traced_peak() as peak:
                estimate_grid(analyze(e), [0.0])
        assert peak[0] < 2 * 2**20

    def test_floor_and_feasibility(self):
        e = sideinfo_triple()
        for eps in (0.0, 0.1):
            est = estimate_i_epsilon(analyze(e), eps, FAST)
            assert est.value >= est.identity_floor - 1e-9
            assert est.fidelity >= 1.0 - eps - 1e-9
            v = est.isometry
            np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-9)

    def test_blind_zero_eps_is_tiny(self):
        est = estimate_i_epsilon(analyze(blind_pair()), 0.0, FAST)
        assert est.value <= 1e-3
        assert est.fidelity >= 1.0 - 1e-9

    def test_single_state_always_zero(self):
        e = make_blind([[1, 0]], [1.0])
        for eps in (0.0, 0.2):
            est = estimate_i_epsilon(analyze(e), eps, FAST)
            assert est.value == 0.0

    def test_visible_pair_saturates_h_x(self):
        e = make_visible([[1, 0], PLUS], [0.5, 0.5])
        est = estimate_i_epsilon(analyze(e), 0.0, IsometrySearchConfig(restarts=1, max_iters=10))
        assert abs(est.value - 1.0) < 1e-9
        assert est.fallback_identity

    def test_deterministic(self):
        e = blind_pair()
        a = estimate_i_epsilon(analyze(e), 0.1, FAST)
        b = estimate_i_epsilon(analyze(e), 0.1, FAST)
        assert a.value == b.value
        assert a.fidelity == b.fidelity
        np.testing.assert_array_equal(a.isometry, b.isometry)
        c = estimate_i_epsilon(analyze(e), 0.1, IsometrySearchConfig(restarts=2, max_iters=50, seed=5))
        assert c.value != a.value  # different seed explores differently

    def test_eps_guard(self):
        for eps in (-0.1, 1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                estimate_i_epsilon(analyze(blind_pair()), eps, FAST)

    def test_stationary_identity_start_is_left(self):
        # on a blind source the identity is a critical point (I = 0, zero
        # gradient); with one start the walk must still leave it
        est = estimate_i_epsilon(analyze(blind_pair()), 0.1, IsometrySearchConfig(restarts=1))
        assert est.value >= 0.5
        assert est.fidelity >= 0.9 - 1e-9
        assert not est.fallback_identity

    def test_reducible_blind_extracts_component_bit(self):
        # orthogonal states: the component label is a free bit once eps > 0
        e = make_blind([[1, 0], [0, 1]], [0.5, 0.5])
        est = estimate_i_epsilon(analyze(e), 0.1, FAST)
        assert est.value > 0.5


@st.composite
def multi_sector_sources(draw):
    """Blind or side-information sources of 2-3 components: each signal
    lies in one of mutually orthogonal sectors of A, so S(C) < S(CY)
    whenever the side information does not already tell them apart."""
    sectors = draw(st.integers(2, 3))
    sector_dim = draw(st.integers(1, 2))
    dim_c = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(sectors, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(n))
    home = np.concatenate([np.arange(sectors), rng.integers(sectors, size=n - sectors)])
    psis, sigmas = [], []
    for x in range(n):
        psi = np.zeros(sectors * sector_dim, dtype=complex)
        part = rng.standard_normal(sector_dim) + 1j * rng.standard_normal(sector_dim)
        psi[home[x] * sector_dim:(home[x] + 1) * sector_dim] = part / np.linalg.norm(part)
        sigma = rng.standard_normal(dim_c) + 1j * rng.standard_normal(dim_c)
        psis.append(psi)
        sigmas.append(sigma / np.linalg.norm(sigma))
    return Ensemble([f"s{x}" for x in range(n)], probs, psis, sigmas)


@st.composite
def random_sources(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_source(rng, draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 4)))


class TestCeilingsAndWitness:
    def test_blind_two_sectors_certifies_s_cy_at_zero(self):
        a = analyze(load_ensemble(DATA / "blind_two_sectors.json"))
        est = estimate_i_epsilon(a, 0.0)
        assert a.profile.s_cy > 0.9
        assert abs(est.value - a.profile.s_cy) <= 1e-12
        assert est.fidelity >= 1.0 - 1e-9
        assert est.evaluations == 2  # the identity, then the witness
        assert not est.fallback_identity

    @settings(max_examples=30)
    @given(multi_sector_sources())
    def test_estimate_never_below_s_cy(self, e):
        a = analyze(e)
        cfg = IsometrySearchConfig(restarts=2, max_iters=5, env_cap=4)
        for est in estimate_grid(analyze(e), [0.0, 0.05, 0.2], cfg):
            assert est.value >= a.profile.s_cy - 1e-9, est.eps
            assert est.fidelity >= 1.0 - est.eps - 1e-9

    def test_visible_pair_stops_at_h_x(self):
        a = analyze(load_ensemble(DATA / "visible_pair.json"))
        est = estimate_i_epsilon(a, 0.1)
        assert est.evaluations == 1
        assert len(est.restart_values) == 1
        assert abs(est.value - a.profile.h_x) <= 1e-9

    def test_stop_keeps_dense_verification(self, monkeypatch):
        a = analyze(load_ensemble(DATA / "visible_pair.json"))
        real = iepsilon.objective
        monkeypatch.setattr(
            iepsilon, "objective", lambda e, v: (real(e, v)[0] - 1e-6, real(e, v)[1])
        )
        with pytest.raises(ConsistencyError, match="disagree"):
            estimate_i_epsilon(a, 0.1)

    def test_witness_coarse_grains_y_into_env_dim_groups(self):
        # three orthogonal signals, |W| = 2: groups {0, 2} and {1}
        probs = [0.2, 0.3, 0.5]
        e = make_blind(np.eye(3), probs)
        est = estimate_i_epsilon(analyze(e), 0.0, IsometrySearchConfig(restarts=1, env_dim=2))
        assert abs(est.value - entropy_from_probs(np.array([0.7, 0.3]))) <= 1e-12
        assert est.fidelity >= 1.0 - 1e-9

    def test_witness_orthogonalises_near_orthogonal_components(self):
        # the two components overlap by 1e-12, below the tolerance: the
        # witness still keeps the signals and extracts the component bit
        leak = 1e-12
        e = make_blind([[1, 0], [leak, np.sqrt(1 - leak**2)]], [0.5, 0.5])
        a = analyze(e)
        assert a.decomposition.size == 2
        est = estimate_i_epsilon(a, 0.0)
        assert abs(est.value - 1.0) <= 1e-9
        assert est.fidelity >= 1.0 - 1e-9

    def test_witness_is_not_a_restart(self):
        # restarts counts the identity, warm and random starts; the warm
        # start that repeats the eps = 0 witness is dropped, so two random
        # starts keep their places
        a = analyze(load_ensemble(DATA / "blind_two_sectors.json"))
        cfg = IsometrySearchConfig(restarts=3, max_iters=5)
        at_zero, above = estimate_grid(a, [0.0, 0.05], cfg)
        assert not at_zero.fallback_identity
        assert len(above.restart_values) == 4  # identity, witness, two random


class TestGrid:
    def test_monotone_chain(self):
        e = blind_pair()
        ests = estimate_grid(analyze(e), [0.0, 0.05, 0.1, 0.2], FAST)
        values = [est.value for est in ests]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12  # warm start keeps the chain non-decreasing
        assert values[-1] > 0.1  # something real is extracted at eps = 0.2

    def test_search_trajectory_is_pinned(self):
        # eps = 0 ends at the identity start, whose I(X:C) is S(CY) here;
        # eps = 0.1 is the gradient walk recorded when the search moved to
        # the isometries: a kernel or step-rule change that moves one step
        # of the search moves these numbers
        ests = estimate_grid(analyze(sideinfo_triple()), [0.0, 0.1], FAST)
        assert [est.evaluations for est in ests] == [1, 42]
        for est, value, fid in zip(
            ests, [0.27451479891986763, 1.2058510708599512], [1.0, 0.9002608996911337]
        ):
            assert abs(est.value - value) <= 1e-12
            assert abs(est.fidelity - fid) <= 1e-12

    # I_eps on every data file before the search moved to the isometries
    # (random walk over Hermitian generators, default config)
    RANDOM_WALK_VALUES = {
        "blind_pair": [0.0, 0.500700356246694, 0.5891304359620197, 0.6006922886418166],
        "blind_two_sectors": [
            0.9709505944546684, 1.0961197840583894, 1.2221326706161388, 1.33298131903336
        ],
        "sideinfo_triple": [
            0.2745147989198678, 0.6458473141150601, 0.9633598850384997, 1.1989386410285343
        ],
        "visible_pair": [1.0, 1.0, 1.0, 1.0],
    }

    @pytest.mark.parametrize("name", sorted(RANDOM_WALK_VALUES))
    def test_data_files_at_least_random_walk_values(self, name, capsys):
        code = cli.main(["iepsilon", str(DATA / f"{name}.json"), "--eps", "0,0.05,0.1,0.2"])
        assert code == 0
        ests = json.loads(capsys.readouterr().out)["estimates"]
        assert len(ests) == 4
        for est, old in zip(ests, self.RANDOM_WALK_VALUES[name]):
            assert est["estimate"] >= old, est["eps"]
            assert est["fidelity"] >= 1.0 - est["eps"] - 1e-9, est["eps"]

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            estimate_grid(analyze(blind_pair()), [0.1, 0.0], FAST)


class TestLemmaReport:
    def test_blind_pair_report(self):
        rep = check_lemma_properties(analyze(blind_pair()), [0.0, 0.1, 0.2], FAST)
        assert rep.floor == 0.0 and rep.ceiling == 0.0
        assert rep.floor_ok and rep.ceiling_at_zero_ok
        assert rep.monotone_ok and not rep.monotone_violations
        assert rep.subadditive_ok
        assert rep.pair_estimate_at_zero <= 2 * rep.ceiling + 1e-3
        j = rep.to_json()
        assert j["estimates"] == list(rep.estimates)

    def test_two_sector_pair_reaches_doubled_ceiling(self):
        rep = check_lemma_properties(analyze(load_ensemble(DATA / "blind_two_sectors.json")), [0.0], FAST)
        assert abs(rep.estimates[0] - rep.ceiling) <= 1e-12
        assert abs(rep.pair_estimate_at_zero - 2 * rep.ceiling) <= 1e-9
        assert rep.ceiling_at_zero_ok and rep.subadditive_ok

    @pytest.mark.parametrize("m", [4, 5])
    def test_pair_search_walks_once_its_components_outnumber_w(self, m, monkeypatch):
        # m orthogonal blind states: the pair has m^2 components, and the
        # witness takes y mod |W| = 16 at the default env_cap. At m = 4
        # the search ends on the witness, its second start, at the
        # ceiling 2 S(CY); at m = 5 the witness extracts 3.9239 of
        # 4.6439 bits and the search walks, so subadditive_ok tests the
        # optimiser there
        searches = []
        monkeypatch.setattr(iepsilon, "_search", lambda *a, real=iepsilon._search: searches.append(real(*a)) or searches[-1])
        rep = check_lemma_properties(analyze(make_blind(np.eye(m), np.full(m, 1 / m))), [0.0], IsometrySearchConfig())
        pair = searches[-1]
        assert pair.value == rep.pair_estimate_at_zero and pair.env_dim == 16
        if m == 4:
            assert pair.evaluations == 2 and abs(pair.value - 2 * rep.ceiling) <= 1e-9
        else:
            assert abs(pair.restart_values[1] - 3.9238561897747255) <= 1e-9
            assert pair.evaluations > len(pair.restart_values)
            assert pair.value < 2 * rep.ceiling - 0.5 and rep.subadditive_ok

    def test_triple_report(self):
        rep = check_lemma_properties(analyze(sideinfo_triple()), [0.0, 0.1], FAST)
        assert rep.floor_ok
        assert rep.ceiling_at_zero_ok
        assert rep.continuity_gap >= 0.0


def assert_same_estimate(got, want):
    assert (got.value, got.fidelity, got.restart_values, got.evaluations, got.fallback_identity) == (
        want.value, want.fidelity, want.restart_values, want.evaluations, want.fallback_identity)
    assert np.array_equal(got.isometry, want.isometry)


def file_target(name):
    return _target(analyze(load_ensemble(DATA / f"{name}.json")))


class TestLockstep:
    """The lockstep search against the one-walk-at-a-time search it
    replaced (tests/dense_oracle.py): the same estimate to the bit."""

    def test_stacked_kernel_and_retraction_equal_their_slices(self):
        rng = np.random.default_rng(19)
        for da, dc, nx in KERNEL_DIMS:
            e = random_source(rng, da, dc, nx)
            d_in = da * dc
            probs, phis = e.overlaps.probs, e.overlaps.joint
            for dw in sorted({2, d_in**2, 16}):
                for nb in range(1, 6):
                    v = np.stack([rand_isometry(rng, dw * d_in, d_in) for _ in range(nb)])
                    v[nb // 2] = identity_isometry(d_in, dw)
                    stacked = unitary_objective(v, phis, probs, da, dc, dw)
                    m = v + 0.3 * np.stack([rand_isometry(rng, dw * d_in, d_in) for _ in range(nb)])
                    q = _retract(m)
                    for i in range(nb):
                        case = (da, dc, nx, dw, nb, i)
                        single = dense_oracle.single_unitary_objective(v[i], phis, probs, da, dc, dw)
                        alone = unitary_objective(v[i:i + 1], phis, probs, da, dc, dw)
                        for k in range(4):
                            assert np.array_equal(stacked[k][i], single[k]), case
                            assert np.array_equal(stacked[k][i], alone[k][0]), case
                        assert np.array_equal(q[i], dense_oracle.single_retract(m[i])), case
                        assert np.array_equal(q[i], _retract(m[i:i + 1])[0]), case

    @pytest.mark.parametrize("name", ["blind_pair", "blind_two_sectors", "sideinfo_triple", "visible_pair"])
    def test_data_files_equal_sequential_search(self, name):
        t = file_target(name)
        for restarts, seed in ((1, 0), (4, 0), (6, 3)):
            cfg = IsometrySearchConfig(restarts=restarts, seed=seed)
            warm = None
            for eps in (0.0, 0.05, 0.1, 0.2, 1.0):
                got = _search(t, eps, cfg, warm)
                want = dense_oracle.sequential_search(t, eps, cfg, () if warm is None else (warm,))
                assert_same_estimate(got, want)
                warm = got.isometry

    @settings(max_examples=80)
    @given(st.one_of(random_sources(), multi_sector_sources(), sources()),
           st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0]), st.integers(1, 6), st.integers(0, 2**16),
           st.sampled_from([0, 3, 30, 200]), st.sampled_from([1, 2, 4]))
    def test_equals_sequential_search(self, e, eps, restarts, seed, max_iters, env_cap):
        t = _target(analyze(e))
        cfg = IsometrySearchConfig(restarts=restarts, seed=seed, max_iters=max_iters, env_cap=env_cap)
        assert_same_estimate(_search(t, eps, cfg), dense_oracle.sequential_search(t, eps, cfg))

    def test_start_on_the_ceiling_ends_the_scoring(self):
        # at eps = 1 every start is feasible; a ceiling at the value of
        # start k stops the scoring there, before any walk
        t = file_target("sideinfo_triple")
        cfg = IsometrySearchConfig(restarts=6)
        values = dense_oracle.sequential_search(t, 1.0, replace(cfg, max_iters=0)).restart_values
        k = next(k for k in range(1, len(values) - 1) if values[k] > max(values[:k]) + 1e-6)
        lowered = replace(t, h_x=values[k] + FEASIBILITY_SLACK / 2)
        got = _search(lowered, 1.0, cfg)
        assert got.evaluations == len(got.restart_values) == k + 1
        assert_same_estimate(got, dense_oracle.sequential_search(lowered, 1.0, cfg))

    def test_walks_end_as_if_run_one_after_another(self, monkeypatch):
        # Record every walk's candidates with no ceiling in reach, then
        # lower the ceiling so that a later walk reaches it in an earlier
        # round than the first walk, in start order, that reaches it: the
        # later walk's result must not count.
        t, eps = file_target("sideinfo_triple"), 0.1
        cfg = IsometrySearchConfig(restarts=6)
        log = {}
        walk = iepsilon._walk

        def recorded(r, v, cur, config, keep):
            log[r] = []

            def logged(r, v, mi, fid):
                log[r].append((mi, fid))
                return keep(r, v, mi, fid)

            return walk(r, v, cur, config, logged)

        with monkeypatch.context() as m:
            m.setattr(iepsilon, "_walk", recorded)
            _search(replace(t, h_x=np.inf), eps, cfg)
        start_top = dense_oracle.sequential_search(t, eps, replace(cfg, max_iters=0)).restart_values[0]
        need = 1.0 - eps

        def hit_rounds(ceiling):
            """The round in which each walk would reach the ceiling."""
            hits = {}
            for r, seen in log.items():
                for j, (mi, fid) in enumerate(seen):
                    if fid >= need - FEASIBILITY_SLACK and mi >= ceiling - FEASIBILITY_SLACK:
                        hits[r] = j + 1
                        break
            return hits

        ceilings = []
        for ceiling in sorted({mi for seen in log.values() for mi, _ in seen}):
            hits = hit_rounds(ceiling)
            if ceiling - FEASIBILITY_SLACK > start_top and hits and min(hits) > 0 and any(
                hits[r] < hits[min(hits)] for r in hits if r > min(hits)
            ):
                ceilings.append(ceiling)
        assert len(ceilings) >= 3
        for ceiling in (ceilings[0], ceilings[len(ceilings) // 2], ceilings[-1], np.inf):
            lowered = replace(t, h_x=ceiling)
            assert_same_estimate(_search(lowered, eps, cfg), dense_oracle.sequential_search(lowered, eps, cfg))

    @pytest.mark.parametrize("budget", [1, 160])
    def test_narrower_runs_change_no_bit(self, monkeypatch, budget):
        # budget 1 scores and retracts one isometry per call; 160 cuts the
        # blind pair's 31 walks (16 entries per isometry) into runs of 10
        e = blind_pair()
        cfg = IsometrySearchConfig(restarts=30, max_iters=20)
        want = estimate_grid(analyze(e), [0.0, 0.1, 0.3], cfg)
        monkeypatch.setattr(iepsilon, "STACK_ENTRIES", budget)
        for got, ref in zip(estimate_grid(analyze(e), [0.0, 0.1, 0.3], cfg), want):
            assert_same_estimate(got, ref)

    def test_stacks_stay_within_the_budget_at_most_restarts(self, monkeypatch, capsys):
        # 1000 starts on a source whose walks would stack 256000 entries
        # in one round: every stacked array (the kernel's inputs, the
        # Gram matrices it diagonalises, the QR inputs) stays in budget
        sizes = {"kernel": [], "eigh": [], "qr": []}
        kernel, eigh, qr = iepsilon.unitary_objective, np.linalg.eigh, np.linalg.qr

        def kernel_sizes(v, phis, *args):
            sizes["kernel"].append((len(v), v.shape[0] * max(phis.shape) * v.shape[1]))
            return kernel(v, phis, *args)

        def record(name, fn):
            def wrapped(a, *args, **kwargs):
                sizes[name].append(a.size)
                return fn(a, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(iepsilon, "unitary_objective", kernel_sizes)
        monkeypatch.setattr(np.linalg, "eigh", record("eigh", eigh))
        monkeypatch.setattr(np.linalg, "qr", record("qr", qr))
        argv = ["iepsilon", str(DATA / "sideinfo_triple.json"), "--eps", "0.1", "--restarts", "1000",
                "--max-iters", "2"]
        assert cli.main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["estimates"][0]["restart_values"]) == 1000
        widths = [b for b, _ in sizes["kernel"]]
        assert max(widths) == STACK_ENTRIES // (4 * 64) < 1000  # a round was cut into runs
        assert max(n for _, n in sizes["kernel"]) <= STACK_ENTRIES
        assert max(sizes["eigh"]) <= STACK_ENTRIES
        assert max(sizes["qr"]) <= STACK_ENTRIES


GOLDENS = json.loads((Path(__file__).parent / "iepsilon_goldens.json").read_text())


def hexed(obj):
    """obj with every float as float.hex, so a comparison is bit for bit."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: hexed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [hexed(v) for v in obj]
    return obj


class TestGoldenReports:
    """tests/iepsilon_goldens.json holds the iepsilon report of each data
    file (less its input path) at --eps 0,0.05,0.1,0.2, plain and with
    --check-lemma, every float as float.hex, as recorded before the
    walks ran in lockstep."""

    @pytest.mark.parametrize("mode", ["plain", "check_lemma"])
    @pytest.mark.parametrize("name", sorted(GOLDENS))
    def test_report_keeps_its_bits(self, name, mode, capsys):
        flags = ["--check-lemma"] if mode == "check_lemma" else []
        assert cli.main(["iepsilon", str(DATA / f"{name}.json"), "--eps", "0,0.05,0.1,0.2", *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["input"]
        assert hexed(report) == GOLDENS[name][mode]

    @pytest.mark.parametrize("mode", ["plain", "check_lemma"])
    def test_zero_probability_items_change_no_bit(self, mode, tmp_path, capsys):
        # a p = 0 item inserted at index 1 and a p = -1e-12 item appended,
        # each overlapping every signal of sideinfo_triple
        e = load_ensemble(DATA / "sideinfo_triple.json")
        padded = Ensemble([e.labels[0], "pad0", *e.labels[1:], "pad1"], [e.probs[0], 0.0, *e.probs[1:], -1e-12],
                          [e.psi[0], PLUS, *e.psi[1:], [1, 0]], [e.sigma[0], [1, 0], *e.sigma[1:], PLUS])
        save_ensemble(padded, tmp_path / "padded.json")
        flags = ["--check-lemma"] if mode == "check_lemma" else []
        reports = []
        for path in (DATA / "sideinfo_triple.json", tmp_path / "padded.json"):
            assert cli.main(["iepsilon", str(path), "--eps", "0,0.05,0.1", *flags]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["input"]
            reports.append(hexed(report))
        assert reports[0] == reports[1]
