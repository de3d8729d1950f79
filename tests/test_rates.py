import inspect
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import eacomp.rates as rates_mod
from dense_oracle import dense_profile, density_s_a, gram_matrix
from eacomp.decomposition import Component, irreducible_components, overlaps_across_components
from eacomp.ensemble import Ensemble, load_ensemble, make_blind, make_visible
from eacomp.errors import ConsistencyError, EacompError
from eacomp.iepsilon import check_lemma_properties, estimate_grid, estimate_i_epsilon, i_zero_bounds
from eacomp.rates import (
    RatePoint,
    analyze,
    blind_rates,
    classical_entanglement_corner,
    entropy_profile,
    optimal_rates,
    visible_rates,
)
from eacomp.region import ce_region, eq_region
from test_properties import sources

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
DATA = Path(__file__).resolve().parent.parent / "data"

# frozen reference values from a standalone 2x2/4x4 eigendecomposition
# oracle, computed before this module existed
TRIPLE_ORACLE = {
    0.05: (0.992774453987808, 0.967014964570562, 0.607885137036593),
    0.01: (0.999711441752810, 0.994580661087101, 0.534782930345420),
    0.005: (0.999927864045661, 0.997383392250042, 0.520030340519403),
    0.001: (0.999997114607995, 0.999494203613431, 0.505194532665831),
}
BLIND_PAIR_S_A = 0.6008760366928562  # binary entropy of (2 + sqrt 2)/4


def sideinfo_triple(t):
    return Ensemble(("0", "1", "2"), [0.5 - t, 0.5 - t, 2 * t],
                    [[1, 0], [0, 1], PLUS], [[1, 0], [1, 0], PLUS])


def rand_ensemble(rng, dim_a=None, dim_c=None, n_items=None, blind=False):
    dim_a = dim_a or int(rng.integers(2, 4))
    dim_c = 1 if blind else (dim_c or int(rng.integers(1, 4)))
    n_items = n_items or int(rng.integers(2, 7))
    probs = rng.dirichlet(np.ones(n_items))
    psis, sigmas = [], []
    for i in range(n_items):
        psi = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
        sig = rng.standard_normal(dim_c) + 1j * rng.standard_normal(dim_c)
        psis.append(psi / np.linalg.norm(psi))
        sigmas.append(sig / np.linalg.norm(sig))
    return Ensemble([str(i) for i in range(n_items)], probs, psis, sigmas)


class TestEntropyProfile:
    def test_triple_values(self):
        p = analyze(sideinfo_triple(0.05)).profile
        assert abs(p.s_a - TRIPLE_ORACLE[0.05][0]) < 1e-12
        assert p.num_components == 1
        assert p.s_y == 0.0
        assert abs(p.h_x - (-0.9 * math.log2(0.45) - 0.1 * math.log2(0.1))) < 1e-12

    def test_dual_paths_agree(self):
        rng = np.random.default_rng(2101)
        for _ in range(20):
            p = analyze(rand_ensemble(rng)).profile
            assert abs(p.s_acy - p.s_acy_direct) <= 1e-8

    def test_identity_i_a_cy(self):
        p = analyze(sideinfo_triple(0.01)).profile
        assert abs(p.i_a_cy - (p.s_a - p.s_a_given_cy)) < 1e-15
        assert p.i_a_cy >= -1e-9

    def test_blind_profile(self):
        e = make_blind([[1, 0], PLUS], [0.5, 0.5])
        p = analyze(e).profile
        assert abs(p.s_a - BLIND_PAIR_S_A) < 1e-12
        assert p.s_cy == 0.0 and p.s_y == 0.0
        assert abs(p.s_acy - p.s_a) < 1e-12

    def test_to_json_clamps_tiny(self):
        e = make_blind([[1, 0], PLUS], [0.5, 0.5])
        j = analyze(e).profile.to_json()
        assert j["S_Y"] == 0.0 and j["S_CY"] == 0.0
        assert j["num_components"] == 1


class TestOptimalRates:
    def test_triple_oracle(self):
        for t, (s_a, q, _) in TRIPLE_ORACLE.items():
            a = analyze(sideinfo_triple(t))
            r = optimal_rates(a)
            assert abs(r.q - q) < 1e-12, t
            assert abs(r.e - 0.5 * a.profile.i_a_cy) < 1e-15

    def test_q_plus_e_is_s_a(self):
        # the corner always satisfies Q + E = S(A)
        rng = np.random.default_rng(321)
        for _ in range(20):
            a = analyze(rand_ensemble(rng))
            r = optimal_rates(a)
            assert abs((r.q + r.e) - a.profile.s_a) < 1e-9

    def test_assistance_never_hurts(self):
        rng = np.random.default_rng(322)
        for _ in range(20):
            a = analyze(rand_ensemble(rng))
            r = optimal_rates(a)
            assert r.q <= a.profile.s_a + 1e-9
            assert r.e >= -1e-9


class TestSpecializations:
    def test_blind_equals_general(self):
        rng = np.random.default_rng(323)
        for _ in range(10):
            a = analyze(rand_ensemble(rng, blind=True))
            r = blind_rates(a)
            g = optimal_rates(a)
            assert abs(r.q - g.q) < 1e-9 and abs(r.e - g.e) < 1e-9

    def test_blind_irreducible_no_advantage(self):
        e = make_blind([[1, 0], PLUS], [0.5, 0.5])
        r = blind_rates(analyze(e))
        assert abs(r.q - BLIND_PAIR_S_A) < 1e-12
        assert abs(r.e) < 1e-12

    def test_blind_rejects_side_information(self):
        with pytest.raises(EacompError):
            blind_rates(analyze(sideinfo_triple(0.05)))

    def test_visible(self):
        e = make_visible([[1, 0], PLUS], [0.5, 0.5])
        r = visible_rates(analyze(e))
        assert abs(r.q - BLIND_PAIR_S_A / 2) < 1e-12
        assert abs(r.e - BLIND_PAIR_S_A / 2) < 1e-12

    def test_visible_rejects_blind(self):
        with pytest.raises(EacompError):
            visible_rates(analyze(make_blind([[1, 0], PLUS], [0.5, 0.5])))

    def test_corner(self):
        e = make_blind([[1, 0], PLUS], [0.5, 0.5])
        c = classical_entanglement_corner(analyze(e))
        assert abs(c.c - 2 * BLIND_PAIR_S_A) < 1e-12
        assert abs(c.e - BLIND_PAIR_S_A) < 1e-12
        with pytest.raises(EacompError):
            classical_entanglement_corner(analyze(sideinfo_triple(0.05)))

    def test_reducible_blind_gains(self):
        # orthogonal pair: S_Y = 1, so entanglement buys half a qubit
        e = make_blind([[1, 0], [0, 1]], [0.5, 0.5])
        r = blind_rates(analyze(e))
        assert abs(r.q - 0.5) < 1e-12 and abs(r.e - 0.5) < 1e-12


class TestRatePointJson:
    def test_clamp(self):
        p = RatePoint(q=1e-13, e=-1e-13, c=2.0, note="x")
        j = p.to_json()
        assert j["Q"] == 0.0 and j["E"] == 0.0 and j["C"] == 2.0 and j["note"] == "x"

    def test_none_fields_omitted(self):
        assert set(RatePoint(q=1.0).to_json()) == {"Q"}

    def test_negative_q_refused(self):
        with pytest.raises(EacompError):
            RatePoint(q=-0.5)


def dense_acy_spectrum(e, d):
    """Spectrum of rho_ACY of the Y-extended source, assembled item by item."""
    ny = d.size
    dim = ny * e.dim_a * e.dim_c
    rho = np.zeros((dim, dim), dtype=complex)
    for i in e.support():
        tag = np.zeros(ny)
        tag[d.y_of(e.labels[i])] = 1.0
        v = np.kron(tag, np.kron(e.psi[i], e.sigma[i]))
        rho += e.probs[i] * np.outer(v, v.conj())
    return np.linalg.eigvalsh(rho)


def near_orthogonal_sectors(rng, leak):
    """Two sectors on A = C^4, spanned by {|0>,|1>} and {|2>,|3>}; the
    second leaks `leak` into the first, so cross-sector overlaps are
    nonzero but small."""
    n = int(rng.integers(2, 5))
    probs = rng.dirichlet(np.ones(2 * n))
    psis, sigmas = [], []
    for k in range(2 * n):
        psi = np.zeros(4, dtype=complex)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if k < n:
            psi[:2] = z
        else:
            psi[2:] = z / np.linalg.norm(z)
            psi[:2] = leak * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        sig = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psis.append(psi / np.linalg.norm(psi))
        sigmas.append(sig / np.linalg.norm(sig))
    return Ensemble([str(k) for k in range(2 * n)], probs, psis, sigmas)


def padded_desc(evs, n):
    out = np.zeros(n)
    out[: len(evs)] = np.sort(evs)[::-1]
    return out


class TestGramPath:
    def assert_same_spectrum(self, e, d):
        gram = np.linalg.eigvalsh(gram_matrix(e, d).entries)
        dense = dense_acy_spectrum(e, d)
        n = max(len(gram), len(dense))
        np.testing.assert_allclose(padded_desc(gram, n), padded_desc(dense, n), rtol=0, atol=1e-12)

    def test_matches_dense_on_random_sources(self):
        rng = np.random.default_rng(7301)
        for _ in range(30):
            e = rand_ensemble(rng)
            self.assert_same_spectrum(e, irreducible_components(e))

    def test_matches_dense_with_sub_tolerance_cross_overlaps(self):
        rng = np.random.default_rng(7302)
        tol = 1e-2
        for _ in range(20):
            e = near_orthogonal_sectors(rng, leak=2e-3)
            d = irreducible_components(e, tol)
            assert d.size == 2
            joints = np.stack([np.kron(psi, sig) for psi, sig in zip(e.psi, e.sigma)])
            cross = [
                abs(np.vdot(joints[i], joints[j]))
                for i in range(e.size)
                for j in range(e.size)
                if d.y_of(e.labels[i]) != d.y_of(e.labels[j])
            ]
            assert 0.0 < max(cross) <= tol
            self.assert_same_spectrum(e, d)
            # the [y(x) = y(y)] mask matters: without it the spectrum moves
            amp = np.sqrt(e.probs)
            unmasked = np.outer(amp, amp) * (joints.conj() @ joints.T)
            shift = np.sort(np.linalg.eigvalsh(unmasked)) - np.sort(
                np.linalg.eigvalsh(gram_matrix(e, d).entries)
            )
            assert np.max(np.abs(shift)) > 1e-9

    def test_zero_probability_items_dropped(self):
        e = make_blind([[1, 0], PLUS, [0, 1]], [0.5, 0.5, 0.0])
        d = irreducible_components(e)
        assert gram_matrix(e, d).entries.shape == (2, 2)
        self.assert_same_spectrum(e, d)


def sectors_source(rng, sizes, zero_probability=0):
    """One component per entry of sizes, with that many signals: component s
    lives in {|2s>, |2s+1>} of A = C^(2 len(sizes)), with generic qubit side
    information, so every pair inside it overlaps. zero_probability more
    signals get p = 0. Rotated by a random U_A (x) U_C."""
    dim_a = 2 * len(sizes)
    owners = [s for s, k in enumerate(sizes) for _ in range(k)]
    owners += [int(rng.integers(len(sizes))) for _ in range(zero_probability)]
    psi = np.zeros((len(owners), dim_a), dtype=complex)
    for i, s in enumerate(owners):
        psi[i, 2 * s:2 * s + 2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    sigma = rng.standard_normal((len(owners), 2)) + 1j * rng.standard_normal((len(owners), 2))
    probs = np.concatenate([rng.dirichlet(np.ones(sum(sizes))), np.zeros(zero_probability)])
    ua, uc = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
              for d in (dim_a, 2))
    psi = psi / np.linalg.norm(psi, axis=1, keepdims=True) @ ua.T
    sigma = sigma / np.linalg.norm(sigma, axis=1, keepdims=True) @ uc.T
    return Ensemble([f"{s}.{i}" for i, s in enumerate(owners)], probs, psi, sigma)


class TestComponentSpectra:
    def test_eigvalsh_sides_stay_per_component(self, monkeypatch):
        # 64 states: visible (k_y = 1) and one component (k = 64 > dA dC =
        # 16). No spectrum may be wider than max(dA, max_y min(k_y, dA dC)).
        rng = np.random.default_rng(1404)
        psi = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        sigma = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
        sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
        probs = rng.dirichlet(np.ones(64))
        labels = [str(i) for i in range(64)]
        sides = []

        def recorded(real):
            def call(m, *args, **kwargs):
                sides.append(m.shape[-1])
                return real(m, *args, **kwargs)
            return call

        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
        for e, bound in ((make_visible(psi, probs, labels), 4), (Ensemble(labels, probs, psi, sigma), 16)):
            sides.clear()
            d = irreducible_components(e)
            sizes = [len(c.labels) for c in d.components]
            assert bound == max(e.dim_a, max(min(k, e.dim_a * e.dim_c) for k in sizes))
            entropy_profile(e, d)
            assert sides and max(sides) <= bound, sides

    @pytest.mark.parametrize("sizes", [(1, 2, 3), (12, 13, 1), (2, 12, 5), (13, 3, 2), (1, 1, 1)])
    def test_direct_entropies_match_dense(self, sizes):
        # C has side 2 and A (x) C side 12: the components fall below, on
        # and above both, and the zero-probability signals leave the support
        rng = np.random.default_rng(1405 + sum(sizes))
        for trial in range(3):
            e = sectors_source(rng, sizes, zero_probability=trial)
            d = irreducible_components(e)
            assert sorted(len(c.labels) for c in d.components) == sorted(sizes)
            dense = dense_profile(e, d)
            s_cy, s_acy = rates_mod._direct_entropies(e.overlaps, rates_mod._groups(d.support_ys(e)))
            assert abs(s_cy - dense["S_CY"]) <= 1e-12
            assert abs(s_acy - dense["S_ACY"]) <= 1e-12


    def test_s_a_equals_the_density_route(self):
        # the support's size below, on and above dimA, and the data files
        rng = np.random.default_rng(1406)
        cases = [load_ensemble(p) for p in sorted(DATA.glob("*.json"))]
        for dim_a in (2, 3, 5):
            for n in (dim_a - 1, dim_a, dim_a + 1):
                cases += [rand_ensemble(rng, dim_a, int(rng.integers(1, 4)), n) for _ in range(20) if n > 1]
        for e in cases:
            assert analyze(e).profile.s_a == density_s_a(e)

    @given(sources())
    def test_s_a_equals_the_density_route_on_random_sources(self, e):
        assert analyze(e).profile.s_a == density_s_a(e)


class TestAnalyze:
    def test_bundles_one_profile(self):
        e = make_blind([[1, 0], [0, 1]], [0.5, 0.5])
        a = analyze(e)
        assert a.source is e and a.blind and not a.visible
        assert a.decomposition.size == 2
        assert a.profile == entropy_profile(e, a.decomposition)

    def test_only_analyze_takes_a_tolerance(self):
        # the tolerance fixes Y; every rate, region and bound reads it
        # from the one analysis
        for fn in (optimal_rates, blind_rates, visible_rates, classical_entanglement_corner,
                   eq_region, ce_region, i_zero_bounds, estimate_i_epsilon, estimate_grid,
                   check_lemma_properties, overlaps_across_components, entropy_profile):
            assert "tol" not in inspect.signature(fn).parameters, fn.__name__
        assert "tol" in inspect.signature(analyze).parameters

    def test_loose_analysis_keeps_its_tolerance(self):
        # at tol 2 the two signals of blind_pair are separate components:
        # S(A|CY) = 0 and Q = S(A)/2, where the default tolerance gives S(A)
        e = load_ensemble(DATA / "blind_pair.json")
        loose = analyze(e, 2.0)
        assert loose.decomposition.size == 2
        q = optimal_rates(loose).q
        assert abs(q - BLIND_PAIR_S_A / 2) < 1e-12
        assert eq_region(loose).q_min == q
        assert abs(optimal_rates(analyze(e)).q - BLIND_PAIR_S_A) < 1e-12


class TestConsistencyGuard:
    def test_block_vs_direct_disagreement_raises(self, monkeypatch):
        # poison the direct S(ACY) path only; the guard must notice. The
        # direct S(CY) comes from the same call and is left as it is.
        real = rates_mod._direct_entropies
        calls = {"n": 0}

        def crooked(ov, groups):
            s_cy, s_acy = real(ov, groups)
            calls["n"] += 1
            return s_cy, s_acy + 1e-3

        monkeypatch.setattr(rates_mod, "_direct_entropies", crooked)
        with pytest.raises(ConsistencyError, match=r"S\(ACY\)") as exc:
            analyze(sideinfo_triple(0.05)).profile
        assert "S(CY)" not in str(exc.value)
        assert calls["n"] == 1

    @staticmethod
    def mutate_first_component(monkeypatch, mutate):
        """Make the decomposition entropy_profile computes hand back its
        first component rewritten by mutate(component)."""
        real = rates_mod.irreducible_components

        def mutated(e, tol):
            d = real(e, tol)
            return replace(d, components=(mutate(d.components[0]),) + d.components[1:])

        monkeypatch.setattr(rates_mod, "irreducible_components", mutated)

    @pytest.mark.parametrize("source", ["two_sectors", "triple", "visible"])
    def test_wrong_component_weight_raises_both(self, monkeypatch, source):
        self.mutate_first_component(monkeypatch, lambda c: replace(c, weight=c.weight * 0.9))
        with pytest.raises(ConsistencyError) as exc:
            analyze(GUARD_SOURCES[source]()).profile
        assert "S(CY) disagrees" in str(exc.value) and "S(ACY) disagrees" in str(exc.value)

    @pytest.mark.parametrize("source", ["two_sectors", "triple", "visible"])
    def test_wrong_renormalisation_raises_both(self, monkeypatch, source):
        real = rates_mod._conditional

        def unnormalised(probs, ys, d):
            # the first component's conditional probabilities sum to 0.9, not 1
            cond = real(probs, ys, d)
            return np.where(ys == d.components[0].y, 0.9 * cond, cond)

        monkeypatch.setattr(rates_mod, "_conditional", unnormalised)
        with pytest.raises(ConsistencyError) as exc:
            analyze(GUARD_SOURCES[source]()).profile
        assert "S(CY) disagrees" in str(exc.value) and "S(ACY) disagrees" in str(exc.value)

    @staticmethod
    def two_sectors_file():
        e = load_ensemble(DATA / "blind_two_sectors.json")
        d = irreducible_components(e)
        assert [c.labels for c in d.components] == [("a0", "a1"), ("b0", "b1")]
        return e, d

    def test_merged_components_raise(self):
        # one component over both sectors: S(Y) would read 0 and Q 1.572
        e, d = self.two_sectors_file()
        merged = Component(0, e.labels, 1.0)
        with pytest.raises(ConsistencyError, match="y=0 covers 2 connected parts"):
            entropy_profile(e, decomposition=replace(d, components=(merged,)))

    def test_split_component_raises(self):
        e, d = self.two_sectors_file()
        a, b = d.components
        halves = (replace(a, labels=("a0",)), replace(b, y=1), replace(a, y=2, labels=("a1",)))
        with pytest.raises(ConsistencyError, match=r"'a0' \(y=0\) and 'a1' \(y=2\) overlap"):
            entropy_profile(e, decomposition=replace(d, components=halves))

    def test_unmutated_sources_pass(self):
        for make in GUARD_SOURCES.values():
            analyze(make()).profile

    @pytest.mark.parametrize("name, field, value, bound", [
        ("sideinfo_triple", "s_acy", 0.5, "|S(A) - S(CY)| <= S(ACY)"),
        ("sideinfo_triple", "s_acy", 1.3, "S(ACY) <= S(A) + S(CY)"),
        ("sideinfo_triple", "s_y", 0.3, "S(Y) <= S(CY)"),
        ("blind_pair", "s_cy", 0.1, "S(CY) <= S(Y) + log2 dC"),
        ("blind_two_sectors", "s_a", 1.99, "S(A) <= H(X)"),
        ("sideinfo_triple", "s_a", 1.2, "S(A) <= log2 dA"),
    ])
    def test_each_entropy_bound_fires(self, monkeypatch, name, field, value, bound):
        # one entropy of the profile falsified, so that this bound alone fails
        real = rates_mod.EntropyProfile
        monkeypatch.setattr(rates_mod, "EntropyProfile", lambda **kw: real(**{**kw, field: value}))
        with pytest.raises(ConsistencyError) as exc:
            analyze(load_ensemble(DATA / f"{name}.json")).profile
        assert str(exc.value).startswith(f"entropy bound {bound} fails: ")
        assert str(exc.value).count("entropy bound") == 1

    @pytest.mark.parametrize("name", ["blind_pair", "blind_two_sectors", "sideinfo_triple", "visible_pair"])
    def test_data_files_meet_the_entropy_bounds(self, name):
        e = load_ensemble(DATA / f"{name}.json")
        assert rates_mod._bound_faults(analyze(e).profile, e.dim_a, e.dim_c) == []


def two_sectors_with_side_information():
    # sectors {|0>,|1>} and {|2>,|3>} on A, random qubit side information
    rng = np.random.default_rng(3401)
    return near_orthogonal_sectors(rng, leak=0.0)


GUARD_SOURCES = {
    "two_sectors": two_sectors_with_side_information,
    "triple": lambda: sideinfo_triple(0.05),
    "visible": lambda: make_visible([[1, 0], PLUS, [0, 1]], [0.3, 0.4, 0.3]),
}
