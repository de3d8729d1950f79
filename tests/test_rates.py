import inspect
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import eacomp.rates as rates_mod
import exact_oracle
from dense_oracle import dense_profile, density_s_a, gram_matrix
from eacomp.decomposition import Component, irreducible_components, overlaps_across_components
from eacomp.ensemble import Ensemble, apply_product_unitary, cnot_unitary, load_ensemble, make_blind, make_visible
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
from test_ensemble import traced_peak
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


    def test_profile_forms_no_n_by_n_matrix(self):
        # N = 1024 blind signals on A = C^128: 32 components of 32 states,
        # each in its own 2-dim sector. Once the partition is cached, the
        # profile's peak stays below one N x N complex matrix (16 MB):
        # each component's block is formed from its own rows
        n, k = 1024, 32
        rng = np.random.default_rng(1407)
        psi = np.zeros((n, 128), dtype=complex)
        for y in range(n // k):
            psi[y * k:(y + 1) * k, 2 * y:2 * y + 2] = rng.standard_normal((k, 2, 2)) @ [1, 1j]
        e = make_blind(psi / np.linalg.norm(psi, axis=1, keepdims=True), np.full(n, 1 / n))
        d = irreducible_components(e)
        assert d.size == n // k
        with traced_peak() as peak:
            entropy_profile(e, d)
        assert peak[0] < n * n * 16

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


def _reference_cases() -> list[tuple[Path, bool]]:
    """(source, with --apply-cnot) over the data files and tests/sources,
    with the CNOT wherever rates accepts it."""
    cases = []
    for path in sorted([*DATA.glob("*.json"), *(DATA.parent / "tests" / "sources").glob("*.json")]):
        cases.append((path, False))
        try:
            apply_product_unitary(load_ensemble(path), cnot_unitary())
            cases.append((path, True))
        except EacompError:
            pass
    return cases


class TestExactReference:
    """The reported S_A, S_CY, S_ACY and S_ACY_direct against the 40-digit
    reference of tests/exact_oracle.py: within REFERENCE_ULPS units in the
    last place of the reference, or within REFERENCE_FLOOR bits of a
    reference that small (near_threshold_1e-3 reports S_CY = 0.0 against
    3.3e-41). The largest errors measured: S_CY 4.5 ulps
    (rotated_sideinfo), S_ACY 2.14, S_ACY_direct 1.42, S_A 1.23."""

    REFERENCE_ULPS = 5
    REFERENCE_FLOOR = 1e-30

    @pytest.mark.parametrize("path, cnot", _reference_cases(),
                             ids=lambda v: v.name if isinstance(v, Path) else ("cnot" if v else "plain"))
    def test_profile_within_ulps_of_the_reference(self, path, cnot):
        e = load_ensemble(path)
        if cnot:
            e = apply_product_unitary(e, cnot_unitary())
        a = analyze(e)
        reported = a.profile.to_json()
        for name, ref in exact_oracle.profile(e, a.decomposition.support_ys(e)).items():
            err = exact_oracle.ulps(reported[name], ref)
            assert err <= self.REFERENCE_ULPS or abs(reported[name] - float(ref)) <= self.REFERENCE_FLOOR, (name, err)


def derived_rates(a) -> dict[str, float]:
    """Every value exact_oracle.derived references that the package
    reports for the analysis a, as the library returns it (unclamped)."""
    p, opt, eq = a.profile, optimal_rates(a), eq_region(a)
    out = {"S_A": p.s_a, "S_CY": p.s_cy, "S_ACY": p.s_acy, "S_ACY_direct": p.s_acy_direct, "S_Y": p.s_y,
           "H_X": p.h_x, "S_A_given_CY": p.s_a_given_cy, "optimal_Q": opt.q, "optimal_E": opt.e,
           "q_min": eq.q_min, "sum_min": eq.sum_min, "floor_S_C": i_zero_bounds(a)[0]}
    if a.blind:
        blind, corner = blind_rates(a), classical_entanglement_corner(a)
        out |= {"blind_Q": blind.q, "blind_E": blind.e, "corner_C": corner.c, "corner_E": corner.e}
    if a.visible:
        visible = visible_rates(a)
        out |= {"visible_Q": visible.q, "visible_E": visible.e}
    return out


class TestExactDerivedRates:
    """Every derived rate against the 40-digit reference of
    tests/exact_oracle.py, within SCALE_ULPS units in the last place of
    the source's scale max(|S(A)|, |S(ACY)|): a value's own ulps mean
    nothing near zero, as for E* of one component. The largest errors
    measured: the CE corner's C 2.82 (rotated_sectors with the CNOT),
    S_CY 2.25, S_ACY 2.14, S_ACY_direct 1.42, the blind Q 1.41,
    S_A_given_CY 1.26, S_A 1.23, H_X 1.09, Q* 1.08; every other value
    within 1.05."""

    SCALE_ULPS = 4

    @pytest.mark.parametrize("path, cnot", _reference_cases(),
                             ids=lambda v: v.name if isinstance(v, Path) else ("cnot" if v else "plain"))
    def test_rates_within_ulps_of_the_source_scale(self, path, cnot):
        e = load_ensemble(path)
        if cnot:
            e = apply_product_unitary(e, cnot_unitary())
        a = analyze(e)
        reference = exact_oracle.derived(e, a.decomposition.support_ys(e))
        scale = max(abs(reference["S_A"]), abs(reference["S_ACY"]))
        reported = derived_rates(a)
        assert {"optimal_Q", "floor_S_C"} <= reported.keys() <= reference.keys()
        for name, value in reported.items():
            err = exact_oracle.ulps(value, reference[name], scale)
            assert err <= self.SCALE_ULPS, (name, err)


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
