"""Property tests of the source analysis on random sources.

The sources mix blind, visible and general side information, include
zero-probability items, and split A into sectors whose signals leak into
the other sectors far below the overlap tolerance, so that components
are separated by small but nonzero cross-component overlaps.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense_oracle
from eacomp import decomposition
from eacomp.decomposition import DEFAULT_OVERLAP_TOL, irreducible_components
from eacomp.ensemble import Ensemble, tensor_power
from eacomp.rates import analyze, optimal_rates
from eacomp.region import eq_region
from eacomp.schumacher import fidelity_curve

TOL = 1e-6
LEAK = 1e-9


def unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def sources(draw):
    kind = draw(st.sampled_from(["blind", "same_sigma", "visible", "general"]))
    sectors = draw(st.integers(1, 3))
    sector_dim = draw(st.integers(1, 2))
    n = draw(st.integers(2, 6))
    # signals drawn from |0>, |1>, |+> of their sector overlap in chains
    # (|0> - |+> - |1>) rather than all pairwise
    chained = draw(st.booleans())
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    probs = rng.dirichlet(np.ones(n))
    probs[np.array(zero)] = 0.0
    if not probs.any():
        probs[0] = 1.0
    probs /= probs.sum()

    dim_a = sectors * sector_dim
    dim_c = {"blind": 1, "same_sigma": 2, "visible": n, "general": draw(st.integers(1, 3))}[kind]
    shared_sigma = unit(rng, dim_c)
    psis, sigmas = [], []
    for x in range(n):
        s = int(rng.integers(sectors))
        psi = LEAK * unit(rng, dim_a)
        if chained:
            part = np.vstack([np.eye(sector_dim), np.ones(sector_dim)])[rng.integers(sector_dim + 1)]
            part = np.exp(2j * np.pi * rng.random()) * part / np.linalg.norm(part)
        else:
            part = unit(rng, sector_dim)
        psi[s * sector_dim:(s + 1) * sector_dim] += part
        if kind == "visible":
            sigma = np.eye(n)[x]
        elif kind == "general":
            sigma = unit(rng, dim_c)
        else:
            sigma = np.exp(2j * np.pi * rng.random()) * shared_sigma
        psis.append(psi / np.linalg.norm(psi))
        sigmas.append(sigma)
    return Ensemble([f"s{x}" for x in range(n)], probs, psis, sigmas)


def label_sets(a):
    return [set(c.labels) for c in a.decomposition.components]


@given(sources())
def test_profile_matches_dense_oracle(e):
    a = analyze(e, TOL)
    assert label_sets(a) == dense_oracle.components(e, TOL)
    want = dense_oracle.dense_profile(e, a.decomposition)
    p = a.profile
    got = {"S_A": p.s_a, "S_Y": p.s_y, "S_CY": p.s_cy, "S_ACY": p.s_acy,
           "S_A_given_CY": p.s_a_given_cy}
    for name, value in got.items():
        assert value == pytest.approx(want[name], abs=1e-10), name
    assert p.s_acy_direct == pytest.approx(want["S_ACY"], abs=1e-10)


@given(sources())
def test_component_checks_match_their_graph_oracles(e):
    # the decomposition, merged, split, with y off 0..k-1 and with a
    # component over the zero-probability labels
    for tol in (DEFAULT_OVERLAP_TOL, TOL, 0.5):
        for d in dense_oracle.mutated(e, irreducible_components(e, tol)):
            assert dense_oracle.outcomes(decomposition, e, d) == dense_oracle.outcomes(dense_oracle, e, d)


@given(sources())
def test_partition_matches_the_dense_graph(e):
    # each part's items ascend, so each weight sums in the oracle's order
    for tol in (0.0, DEFAULT_OVERLAP_TOL, TOL, 0.5):
        want = dense_oracle.irreducible_components(e, tol)
        for size in (2, decomposition.EDGE_BLOCK):
            with mock.patch.object(decomposition, "EDGE_BLOCK", size):
                got = irreducible_components(Ensemble(e.labels, e.probs, e.psi, e.sigma), tol)
            assert got == want
            assert [c.weight.hex() for c in got.components] == [c.weight.hex() for c in want.components]


@given(sources())
def test_support_source_analyses_as_its_source(e):
    # the partition and the profile read a source only through e.overlaps,
    # the source of its positive rows
    for tol in (0.0, DEFAULT_OVERLAP_TOL, TOL, 0.5):
        got, want = irreducible_components(e, tol), irreducible_components(e.overlaps, tol)
        assert got == want
        assert [c.weight.hex() for c in got.components] == [c.weight.hex() for c in want.components]
    assert analyze(e).profile == analyze(e.overlaps).profile


@given(sources())
def test_visibility_matches_the_gram_read(e):
    for tol in (0.0, DEFAULT_OVERLAP_TOL, TOL, 0.5):
        assert e.is_visible(tol) == dense_oracle.is_visible(e, tol)


@given(sources())
def test_single_letter_additivity(e):
    # two independent copies: every overlap of a pair is a product of two,
    # so the components of the pair are the pairs of components, and Q, E
    # and S(Y) double
    one, two = analyze(e, TOL), analyze(tensor_power(e, 2), TOL)
    assert two.decomposition.size == one.decomposition.size ** 2
    assert two.profile.s_y == pytest.approx(2 * one.profile.s_y, abs=1e-9)
    r1, r2 = optimal_rates(one), optimal_rates(two)
    assert r2.q == pytest.approx(2 * r1.q, abs=1e-9)
    assert r2.e == pytest.approx(2 * r1.e, abs=1e-9)


def moved(e, rng, how):
    """e with its items permuted, global phases on psi_x and sigma_x, or
    U_A (x) U_C applied to every signal."""
    order = rng.permutation(e.size) if how == "permute" else range(e.size)
    u_a = haar_unitary(rng, e.dim_a) if how == "unitary" else np.eye(e.dim_a)
    u_c = haar_unitary(rng, e.dim_c) if how == "unitary" else np.eye(e.dim_c)
    psi, sigma = [], []
    for i in order:
        ph_a, ph_c = np.exp(2j * np.pi * rng.random(2)) if how == "phase" else (1.0, 1.0)
        psi.append(ph_a * (u_a @ e.psi[i]))
        sigma.append(ph_c * (u_c @ e.sigma[i]))
    return Ensemble([e.labels[i] for i in order], e.probs[list(order)], psi, sigma)


@pytest.mark.parametrize("how", ["permute", "phase", "unitary"])
@given(e=sources(), seed=st.integers(0, 2**32 - 1))
def test_invariances(how, e, seed):
    a = analyze(e, TOL)
    b = analyze(moved(e, np.random.default_rng(seed), how), TOL)
    for name in ("s_a", "s_y", "s_cy", "s_acy"):
        assert getattr(b.profile, name) == pytest.approx(getattr(a.profile, name), abs=1e-9), name
    assert (b.blind, b.visible) == (a.blind, a.visible)
    assert label_sets(b) == label_sets(a)


@given(sources())
def test_rate_bounds(e):
    a = analyze(e, TOL)
    r = optimal_rates(a)
    assert -1e-9 <= r.q <= a.profile.s_a + 1e-9
    assert r.e >= -1e-9


@given(sources())
def test_assisted_optimum_below_unassisted_cost(e):
    spec = eq_region(analyze(e, TOL))
    assert spec.q_min <= spec.sum_min + 1e-12


@given(e=sources(), rate=st.floats(0.0, 3.0))
def test_simulator_tables_match_the_eigenvalues(e, rate):
    # the blind source on e's signals; each point has passed the kernel's
    # check of its tables against the code's eigenvalue weights
    blind = Ensemble(e.labels, e.probs, e.psi, np.ones((e.size, 1)))
    for _, f in fidelity_curve(blind, range(1, 6), rate).points:
        assert 0.0 <= f <= 1.0


@given(sources())
def test_entropy_bounds_hold(e):
    # the inequalities entropy_profile checks at 1e-6, here at 1e-9
    p = analyze(e, TOL).profile
    atol = 1e-9
    assert abs(p.s_a - p.s_cy) <= p.s_acy + atol
    assert p.s_acy <= p.s_a + p.s_cy + atol
    assert p.s_y <= p.s_cy + atol and p.s_cy <= p.s_y + np.log2(e.dim_c) + atol
    assert p.s_a <= min(p.h_x, np.log2(e.dim_a)) + atol
