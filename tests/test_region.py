import numpy as np
import pytest

from eacomp.ensemble import make_blind, make_visible
from eacomp.errors import EacompError
from eacomp.rates import analyze, optimal_rates
from eacomp.region import (
    CONTAINS_ATOL,
    RegionSpec,
    boundary_polyline,
    ce_region,
    eq_region,
    polyline_csv,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def visible_pair():
    return make_visible([[1, 0], PLUS], [0.5, 0.5])


def orthogonal_pair():
    return make_blind([[1, 0], [0, 1]], [0.5, 0.5])


def in_eq(spec, ee, q, tol=CONTAINS_ATOL):
    """(E, Q) at E >= 0 meets the EQ half-planes Q >= q_min and Q + E >= sum_min."""
    return ee >= -tol and q >= spec.q_min - tol and q + ee >= spec.sum_min - tol


def in_ce(spec, c, ee, tol=CONTAINS_ATOL):
    """(C, E) meets the CE half-planes C >= c_min and E >= e_min."""
    return c >= spec.c_min - tol and ee >= spec.e_min - tol


class TestSpecs:
    def test_eq_from_ensemble_and_profile(self):
        a = analyze(visible_pair())
        spec = eq_region(a)
        assert spec.sum_min == a.profile.s_a
        assert abs(spec.q_min - optimal_rates(a).q) < 1e-12

    def test_eq_corner(self):
        spec = RegionSpec(kind="EQ", q_min=0.3, sum_min=1.0)
        assert spec.corner == (0.7, 0.3)

    def test_invalid(self):
        with pytest.raises(EacompError):
            RegionSpec(kind="EQ", q_min=1.0, sum_min=0.5)
        with pytest.raises(EacompError):
            RegionSpec(kind="EQ", q_min=1.0)
        with pytest.raises(EacompError):
            RegionSpec(kind="CE", c_min=1.0)
        with pytest.raises(EacompError):
            RegionSpec(kind="XX", q_min=0.1, sum_min=0.2)

    def test_ce(self):
        spec = ce_region(analyze(orthogonal_pair()))
        # S_A = 1, S_Y = 1: corner at C = 1, E = 0
        assert abs(spec.c_min - 1.0) < 1e-12
        assert abs(spec.e_min - 0.0) < 1e-12
        assert RegionSpec(kind="CE", c_min=1.2, e_min=0.4).corner == (1.2, 0.4)

    def test_to_json(self):
        j = eq_region(analyze(visible_pair())).to_json()
        assert j["kind"] == "EQ" and "q_min" in j and "sum_min" in j
        j = ce_region(analyze(orthogonal_pair())).to_json()
        assert j["kind"] == "CE" and "c_min" in j and "e_min" in j


class TestPolyline:
    def test_eq_shape(self):
        spec = RegionSpec(kind="EQ", q_min=0.3, sum_min=1.0)
        pts = boundary_polyline(spec, samples=16)
        es = [p[0] for p in pts]
        assert es == sorted(es)
        assert pts[0] == (0.0, 1.0)
        corner_e = spec.sum_min - spec.q_min
        assert (corner_e, spec.q_min) in pts  # corner vertex inserted exactly
        assert pts[-1] == (1.0, 0.3)

    def test_every_vertex_on_boundary(self):
        spec = eq_region(analyze(visible_pair()))
        for ee, q in boundary_polyline(spec, samples=33):
            assert in_eq(spec, ee, q)
            assert not in_eq(spec, ee, q - 1e-3)

    def test_ce_every_vertex_on_boundary(self):
        spec = ce_region(analyze(orthogonal_pair()))
        pts = boundary_polyline(spec, samples=17)
        assert pts[0][0] == spec.c_min
        for c, ee in pts:
            assert in_ce(spec, c, ee)
            assert not in_ce(spec, c, ee - 1e-3)

    def test_custom_range(self):
        spec = RegionSpec(kind="EQ", q_min=0.25, sum_min=1.0)
        pts = boundary_polyline(spec, lo=0.5, hi=2.0, samples=8)
        assert pts[0][0] == 0.5 and pts[-1][0] == 2.0
        assert all(q >= 0.25 for _, q in pts)
        assert boundary_polyline(spec, lo=3.0, hi=2.0) == []

    def test_degenerate_region(self):
        # irreducible blind source: corner sits at E = 0
        spec = RegionSpec(kind="EQ", q_min=0.6, sum_min=0.6)
        pts = boundary_polyline(spec, samples=4)
        assert pts[0] == (0.0, 0.6)
        assert all(q == 0.6 for _, q in pts)

    def test_samples_guard(self):
        spec = RegionSpec(kind="EQ", q_min=0.3, sum_min=1.0)
        with pytest.raises(ValueError):
            boundary_polyline(spec, samples=1)


class TestCsv:
    def test_format(self):
        text = polyline_csv([(0.0, 1.0), (0.7, 0.3)], ("E", "Q"))
        lines = text.strip().split("\n")
        assert lines[0] == "E,Q"
        assert lines[1] == "0.000000,1.000000"
        assert lines[2] == "0.700000,0.300000"
        assert text.endswith("\n")
