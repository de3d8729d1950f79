"""Achievable rate regions and their boundary polylines.

The entanglement-assisted qubit/ebit region is the intersection of two
half-planes: Q >= q_min and Q + E >= sum_min, with q_min the assisted
optimum and sum_min = S(A) the unassisted cost. Its lower boundary is a
single corner where the sum constraint meets the floor.

The classical-channel region (blind sources) is the ray C >= c_min at
E = e_min; points below that ebit rate are not achievable, so the
boundary emitted here is the lower envelope only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EacompError
from .rates import Analysis, classical_entanglement_corner, optimal_rates

CONTAINS_ATOL = 1e-9
# CSV numbers of this magnitude or more are written in scientific notation:
# a double has no fractional digits left there, and a fixed-point field
# would run to hundreds of digits
FIXED_POINT_LIMIT = 1e15
# boundary_polyline holds its whole grid (a list of floats and a set of
# them) before it returns; 10**6 samples peak near 130 MB there
MAX_SAMPLES = 10**6
DEFAULT_SAMPLES = 64


@dataclass(frozen=True)
class RegionSpec:
    """Half-plane description of one achievable region.

    kind "EQ": constraints Q >= q_min and Q + E >= sum_min.
    kind "CE": constraints C >= c_min and E >= e_min.
    """

    kind: str
    q_min: float | None = None
    sum_min: float | None = None
    c_min: float | None = None
    e_min: float | None = None

    def __post_init__(self):
        if self.kind == "EQ":
            if self.q_min is None or self.sum_min is None:
                raise EacompError("EQ region needs q_min and sum_min")
            if self.q_min > self.sum_min + CONTAINS_ATOL:
                raise EacompError(
                    f"q_min {self.q_min!r} exceeds sum_min {self.sum_min!r}; "
                    "the assisted optimum cannot cost more than the unassisted one"
                )
        elif self.kind == "CE":
            if self.c_min is None or self.e_min is None:
                raise EacompError("CE region needs c_min and e_min")
        else:
            raise EacompError(f"kind must be 'EQ' or 'CE', got {self.kind!r}")

    @property
    def corner(self) -> tuple[float, float]:
        """(E, Q) for EQ; (C, E) for CE."""
        if self.kind == "EQ":
            return (self.sum_min - self.q_min, self.q_min)
        return (self.c_min, self.e_min)

    def to_json(self) -> dict:
        out = {"schema_version": 1, "kind": self.kind}
        if self.kind == "EQ":
            out["q_min"] = self.q_min
            out["sum_min"] = self.sum_min
        else:
            out["c_min"] = self.c_min
            out["e_min"] = self.e_min
        return out


def eq_region(a: Analysis) -> RegionSpec:
    """Qubit/ebit region of an analysed source, cornered at optimal_rates."""
    return RegionSpec(kind="EQ", q_min=optimal_rates(a).q, sum_min=a.profile.s_a)


def ce_region(a: Analysis) -> RegionSpec:
    """Cbit/ebit region at the blind corner of an analysed source."""
    corner = classical_entanglement_corner(a)
    return RegionSpec(kind="CE", c_min=corner.c, e_min=corner.e)


def check_samples(samples: int):
    """Refuse a boundary_polyline sample count outside [2, MAX_SAMPLES]."""
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}, got {samples}")


def polyline_range(spec: RegionSpec, lo: float | None, hi: float | None) -> tuple[float, float]:
    """The range of the first coordinate boundary_polyline traces, empty
    when hi < lo: EQ's E from lo (default 0, and at least 0) to hi
    (default sum_min); CE's C from lo (default and at least c_min) to hi
    (default c_min + max(1, |e_min|))."""
    if spec.kind == "EQ":
        return 0.0 if lo is None else max(float(lo), 0.0), spec.sum_min if hi is None else float(hi)
    return (spec.c_min if lo is None else max(float(lo), spec.c_min),
            spec.c_min + max(1.0, abs(spec.e_min)) if hi is None else float(hi))


def boundary_polyline(
    spec: RegionSpec,
    lo: float | None = None,
    hi: float | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> list[tuple[float, float]]:
    """Lower boundary of the region as ordered vertices over
    polyline_range(spec, lo, hi), none when that range is empty.

    EQ: points (E, Q(E)) with Q(E) = max(q_min, sum_min - E); the corner
    vertex is always inserted exactly. CE: points (C, e_min). Every
    emitted vertex lies in the region; the same vertex shifted down in the
    second coordinate by more than CONTAINS_ATOL does not.
    """
    check_samples(samples)
    lo, hi = polyline_range(spec, lo, hi)
    if hi < lo:
        return []
    grid = set(np.linspace(lo, hi, samples).tolist())
    if spec.kind == "CE":
        return [(c, spec.e_min) for c in sorted(grid)]
    corner_e = spec.corner[0]
    if lo <= corner_e <= hi:
        grid.add(corner_e)
    # emit the corner vertex exactly; recomputing it as sum_min - E
    # would reintroduce rounding dust
    return [
        (ee, spec.q_min if ee == corner_e else max(spec.q_min, spec.sum_min - ee))
        for ee in sorted(grid)
    ]


def csv_number(v: float, decimals: int) -> str:
    """v to the given decimals: fixed-point below FIXED_POINT_LIMIT in
    magnitude, scientific from there on."""
    return f"{v:.{decimals}{'f' if abs(v) < FIXED_POINT_LIMIT else 'e'}}"


def polyline_csv(points, header: tuple[str, str]) -> str:
    """CSV with 6 decimals (csv_number), one vertex per line."""
    lines = [f"{header[0]},{header[1]}"]
    lines.extend(f"{csv_number(a, 6)},{csv_number(b, 6)}" for a, b in points)
    return "\n".join(lines) + "\n"
