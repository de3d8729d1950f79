"""Lower-bound estimator for the information an encoder can extract
about the classical label while keeping the signals almost intact.

The quantity being estimated is the maximum of I(X : C W') over
isometries V : A(x)C -> A(x)C(x)W subject to the average output state
keeping fidelity at least 1 - eps with the source on A(x)C. The
environment W may always be taken no larger than (dimA * dimC)^2.

The search parametrizes V as the first dimA*dimC columns of exp(iH) for
a Hermitian generator H, walks H along random Hermitian directions with
a shrinking step, and scores candidates by the penalized objective

    I(X : C W')  -  penalty * max(0, (1 - eps) - fidelity)^2 .

Only candidates whose achieved fidelity is within 1e-9 of the constraint
ever become the reported estimate, so the returned value is a certified
achievable lower bound, never an optimistic one. Every reported optimum
is re-evaluated through an independent dense-matrix route and the run
aborts if the two disagree.

The starts, in order: the zero generator, i.e. the identity channel (W
in a fixed pure state), feasible at every eps, which pins the estimate
at I(X : C) or above; the reversible extraction of the component index
Y, V = sum_y P_y (x) |y>_W with P_y the projector onto the A(x)C span of
component y, which keeps every signal intact and extracts S(CY) (a
coarse-graining of Y when there are more components than |W|); the warm
starts, less a copy of the witness; random generators. Every start is
scored before any is walked.
The search ends as soon as a feasible candidate reaches a proven
ceiling, less 1e-9: S(CY) at eps = 0, which no lossless extraction can
beat, and H(X) above it, since I(X : C W') <= H(X) always.

The two routes share no step for generators of side
_accel.TAYLOR_MIN_DIM and more: the search kernel pushes the signal
vectors through a Taylor series of exp(iH) and takes entropies from
small Gram spectra, while the dense check diagonalises H, forms the
isometry and traces out density matrices. Below that side both start
from eigh(H).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._accel import unitary_objective
from .decomposition import DEFAULT_OVERLAP_TOL
from .ensemble import Ensemble, reduced, tensor_power
from .errors import ConsistencyError, EacompError
from .rates import Analysis, analyze
from .states import (
    DensityMatrix,
    PureStateVector,
    SubsystemLayout,
    check_isometry,
    partial_trace,
    pure_fidelity,
    von_neumann_entropy,
)

FEASIBILITY_SLACK = 1e-9
VERIFY_ATOL = 1e-8


@dataclass(frozen=True)
class IsometrySearchConfig:
    """Knobs of the random-direction search. All defaults are deterministic.

    restarts counts every search start but the witness. Start 0 is
    always the zero generator (identity channel); the reversible-
    extraction witness comes next when the source has more than one
    component, on top of restarts; then the warm starts, less any equal
    to the witness; random starts fill the remainder. So restarts = 1
    runs the identity and, on a source with several components, the
    witness. All starts are scored before any is walked, and the search
    stops at the first feasible candidate within 1e-9 of its ceiling:
    S(CY) at eps = 0, H(X) above.
    env_dim pins |W|; left unset it defaults to min((dimA*dimC)^2,
    env_cap).
    """

    restarts: int = 4
    max_iters: int = 200
    penalty: float = 64.0
    step_init: float = 0.25
    step_decay: float = 0.9
    conv_tol: float = 1e-4
    env_dim: int | None = None
    env_cap: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one search start")
        if not 0 < self.step_decay < 1:
            raise ValueError(f"step_decay must be in (0, 1), got {self.step_decay}")

    def resolve_env_dim(self, dim_a: int, dim_c: int) -> int:
        bound = (dim_a * dim_c) ** 2
        if self.env_dim is not None:
            if not 1 <= self.env_dim <= bound:
                raise ValueError(f"env_dim must lie in [1, {bound}], got {self.env_dim}")
            return self.env_dim
        return max(1, min(bound, self.env_cap))

    def to_json(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "penalty": self.penalty,
            "step_init": self.step_init,
            "step_decay": self.step_decay,
            "conv_tol": self.conv_tol,
            "env_dim": self.env_dim,
            "env_cap": self.env_cap,
            "seed": self.seed,
        }


def identity_isometry(d_in: int, env_dim: int) -> np.ndarray:
    """V appending |0> on W, in the environment-major output ordering."""
    return np.eye(env_dim * d_in, d_in, dtype=np.complex128)


def objective(e: Ensemble, v: np.ndarray) -> tuple[float, float]:
    """Mutual information I(X : C W') and average fidelity on A(x)C for an
    explicit isometry, computed through dense density matrices.

    Slow but simple; the search kernel is checked against this.
    """
    v = check_isometry(v)
    d_in = e.dim_a * e.dim_c
    if v.shape[1] != d_in:
        raise EacompError(f"isometry input dim {v.shape[1]} != dimA*dimC = {d_in}")
    if v.shape[0] % d_in:
        raise EacompError(f"output dim {v.shape[0]} is not a multiple of {d_in}")
    env_dim = v.shape[0] // d_in
    out_layout = SubsystemLayout(("W", "A", "C"), (env_dim, e.dim_a, e.dim_c))

    probs, joints = e.overlaps.probs, e.overlaps.vectors({"A", "C"})
    cw_states = []
    fid = 0.0
    for p, phi in zip(probs, joints):
        out = PureStateVector(out_layout, v @ phi, check=False)
        dm = out.density()
        cw_states.append(partial_trace(dm, {"W", "C"}))
        ac = partial_trace(dm, {"A", "C"})
        phi_state = PureStateVector(ac.layout, phi, check=False)
        fid += p * pure_fidelity(phi_state, ac)

    mix = DensityMatrix(
        cw_states[0].layout,
        sum(p * m.entries for p, m in zip(probs, cw_states)),
        check=False,
    )
    mi = von_neumann_entropy(mix) - float(
        sum(p * von_neumann_entropy(m) for p, m in zip(probs, cw_states))
    )
    return mi, float(fid)


def i_zero_bounds(src, tol: float = DEFAULT_OVERLAP_TOL) -> tuple[float, float]:
    """(floor, ceiling) for the zero-disturbance limit of an ensemble or
    its analysis.

    The identity channel extracts I(X : C) = S(C); no lossless extraction
    can beat S(CY) of the component-extended source.
    """
    a = analyze(src, tol)
    floor = von_neumann_entropy(reduced(a.source, {"C"}))
    return floor, a.profile.s_cy


@dataclass(frozen=True)
class IEpsilonEstimate:
    eps: float
    value: float
    fidelity: float
    isometry: np.ndarray = field(repr=False)
    env_dim: int
    identity_floor: float
    restart_values: tuple[float, ...]
    evaluations: int
    fallback_identity: bool
    generator: np.ndarray = field(repr=False)

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "estimate": self.value,
            "fidelity": self.fidelity,
            "env_dim": self.env_dim,
            "identity_floor": self.identity_floor,
            "restart_values": [v if np.isfinite(v) else None for v in self.restart_values],
            "evaluations": self.evaluations,
            "fallback_identity": self.fallback_identity,
        }


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2.0
    return h / np.linalg.norm(h)


def _isometry_from_generator(h: np.ndarray, d_in: int) -> np.ndarray:
    evs, vecs = np.linalg.eigh(h)
    u = (vecs * np.exp(1j * evs)) @ vecs.conj().T
    return np.ascontiguousarray(u[:, :d_in])


@dataclass(frozen=True)
class _Target:
    """What a search needs to know of its source: the component index of
    each support item and the two proven ceilings."""

    source: Ensemble
    ys: np.ndarray
    s_cy: float
    h_x: float


def _target(a: Analysis) -> _Target:
    return _Target(a.source, a.decomposition.support_ys(a.source), a.profile.s_cy, a.profile.h_x)


def _pair_target(a: Analysis) -> _Target:
    """The two-copy source of a, with Y = (y(a), y(b)) and both ceilings
    doubled; no second analysis. tensor_power enumerates the pairs (a, b)
    in C order, so pair item k holds items k // n and k % n."""
    e, d = a.source, a.decomposition
    pair = tensor_power(e, 2)
    y = dict(zip(e.overlaps.support, d.support_ys(e)))
    ys = np.array([y[k // e.size] * d.size + y[k % e.size] for k in pair.overlaps.support])
    return _Target(pair, ys, 2.0 * a.profile.s_cy, 2.0 * a.profile.h_x)


def _witness(t: _Target, env_dim: int) -> np.ndarray | None:
    """Generator of the reversible extraction of Y, or None when it is the
    identity (one component, or |W| = 1).

    H = (pi/2) sum_{g>=1} (|0><g| + |g><0|)_W (x) P_g, where g = y mod |W|
    and P_g projects onto the span of group g, made orthogonal to the
    groups before it: exp(iH) sends |phi>|0> to i|phi>|g> for phi in it.
    """
    groups = t.ys % env_dim
    if not groups.any():
        return None
    joints = t.source.overlaps.vectors({"A", "C"})
    d_in = joints.shape[1]
    h = np.zeros((env_dim * d_in, env_dim * d_in), dtype=np.complex128)
    basis = np.zeros((d_in, 0), dtype=np.complex128)
    for g in sorted(set(groups.tolist())):  # np.unique would import numpy.ma (1 MB)
        m = joints[groups == g].T
        m = m - basis @ (basis.conj().T @ m)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        span = u[:, s > 1e-8]
        if g:
            h[:d_in, g * d_in:(g + 1) * d_in] = (np.pi / 2) * (span @ span.conj().T)
            h[g * d_in:(g + 1) * d_in, :d_in] = h[:d_in, g * d_in:(g + 1) * d_in]
        basis = np.hstack([basis, span])
    return h


def estimate_i_epsilon(
    src,
    eps: float,
    config: IsometrySearchConfig = IsometrySearchConfig(),
    warm_starts: tuple[np.ndarray, ...] = (),
) -> IEpsilonEstimate:
    """Best certified value found by the multi-start search at one eps.

    src is an ensemble or its analysis (pass analyze(e, tol) for another
    overlap tolerance); the witness start and both ceilings come from
    the analysis. warm_starts are extra Hermitian generators to seed
    from (estimate_grid passes the previous optimum so estimates grow
    with eps).
    """
    return _search(_target(analyze(src)), eps, config, warm_starts)


def _search(
    t: _Target, eps: float, config: IsometrySearchConfig, warm_starts: tuple[np.ndarray, ...] = ()
) -> IEpsilonEstimate:
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    e = t.source
    probs, joints = e.overlaps.probs, e.overlaps.vectors({"A", "C"})
    d_in = e.dim_a * e.dim_c
    env_dim = config.resolve_env_dim(e.dim_a, e.dim_c)
    dim = env_dim * d_in
    phis = np.zeros((joints.shape[0], dim), dtype=np.complex128)
    phis[:, :d_in] = joints

    need = 1.0 - eps
    ceiling = t.s_cy if eps == 0 else t.h_x
    evaluations = 0
    # per start: (I, fidelity, generator) of its best feasible candidate
    bests: list[tuple[float, float, np.ndarray | None]] = []

    def score(h):
        nonlocal evaluations
        evaluations += 1
        mi, fid = unitary_objective(h, phis, probs, e.dim_a, e.dim_c, env_dim)
        return mi, fid, mi - config.penalty * max(0.0, need - fid) ** 2

    def keep(r, h, mi, fid) -> bool:
        """Record a candidate of start r; True once it reaches the ceiling."""
        if fid < need - FEASIBILITY_SLACK:
            return False
        if mi > bests[r][0]:
            bests[r] = (mi, fid, h)
        return mi >= ceiling - FEASIBILITY_SLACK

    def walk(r, cur_h, cur_pen) -> bool:
        """Random-direction ascent of the penalised objective from start r;
        True once it reaches the ceiling."""
        rng = np.random.default_rng([config.seed, r])
        step = config.step_init
        for _ in range(config.max_iters):
            direction = _random_hermitian(rng, dim)
            for sign in (1.0, -1.0):
                cand = cur_h + (sign * step) * direction
                mi, fid, pen = score(cand)
                if keep(r, cand, mi, fid):
                    return True
                if pen > cur_pen + 1e-12:
                    cur_h, cur_pen = cand, pen
                    break
            else:  # neither sign improved
                step *= config.step_decay
                if step < config.conv_tol:
                    break
        return False

    starts = [np.zeros((dim, dim), dtype=np.complex128)]
    warm = [np.asarray(w, dtype=np.complex128) for w in warm_starts]
    witness = _witness(t, env_dim)
    if witness is not None:
        starts.append(witness)
        # estimate_grid passes the witness back whenever it was the optimum
        warm = [w for w in warm if not np.array_equal(w, witness)]
    starts.extend(warm)
    for r in range(config.restarts - 1 - len(warm)):
        rng = np.random.default_rng([config.seed, 1000 + r])
        starts.append(_random_hermitian(rng, dim) * (0.5 + r))

    scored = []
    for h0 in starts:
        bests.append((-np.inf, 0.0, None))
        mi, fid, pen = score(h0)
        scored.append((h0, pen))
        if keep(len(bests) - 1, h0, mi, fid):
            break
    else:  # no start at the ceiling
        for r, (h0, pen) in enumerate(scored):
            if walk(r, h0, pen):
                break

    # the first start with the largest value, as a sequential search would keep
    best_mi, best_fid, best_h = max(bests, key=lambda b: b[0])
    if best_h is None:
        # Cannot happen for eps >= 0: the zero generator is feasible.
        raise ConsistencyError("no feasible candidate found, identity start included")

    v = _isometry_from_generator(best_h, d_in)
    ref_mi, ref_fid = objective(e, v)
    if abs(ref_mi - best_mi) > VERIFY_ATOL or abs(ref_fid - best_fid) > VERIFY_ATOL:
        raise ConsistencyError(
            f"search kernel ({best_mi!r}, {best_fid!r}) and dense evaluation "
            f"({ref_mi!r}, {ref_fid!r}) disagree beyond {VERIFY_ATOL}"
        )
    floor = von_neumann_entropy(reduced(e, {"C"}))
    return IEpsilonEstimate(
        eps=float(eps),
        value=ref_mi,
        fidelity=ref_fid,
        isometry=v,
        env_dim=env_dim,
        identity_floor=floor,
        restart_values=tuple(float(b[0]) for b in bests),
        evaluations=evaluations,
        fallback_identity=not best_h.any(),
        generator=best_h,
    )


def estimate_grid(
    src,
    eps_grid,
    config: IsometrySearchConfig = IsometrySearchConfig(),
) -> list[IEpsilonEstimate]:
    """Estimates along an ascending eps grid, warm-starting each point
    with the previous optimum so the reported curve is non-decreasing.
    src is an ensemble or its analysis."""
    eps_grid = [float(x) for x in eps_grid]
    if any(b < a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError(f"eps grid must be sorted ascending, got {eps_grid}")
    a = analyze(src)
    out = []
    warm: tuple[np.ndarray, ...] = ()
    for eps in eps_grid:
        est = estimate_i_epsilon(a, eps, config, warm_starts=warm)
        out.append(est)
        warm = (est.generator,)
    return out


@dataclass(frozen=True)
class LemmaReport:
    """Sanity checks of the estimator against provable properties."""

    eps_grid: tuple[float, ...]
    estimates: tuple[float, ...]
    floor: float
    ceiling: float
    monotone_ok: bool
    monotone_violations: tuple[str, ...]
    floor_ok: bool
    ceiling_at_zero_ok: bool
    subadditive_ok: bool
    pair_estimate_at_zero: float
    concave_secants_ok: tuple[bool, ...]
    continuity_gap: float

    def to_json(self) -> dict:
        return {
            "eps_grid": list(self.eps_grid),
            "estimates": list(self.estimates),
            "floor_I_X_C": self.floor,
            "ceiling_S_CY": self.ceiling,
            "monotone_ok": self.monotone_ok,
            "monotone_violations": list(self.monotone_violations),
            "floor_ok": self.floor_ok,
            "ceiling_at_zero_ok": self.ceiling_at_zero_ok,
            "subadditive_ok": self.subadditive_ok,
            "pair_estimate_at_zero": self.pair_estimate_at_zero,
            "concave_secants_ok": list(self.concave_secants_ok),
            "continuity_gap": self.continuity_gap,
        }


def check_lemma_properties(
    src,
    eps_grid,
    config: IsometrySearchConfig = IsometrySearchConfig(),
    tol: float = DEFAULT_OVERLAP_TOL,
) -> LemmaReport:
    """Estimate along the grid and test the properties a correct value
    function must satisfy.

    Monotonicity violations beyond 1e-3 point at optimizer noise and are
    reported as such; an estimate at eps = 0 above S(CY) + 1e-6 can only
    be a bug, because lossless extraction is capped by the component
    structure. Subadditivity is spot-checked on a two-copy product at
    eps = 0, the one point where the cap is available in closed form; its
    witness and ceiling 2 S(CY) come from the pairs (y(a), y(b)) of the
    one analysis. Both searches at eps = 0 end at the ceiling with the
    reversible-extraction witness (or the identity), so ceiling_at_zero_ok
    and subadditive_ok test that witness, not the optimiser. src is an
    ensemble or its analysis. Diagnostic only: nothing here raises.
    """
    a = analyze(src, tol)
    ests = estimate_grid(a, eps_grid, config)
    values = tuple(est.value for est in ests)
    grid = tuple(est.eps for est in ests)
    floor, ceiling = i_zero_bounds(a)

    violations = []
    for (e0, v0), (e1, v1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if v1 < v0 - 1e-3:
            violations.append(
                f"estimate dropped from {v0:.6f} (eps={e0}) to {v1:.6f} (eps={e1}): optimizer noise"
            )
    floor_ok = all(v >= floor - FEASIBILITY_SLACK for v in values)
    ceiling_at_zero_ok = all(
        v <= ceiling + 1e-6 for g, v in zip(grid, values) if g == 0.0
    )

    pair_cfg = replace(config, restarts=max(2, config.restarts // 2), env_dim=None)
    pair_est = _search(_pair_target(a), 0.0, pair_cfg)
    subadditive_ok = pair_est.value <= 2.0 * ceiling + 1e-3

    secants = []
    for i in range(1, len(grid) - 1):
        span = grid[i + 1] - grid[i - 1]
        if span <= 0:
            secants.append(True)
            continue
        interp = (
            (grid[i + 1] - grid[i]) * values[i - 1] + (grid[i] - grid[i - 1]) * values[i + 1]
        ) / span
        secants.append(values[i] >= interp - 5e-3)

    gap = abs(values[1] - values[0]) if len(values) > 1 else 0.0
    return LemmaReport(
        eps_grid=grid,
        estimates=values,
        floor=floor,
        ceiling=ceiling,
        monotone_ok=not violations,
        monotone_violations=tuple(violations),
        floor_ok=floor_ok,
        ceiling_at_zero_ok=ceiling_at_zero_ok,
        subadditive_ok=subadditive_ok,
        pair_estimate_at_zero=pair_est.value,
        concave_secants_ok=tuple(secants),
        continuity_gap=gap,
    )
