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
achievable lower bound, never an optimistic one. The zero generator maps
to the identity channel (W in a fixed pure state), which is feasible at
every eps and pins the estimate at I(X : C) or above. Every reported
optimum is re-evaluated through an independent dense-matrix route and
the run aborts if the two disagree.

The two routes share no step for generators of side
_accel.TAYLOR_MIN_DIM and more: the search kernel pushes the signal
vectors through a Taylor series of exp(iH) and takes entropies from
small Gram spectra, while the dense check diagonalises H, forms the
isometry and traces out density matrices. Below that side both start
from eigh(H).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._accel import unitary_objective
from .decomposition import DEFAULT_OVERLAP_TOL
from .ensemble import Ensemble, reduced, tensor_power
from .errors import ConsistencyError, EacompError
from .rates import analyze
from .states import (
    DensityMatrix,
    PureStateVector,
    SubsystemLayout,
    check_isometry,
    entropy_from_probs,
    partial_trace,
    pure_fidelity,
    von_neumann_entropy,
)

FEASIBILITY_SLACK = 1e-9
VERIFY_ATOL = 1e-8


@dataclass(frozen=True)
class IsometrySearchConfig:
    """Knobs of the random-direction search. All defaults are deterministic.

    restarts counts search starts in total: start 0 is always the zero
    generator (identity channel), warm starts come next, random starts
    fill the remainder. env_dim pins |W|; left unset it defaults to
    min((dimA*dimC)^2, env_cap).
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


def estimate_i_epsilon(
    e: Ensemble,
    eps: float,
    config: IsometrySearchConfig = IsometrySearchConfig(),
    warm_starts: tuple[np.ndarray, ...] = (),
) -> IEpsilonEstimate:
    """Best certified value found by the multi-start search at one eps.

    warm_starts are extra Hermitian generators to seed from (the grid
    driver passes the previous optimum so estimates grow with eps).
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    probs, joints = e.overlaps.probs, e.overlaps.vectors({"A", "C"})
    d_in = e.dim_a * e.dim_c
    env_dim = config.resolve_env_dim(e.dim_a, e.dim_c)
    dim = env_dim * d_in
    phis = np.zeros((joints.shape[0], dim), dtype=np.complex128)
    phis[:, :d_in] = joints

    need = 1.0 - eps
    evaluations = 0

    best_mi = -np.inf
    best_fid = 0.0
    best_h = None
    best_is_identity = False

    def evaluate(h):
        nonlocal evaluations
        evaluations += 1
        return unitary_objective(h, phis, probs, e.dim_a, e.dim_c, env_dim)

    def consider(h, mi, fid, is_identity=False):
        nonlocal best_mi, best_fid, best_h, best_is_identity
        if fid >= need - FEASIBILITY_SLACK and mi > best_mi:
            best_mi, best_fid, best_h = mi, fid, h.copy()
            best_is_identity = is_identity

    starts = [np.zeros((dim, dim), dtype=np.complex128)]
    starts.extend(np.asarray(w, dtype=np.complex128) for w in warm_starts)
    n_random = max(0, config.restarts - len(starts))
    for r in range(n_random):
        rng = np.random.default_rng([config.seed, 1000 + r])
        starts.append(_random_hermitian(rng, dim) * (0.5 + r))
    starts = starts[: max(config.restarts, len(warm_starts) + 1)]

    restart_values = []
    for ridx, h0 in enumerate(starts):
        rng = np.random.default_rng([config.seed, ridx])
        restart_best = -np.inf

        def consider_local(h, mi, fid, is_identity=False):
            nonlocal restart_best
            if fid >= need - FEASIBILITY_SLACK:
                restart_best = max(restart_best, mi)
            consider(h, mi, fid, is_identity)

        cur_h = h0.copy()
        cur_mi, cur_fid = evaluate(cur_h)
        consider_local(cur_h, cur_mi, cur_fid, is_identity=(ridx == 0))
        cur_pen = cur_mi - config.penalty * max(0.0, need - cur_fid) ** 2
        step = config.step_init
        for _ in range(config.max_iters):
            direction = _random_hermitian(rng, dim)
            accepted = False
            for sign in (1.0, -1.0):
                cand = cur_h + (sign * step) * direction
                mi, fid = evaluate(cand)
                consider_local(cand, mi, fid)
                pen = mi - config.penalty * max(0.0, need - fid) ** 2
                if pen > cur_pen + 1e-12:
                    cur_h, cur_pen = cand, pen
                    accepted = True
                    break
            if not accepted:
                step *= config.step_decay
                if step < config.conv_tol:
                    break
        restart_values.append(float(restart_best))

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
        restart_values=tuple(restart_values),
        evaluations=evaluations,
        fallback_identity=best_is_identity,
        generator=best_h,
    )


def estimate_grid(
    e: Ensemble,
    eps_grid,
    config: IsometrySearchConfig = IsometrySearchConfig(),
) -> list[IEpsilonEstimate]:
    """Estimates along an ascending eps grid, warm-starting each point
    with the previous optimum so the reported curve is non-decreasing."""
    eps_grid = [float(x) for x in eps_grid]
    if any(b < a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError(f"eps grid must be sorted ascending, got {eps_grid}")
    out = []
    warm: tuple[np.ndarray, ...] = ()
    for eps in eps_grid:
        est = estimate_i_epsilon(e, eps, config, warm_starts=warm)
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
    eps = 0, the one point where the cap is available in closed form.
    src is an ensemble or its analysis. Diagnostic only: nothing here
    raises.
    """
    a = analyze(src, tol)
    e = a.source
    ests = estimate_grid(e, eps_grid, config)
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

    pair = tensor_power(e, 2)
    pair_cfg = IsometrySearchConfig(
        restarts=max(2, config.restarts // 2),
        max_iters=config.max_iters,
        penalty=config.penalty,
        step_init=config.step_init,
        step_decay=config.step_decay,
        conv_tol=config.conv_tol,
        env_cap=config.env_cap,
        seed=config.seed,
    )
    pair_est = estimate_i_epsilon(pair, 0.0, pair_cfg)
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
