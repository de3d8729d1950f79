"""Lower-bound estimator for the information an encoder can extract
about the classical label while keeping the signals almost intact.

The quantity being estimated is the maximum of I(X : C W') over
isometries V : A(x)C -> A(x)C(x)W subject to the average output state
keeping fidelity at least 1 - eps with the source on A(x)C. The
environment W may always be taken no larger than (dimA * dimC)^2.

The search works on V itself, a (|W| dimA dimC) x (dimA dimC) matrix
with orthonormal columns, and climbs the penalized objective

    I(X : C W')  -  penalty * max(0, (1 - eps) - fidelity)^2

by Riemannian gradient ascent on that Stiefel manifold (Edelman, Arias
& Smith 1998): the kernel's Euclidean gradient projected onto the
tangent space, a QR retraction, and Armijo backtracking.

Only candidates whose achieved fidelity is within 1e-9 of the constraint
ever become the reported estimate, so the returned value is a certified
achievable lower bound, never an optimistic one. Every reported optimum
is re-evaluated through an independent dense-matrix route and the run
aborts if the two disagree.

The starts, in order: the identity channel (W in a fixed pure state),
feasible at every eps, which pins the estimate at I(X : C) or above;
the reversible extraction of the component index Y, V = sum_y P_y (x)
|y>_W with P_y the projector onto the A(x)C span of component y, which
keeps every signal intact and extracts S(CY) (a coarse-graining of Y
when there are more components than |W|); the warm start, unless it
repeats an earlier start; random isometries. A start where the gradient
vanishes (the identity on a blind source, where I = 0 is a minimum) is
left by a step along a random tangent direction.
The search ends as soon as a feasible candidate reaches a proven
ceiling, less 1e-9: S(CY) at eps = 0, which no lossless extraction can
beat, and H(X) above it, since I(X : C W') <= H(X) always.

The starts are scored in one kernel call, and their walks run in
lockstep: each round takes one step of every walk still running, with
one stacked QR retraction and one kernel call for all of them, in runs
of at most STACK_ENTRIES entries per stacked array. Every slice of a
stack is computed on its own, and the ceiling ends the search as if
the starts were scored, and then walked, one at a time: the first start
on the ceiling ends the scoring, and a walk that reaches the ceiling
counts only if no walk before it does. So the estimate, the restart
values, the evaluation count and the isometry are those of the one-by-one
search.

The two routes share no step: the search kernel forms V phi_x for each
signal and takes entropies from small Gram spectra, while the dense
check builds each output state and traces out density matrices.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._accel import unitary_objective
from .ensemble import Ensemble, tensor_power
from .errors import ConsistencyError, EacompError
from .rates import Analysis
from .states import (DensityMatrix, check_isometry, check_side, entropy_from_probs, mixture_spectra,
                     von_neumann_entropy)

FEASIBILITY_SLACK = 1e-9
VERIFY_ATOL = 1e-8
# a shortfall of FEASIBILITY_SLACK costs a whole bit at this penalty
MAX_PENALTY = 1e18
# every start and its gradient are held until its walk ends, so this
# bounds memory; the stacks of the kernel and the retraction are cut to at
# most STACK_ENTRIES entries whatever the number of walks
MAX_RESTARTS = 1000
STACK_ENTRIES = 1 << 16
# a step is accepted once it gains this share of its first-order gain
ARMIJO = 1e-4
# Frobenius length of the step that leaves a stationary start
KICK = 0.5


@dataclass(frozen=True)
class IsometrySearchConfig:
    """Knobs of the gradient search. All defaults are deterministic.

    restarts counts every search start but the witness (the order is in
    the module docstring): random isometries fill what the identity and
    the warm start leave, so restarts = 1 runs the identity and, on a
    source with several components, the witness. Each walk takes at
    most max_iters Riemannian gradient steps and ends once an accepted
    step gains less than conv_tol, or no step that could gain conv_tol
    is accepted. env_dim, at least 1, pins |W|; left unset it defaults to
    min((dimA*dimC)^2, env_cap). restarts is at most MAX_RESTARTS, and
    seed, which seeds the random starts and kicks, is nonnegative.
    """

    restarts: int = 4
    max_iters: int = 200
    penalty: float = 64.0
    conv_tol: float = 1e-4
    env_dim: int | None = None
    env_cap: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one search start")
        if self.restarts > MAX_RESTARTS:
            raise ValueError(f"restarts must be <= {MAX_RESTARTS}, got {self.restarts}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0 <= self.penalty <= MAX_PENALTY:
            raise ValueError(f"penalty must lie in [0, {MAX_PENALTY:g}], got {self.penalty}")
        if not 0 < self.conv_tol < np.inf:
            raise ValueError(f"conv_tol must be finite and > 0, got {self.conv_tol}")
        if self.env_dim is not None and self.env_dim < 1:
            raise ValueError(f"env_dim must be >= 1, got {self.env_dim}")
        if self.env_cap < 1:
            raise ValueError(f"env_cap must be >= 1, got {self.env_cap}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def resolve_env_dim(self, dim_a: int, dim_c: int) -> int:
        bound = (dim_a * dim_c) ** 2
        if self.env_dim is not None:
            if self.env_dim > bound:
                raise ValueError(f"env_dim must lie in [1, {bound}], got {self.env_dim}")
            return self.env_dim
        return max(1, min(bound, self.env_cap))

    def to_json(self) -> dict:
        return asdict(self)


def identity_isometry(d_in: int, env_dim: int) -> np.ndarray:
    """V appending |0> on W, in the environment-major output ordering."""
    return np.eye(env_dim * d_in, d_in, dtype=np.complex128)


def objective(e: Ensemble, v: np.ndarray) -> tuple[float, float]:
    """Mutual information I(X : C W') and average fidelity on A(x)C for an
    explicit isometry, computed through dense density matrices.

    Each signal's output V phi_x is expanded to |V phi_x><V phi_x| on
    W (x) A (x) C. Its marginal on C W enters the mutual information, and
    its marginal rho on A C the fidelity sqrt(<phi_x|rho|phi_x>) with the
    pure signal. Slow but simple; the search kernel is checked against
    this.
    """
    v = check_isometry(v)
    d_in = e.dim_a * e.dim_c
    if v.shape[1] != d_in:
        raise EacompError(f"isometry input dim {v.shape[1]} != dimA*dimC = {d_in}")
    if v.shape[0] % d_in:
        raise EacompError(f"output dim {v.shape[0]} is not a multiple of {d_in}")
    check_side(v.shape[0])
    dims = (v.shape[0] // d_in, e.dim_a, e.dim_c)

    probs, joints = e.overlaps.probs, e.overlaps.joint
    cw_states = []
    fid = 0.0
    for p, phi in zip(probs, joints):
        out = v @ phi
        t = np.outer(out, out.conj()).reshape(dims + dims)
        cw_states.append(np.einsum("wacvad->wcvd", t).reshape(dims[0] * dims[2], -1))
        ac = np.einsum("wabwcd->abcd", t).reshape(d_in, d_in)
        val = float(np.real(np.vdot(phi, ac @ phi)))
        fid += p * math.sqrt(min(max(val, 0.0), 1.0))

    mix = DensityMatrix(sum(p * m for p, m in zip(probs, cw_states)), check=False)
    mi = von_neumann_entropy(mix) - float(
        sum(p * von_neumann_entropy(DensityMatrix(m, check=False)) for p, m in zip(probs, cw_states))
    )
    return mi, float(fid)


def i_zero_bounds(a: Analysis) -> tuple[float, float]:
    """(floor, ceiling) for the zero-disturbance limit of an analysed
    source, with no search source built: the identity channel extracts
    I(X : C) = S(C), from the smaller of the support's Gram and
    dimC x dimC sides, and no lossless extraction can beat S(CY) of the
    component-extended source, read off the profile."""
    ov = a.source.overlaps
    s_c = entropy_from_probs(mixture_spectra(ov.probs, a.source.dim_c, lambda: ov.sigma_gram, lambda: ov.sigma))
    return s_c, a.profile.s_cy


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


def penalised_objective(v, phis, probs, dims: tuple[int, int, int], need: float, penalty: float):
    """(I, fidelity, I - penalty * max(0, need - fidelity)^2, its Euclidean
    gradient in V) for each isometry of the stack v, in one kernel call;
    dims = (dimA, dimC, |W|)."""
    mis, fids, g_mis, g_fids = unitary_objective(v, phis, probs, *dims)
    out = []
    for mi, fid, g_mi, g_fid in zip(mis.tolist(), fids.tolist(), g_mis, g_fids):
        short = max(0.0, need - fid)
        out.append((mi, fid, mi - penalty * short**2, g_mi + (2.0 * penalty * short) * g_fid))
    return out


def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Projection of g onto the tangent space of the isometries at v."""
    s = v.conj().T @ g
    return g - v @ ((s + s.conj().T) / 2.0)


def _retract(m: np.ndarray) -> np.ndarray:
    """For each matrix of the stack m, the isometry Q of m = QR with R's
    diagonal positive; m = V + tZ for a tangent Z has full column rank,
    (V + tZ)^dagger (V + tZ) >= 1."""
    q, r = np.linalg.qr(m)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _gaussian(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@dataclass(frozen=True)
class _Target:
    """What a search needs to know of its source: the source itself, the
    component index of each of its items, the identity channel's
    I(X : C) and the two proven ceilings. A command builds one, and
    everything after reads it."""

    source: Ensemble
    ys: np.ndarray
    identity_floor: float
    s_cy: float
    h_x: float


def _target(a: Analysis) -> _Target:
    """The search target of a: its support scaled to unit probability sum
    and row norms (within validate's tolerances, the identity start can
    miss FEASIBILITY_SLACK and a square can miss validate's tolerances),
    with the floor and the S(CY) ceiling of i_zero_bounds(a) and a's H(X)."""
    floor, s_cy = i_zero_bounds(a)
    e, ov = a.source, a.source.overlaps
    psi, sigma = (rows / np.linalg.norm(rows, axis=1, keepdims=True) for rows in (ov.psi, ov.sigma))
    unit = Ensemble([e.labels[k] for k in ov.support], ov.probs / ov.probs.sum(), psi, sigma)
    return _Target(unit, a.decomposition.support_ys(e), floor, s_cy, a.profile.h_x)


def _pair_target(t: _Target, components: int) -> _Target:
    """The two-copy source of t, with Y = (y(a), y(b)) over t's number of
    components and the floor and both ceilings doubled; no second
    analysis. Pair item k holds support items k // m and k % m."""
    pair = tensor_power(t.source, 2)
    ys = (t.ys[:, None] * components + t.ys).ravel()[list(pair.overlaps.support)]
    return _Target(pair, ys, 2.0 * t.identity_floor, 2.0 * t.s_cy, 2.0 * t.h_x)


def _witness(t: _Target, env_dim: int) -> np.ndarray | None:
    """The reversible extraction of Y, or None when it is the identity
    (one component, or |W| = 1).

    V = sum_g |g>_W (x) P_g, where g = y mod |W|, P_g projects onto the
    span of group g made orthogonal to the groups before it, and P_0
    also takes the rest of A(x)C: V sends |phi> to |phi>|g> for phi in
    group g.
    """
    groups = t.ys % env_dim
    if not groups.any():
        return None
    joints = t.source.overlaps.joint
    d_in = joints.shape[1]
    v = identity_isometry(d_in, env_dim)
    basis = np.zeros((d_in, 0), dtype=np.complex128)
    for g in sorted(set(groups.tolist())):  # np.unique would import numpy.ma (1 MB)
        m = joints[groups == g].T
        m = m - basis @ (basis.conj().T @ m)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        span = u[:, s > 1e-8]
        if g:
            p = span @ span.conj().T
            v[g * d_in:(g + 1) * d_in] = p
            v[:d_in] -= p
        basis = np.hstack([basis, span])
    return v


def _walk(r: int, v: np.ndarray, cur: tuple, config: IsometrySearchConfig, keep):
    """Riemannian gradient ascent of the penalised objective from start r,
    whose score is cur, with Armijo backtracking. A generator: it yields
    each step before retraction and is sent the retracted candidate with
    its score; it returns True once keep(r, candidate, I, fidelity) says
    a candidate reached the ceiling."""
    _, _, pen, g = cur
    step = 1.0
    for it in range(config.max_iters):
        z = _tangent(v, g)
        slope = float(np.vdot(z, z).real)
        if it == 0 and slope < config.conv_tol:
            # a stationary start (the identity on a blind source):
            # leave it along a random tangent direction
            z = _tangent(v, _gaussian(np.random.default_rng([config.seed, r]), v.shape))
            v, (mi, fid, pen, g) = yield v + (KICK / np.linalg.norm(z)) * z
            if keep(r, v, mi, fid):
                return True
            continue
        while True:
            cand, (mi, fid, cand_pen, g) = yield v + step * z
            if keep(r, cand, mi, fid):
                return True
            if cand_pen >= pen + ARMIJO * step * slope:
                break
            step /= 2.0
            if step * slope < config.conv_tol:  # no step left to gain conv_tol
                return False
        gain = cand_pen - pen
        v, pen = cand, cand_pen
        if gain < config.conv_tol:
            break
        step *= 2.0
    return False


def estimate_i_epsilon(
    a: Analysis,
    eps: float,
    config: IsometrySearchConfig = IsometrySearchConfig(),
) -> IEpsilonEstimate:
    """Best certified value found by the multi-start search at one eps;
    the witness start and both ceilings come from the analysis a."""
    return _grid(_target(a), [eps], config)[0]


def _search(
    t: _Target, eps: float, config: IsometrySearchConfig, warm: np.ndarray | None = None
) -> IEpsilonEstimate:
    """The multi-start search at one eps in [0, 1] on the target t. warm
    is an extra isometry to start from: _grid passes the previous
    optimum, so estimates grow with eps."""
    e = t.source
    d_in = e.dim_a * e.dim_c
    env_dim = config.resolve_env_dim(e.dim_a, e.dim_c)
    check_side(env_dim * d_in)  # the isometry's output side, before anything is formed
    probs, phis = e.overlaps.probs, e.overlaps.joint
    dims = (e.dim_a, e.dim_c, env_dim)

    need = 1.0 - eps
    ceiling = t.s_cy if eps == 0 else t.h_x
    identity = identity_isometry(d_in, env_dim)
    # isometries stacked per kernel call or QR: no array of either exceeds
    # STACK_ENTRIES (the kernel's largest holds max(signals, dimA dimC)
    # entries per output dimension of each isometry), unless one
    # isometry alone does
    width = max(1, STACK_ENTRIES // (max(len(probs), d_in) * identity.shape[0]))
    evaluations = 0
    # per start: (I, fidelity, isometry) of its best feasible candidate
    bests: list[tuple[float, float, np.ndarray | None]] = []

    def runs(items):
        """items in runs of at most width, each for one stacked call."""
        return (items[i:i + width] for i in range(0, len(items), width))

    def score(vs: np.ndarray) -> list:
        return penalised_objective(vs, phis, probs, dims, need, config.penalty)

    def keep(r, v, mi, fid) -> bool:
        """Record a candidate of start r; True once it reaches the ceiling."""
        if fid < need - FEASIBILITY_SLACK:
            return False
        if mi > bests[r][0]:
            bests[r] = (mi, fid, v)
        return mi >= ceiling - FEASIBILITY_SLACK

    starts = [identity]
    witness = _witness(t, env_dim)
    if witness is not None:
        starts.append(witness)
    # the previous optimum is often the identity or the witness itself
    fresh = warm is not None and not any(np.array_equal(warm, s) for s in starts)
    if fresh:
        starts.append(warm)
    for run in runs(range(config.restarts - 1 - fresh)):
        rngs = [np.random.default_rng([config.seed, 1000 + r]) for r in run]
        starts.extend(_retract(np.stack([_gaussian(rng, identity.shape) for rng in rngs])))

    # a start on the ceiling ends the search as if the starts were scored
    # one at a time: the starts after it count for nothing
    scored = []
    for v0, cur in (pair for run in runs(starts) for pair in zip(run, score(np.stack(run)))):
        bests.append((-np.inf, 0.0, None))
        evaluations += 1
        scored.append((v0, cur))
        if keep(len(bests) - 1, v0, cur[0], cur[1]):
            break
    else:  # no start at the ceiling: every walk advances a step per round
        walks = [_walk(r, v0, cur, config, keep) for r, (v0, cur) in enumerate(scored)]
        start_bests = list(bests)
        counts = [0] * len(walks)
        # Walks end as if run one after another: once walk r reaches the
        # ceiling, the walks after it are dropped and count for nothing,
        # while the walks before it go on, since one of them may reach it
        # first in start order.
        hit = len(walks)
        sent = dict.fromkeys(range(len(walks)))  # None starts a walk
        while sent:
            steps = {}
            for r, result in sent.items():
                try:
                    steps[r] = walks[r].send(result)
                except StopIteration as stop:
                    if stop.value:
                        hit = r
                        break
            sent = {}
            for run in runs(list(steps)):
                cands = _retract(np.stack([steps[r] for r in run]))
                for r, cand, cur in zip(run, cands, score(cands)):
                    sent[r] = (cand.copy(), cur)  # a kept candidate holds no stack alive
                    counts[r] += 1
        evaluations += sum(counts[:hit + 1])
        bests[hit + 1:] = start_bests[hit + 1:]

    # the first start with the largest value, as a sequential search would keep
    best_mi, best_fid, best_v = max(bests, key=lambda b: b[0])
    if best_v is None:
        # Cannot happen for eps >= 0: the identity start is feasible.
        raise ConsistencyError("no feasible candidate found, identity start included")

    ref_mi, ref_fid = objective(e, best_v)
    if abs(ref_mi - best_mi) > VERIFY_ATOL or abs(ref_fid - best_fid) > VERIFY_ATOL:
        raise ConsistencyError(
            f"search kernel ({best_mi!r}, {best_fid!r}) and dense evaluation "
            f"({ref_mi!r}, {ref_fid!r}) disagree beyond {VERIFY_ATOL}"
        )
    return IEpsilonEstimate(
        eps=eps,
        value=ref_mi,
        fidelity=ref_fid,
        isometry=best_v,
        env_dim=env_dim,
        identity_floor=t.identity_floor,
        restart_values=tuple(float(b[0]) for b in bests),
        evaluations=evaluations,
        fallback_identity=best_v is identity,
    )


def estimate_grid(
    a: Analysis,
    eps_grid,
    config: IsometrySearchConfig = IsometrySearchConfig(),
) -> list[IEpsilonEstimate]:
    """Estimates on the analysed source a along an ascending eps grid,
    warm-starting each point with the previous optimum so the reported
    curve is non-decreasing."""
    return _grid(_target(a), eps_grid, config)


def _grid(t: _Target, eps_grid, config: IsometrySearchConfig) -> list[IEpsilonEstimate]:
    """The searches on t along an ascending grid of eps in [0, 1], each
    warm-started with the optimum before it."""
    eps_grid = [float(x) for x in eps_grid]
    if any(b < a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError(f"eps grid must be sorted ascending, got {eps_grid}")
    for eps in eps_grid:
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"eps must lie in [0, 1], got {eps}")
    out = []
    for eps in eps_grid:
        out.append(_search(t, eps, config, out[-1].isometry if out else None))
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
    a: Analysis,
    eps_grid,
    config: IsometrySearchConfig = IsometrySearchConfig(),
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
    and subadditive_ok test that witness, not the optimiser. Diagnostic
    only: nothing here raises.
    """
    t = _target(a)
    ests = _grid(t, eps_grid, config)
    values = tuple(est.value for est in ests)
    grid = tuple(est.eps for est in ests)
    floor, ceiling = t.identity_floor, t.s_cy

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
    pair_est = _search(_pair_target(t, a.decomposition.size), 0.0, pair_cfg)
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
