"""A 40-digit reference for the entropy profile and every rate derived
from it.

Every double converts to an mpmath number exactly, so the reference is
the profile of the doubles a source holds (as the parser returns them),
with no rounding but mpmath's own at DIGITS significant digits. Each
entropy is -sum lambda log2 lambda over the spectra of raw, unnormalised
mixtures sum_x p_x |v_x><v_x|, taken by mp.eighe from the smaller of
their Gram matrices [sqrt(p_x p_x') <v_x|v_x'>] and their marginals (the
two share their nonzero spectrum; Jozsa & Schlienz, PRA 62, 012301,
2000). The block path's H(q) + sum_y q_y S(.|y) is the same number for
any weights q_y, so S(ACY) has one reference for both of the package's
paths. The derived rates are the paper's formulas on these entropies,
with each component weight q_y the exact sum of its p_x.

mpmath is a test dependency only, as scipy is.
"""

import itertools
import math

import mpmath
import numpy as np

DIGITS = 40


def _mp(z: complex) -> mpmath.mpc:
    return mpmath.mpc(float(z.real), float(z.imag))


def mixture_entropy(probs: np.ndarray, *rows: np.ndarray) -> mpmath.mpf:
    """S(sum_x probs_x |v_x><v_x|) in bits, for v_x the tensor product of
    row x of each of rows, at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        amp = [mpmath.sqrt(mpmath.mpf(float(p))) for p in probs]
        factors = [[[_mp(z) for z in row] for row in r] for r in rows]
        k = len(amp)
        if math.prod(r.shape[1] for r in rows) < k:
            # the marginal, from the rows sqrt(p_x) v_x
            vs = [[amp[x] * mpmath.fprod(zs) for zs in itertools.product(*(f[x] for f in factors))]
                  for x in range(k)]
            side = len(vs[0])
            g = mpmath.matrix(side, side)
            for i in range(side):
                for j in range(side):
                    g[i, j] = mpmath.fsum(v[i] * mpmath.conj(v[j]) for v in vs)
        else:
            g = mpmath.matrix(k, k)
            for i in range(k):
                for j in range(k):
                    g[i, j] = amp[i] * amp[j] * mpmath.fprod(
                        mpmath.fdot([mpmath.conj(z) for z in f[i]], f[j]) for f in factors)
        evs = mpmath.mp.eighe(g, eigvals_only=True)
        return -mpmath.fsum(lam * mpmath.log(lam, 2) for lam in evs if lam > 0)


def shannon(probs) -> mpmath.mpf:
    """-sum p log2 p of mpmath numbers, at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        return -mpmath.fsum(p * mpmath.log(p, 2) for p in probs if p > 0)


def profile(e, ys: np.ndarray) -> dict[str, mpmath.mpf]:
    """S_A, S_CY, S_ACY and S_ACY_direct of the source e whose support
    items have component indices ys, at DIGITS digits."""
    ov = e.overlaps
    blocks = [ys == y for y in np.unique(ys)]
    with mpmath.workdps(DIGITS):
        s_acy = mpmath.fsum(mixture_entropy(ov.probs[b], ov.psi[b], ov.sigma[b]) for b in blocks)
        s_cy = mpmath.fsum(mixture_entropy(ov.probs[b], ov.sigma[b]) for b in blocks)
    return {"S_A": mixture_entropy(ov.probs, ov.psi), "S_CY": s_cy, "S_ACY": s_acy, "S_ACY_direct": s_acy}


def derived(e, ys: np.ndarray) -> dict[str, mpmath.mpf]:
    """The profile of e (as profile gives it) and every rate derived from
    it, at DIGITS digits: S_Y, H_X and S_A_given_CY; the optimum Q and E;
    the blind Q and E, the CE corner's C and E and the visible Q and E,
    which apply to blind or visible sources only; the EQ spec's q_min and
    sum_min; and the iepsilon floor S(C)."""
    p = profile(e, ys)
    ov = e.overlaps
    with mpmath.workdps(DIGITS):
        probs = [mpmath.mpf(float(x)) for x in ov.probs]
        weights = [mpmath.fsum(probs[i] for i in np.flatnonzero(ys == y)) for y in np.unique(ys)]
        s_a, s_y = p["S_A"], shannon(weights)
        s_a_given_cy = p["S_ACY"] - p["S_CY"]
        q = (s_a + s_a_given_cy) / 2
        return {**p, "S_Y": s_y, "H_X": shannon(probs), "S_A_given_CY": s_a_given_cy,
                "optimal_Q": q, "optimal_E": (s_a - s_a_given_cy) / 2,
                "blind_Q": s_a - s_y / 2, "blind_E": s_y / 2, "corner_C": 2 * s_a - s_y, "corner_E": s_a - s_y,
                "visible_Q": s_a / 2, "visible_E": s_a / 2, "q_min": q, "sum_min": s_a,
                "floor_S_C": mixture_entropy(ov.probs, ov.sigma)}


def ulps(value: float, reference: mpmath.mpf, scale: mpmath.mpf | None = None) -> float:
    """|value - reference| in units of the last place of the double nearest
    scale, by default the reference; a source's scale measures a value
    near zero as its neighbours are measured."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - reference)) / math.ulp(float(reference if scale is None else scale))
