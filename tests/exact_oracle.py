"""A 40-digit reference for the entropy profile.

Every double converts to an mpmath number exactly, so the reference is
the profile of the doubles a source holds (as the parser returns them),
with no rounding but mpmath's own at DIGITS significant digits. Each
entropy is -sum lambda log2 lambda over the spectra of raw, unnormalised
mixtures sum_x p_x |v_x><v_x|, taken from their Gram matrices
[sqrt(p_x p_x') <v_x|v_x'>] (Jozsa & Schlienz, PRA 62, 012301, 2000) by
mp.eighe. The block path's H(q) + sum_y q_y S(.|y) is the same number
for any weights q_y, so S(ACY) has one reference for both of the
package's paths.

mpmath is a test dependency only, as scipy is.
"""

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
        g = mpmath.matrix(k, k)
        for i in range(k):
            for j in range(k):
                g[i, j] = amp[i] * amp[j] * mpmath.fprod(
                    mpmath.fdot([mpmath.conj(z) for z in f[i]], f[j]) for f in factors)
        evs = mpmath.mp.eighe(g, eigvals_only=True)
        return -mpmath.fsum(lam * mpmath.log(lam, 2) for lam in evs if lam > 0)


def profile(e, ys: np.ndarray) -> dict[str, mpmath.mpf]:
    """S_A, S_CY, S_ACY and S_ACY_direct of the source e whose support
    items have component indices ys, at DIGITS digits."""
    ov = e.overlaps
    blocks = [ys == y for y in np.unique(ys)]
    with mpmath.workdps(DIGITS):
        s_acy = mpmath.fsum(mixture_entropy(ov.probs[b], ov.psi[b], ov.sigma[b]) for b in blocks)
        s_cy = mpmath.fsum(mixture_entropy(ov.probs[b], ov.sigma[b]) for b in blocks)
    return {"S_A": mixture_entropy(ov.probs, ov.psi), "S_CY": s_cy, "S_ACY": s_acy, "S_ACY_direct": s_acy}


def ulps(value: float, reference: mpmath.mpf) -> float:
    """|value - reference| in units of the last place of the double nearest the reference."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - reference)) / math.ulp(float(reference))
