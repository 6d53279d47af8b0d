"""Log-gamma, digamma and trigamma for finite arguments x >= 1e-3.

Log-gamma is a Lanczos series. Digamma and trigamma come from one kernel,
``digamma_trigamma``: both asymptotic Bernoulli series at x + 10, then the
recurrence down to x, each reciprocal 1 / (x + k) shared by the two. No
scipy module is imported. On the 9,235-element table of one 513 x 9 crop
(arguments 1 + kappa P and 1 + kappa (1 - P), kappa 4 to 9; one thread,
numpy 2.4.6, scipy 1.17.1, 2 vCPUs, medians of 30 in 3 to 5 runs) the
kernel takes 306 to 455 us, against 388 to 775 us for scipy's ``psi``
plus a separate trigamma; ``polygamma(1, x)`` alone takes 2.5 to 3.6 ms,
and ``gammaln`` 207 to 347 us against 162 to 226 us for log-gamma here.

The functions check nothing. Their one caller, ``policy.BetaPolicyParams``,
passes 1 + kappa P, 1 + kappa (1 - P) and 2 + kappa only after it has
checked that P lies in [0, 1] and kappa is finite and >= 0, so every
argument is finite and >= 1. The Lanczos series alone (no reflection) is
accurate to close to machine precision on [1e-3, 1e6], as are digamma
and trigamma; see tests/test_special.py for the reference values they are
held to. A 0-d input gives 0-d or scalar results.
"""

from __future__ import annotations

import numpy as np

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)

_HALF_LOG_TWO_PI = 0.9189385332046727417803297364056176

# Bernoulli numbers B_2 .. B_14: psi(y) ~ ln y - 1/(2y) - sum B_2n / (2n y^2n)
# and psi'(y) ~ 1/y + 1/(2y^2) + sum B_2n / y^(2n+1), at y = x + cutoff
_BERNOULLI = np.array(
    [
        1.0 / 6.0,
        -1.0 / 30.0,
        1.0 / 42.0,
        -1.0 / 30.0,
        5.0 / 66.0,
        -691.0 / 2730.0,
        7.0 / 6.0,
    ]
)
_DIGAMMA_ASYMPT = _BERNOULLI / (2.0 * np.arange(1, _BERNOULLI.size + 1))

_RECURRENCE_CUTOFF = 10.0


# The kernels below run in a few buffers allocated once per call, with
# out= and in-place ufuncs, in the operation order of the plain formulas
# in their comments; results are bitwise identical to those formulas.


def log_gamma(x):
    """Natural log of the gamma function, elementwise."""
    # z = x - 1; series = c0 + sum_i c_i / (z + i); base = z + g + 0.5
    # result = HALF_LOG_TWO_PI + (z + 0.5) * log(base) - base + log(series)
    z = np.subtract(x, 1.0, dtype=np.float64)
    series = np.full_like(z, _LANCZOS_COEF[0])
    tmp = np.empty_like(z)
    for i in range(1, _LANCZOS_COEF.size):
        np.add(z, i, out=tmp)
        np.divide(_LANCZOS_COEF[i], tmp, out=tmp)
        series += tmp
    base = np.add(z, _LANCZOS_G, out=tmp)
    base += 0.5
    log_base = np.log(base)
    z += 0.5
    z *= log_base
    z += _HALF_LOG_TWO_PI
    z -= base
    np.log(series, out=series)
    z += series
    return z


def digamma_trigamma(x):
    """psi(x) = d/dx ln Gamma(x) and psi'(x), elementwise, from one pass."""
    # y = x + cutoff; inv = 1 / y; inv2 = inv * inv; s = (s + c) * inv2 from
    # 0, highest order first, over _DIGAMMA_ASYMPT (s_psi) and _BERNOULLI
    # psi = log(y) - 0.5 * inv - s_psi; tri = s_tri * inv + 0.5 * inv2 + inv
    # then for k = cutoff - 1 down to 0, r = 1 / (x + k): psi - r, tri + r * r
    x = np.asarray(x, dtype=np.float64)
    inv, inv2, psi, tri, tmp = (np.empty_like(x) for _ in range(5))
    np.add(x, _RECURRENCE_CUTOFF, out=inv)
    np.log(inv, out=psi)
    np.divide(1.0, inv, out=inv)
    np.multiply(inv, inv, out=inv2)
    for acc, coef in ((tmp, _DIGAMMA_ASYMPT), (tri, _BERNOULLI)):
        np.multiply(coef[-1], inv2, out=acc)  # (0 + c) * inv2
        for c in coef[-2::-1]:
            acc += c
            acc *= inv2
    tri *= inv
    inv2 *= 0.5
    tri += inv2
    tri += inv
    np.multiply(inv, 0.5, out=inv2)
    psi -= inv2
    psi -= tmp
    # small terms first: r grows as k falls
    for k in range(int(_RECURRENCE_CUTOFF) - 1, -1, -1):
        np.add(x, k, out=inv)
        np.divide(1.0, inv, out=inv)
        psi -= inv
        inv *= inv
        tri += inv
    return psi, tri
