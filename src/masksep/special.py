"""Log-gamma, digamma and trigamma for finite arguments x >= 1e-3.

Log-gamma (Lanczos series) and trigamma (upward recurrence plus an
asymptotic Bernoulli series) are implemented here because scipy is slower
on the policy's tables. On the 9,235-element table of one 513 x 9 crop
(arguments 1 + kappa P and 1 + kappa (1 - P), kappa 4 to 9; one thread,
scipy 1.17.1, numpy 2.4.6, an Intel Xeon core),
``scipy.special.polygamma(1, x)`` and ``zeta(2, x)`` take 2.4 to 2.7 ms
against 0.28 ms here, about +35 ms per 16-item policy step, and
``scipy.special.gammaln`` takes 214 to 236 us against 195 to 238 us.
Digamma is scipy's ``psi``, which is faster there: 140 to 191 us against
265 to 280 us for the same recurrence and series. ``scipy.special`` is
imported on the first digamma, not with this module, so only a policy
step loads it.

The functions check nothing. Their one caller, ``policy.BetaPolicyParams``,
passes 1 + kappa P, 1 + kappa (1 - P) and 2 + kappa only after it has
checked that P lies in [0, 1] and kappa is finite and >= 0, so every
argument is finite and >= 1. The Lanczos series alone (no reflection) is
accurate to close to machine precision on [1e-3, 1e6], as is trigamma;
see tests/test_special.py for the reference values they are held to. A
0-d input gives a 0-d or scalar result.
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

# psi'(x) ~ 1/x + 1/(2x^2) + sum B_{2n} x^{-2n-1}; coefficients of x^{-2n-1}.
_TRIGAMMA_ASYMPT = np.array(
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


def digamma(x):
    """psi(x) = d/dx ln Gamma(x), elementwise."""
    from scipy.special import psi  # 26 MB, so only here
    return psi(x)


def trigamma(x):
    """psi'(x), elementwise."""
    # acc = sum_k 1 / ((x + k) * (x + k));  inv = 1 / (x + cutoff)
    # series = (series + c) * inv^2 for c from the highest order, from 0
    # result = acc + inv + 0.5 * inv^2 + series * inv
    x = np.asarray(x, dtype=np.float64)
    acc = np.zeros_like(x)
    tmp = np.empty_like(x)
    for k in range(int(_RECURRENCE_CUTOFF)):
        np.add(x, k, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        np.divide(1.0, tmp, out=tmp)
        acc += tmp
    inv = np.add(x, _RECURRENCE_CUTOFF, out=tmp)
    np.divide(1.0, inv, out=inv)

    inv2 = inv * inv
    series = np.zeros_like(inv2)
    for c in _TRIGAMMA_ASYMPT[::-1]:
        series += c
        series *= inv2
    acc += inv
    inv2 *= 0.5
    acc += inv2
    series *= inv
    acc += series
    return acc
