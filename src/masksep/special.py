"""Digamma, trigamma and log-gamma for finite arguments x >= 1e-3.

One kernel, ``gamma_tables``, returns all three from one pass. Each
starts from its asymptotic series at y = x + 10: the Bernoulli series of
psi and psi', and Stirling's series of ln Gamma, which shares psi's ln y
and both series' 1 / y and 1 / y^2. The recurrence then steps down to x:
psi and psi' through each reciprocal 1 / (x + k), shared by the two, and
ln Gamma by subtracting ln prod(x + k) over k = 9..0, whose factors are
the recurrence's x + k. No scipy module is imported. On the 9,235-element
table of one 513 x 9 crop (arguments 1 + kappa P and 1 + kappa (1 - P),
kappa 4 and 9; one thread, numpy 2.4.6, 2 vCPUs, medians of 30 in three
runs) the kernel takes 417 to 521 us, against 499 to 559 us for the
digamma/trigamma kernel plus the Lanczos log-gamma that it replaced.

The function checks nothing: ``policy.BetaPolicyParams`` passes it
1 + kappa P, 1 + kappa (1 - P) and 2 + kappa only after checking that P
lies in [0, 1] and kappa in [0, policy.KAPPA_MAX], so every argument lies
in [1, 1e6 + 2], far below the overflow of the ten x + k's product near
1e30. All three tables are accurate to close to machine precision on
[1e-3, 1e6] (tests/test_special.py holds the reference values). A 0-d
input gives 0-d or scalar results.
"""

from __future__ import annotations

import numpy as np

_HALF_LOG_TWO_PI = 0.9189385332046727417803297364056176

# Bernoulli numbers B_2 .. B_14, at y = x + cutoff:
# psi(y) ~ ln y - 1/(2y) - sum B_2n / (2n y^2n),
# psi'(y) ~ 1/y + 1/(2y^2) + sum B_2n / y^(2n+1) and
# ln Gamma(y) ~ (y - 1/2) ln y - y + ln(2 pi) / 2
#               + sum B_2n / (2n (2n-1) y^(2n-1))
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
_TWO_N = 2.0 * np.arange(1, _BERNOULLI.size + 1)
_DIGAMMA_ASYMPT = _BERNOULLI / _TWO_N
_STIRLING = _BERNOULLI / (_TWO_N * (_TWO_N - 1.0))

_RECURRENCE_CUTOFF = 10.0


def gamma_tables(x):
    """psi(x) = d/dx ln Gamma(x), psi'(x) and ln Gamma(x), elementwise,
    from one pass.

    It runs in six buffers allocated once per call, with out= and in-place
    ufuncs, in the operation order of the plain formulas in the comments;
    results are bitwise identical to those formulas.
    """
    # y = x + cutoff; inv = 1 / y; inv2 = inv * inv
    # lg = ((y - 0.5) * log(y) - y)
    #      + ((s_lg + STIRLING[0]) * inv + HALF_LOG_TWO_PI), where
    #      s_lg = (s + c) * inv2 from STIRLING[-1] * inv2, over
    #      STIRLING[-2:0:-1]
    # s = (s + c) * inv2 from 0, highest order first, over _DIGAMMA_ASYMPT
    # (s_psi) and _BERNOULLI (s_tri)
    # psi = log(y) - 0.5 * inv - s_psi; tri = s_tri * inv + 0.5 * inv2 + inv
    # then for k = cutoff - 1 down to 0, r = 1 / (x + k): psi - r, tri + r * r,
    # and lg - log(prod), prod = (x + 9) * (x + 8) * ... * (x + 0)
    x = np.asarray(x, dtype=np.float64)
    inv, inv2, psi, tri, tmp, lg = (np.empty_like(x) for _ in range(6))
    np.add(x, _RECURRENCE_CUTOFF, out=inv)
    np.log(inv, out=psi)
    np.subtract(inv, 0.5, out=lg)
    lg *= psi
    lg -= inv
    np.divide(1.0, inv, out=inv)
    np.multiply(inv, inv, out=inv2)
    np.multiply(_STIRLING[-1], inv2, out=tmp)
    for c in _STIRLING[-2:0:-1]:
        tmp += c
        tmp *= inv2
    tmp += _STIRLING[0]
    tmp *= inv
    tmp += _HALF_LOG_TWO_PI
    lg += tmp
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
    # small terms first: r grows as k falls; tmp holds the product
    for k in range(int(_RECURRENCE_CUTOFF) - 1, -1, -1):
        np.add(x, k, out=inv)
        if k == _RECURRENCE_CUTOFF - 1:
            tmp[...] = inv
        else:
            tmp *= inv
        np.divide(1.0, inv, out=inv)
        psi -= inv
        inv *= inv
        tri += inv
    np.log(tmp, out=tmp)
    lg -= tmp
    return psi, tri, lg
