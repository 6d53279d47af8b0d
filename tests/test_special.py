"""Special-function accuracy against frozen high-precision references.

Reference values computed with mpmath at 40 decimal digits.
"""

import numpy as np
import pytest

from masksep import special
from masksep.special import digamma, log_beta, log_gamma, trigamma

# (x, lgamma(x), digamma(x), trigamma(x))
REFERENCE = [
    (0.001, 6.9071788853838536825, -1000.5755719318103005, 1000001.642533195869),
    (0.123, 2.0363275034177118314, -8.5213537432089739147, 67.489870384579533936),
    (0.5, 0.57236494292470008707, -1.9635100260214234794, 4.9348022005446793094),
    (1.0, 0.0, -0.57721566490153286061, 1.6449340668482264365),
    (1.5, -0.12078223763524522235, 0.036489973978576520559, 0.93480220054467930942),
    (2.0, 0.0, 0.42278433509846713939, 0.64493406684822643647),
    (3.5, 1.2009736023470742248, 1.1031566406452431872, 0.33035775610023486497),
    (5.5, 3.9578139676187162939, 1.6110931485817511237, 0.19934238698962765913),
    (7.77, 8.0651217451154755221, 1.9845420583479447693, 0.13733611910172150073),
    (10.0, 12.801827480081469611, 2.2517525890667211076, 0.10516633568168574612),
    (42.0, 114.03421178146170323, 3.7257176179372821503, 0.024095219843670564148),
    (123.456, 469.60554712992946873, 4.8118293238289853873, 0.0081329458342781980101),
    (1234.5, 7550.5509010778948957, 7.1180162318279978433, 0.0008103727271269666527),
    (100000.0, 1051287.7089736568949, 11.512920464961895087, 1.0000050000166666667e-5),
    (1000000.0, 12815504.56914761166, 13.815510057964190771, 1.0000005000001666667e-6),
]


@pytest.mark.parametrize("x,ref_lg,ref_dg,ref_tg", REFERENCE)
def test_log_gamma_reference(x, ref_lg, ref_dg, ref_tg):
    # float64 ulp of the value bounds what any implementation can reach,
    # so the absolute tolerance widens with magnitude
    tol = max(1e-12, 8 * np.spacing(abs(ref_lg)))
    assert abs(log_gamma(x) - ref_lg) <= tol


@pytest.mark.parametrize("x,ref_lg,ref_dg,ref_tg", REFERENCE)
def test_digamma_reference(x, ref_lg, ref_dg, ref_tg):
    tol = max(1e-12, 8 * np.spacing(abs(ref_dg)))
    assert abs(digamma(x) - ref_dg) <= tol


@pytest.mark.parametrize("x,ref_lg,ref_dg,ref_tg", REFERENCE)
def test_trigamma_reference(x, ref_lg, ref_dg, ref_tg):
    assert abs(trigamma(x) - ref_tg) <= max(1e-12, 1e-13 * abs(ref_tg))


def test_vectorized_matches_scalar():
    xs = np.array([x for x, *_ in REFERENCE])
    assert np.allclose(log_gamma(xs), [log_gamma(x) for x in xs], rtol=0, atol=0)
    assert np.allclose(digamma(xs), [digamma(x) for x in xs], rtol=0, atol=0)
    assert np.allclose(trigamma(xs), [trigamma(x) for x in xs], rtol=0, atol=0)


@pytest.mark.parametrize("size", [1, 9, 256, 4617])
@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma],
                         ids=["log_gamma", "digamma", "trigamma"])
def test_array_is_bitwise_elementwise(fn, size):
    # the stacked (alpha, beta, alpha + beta) tables of the Beta policy rely
    # on an array call giving every element the bits of a call on it alone;
    # the range covers the reflection branch of log_gamma as well
    x = np.exp(np.random.default_rng(size).uniform(np.log(1e-3), np.log(1e4),
                                                    size))
    whole = fn(x)
    alone = np.array([fn(v) for v in x])
    assert whole.dtype == alone.dtype and whole.tobytes() == alone.tobytes()


def plain_log_gamma(x):
    """The straightforward formulas (Lanczos series, reflection below 0.5)
    the in-place kernels must reproduce bit for bit."""
    def lanczos(x):
        z = x - 1.0
        series = np.full_like(z, special._LANCZOS_COEF[0])
        for i in range(1, special._LANCZOS_COEF.size):
            series = series + special._LANCZOS_COEF[i] / (z + i)
        base = z + special._LANCZOS_G + 0.5
        return (special._HALF_LOG_TWO_PI + (z + 0.5) * np.log(base) - base
                + np.log(series))

    out = lanczos(x)
    small = x < 0.5
    xs = x[small]
    out[small] = np.log(np.pi / np.sin(np.pi * xs)) - lanczos(1.0 - xs)
    return out


def plain_polygamma(x, order):
    """Upward recurrence plus asymptotic series, as plain formulas."""
    acc = np.zeros_like(x)
    for k in range(int(special._RECURRENCE_CUTOFF)):
        if order == 0:
            acc -= 1.0 / (x + k)
        else:
            acc += 1.0 / ((x + k) * (x + k))
    y = x + special._RECURRENCE_CUTOFF
    inv = 1.0 / y
    inv2 = inv * inv
    series = np.zeros_like(y)
    coef = special._DIGAMMA_ASYMPT if order == 0 else special._TRIGAMMA_ASYMPT
    for c in coef[::-1]:
        series = (series + c) * inv2
    if order == 0:
        return acc + np.log(y) - 0.5 * inv + series
    return acc + inv + 0.5 * inv2 + series * inv


def test_kernels_match_plain_formulas_bitwise():
    x = np.exp(np.random.default_rng(3).uniform(np.log(1e-3), np.log(1e6),
                                                 20_000))
    assert np.array_equal(log_gamma(x), plain_log_gamma(x))
    assert np.array_equal(digamma(x), plain_polygamma(x, 0))
    assert np.array_equal(trigamma(x), plain_polygamma(x, 1))


def test_digamma_is_derivative_of_log_gamma():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.5, 50.0, size=64)
    h = 1e-6
    fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
    assert np.max(np.abs(digamma(x) - fd)) < 1e-7


def test_trigamma_is_derivative_of_digamma():
    rng = np.random.default_rng(8)
    x = rng.uniform(0.5, 50.0, size=64)
    h = 1e-6
    fd = (digamma(x + h) - digamma(x - h)) / (2 * h)
    assert np.max(np.abs(trigamma(x) - fd) / np.abs(trigamma(x))) < 1e-6


def test_log_gamma_recurrence_identity():
    # lnGamma(x+1) = lnGamma(x) + ln(x)
    rng = np.random.default_rng(9)
    x = rng.uniform(0.01, 100.0, size=200)
    lhs = log_gamma(x + 1.0)
    rhs = log_gamma(x) + np.log(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_log_beta_symmetry_and_known_value():
    assert log_beta(5.5, 5.5) == pytest.approx(-7.1887846378380827, abs=1e-12)
    assert log_beta(2.0, 7.0) == pytest.approx(log_beta(7.0, 2.0), abs=0)
    # B(1, 1) = 1
    assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        digamma(-1.0)
    with pytest.raises(ValueError):
        trigamma(np.nan)
