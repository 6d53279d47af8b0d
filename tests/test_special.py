"""Special-function accuracy against frozen high-precision references.

Reference values computed with mpmath at 40 decimal digits.
"""

import numpy as np
import pytest

from masksep import special
from masksep.policy import BetaPolicyParams
from masksep.special import digamma_trigamma, log_gamma

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


def digamma(x):
    return digamma_trigamma(x)[0]


def trigamma(x):
    return digamma_trigamma(x)[1]


@pytest.mark.parametrize("x,ref_lg,ref_dg,ref_tg", REFERENCE)
def test_digamma_reference(x, ref_lg, ref_dg, ref_tg):
    tol = max(1e-12, 8 * np.spacing(abs(ref_dg)))
    assert abs(digamma(x) - ref_dg) <= tol


@pytest.mark.parametrize("x,ref_lg,ref_dg,ref_tg", REFERENCE)
def test_trigamma_reference(x, ref_lg, ref_dg, ref_tg):
    assert abs(trigamma(x) - ref_tg) <= max(1e-12, 1e-13 * abs(ref_tg))


def test_log_gamma_dense_against_scipy():
    # the Lanczos series alone, with no reflection, over the whole range
    # the reference rows span, at test_log_gamma_reference's tolerance
    from scipy.special import gammaln

    x = np.exp(np.random.default_rng(11).uniform(np.log(1e-3), np.log(1e6),
                                                  100_000))
    ref = gammaln(x)
    tol = np.maximum(1e-12, 8 * np.spacing(np.abs(ref)))
    assert np.all(np.abs(log_gamma(x) - ref) <= tol)


def test_digamma_trigamma_dense_against_scipy():
    # the recurrence and both series over the whole range the reference
    # rows span, at the reference tests' tolerances
    from scipy.special import polygamma, psi

    x = np.exp(np.random.default_rng(12).uniform(np.log(1e-3), np.log(1e6),
                                                  100_000))
    dg, tg = digamma_trigamma(x)
    ref_dg, ref_tg = psi(x), polygamma(1, x)
    assert np.all(np.abs(dg - ref_dg)
                  <= np.maximum(1e-12, 8 * np.spacing(np.abs(ref_dg))))
    assert np.all(np.abs(tg - ref_tg) <= np.maximum(1e-12, 1e-13 * ref_tg))


def test_vectorized_matches_scalar():
    # a Python float gives 0-d results with the bits of the array call
    xs = np.array([x for x, *_ in REFERENCE])
    assert np.allclose(log_gamma(xs), [log_gamma(x) for x in xs], rtol=0, atol=0)
    whole = digamma_trigamma(xs)
    alone = [digamma_trigamma(float(x)) for x in xs]
    for i, table in enumerate(whole):
        assert all(np.ndim(a[i]) == 0 for a in alone)
        assert table.tobytes() == np.array([a[i] for a in alone]).tobytes()


@pytest.mark.parametrize("size", [1, 9, 256, 4617])
@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma],
                         ids=["log_gamma", "digamma", "trigamma"])
def test_array_is_bitwise_elementwise(fn, size):
    # the stacked (alpha, beta, [2 + kappa]) tables of the Beta policy rely
    # on an array call giving every element the bits of a call on it alone
    x = np.exp(np.random.default_rng(size).uniform(np.log(1e-3), np.log(1e4),
                                                    size))
    whole = fn(x)
    alone = np.array([fn(v) for v in x])
    assert whole.dtype == alone.dtype and whole.tobytes() == alone.tobytes()


def plain_log_gamma(x):
    """The straightforward Lanczos series the in-place kernel must
    reproduce bit for bit."""
    z = x - 1.0
    series = np.full_like(z, special._LANCZOS_COEF[0])
    for i in range(1, special._LANCZOS_COEF.size):
        series = series + special._LANCZOS_COEF[i] / (z + i)
    base = z + special._LANCZOS_G + 0.5
    return (special._HALF_LOG_TWO_PI + (z + 0.5) * np.log(base) - base
            + np.log(series))


def plain_digamma_trigamma(x):
    """Asymptotic series at x + cutoff, then the recurrence down to x, as
    plain formulas."""
    y = x + special._RECURRENCE_CUTOFF
    inv = 1.0 / y
    inv2 = inv * inv
    s_psi = np.zeros_like(y)
    n = np.arange(1, special._BERNOULLI.size + 1)
    for c in (special._BERNOULLI / (2.0 * n))[::-1]:
        s_psi = (s_psi + c) * inv2
    s_tri = np.zeros_like(y)
    for c in special._BERNOULLI[::-1]:
        s_tri = (s_tri + c) * inv2
    psi = np.log(y) - 0.5 * inv - s_psi
    tri = s_tri * inv + 0.5 * inv2 + inv
    for k in range(int(special._RECURRENCE_CUTOFF) - 1, -1, -1):
        r = 1.0 / (x + k)
        psi = psi - r
        tri = tri + r * r
    return psi, tri


def test_kernels_match_plain_formulas_bitwise():
    x = np.exp(np.random.default_rng(3).uniform(np.log(1e-3), np.log(1e6),
                                                 20_000))
    assert np.array_equal(log_gamma(x), plain_log_gamma(x))
    psi, tri = digamma_trigamma(x)
    plain_psi, plain_tri = plain_digamma_trigamma(x)
    assert psi.tobytes() == plain_psi.tobytes()
    assert tri.tobytes() == plain_tri.tobytes()


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


def log_beta(a, b):
    """ln B(a, b) = lnGamma(a) + lnGamma(b) - lnGamma(a + b), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def test_log_beta_symmetry_and_known_value():
    assert log_beta(5.5, 5.5) == pytest.approx(-7.1887846378380827, abs=1e-12)
    assert log_beta(2.0, 7.0) == pytest.approx(log_beta(7.0, 2.0), abs=0)
    # B(1, 1) = 1
    assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_domain_errors():
    # the functions check nothing: their arguments 1 + kappa P,
    # 1 + kappa (1 - P) and 2 + kappa are finite and >= 1 because the
    # policy's parameters reject every P and kappa that could break that
    for proposal, kappa in [([np.nan], 9.0), ([-0.1], 9.0), ([1.2], 9.0),
                            ([0.5], -1.0), ([0.5], np.nan), ([0.5], np.inf),
                            ([0.5], -np.inf)]:
        with pytest.raises(ValueError):
            BetaPolicyParams(np.array(proposal), kappa)
