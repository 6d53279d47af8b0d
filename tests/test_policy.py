"""Beta-policy numerics against independent oracles.

Oracles: fixed-order Gauss-Legendre quadrature for density normalization
and log-density values, Monte Carlo estimates for entropy and KL, central
finite differences in the proposal P for gradients. Each Beta(a, b) with
a, b >= 1 is written in the policy's (P, kappa) coordinates by
``beta_coords``.
"""

import numpy as np
import pytest

from masksep.policy import (
    BetaPolicyParams,
    entropy,
    entropy_grad,
    kappa_schedule,
    kl_divergence,
    log_prob,
    log_prob_grad,
    params_from_proposal,
    sample,
)
from masksep.special import log_gamma
from oracles import sample_mask


def beta_log_pdf(alpha, beta, m):
    """Elementwise Beta log-density (no reduction), from the package's
    log-gamma: the oracle the policy's reduced log-probabilities face."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    return (
        (alpha - 1.0) * np.log(m)
        + (beta - 1.0) * np.log1p(-m)
        - (log_gamma(alpha) + log_gamma(beta) - log_gamma(alpha + beta))
    )


def quadrature_integral(f, n_nodes=400):
    """Integral of f over (0, 1) by Gauss-Legendre after the substitution
    x = sin^2(pi u / 2), which smooths endpoint derivative singularities of
    Beta densities with shape parameters in (1, 2)."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    u = 0.5 * (nodes + 1.0)
    x = np.sin(np.pi * u / 2.0) ** 2
    jac = (np.pi / 2.0) * np.sin(np.pi * u)
    return float(np.sum(0.5 * weights * f(x) * jac))


def beta_coords(a, b):
    """(P, kappa) of Beta(a, b): kappa = a + b - 2 and P is the mode
    (a - 1) / kappa; Beta(1, 1) is kappa = 0, where P is immaterial."""
    kappa = a + b - 2.0
    return (0.5 if kappa == 0.0 else (a - 1.0) / kappa), kappa


def single_bin(a, b):
    p, kappa = beta_coords(a, b)
    return BetaPolicyParams(np.array([p]), kappa)


class TestParamsFromProposal:
    def test_documented_mapping(self):
        p = params_from_proposal(np.array([0.5]), 9.0)
        assert p.alpha[0] == pytest.approx(5.5) and p.beta[0] == pytest.approx(5.5)

    def test_boundary_proposal(self):
        p = params_from_proposal(np.array([0.0]), 9.0)
        assert p.alpha[0] == 1.0 and p.beta[0] == 10.0

    def test_mode_identity(self):
        # mode of Beta(a,b) with a,b > 1 is (a-1)/(a+b-2), which must equal p
        for prop in (0.3, 0.05, 0.99):
            for kappa in (4.0, 9.0, 0.5):
                p = params_from_proposal(np.array([prop]), kappa)
                mode = (p.alpha[0] - 1.0) / (p.alpha[0] + p.beta[0] - 2.0)
                assert mode == pytest.approx(prop, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            params_from_proposal(np.array([1.2]), 9.0)
        with pytest.raises(ValueError):
            params_from_proposal(np.array([0.5]), 0.0)


class TestParams:
    def test_zero_kappa_is_uniform(self):
        p = BetaPolicyParams(np.array([0.0, 0.3, 1.0]), 0.0)
        assert p.alpha.tolist() == [1.0] * 3 and p.beta.tolist() == [1.0] * 3

    @pytest.mark.parametrize("proposal, kappa", [
        ([1.2], 9.0), ([-0.1], 9.0), ([np.nan], 9.0), ([np.inf], 9.0),
        ([0.5], -1.0), ([0.5], np.nan), ([0.5], np.inf),
    ])
    def test_validation(self, proposal, kappa):
        with pytest.raises(ValueError):
            BetaPolicyParams(np.array(proposal), kappa)


class TestLogProb:
    def test_uniform_density_is_zero(self):
        assert log_prob(single_bin(1.0, 1.0), np.array([0.37])) == pytest.approx(0.0)

    def test_linear_density(self):
        # Beta(2, 1) has pdf 2m; at m = 0.5 the log-density is ln(1) = 0
        assert log_prob(single_bin(2.0, 1.0), np.array([0.5])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_value_against_quadrature_normalization(self):
        # oracle: log pdf at m equals log of (integrand / integral) computed
        # with raw powers and a quadrature normalization constant
        a, b, m = 5.5, 5.5, 0.5
        norm = quadrature_integral(lambda x: x ** (a - 1) * (1 - x) ** (b - 1))
        expected = np.log(m ** (a - 1) * (1 - m) ** (b - 1) / norm)
        got = log_prob(single_bin(a, b), np.array([m]))
        assert got == pytest.approx(expected, abs=1e-8)

    def test_density_normalization_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.uniform(1.0, 20.0)
            b = rng.uniform(1.0, 20.0)
            integral = quadrature_integral(
                lambda x: np.exp(beta_log_pdf(a, b, x))
            )
            assert 1.0 - 1e-6 <= integral <= 1.0 + 1e-6

    def test_boundary_mask_rejected(self):
        with pytest.raises(ValueError, match="clamp upstream"):
            log_prob(single_bin(2.0, 2.0), np.array([0.0]))
        with pytest.raises(ValueError, match="clamp upstream"):
            log_prob(single_bin(2.0, 2.0), np.array([1.0]))
        with pytest.raises(ValueError, match="clamp upstream"):
            log_prob(single_bin(2.0, 2.0), np.array([np.nan]))


class TestSampling:
    def test_high_concentration_tracks_proposal(self):
        params = params_from_proposal(np.full(1000, 0.7), 1e6)
        (masks,) = sample([params], np.random.default_rng(1))
        assert abs(masks.mean() - 0.7) < 1e-2

    def test_uniform_case_mean(self):
        params = BetaPolicyParams(np.full(100_000, 0.5), 0.0)
        (masks,) = sample([params], np.random.default_rng(2))
        # 3 sigma of the mean of U(0,1) over n draws
        assert abs(masks.mean() - 0.5) < 3 * np.sqrt(1 / 12 / 100_000)

    def test_seed_determinism(self):
        params = params_from_proposal(np.random.default_rng(3).uniform(size=50), 9.0)
        (a,) = sample([params], np.random.default_rng(42))
        (b,) = sample([params], np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert [log_prob(params, m) for m in a] == [log_prob(params, m) for m in b]

    def test_samples_clamped_inside_open_interval(self):
        params = params_from_proposal(np.zeros(10_000), 9.0)
        (masks,) = sample([params], np.random.default_rng(4))
        assert masks.min() >= 1e-5 and masks.max() <= 1 - 1e-5
        assert np.isfinite(log_prob(params, masks[0]))

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_call_draws_the_per_mask_stream(self, n):
        # policies of different shapes, as crops of different lengths give
        gen = np.random.default_rng(5)
        policies = [params_from_proposal(gen.uniform(size=shape), kappa)
                    for shape, kappa in (((7, 3), 9.0), ((7, 5), 4.0),
                                         ((7, 3), 0.5))]
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        out = sample(policies, rng, n, clamp_eps=1e-3)
        for params, masks in zip(policies, out):
            assert masks.shape == (n, *params.shape)
            for mask in masks:
                ref_mask, ref_logp = sample_mask(params, ref_rng, 1e-3)
                assert np.array_equal(mask, ref_mask)
                assert log_prob(params, mask) == ref_logp
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestEntropy:
    def test_uniform_entropy_is_zero(self):
        assert entropy(single_bin(1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        a, b = 5.5, 5.5
        rng = np.random.default_rng(5)
        draws = rng.beta(a, b, size=1_000_000)
        mc = -float(np.mean(beta_log_pdf(a, b, draws)))
        assert entropy(single_bin(a, b)) == pytest.approx(mc, abs=1e-2)

    def test_entropy_decreases_with_kappa(self):
        values = [
            entropy(params_from_proposal(np.array([0.5]), kappa))
            for kappa in (1.0, 4.0, 9.0)
        ]
        assert values[0] > values[1] > values[2]


class TestKl:
    def test_self_kl_is_zero(self):
        p = params_from_proposal(np.random.default_rng(6).uniform(size=20), 9.0)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        p, q = single_bin(2.0, 2.0), single_bin(1.0, 1.0)
        rng = np.random.default_rng(7)
        draws = rng.beta(2.0, 2.0, size=1_000_000)
        mc = float(np.mean(beta_log_pdf(2.0, 2.0, draws)
                           - beta_log_pdf(1.0, 1.0, draws)))
        assert kl_divergence(p, q) == pytest.approx(mc, abs=1e-2)

    def test_asymmetry(self):
        # note: the mirrored pair ((5,2),(2,5)) is symmetric under m -> 1-m,
        # so asymmetry must be shown on a non-mirrored pair
        p, q = single_bin(5.0, 2.0), single_bin(2.0, 2.0)
        forward = kl_divergence(p, q)
        backward = kl_divergence(q, p)
        assert forward > 0 and backward > 0
        assert forward != pytest.approx(backward, abs=1e-6)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            p = single_bin(rng.uniform(1, 20), rng.uniform(1, 20))
            q = single_bin(rng.uniform(1, 20), rng.uniform(1, 20))
            assert kl_divergence(p, q) >= -1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = rng.uniform(1, 20), rng.uniform(1, 20)
            assert kl_divergence(single_bin(a, b), single_bin(a, b)) < 1e-12
            other = single_bin(a + 0.05, b)
            assert kl_divergence(single_bin(a, b), other) > 1e-7


def fd_in_proposal(f, p, kappa, h=1e-5):
    """Central finite difference in P of a scalar function of one bin."""
    def at(x):
        return f(BetaPolicyParams(np.array([x]), kappa))
    return (at(p + h) - at(p - h)) / (2 * h)


class TestGradients:
    def test_log_prob_grad_fd(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(100):
            p, kappa = beta_coords(rng.uniform(1.05, 15.0),
                                   rng.uniform(1.05, 15.0))
            m = np.array([rng.uniform(0.05, 0.95)])
            g = log_prob_grad(BetaPolicyParams(np.array([p]), kappa), m)
            fd = fd_in_proposal(lambda q: log_prob(q, m), p, kappa)
            worst = max(worst, abs(g[0] - fd) / max(abs(fd), 1e-8))
        assert worst <= 1e-4

    def test_symmetry_at_half(self):
        # with P = 1/2 (alpha = beta) and m = 1/2 the gradient vanishes:
        # kappa (ln(1/2) - ln(1/2) - psi(a) + psi(a))
        g = log_prob_grad(BetaPolicyParams(np.array([0.5]), 4.0),
                          np.array([0.5]))
        assert g[0] == pytest.approx(0.0, abs=1e-12)

    def test_uniform_grad_closed_form(self):
        # the uniform policy (kappa = 0) does not depend on P; Beta(2, 1)
        # (P = 1, kappa = 1) at m = 1/2: ln 0.5 - ln 0.5 - psi(2) + psi(1) = -1
        m = np.array([0.5])
        assert log_prob_grad(single_bin(1.0, 1.0), m)[0] == 0.0
        assert log_prob_grad(single_bin(2.0, 1.0), m)[0] == pytest.approx(
            -1.0, abs=1e-12)

    def test_entropy_grad_fd(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p, kappa = beta_coords(rng.uniform(1.05, 15.0),
                                   rng.uniform(1.05, 15.0))
            g = entropy_grad(BetaPolicyParams(np.array([p]), kappa))
            fd = fd_in_proposal(entropy, p, kappa)
            assert g[0] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestSharedTables:
    def test_shared_tables_match_standalone_ops_bitwise(self, monkeypatch):
        from masksep import policy
        from masksep.special import digamma_trigamma

        rng = np.random.default_rng(13)
        params = params_from_proposal(rng.uniform(size=(7, 5)), 9.0)
        other = params_from_proposal(rng.uniform(size=(7, 5)), 4.0)
        mask = rng.uniform(0.05, 0.95, size=(7, 5))

        def evaluate():
            return [
                log_prob(params, mask), entropy(params),
                log_prob_grad(params, mask), entropy_grad(params),
                kl_divergence(params, other),
            ]

        first = evaluate()
        # the second pass reads the cached tables: no special function runs
        for name in ("digamma_trigamma", "log_gamma"):
            monkeypatch.setattr(policy, name, None)
        second = evaluate()
        monkeypatch.undo()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

        # the stacked tables reproduce separate special-function calls,
        # with alpha + beta = 2 + kappa as one scalar
        def log_beta(q):
            return (log_gamma(q.alpha) + log_gamma(q.beta)
                    - log_gamma(2.0 + q.kappa))

        def digamma(x):
            return digamma_trigamma(x)[0]

        ap, bp, aq, bq = params.alpha, params.beta, other.alpha, other.beta
        assert kl_divergence(params, other) == float(np.sum(
            log_beta(other) - log_beta(params)
            + (ap - aq) * digamma(ap) + (bp - bq) * digamma(bp)
            + (other.kappa - params.kappa) * digamma(2.0 + params.kappa)
        ))
        for table, x in zip(params.tri, (ap, bp, 2.0 + params.kappa)):
            assert np.array_equal(table, digamma_trigamma(x)[1])

    def test_tables_drop_the_alpha_plus_beta_column(self, monkeypatch):
        # alpha + beta = 2 + kappa in every bin, so each table call of one
        # policy takes its F*T alphas, its F*T betas and one scalar, and
        # digamma and trigamma come from one call whichever is read first
        from masksep import policy

        f, t = 9, 4
        sizes = {}
        for name in ("log_gamma", "digamma_trigamma"):
            def counted(x, _fn=getattr(policy, name), _name=name):
                sizes.setdefault(_name, []).append(np.size(x))
                return _fn(x)
            monkeypatch.setattr(policy, name, counted)
        rng = np.random.default_rng(14)
        mask = rng.uniform(0.05, 0.95, size=(f, t))
        for first in (entropy_grad, lambda p: log_prob_grad(p, mask)):
            sizes.clear()
            params = params_from_proposal(rng.uniform(size=(f, t)), 9.0)
            first(params)
            log_prob(params, mask)
            entropy(params)
            log_prob_grad(params, mask)
            entropy_grad(params)
            kl_divergence(params, params)
            assert sizes == {name: [2 * f * t + 1]
                             for name in ("log_gamma", "digamma_trigamma")}


class TestKappaSchedule:
    def test_ramp_then_constant(self):
        assert kappa_schedule(0, 1000) == pytest.approx(4.0)
        assert kappa_schedule(100, 1000) == pytest.approx(6.5)
        assert kappa_schedule(200, 1000) == pytest.approx(9.0)
        assert kappa_schedule(999, 1000) == pytest.approx(9.0)
        # no ramp at all at 0; a positive fraction ramps over at least a step
        assert [kappa_schedule(s, 1000, 4.0, 9.0, 0.0)
                for s in (0, 1, 999)] == [9.0, 9.0, 9.0]
        assert [kappa_schedule(s, 1000, 4.0, 9.0, 1e-4)
                for s in (0, 1)] == [4.0, 9.0]

    def test_zero_total_steps(self):
        assert kappa_schedule(0, 0) == 9.0
