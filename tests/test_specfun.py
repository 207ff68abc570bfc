"""Special-function values against independent oracles.

Oracles: adaptive quadrature of each defining integral, classical series,
reflection/duplication identities, and the accelerated harmonic sum for the
Euler-Mascheroni constant. Reference literals below were produced by those
oracles and are pinned.
"""

import math

import numpy as np
import pytest

from loglap import specfun as sf
from loglap.quadrature import (
    QuadratureConfig,
    SingularityHint,
    integrate,
    integrate_semiinfinite,
)

TIGHT = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=3000)

LOG_SQRT_PI = 0.5723649429247001
DIGAMMA_HALF = -1.9635100260214234
E1_AT_ONE = 0.21938393439552027
K_HALF_AT_ONE = 0.46106850444789456
ERF_AT_ONE = 0.8427007929497149


def gamma_quad_oracle(a: float) -> float:
    """Gamma(a) = int_0^inf t^(a-1) e^-t dt; t = v^(1/a) flattens the origin."""

    def head(v):
        v = np.asarray(v, dtype=float)
        return np.exp(-(v ** (1.0 / a))) / a

    h = integrate(head, 0.0, 1.0, cfg=TIGHT).value
    tail = integrate_semiinfinite(
        lambda t: np.asarray(t) ** (a - 1.0) * np.exp(-np.asarray(t)), 1.0, cfg=TIGHT
    ).value
    return h + tail


class TestGammaLn:
    def test_gamma_one_is_zero(self):
        assert sf.gamma_ln(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_half_integer(self):
        assert sf.gamma_ln(0.5) == pytest.approx(LOG_SQRT_PI, rel=1e-13)

    def test_factorial(self):
        assert sf.gamma_ln(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(3)
        for a in rng.uniform(0.3, 20.0, 20):
            oracle = gamma_quad_oracle(float(a))
            assert math.exp(sf.gamma_ln(float(a))) == pytest.approx(oracle, rel=1e-9)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sf.gamma_ln(bad)


class TestDigamma:
    def test_at_one(self):
        gamma_oracle = sf.euler_gamma_harmonic()
        assert sf.digamma(1.0) == pytest.approx(-gamma_oracle, abs=1e-12)

    def test_reflection_value(self):
        # psi(1/2) = -gamma - 2 log 2 by the duplication formula
        assert sf.digamma(0.5) == pytest.approx(DIGAMMA_HALF, abs=1e-12)
        assert sf.digamma(0.5) == pytest.approx(
            -sf.EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13
        )

    def test_recurrence_from_one(self):
        assert sf.digamma(2.0) == pytest.approx(1.0 - sf.EULER_GAMMA, abs=1e-12)

    def test_recurrence_property(self):
        rng = np.random.default_rng(5)
        for a in rng.uniform(0.1, 50.0, 1000):
            a = float(a)
            assert abs(sf.digamma(a + 1.0) - sf.digamma(a) - 1.0 / a) <= 1e-11

    def test_against_integral_oracle(self):
        # psi(a) = -gamma + int_0^1 (1 - u^(a-1))/(1 - u) du
        rng = np.random.default_rng(8)
        for a in rng.uniform(1.5, 20.0, 20):
            a = float(a)

            def g(u):
                u = np.asarray(u, dtype=float)
                return (1.0 - u ** (a - 1.0)) / (1.0 - u)

            oracle = -sf.EULER_GAMMA + integrate(
                g, 0.0, 1.0, hint=SingularityHint("upper"), cfg=TIGHT
            ).value
            assert sf.digamma(a) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sf.digamma(-0.5)


class TestUpperGamma:
    def test_full_integral(self):
        assert sf.upper_gamma(3.0, 0.0) == pytest.approx(2.0, rel=1e-13)

    def test_exponential_case(self):
        assert sf.upper_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_quadrature_oracle(self):
        def oracle(a, x):
            return integrate(
                lambda t: np.asarray(t) ** (a - 1.0) * np.exp(-np.asarray(t)),
                x,
                x + 80.0,
                cfg=TIGHT,
            ).value

        assert sf.upper_gamma(2.5, 4.0) == pytest.approx(oracle(2.5, 4.0), rel=1e-12)
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = float(rng.uniform(0.4, 8.0))
            x = float(rng.uniform(0.05, 25.0))
            assert sf.upper_gamma(a, x) == pytest.approx(oracle(a, x), rel=1e-9)

    def test_recurrence(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = float(rng.uniform(0.3, 10.0))
            x = float(rng.uniform(0.01, 30.0))
            lhs = sf.upper_gamma(a + 1.0, x)
            rhs = a * sf.upper_gamma(a, x) + math.exp(a * math.log(x) - x)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.upper_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            sf.upper_gamma(1.0, -1.0)


class TestExpIntegral:
    def test_value_at_one(self):
        assert sf.exp_integral_e1(1.0) == pytest.approx(E1_AT_ONE, rel=1e-12)

    def test_quadrature_consistency(self):
        oracle = integrate_semiinfinite(
            lambda u: np.exp(-np.asarray(u)) / np.asarray(u), 1.0, cfg=TIGHT
        ).value
        assert sf.exp_integral_e1(1.0) == pytest.approx(oracle, abs=1e-12)

    def test_large_argument_bound(self):
        assert sf.exp_integral_e1(50.0) <= math.exp(-50.0) / 50.0

    def test_small_argument_expansion(self):
        # E1(x) + log x -> -gamma
        x = 1e-6
        assert sf.exp_integral_e1(x) + math.log(x) == pytest.approx(
            -sf.EULER_GAMMA, abs=1e-3
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sf.exp_integral_e1(0.0)


class TestBesselK:
    def test_half_integer_closed_form(self):
        assert sf.bessel_k(0.5, 1.0) == pytest.approx(K_HALF_AT_ONE, rel=1e-13)
        x = 2.7
        expected = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * (1.0 + 1.0 / x)
        assert sf.bessel_k(1.5, x) == pytest.approx(expected, rel=1e-13)

    def test_laplace_integral_identity(self):
        # int_0^inf t^(-nu-1) e^(-alpha t - beta/t) dt = 2 (beta/alpha)^(-nu/2)
        #   K_nu(2 sqrt(alpha beta))
        nu, alpha, beta = 1.5, 1.0, 0.25

        def g(t):
            t = np.asarray(t, dtype=float)
            return t ** (-nu - 1.0) * np.exp(-alpha * t - beta / t)

        lhs = (
            integrate(g, 0.0, 1.0, cfg=TIGHT).value
            + integrate_semiinfinite(g, 1.0, cfg=TIGHT).value
        )
        rhs = 2.0 * (beta / alpha) ** (-nu / 2.0) * sf.bessel_k(
            nu, 2.0 * math.sqrt(alpha * beta)
        )
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_laplace_identity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            nu = float(rng.uniform(0.0, 6.0))
            alpha = float(rng.uniform(0.3, 3.0))
            beta = float(rng.uniform(0.1, 2.0))

            def g(t):
                t = np.asarray(t, dtype=float)
                return t ** (-nu - 1.0) * np.exp(-alpha * t - beta / t)

            lhs = (
                integrate(g, 0.0, 1.0, cfg=TIGHT).value
                + integrate_semiinfinite(g, 1.0, cfg=TIGHT).value
            )
            rhs = 2.0 * (beta / alpha) ** (-nu / 2.0) * sf.bessel_k(
                nu, 2.0 * math.sqrt(alpha * beta)
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_recurrence(self):
        nu, x = 1.0, 2.0
        lhs = sf.bessel_k(nu + 1.0, x)
        rhs = sf.bessel_k(nu - 1.0, x) + (2.0 * nu / x) * sf.bessel_k(nu, x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_monotone_decreasing(self):
        for nu in (0.0, 0.75, 2.5, 10.0):
            xs = np.geomspace(1e-4, 50.0, 40)
            vals = [sf.bessel_k(nu, float(x)) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            sf.bessel_k(10.0, 1e-30)
        with pytest.raises(OverflowError):
            sf.bessel_k(np.array([0.5, 2.0]), 1e-300)

    def test_matches_mpmath(self):
        # measured 2.7e-15 on this grid
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        nu = np.arange(0.0, 10.001, 0.25)[:, None]
        x = np.geomspace(1e-4, 700.0, 24)
        ref = np.array([[float(mp.besselk(v, xv)) for xv in x] for v in nu[:, 0]])
        assert np.max(np.abs(sf.bessel_k(nu, x) / ref - 1.0)) <= 1e-14

    @pytest.mark.filterwarnings("error")
    def test_tiny_argument(self):
        # mpmath values: K_0 grows like -log(x/2) - gamma down to the
        # smallest subnormal, and K_1 like 1/x
        assert sf.bessel_k(0.0, 1e-300) == pytest.approx(690.8914594138721, rel=1e-14)
        assert sf.bessel_k(0.0, 5e-324) == pytest.approx(744.5560034370396, rel=1e-14)
        assert sf.bessel_k(1.0, 1e-300) == pytest.approx(1e300, rel=1e-13)

    def test_array_elements_are_their_scalars(self):
        # each element has its own rule, whatever the other elements are
        nu = np.array([0.0, 0.3, 2.25, 7.5])[:, None]
        x = np.geomspace(1e-3, 300.0, 9)
        values = sf.bessel_k(nu, x)
        assert values.shape == (4, 9) and isinstance(sf.bessel_k(1.0, 2.0), float)
        singles = [[sf.bessel_k(float(v), float(xv)) for xv in x] for v in nu[:, 0]]
        assert values.tolist() == singles

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.bessel_k(-1.0, 1.0)
        with pytest.raises(ValueError):
            sf.bessel_k(1.0, 0.0)


class TestErf:
    def test_zero(self):
        assert sf.erf(0.0) == 0.0

    def test_odd(self):
        assert sf.erf(-1.3) == pytest.approx(-sf.erf(1.3), abs=1e-15)

    def test_series_oracle(self):
        # 2/sqrt(pi) sum (-1)^k x^(2k+1) / (k! (2k+1))
        x = 1.0
        total, term = 0.0, x
        for k in range(60):
            total += term / (2 * k + 1)
            term *= -x * x / (k + 1)
        oracle = 2.0 / math.sqrt(math.pi) * total
        assert sf.erf(1.0) == pytest.approx(oracle, abs=1e-13)
        assert sf.erf(1.0) == pytest.approx(ERF_AT_ONE, abs=1e-13)


class TestErfc:
    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        x = np.linspace(-6.0, 27.0, 331)
        ref = np.array([float(mp.erfc(mp.mpf(v))) for v in x])
        # erfc(27) = 5e-319 is subnormal, one ulp 5e-324 apart
        assert np.all(np.abs(sf.erfc(x) - ref) <= 1e-15 * ref + 1e-322)

    def test_scaled_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        # both sides of the switch to the asymptotic series at x = 25
        edges = [25.0 - 1e-12, 25.0, 25.0 + 1e-12]
        x = np.concatenate([np.linspace(-4.0, 40.0, 441), np.geomspace(40.0, 1e8, 40), edges])
        ref = np.array([float(mp.exp(mp.mpf(v) ** 2) * mp.erfc(mp.mpf(v))) for v in x])
        assert np.max(np.abs(sf.erfcx(x) / ref - 1.0)) <= 2e-15

    def test_shapes(self):
        x = np.array([[-1.0, 0.0], [3.0, 30.0]])
        for fn in (sf.erfc, sf.erfcx):
            out = fn(x)
            assert out.shape == x.shape and out.dtype == float
            assert fn(x[1, 1]) == out[1, 1]
        assert sf.erfc(0.0) == 1.0 and sf.erfcx(0.0) == 1.0


class TestBesselI0e:
    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        # both sides of every switch between the series and Hankel pieces
        edges = [v for e in (2.0, 22.0, 100.0) for v in (e * (1 - 1e-12), e, e * (1 + 1e-12))]
        z = np.concatenate(
            [[0.0, 1e-300, 1e-8], np.linspace(0.0, 120.0, 601), np.geomspace(120.0, 1e9, 120), edges]
        )
        ref = np.array([float(mp.besseli(0, mp.mpf(v)) * mp.exp(-mp.mpf(v))) for v in z])
        assert np.max(np.abs(sf.bessel_i0e(z) / ref - 1.0)) <= 5e-15

    def test_shape_and_elementwise(self):
        z = np.array([[0.0, 1.5], [30.0, 2e5]])
        out = sf.bessel_i0e(z)
        assert out.shape == z.shape
        assert out[0, 0] == 1.0
        for i, j in np.ndindex(z.shape):
            assert sf.bessel_i0e(z[i : i + 1, j]) == out[i, j]

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.bessel_i0e(np.array([1.0, -1e-3]))
        with pytest.raises(ValueError):
            sf.bessel_i0e(np.array([np.nan]))


def test_gamma_constant_oracle():
    assert abs(sf.EULER_GAMMA - sf.euler_gamma_harmonic()) <= 1e-12
