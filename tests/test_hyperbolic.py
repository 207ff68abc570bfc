"""Hyperbolic-space kernels: heat kernels of both parities (the odd-n closed
form against mpmath), fractional and logarithmic kernels, asymptotic fits,
and the pointwise operator with its splitting."""

import json
import math
import re

import numpy as np
import pytest

from loglap import hyperbolic as hy
from loglap.quadrature import NonConvergenceError, QuadratureConfig, RadialFunction
from loglap.specfun import EULER_GAMMA, bessel_k

REL_CFG = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-10, max_subdivisions=4000)
TIGHT_CFG = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-13, max_subdivisions=4000)


def p3_closed(r: float, t: float) -> float:
    return (
        (4.0 * math.pi * t) ** -1.5
        * (r / math.sinh(r))
        * math.exp(-t - r * r / (4.0 * t))
    )


def even_reference(n: int, r: float, t: float) -> float:
    """p_n(r, t), n in {2, 4}: the x = r + u^2 integral node by node."""
    m = (n - 2) // 2
    umax = math.sqrt(max(-r + math.sqrt(r * r + 200.0 * t), 1e-8)) + 0.7
    gx, gw = np.polynomial.legendre.leggauss(32)
    edges = umax * np.linspace(0.0, 1.0, 11) ** 1.5
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        for g, w in zip(gx, gw):
            u = lo + 0.5 * (hi - lo) * (g + 1.0)
            x, y = r + u * u, r + 0.5 * u * u
            val = math.sqrt(2.0) * u / math.sqrt(math.sinh(0.5 * u * u))
            val *= math.exp(-x * x / (4.0 * t)) / math.sqrt(math.sinh(y))
            if n == 2:
                val *= x
            else:
                val *= (1.0 - x * x / (2.0 * t) - 0.5 * x / math.tanh(y)) / math.sinh(r)
            total += 0.5 * (hi - lo) * w * val
    pref = (-1.0) ** m / (2.0 ** (m + 2.5) * math.pi ** (m + 1.5))
    return pref * t ** -1.5 * math.exp(-((2 * m + 1) ** 2) * t / 4.0) * total


def mp_heat(mp, n: int, r: float, t: float, scaled: bool):
    """p_n(r, t), n in {3, 5}, in mpmath: p_3 explicit, and p_5 by the
    descent relation -e^(-3t)/(2 pi sinh r) d/dr p_3, whose limit on the
    axis is -e^(-3t)/(2 pi) p_3''(0); scaled as `heat_kernel` scales."""
    r, t = mp.mpf(r), mp.mpf(t)

    def p3(x):
        ratio = x / mp.sinh(x) if x else mp.mpf(1)
        return (4 * mp.pi * t) ** -1.5 * ratio * mp.exp(-t - x * x / (4 * t))

    if n == 3:
        value = p3(r)
    else:
        slope = mp.diff(p3, r, 2) if r == 0 else mp.diff(p3, r) / mp.sinh(r)
        value = -mp.exp(-3 * t) / (2 * mp.pi) * slope
    if scaled:
        value *= mp.exp(r * r / (4 * t) + (n - 1) ** 2 * t / 4)
    return float(value)


class TestOddHeatKernel:
    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_mpmath(self, n):
        # on the axis, near it and out to r = 12: scaled values everywhere;
        # unscaled ones where the exponent a t + r^2/4t is at most 50, since
        # past it the rounding of that exponent alone exceeds 1e-13
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        r = np.concatenate([[0.0, 1e-4, 1e-3, 5e-3, 0.015], np.geomspace(0.02, 12.0, 24)])
        t = np.geomspace(1e-3, 50.0, 15)
        for scaled in (True, False):
            value = hy.heat_kernel(n, r[:, None], t, scaled=scaled)
            ref = np.array([[mp_heat(mp, n, ri, ti, scaled) for ti in t] for ri in r])
            keep = ((n - 1) ** 2 * t / 4.0 + r[:, None] ** 2 / (4.0 * t) <= 50.0) | scaled
            assert np.max(np.abs(value[keep] / ref[keep] - 1.0)) <= 1e-13

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [3, 5])
    def test_finite_far_out(self, n):
        # r / sinh r and csch r go through e^-r, so nothing overflows where
        # the kernels underflow
        for value in (
            hy.heat_kernel(n, 800.0, 1.0),
            hy.frac_kernel(n, 0.5, 800.0, route="bessel_closed_form"),
        ):
            assert math.isfinite(value) and value >= 0.0

    def test_scaled_far_out_matches_mpmath(self):
        # past r = 745 r / sinh r underflows, but the scaled kernel is
        # (4 pi t)^(-3/2) r / sinh r on H^3 and, from -(e^(-3t) / (2 pi sinh r))
        # d/dr p_3, (4 pi t)^(-3/2) / (2 pi sinh r) (r^2 / (2 t sinh r) +
        # (r cosh r - sinh r) / sinh^2 r) on H^5, in range at small t
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        def scaled(n, r, t):
            r, t = mp.mpf(r), mp.mpf(t)
            sh, lead = mp.sinh(r), (4 * mp.pi * t) ** mp.mpf(-1.5)
            if n == 3:
                return lead * r / sh
            return lead / (2 * mp.pi * sh) * (r * r / (2 * t * sh) + (r * mp.cosh(r) - sh) / sh**2)

        # measured 2.9e-14, 6.8e-15 and 7.4e-14 (relative), the rounding of
        # exponents of a few hundred
        for n, r, t in ((3, 800.0, 1e-150), (3, 800.0, 1e-207), (5, 400.0, 1e-100)):
            assert hy.heat_kernel(n, r, t, scaled=True) == pytest.approx(
                float(scaled(n, r, t)), rel=2e-13)
        # a subnormal value (6.15e-317), within one step of the subnormal grid
        value = hy.heat_kernel(5, 800.0, 1e-150, scaled=True)
        assert abs(value - float(scaled(5, 800.0, 1e-150))) <= 5e-324
        assert hy.heat_kernel(3, 1e4, 1e-300, scaled=True) == 0.0  # about 5e-3891

    def test_elements_are_their_one_point_values(self):
        # Horner sums, not a matrix product, evaluate the series of h_1 and
        # G_q, so no element depends on the rest of the batch
        r = np.random.default_rng(0).uniform(0.0, 3.0, 500)
        heat = [hy.heat_kernel(5, float(x), 0.7) for x in r]
        assert hy.heat_kernel(5, r, 0.7).tobytes() == np.array(heat).tobytes()
        one = np.array([hy.log_kernel_values(3, [x]) for x in r + 1e-3])[:, :, 0]
        assert np.stack(hy.log_kernel_values(3, r + 1e-3), axis=1).tobytes() == one.tobytes()


class TestHeatKernel:
    def test_h3_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            r = float(rng.uniform(0.05, 5.0))
            t = float(rng.uniform(0.05, 5.0))
            assert hy.heat_kernel(3, r, t) == pytest.approx(
                p3_closed(r, t), rel=1e-12
            )

    def test_small_time_euclidean_limit(self):
        r, t = 0.5, 1e-4
        scaled = hy.heat_kernel(3, r, t) * (4.0 * math.pi * t) ** 1.5 * math.exp(
            t + r * r / (4.0 * t)
        )
        assert scaled == pytest.approx(r / math.sinh(r), rel=1e-3)

    def test_mass_one(self):
        for n in (2, 3):
            for t in (0.1, 1.0, 10.0):
                assert hy.heat_mass(n, t) == pytest.approx(1.0, abs=1e-8)

    def test_mass_unconverged_raises(self):
        with pytest.raises(NonConvergenceError, match="heat_mass"):
            hy.heat_mass(3, 1.0, QuadratureConfig(max_subdivisions=1))

    def test_descent_relation_even(self):
        # p_(n+2) = -e^(-n t)/(2 pi sinh r) d/dr p_n
        r, t, h = 1.3, 0.7, 1e-5
        dp2 = (hy.heat_kernel(2, r + h, t) - hy.heat_kernel(2, r - h, t)) / (2.0 * h)
        descent = -math.exp(-2.0 * t) / (2.0 * math.pi) * dp2 / math.sinh(r)
        assert hy.heat_kernel(4, r, t) == pytest.approx(descent, rel=1e-8)

    def test_descent_relation_odd(self):
        r, t, h = 0.9, 0.4, 1e-5
        dp3 = (hy.heat_kernel(3, r + h, t) - hy.heat_kernel(3, r - h, t)) / (2.0 * h)
        descent = -math.exp(-3.0 * t) / (2.0 * math.pi) * dp3 / math.sinh(r)
        assert hy.heat_kernel(5, r, t) == pytest.approx(descent, rel=1e-8)

    def test_axis_extension_continuous(self):
        for n in (2, 3, 4, 5):
            near = hy.heat_kernel(n, 1e-4, 0.5)
            limit = hy.heat_kernel(n, 0.0, 0.5)
            assert near == pytest.approx(limit, rel=1e-4)

    def test_chapman_kolmogorov(self):
        for d in (0.0, 1.0, 2.0):
            assert hy.chapman_kolmogorov_residual(0.5, 0.5, d) <= 1e-6

    def test_positive(self):
        for n in (2, 3, 4, 5):
            t = np.array([0.05, 0.5, 5.0])
            for r in (0.0, 0.3, 2.0, 7.0):
                assert np.all(np.asarray(hy.heat_kernel(n, r, t)) > 0.0)

    def test_broadcast_matches_pointwise(self):
        # 8 x 110 (r, t) pairs: more than one block of the even-n u-rule,
        # whose running sums leave each value independent of the others
        radii = np.array([0.0, 1e-4, 0.015, 0.02, 0.1, 0.7, 2.0, 4.0])
        times = np.geomspace(0.01, 10.0, 110)
        for n in (2, 3, 4, 5):
            grid = hy.heat_kernel(n, radii[:, None], times[None, :])
            assert grid.shape == (radii.size, times.size)
            for i, r in enumerate(radii):
                ref = np.array([hy.heat_kernel(n, float(r), float(t)) for t in times])
                assert grid[i].tobytes() == ref.tobytes(), (n, r)

    # p_n(r, t) from mpmath at 40 digits: the descent from p_(n+1) in u,
    # integrated by tanh-sinh between breakpoints at the scales sqrt(r) and
    # sqrt(g); on H^4 it agrees with -e^(-2t)/(2 pi sinh r) d/dr p_2 to 20
    # digits at (0.01, 2)
    EVEN_NEAR_AXIS = {
        (2, 0.0, 1e-10): 795774715.4329509,
        (2, 1e-14, 1e-06): 79577.44502012913,
        (2, 1e-10, 0.0001): 795.7481901661343,
        (2, 1e-08, 0.01): 7.93127428159475,
        (2, 1e-06, 1.0): 0.05753575520570303,
        (2, 0.0001, 1e-08): 6197499.689659732,
        (2, 0.001, 1e-06): 61974.971331917586,
        (2, 0.001, 10.0): 0.00041893692415424284,
        (2, 0.01, 2.0): 0.02106704879791176,
        (4, 0.0, 1e-10): 6.332573976379596e17,
        (4, 1e-14, 1e-06): 6332561312.510399,
        (4, 1e-08, 1e-08): 63325738351631.98,
        (4, 1e-06, 0.0001): 633130.7569443055,
        (4, 0.0001, 1e-08): 49318134616825.875,
        (4, 0.001, 1.0): 0.0008160089460868591,
        (4, 0.001, 10.0): 2.5960216959998807e-14,
        (4, 0.0, 0.5): 0.009188262545584124,
        (4, 0.01, 2.0): 2.4773378491792525e-05,
    }

    @pytest.mark.parametrize("key", list(EVEN_NEAR_AXIS), ids=str)
    def test_even_near_axis_matches_mpmath(self, key):
        # the u-rule's scale follows sqrt(r) and the Gaussian down to the
        # axis: measured 3.6e-15 on H^2 and 2.2e-15 on H^4 over r in {0,
        # 1e-14, 1e-10, ..., 1e-3} and t in [1e-10, 10]
        n, r, t = key
        assert hy.heat_kernel(n, r, t) == pytest.approx(self.EVEN_NEAR_AXIS[key], rel=1e-14, abs=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_tiny_time_underflows_quietly(self, n):
        # t^(-q_j) overflows below t ~ 1e-206, but with r^2/4t inside the
        # power the value is 0; where it is itself out of range, OverflowError.
        # On H^2 p_2 ~ (4 pi t)^(-1) e^(-r^2/4t) fits at t = 1e-250: the
        # u-rule's sum of order sqrt t is divided out last
        r = np.array([0.1, 1.0, 8.0])
        for t in (4.94e-324, 1e-300, 1e-210):
            assert np.all(hy.heat_kernel(n, r, t) == 0.0)
        if n == 2:
            for r0 in (0.0, 1e-125):
                flat = math.exp(-r0 * r0 / 4e-250) / (4.0 * math.pi * 1e-250)
                assert hy.heat_kernel(2, r0, 1e-250) == pytest.approx(flat, rel=1e-13, abs=0)
        else:
            with pytest.raises(OverflowError, match=r"r=0.0, t=1e-250"):
                hy.heat_kernel(n, 0.0, 1e-250)

    @pytest.mark.parametrize("n, t", [(2, 1e-309), (3, 2.5e-206), (4, 5e-155), (5, 4e-124)])
    def test_axis_value_fits_where_it_is_in_range(self, n, t):
        # the time factors carry the constant (4 pi)^(-n/2), so they overflow
        # only with the value; t / 20 puts (4 pi t)^(-n/2) past the largest double
        flat = (4.0 * math.pi * t) ** (-0.5 * n)
        assert hy.heat_kernel(n, 0.0, t) == pytest.approx(flat, rel=1e-12, abs=0)
        with pytest.raises(OverflowError, match="overflows double precision"):
            hy.heat_kernel(n, 0.0, t / 20.0)

    def test_even_matches_pointwise_formula(self):
        radii = np.array([0.05, 0.3, 1.0, 2.5, 5.0])
        times = np.array([0.02, 0.2, 1.0, 4.0])
        for n in (2, 4):
            grid = hy.heat_kernel(n, radii[:, None], times[None, :])
            ref = np.array([[even_reference(n, r, t) for t in times] for r in radii])
            assert np.all(np.abs(grid - ref) <= 1e-12 * np.abs(ref))

    def test_scalar_inputs_give_float(self):
        for n in (2, 3):
            assert type(hy.heat_kernel(n, 0.5, 1.0)) is float
            assert type(hy.heat_kernel(n, 0.0, 1.0)) is float
            assert hy.heat_kernel(n, np.array([0.5]), 1.0).shape == (1,)

    def test_scaled_removes_exponential(self):
        for n in (2, 3, 4, 5):
            for r, t in ((0.05, 0.5), (0.5, 0.05), (2.0, 1.0), (6.0, 3.0)):
                scale = math.exp(r * r / (4.0 * t) + (n - 1) ** 2 * t / 4.0)
                plain = hy.heat_kernel(n, r, t) * scale
                assert hy.heat_kernel(n, r, t, scaled=True) == pytest.approx(plain, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_scaled_overflow_names_the_pair(self, n):
        # t^(-q_j) overflows at a subnormal t, where the scaled value would
        # need it; the error names the first such (r, t), as unscaled
        with pytest.raises(OverflowError, match=r"r=0\.0, t=1e-320"):
            hy.heat_kernel(n, [0.0, 1.0], 1e-320, scaled=True)
        with pytest.raises(OverflowError, match=r"r=0\.5, t=1e-320"):
            hy.heat_kernel(n, np.array([0.5, 2.0])[:, None], [1.0, 1e-320], scaled=True)
        assert np.all(np.isfinite(hy.heat_kernel(n, [0.0, 1.0], 1e-100, scaled=True)))

    def test_mass_one_all_dimensions(self):
        for n in (2, 4, 5):
            for t in (0.01, 0.1, 1.0, 10.0):
                assert hy.heat_mass(n, t) == pytest.approx(1.0, abs=1e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            hy.heat_kernel(6, 1.0, 1.0)
        with pytest.raises(ValueError):
            hy.heat_kernel(3, 1.0, -1.0)
        with pytest.raises(ValueError):
            hy.heat_kernel(2, np.array([0.5, math.nan]), 1.0)
        with pytest.raises(ValueError):
            hy.heat_kernel(3, 1.0, np.array([1.0, math.nan]))


class TestEvenChunks:
    def test_chunk_size_does_not_change_values(self, monkeypatch):
        # sums run along the u-axis of each (r, t) pair, so blocking the
        # pairs differently leaves every value bit for bit the same
        r = np.linspace(0.0, 6.0, 40)[:, None]
        t = np.geomspace(0.01, 5.0, 30)
        for n in (2, 4):
            values = []
            for chunk in (1 << 10, 1 << 20):
                monkeypatch.setattr(hy, "_EVEN_CHUNK", chunk)
                values.append(hy.heat_kernel(n, r, t).tobytes())
            assert values[0] == values[1]


def half_step_rule(monkeypatch):
    """Replace the even-n u-rule by the same rule at half its step."""
    monkeypatch.setattr(hy, "_U_RULE", hy._midpoint_rule(0.5 * hy._U_RULE[0]))


class TestEvenRule:
    # the u-rule against itself at half the step, scaled values so that no
    # pair underflows: measured 2.7e-15 (heat), 2.7e-15 (K2) and 2.1e-14
    # (K1, past r = 16, where K1 < 1e-40 and the rounding of r^2/4 in its
    # exponent dominates)
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_dense_rule(self, n, monkeypatch):
        rng = np.random.default_rng(40 + n)
        r = rng.uniform(0.02, 8.0, 2000)
        r[0] = 0.02
        t = np.exp(rng.uniform(math.log(1e-10), math.log(200.0), r.size))
        value = hy.heat_kernel(n, r, t, scaled=True)
        half_step_rule(monkeypatch)
        ref = hy.heat_kernel(n, r, t, scaled=True)
        assert np.max(np.abs(value / ref - 1.0)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_dense_rule_near_axis(self, n, monkeypatch):
        rng = np.random.default_rng(50 + n)
        r = np.exp(rng.uniform(math.log(1e-10), math.log(0.02), 2000))
        r[:2] = 0.0, 1e-14
        t = np.exp(rng.uniform(math.log(1e-10), math.log(200.0), r.size))
        value = hy.heat_kernel(n, r, t, scaled=True)
        half_step_rule(monkeypatch)
        ref = hy.heat_kernel(n, r, t, scaled=True)
        assert np.max(np.abs(value / ref - 1.0)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 4])
    def test_log_kernels_match_dense_rule(self, n, monkeypatch):
        r = np.geomspace(1e-10, 30.0, 400)
        values = hy.log_kernel_values(n, r)
        half_step_rule(monkeypatch)
        for value, ref in zip(values, hy.log_kernel_values(n, r)):
            assert np.max(np.abs(value / ref - 1.0)) <= 1e-13


class TestEnvelope:
    def test_point_values(self):
        assert hy.dm_envelope(3, 0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        expected = math.exp(-0.25 - 0.25 - 0.5) * 3.0 ** -0.5 * 2.0
        assert hy.dm_envelope(2, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_monotone_decreasing_in_r(self):
        r = np.linspace(0.0, 8.0, 40)
        vals = np.asarray(hy.dm_envelope(3, r, 1.0))
        assert np.all(np.diff(vals) < 0.0)

    def test_ratio_scan_bounded(self):
        for n in (2, 3):
            lo, hi = hy.dm_ratio_scan(
                n, np.linspace(0.0, 10.0, 12), np.geomspace(0.01, 10.0, 12)
            )
            assert 0.0 < lo < hi < math.inf
            assert hi / lo <= 10.0

    def test_refinement_only_extends_range(self):
        coarse = hy.dm_ratio_scan(3, np.linspace(0, 6, 5), np.geomspace(0.1, 5, 5))
        fine = hy.dm_ratio_scan(3, np.linspace(0, 6, 9), np.geomspace(0.1, 5, 9))
        assert fine[0] <= coarse[0] + 1e-15 and fine[1] >= coarse[1] - 1e-15


class TestFracKernel:
    def test_two_routes_agree(self):
        for n in (3, 5):
            for s in (0.25, 0.5, 0.75):
                for r in (0.5, 1.0, 2.0, 4.0):
                    a = hy.frac_kernel(n, s, r, route="time_quadrature")
                    b = hy.frac_kernel(n, s, r, route="bessel_closed_form")
                    assert a == pytest.approx(b, rel=1e-7)

    def test_bessel_route_hand_formula_n3(self):
        s, r = 0.5, 1.0
        hand = (
            2.0 ** (s - 0.5)
            * math.pi ** -1.5
            / math.sinh(r)
            * r ** (-s - 0.5)
            * bessel_k(s + 1.5, r)
        )
        assert hy.frac_kernel(3, s, r, route="bessel_closed_form") == pytest.approx(
            hand, rel=1e-13
        )

    def test_bessel_route_hand_formula_n5(self):
        # 4^nu / (4 pi^(5/2)) 2 r^-nu csch^2 r [2 K_(nu+2)(2r)
        # + (coth r - 1/r) K_(nu+1)(2r)], nu = s + 1/2
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for s in (0.25, 0.5, 0.75):
            for r in (0.05, 0.5, 1.0, 3.0, 10.0):
                nu, x = mp.mpf(s) + 0.5, mp.mpf(r)
                bracket = 2 * mp.besselk(nu + 2, 2 * x) + (
                    mp.coth(x) - 1 / x
                ) * mp.besselk(nu + 1, 2 * x)
                hand = 4 ** nu / (4 * mp.pi ** 2.5) * 2 * x ** -nu / mp.sinh(x) ** 2 * bracket
                value = hy.frac_kernel(5, s, r, route="bessel_closed_form")
                assert value == pytest.approx(float(hand), rel=1e-13)

    def test_positive_decreasing(self):
        rs = np.array([0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
        vals = [hy.frac_kernel(3, 0.5, float(r)) for r in rs]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_small_r_power_stabilizes(self):
        n, s = 3, 0.5
        v2 = hy.frac_kernel(n, s, 1e-2) * 1e-2 ** (n + 2 * s)
        v3 = hy.frac_kernel(n, s, 1e-3) * 1e-3 ** (n + 2 * s)
        assert v2 > 0 and v3 > 0
        assert abs(v2 / v3 - 1.0) <= 0.03

    def test_route_dimension_mismatch(self):
        # the transform route covers n in 2..5, as time quadrature does
        for route in ("time_quadrature", "bessel_closed_form"):
            with pytest.raises(ValueError, match="dimension"):
                hy.frac_kernel(6, 0.5, 1.0, route=route)
        with pytest.raises(ValueError, match="route"):
            hy.frac_kernel(2, 0.5, 1.0, route="spectral")
        with pytest.raises(ValueError):
            hy.frac_kernel(3, 1.5, 1.0)

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_transform_matches_time_quadrature(self, n):
        # the u-rule sum of Bessel K_(q_j+s) against rel_tol 1e-13 time
        # quadrature: measured 4.0e-15 (H^2) and 3.8e-15 (H^4). REL_CFG
        # (rel_tol 1e-10) is itself up to 3.3e-12 off on H^2 at s = 0.75
        r = np.geomspace(1e-3, 16.0, 12)
        for s in (0.25, 0.5, 0.75):
            value = hy.build_kernel_table(n, "frac", r, s=s, route="bessel_closed_form").values
            ref = hy.build_kernel_table(n, "frac", r, s=s, cfg=TIGHT_CFG).values
            assert np.max(np.abs(value / ref - 1.0)) <= 1e-14

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_transform_overflow_near_the_axis(self, n):
        # the transform raises OverflowError where the kernel exceeds double
        # precision, and agrees with time quadrature near that edge
        # (measured 3.2e-14 on H^2)
        with pytest.raises(OverflowError):
            hy.frac_kernel(n, 0.5, 1e-300, route="bessel_closed_form")
        edge = {2: 1e-90, 3: 1e-75, 4: 1e-60, 5: 1e-50}[n]
        a, b = (
            hy.frac_kernel(n, 0.5, edge, route=route)
            for route in ("time_quadrature", "bessel_closed_form")
        )
        assert a == pytest.approx(b, rel=1e-12)


class TestLogKernels:
    def test_positive_decreasing(self):
        rs = [0.2, 0.5, 1.0, 2.0, 4.0]
        for n in (2, 3):
            pairs = [hy.log_kernels(n, r) for r in rs]
            k1s = [p[0] for p in pairs]
            k2s = [p[1] for p in pairs]
            assert all(v > 0 for v in k1s + k2s)
            assert all(a > b for a, b in zip(k1s, k1s[1:]))
            assert all(a > b for a, b in zip(k2s, k2s[1:]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_empty_radii(self, n):
        k1, k2 = hy.log_kernel_values(n, np.array([]))
        assert k1.shape == k2.shape == (0,)

    def test_vectorized_matches_adaptive(self):
        # odd n is the closed form, held to a tight time quadrature
        for n in (2, 3, 5):
            cfg, rel = (TIGHT_CFG, 1e-10) if n % 2 else (hy.DEFAULT_CONFIG, 2e-8)
            for r in (0.3, 1.7):
                k1a, k2a = hy.log_kernels(n, r, cfg)
                k1f, k2f = hy.log_kernel_values(n, np.array([r]))
                assert k1f[0] == pytest.approx(k1a, rel=rel)
                assert k2f[0] == pytest.approx(k2a, rel=rel)

    def test_odd_closed_form_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30

        def heat_over_t(n, r):
            """t -> p_n(r, t) / t = (c_1 + c_2 / t) t^(-5/2) e^(-a t - r^2/4t)."""
            r = mp.mpf(r)
            pref, sh = (4 * mp.pi) ** mp.mpf(-1.5), mp.sinh(r)
            c1, c2 = pref * r / sh, 0
            if n == 5:
                c1 = pref * (r * mp.cosh(r) - sh) / (2 * mp.pi * sh ** 3)
                c2 = pref * r * r / (4 * mp.pi * sh ** 2)
            a, b = mp.mpf((n - 1) ** 2) / 4, r * r / 4
            return lambda t: (c1 + c2 / t) * mp.exp(-a * t - b / t) / (t * t * mp.sqrt(t))

        def kernel(n, r, part):
            """K1 in v = r^2/4t - r^2/4 over (0, inf), K2 in t over (1, inf),
            each integrand divided by its value at one point of its bulk, since
            mpmath's quadrature stops at an absolute error of 10^-dps."""
            g, b = heat_over_t(n, r), mp.mpf(r) ** 2 / 4
            if part == 1:
                f, x0, lo = (lambda v: g(b / (b + v)) * b / (b + v) ** 2), 1, 0
            else:
                f, x0, lo = g, max(1, mp.mpf(r) / (n - 1)), 1
            scale = f(x0)
            return float(scale * mp.quad(lambda x: f(x) / scale, [lo, mp.inf]))

        for n in (3, 5):
            for r, t in ((0.3, 0.7), (2.0, 3.0), (6.0, 0.5)):
                p = t * heat_over_t(n, r)(mp.mpf(t))
                assert float(p) == pytest.approx(hy.heat_kernel(n, r, t), rel=1e-13)
            r1, r2 = np.geomspace(1e-3, 16.0, 30), np.geomspace(1e-3, 30.0, 30)
            k1, _ = hy.log_kernel_values(n, r1)
            _, k2 = hy.log_kernel_values(n, r2)
            ref1 = np.array([kernel(n, r, 1) for r in r1])
            ref2 = np.array([kernel(n, r, 2) for r in r2])
            assert np.max(np.abs(k1 / ref1 - 1.0)) <= 1e-11
            assert np.max(np.abs(k2 / ref2 - 1.0)) <= 1e-11

    @pytest.mark.filterwarnings("error")
    def test_odd_closed_form_finite_far_out(self):
        r = np.geomspace(1e-3, 1e3, 200)
        for n in (3, 5):
            for values in hy.log_kernel_values(n, r):
                assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
                assert np.all(np.diff(values) <= 0.0)

    def test_even_rule_error_pinned(self):
        # the even-n descent against tight time quadrature over
        # geomspace(0.05, 16, 30): measured 5.3e-15 (K1) and 3.6e-15 (K2) on
        # H^2, 6.7e-15 and 8.0e-15 on H^4
        r = np.geomspace(0.05, 16.0, 30)
        for n in (2, 4):
            k1, k2 = hy.log_kernel_values(n, r)
            err1 = np.abs(k1 / hy.build_kernel_table(n, "log1", r, cfg=TIGHT_CFG).values - 1.0)
            err2 = np.abs(k2 / hy.build_kernel_table(n, "log2", r, cfg=TIGHT_CFG).values - 1.0)
            assert np.max(err1) <= 1e-14
            assert np.max(err2) <= 2e-13

    # (K1, K2) from mpmath at 25 to 30 digits: nested quadrature of the
    # u-form (on H^4, of its (1/sinh r) d/dr bracket), the time integrals
    # inside the u-integral
    EVEN_NEAR_AXIS = {
        (2, 1e-3): (318309.39701851202, 0.036211629646535204),
        (2, 1e-4): (3.18309880070578e7, 0.0362116381509037),
        (2, 1e-5): (3.18309886110443e9, 0.0362116382359474),
        (4, 1e-3): (101321107651.64867, 0.00017743458777762177),
        (4, 1e-4): (1.01321182882429e15, 1.77434670446758e-4),
        (4, 1e-5): (1.01321183634739e19, 1.7743467127345e-4),
    }

    @pytest.mark.parametrize("key", list(EVEN_NEAR_AXIS), ids=str)
    def test_even_near_axis_matches_mpmath(self, key):
        # the u-rule follows the K1 peak at u ~ sqrt(r): measured at most
        # 3.1e-15 (the references at 1e-4 and 1e-5 have 15 digits)
        n, r = key
        k1, k2 = hy.log_kernel_values(n, np.array([r]))
        ref1, ref2 = self.EVEN_NEAR_AXIS[key]
        assert k1[0] == pytest.approx(ref1, rel=1e-13, abs=0)
        assert k2[0] == pytest.approx(ref2, rel=1e-13, abs=0)

    @pytest.mark.filterwarnings("error")
    def test_even_finite_near_axis_and_far_out(self):
        # K1 grows like r^-n toward the axis; both underflow to 0 far out
        for n in (2, 4):
            for r in (np.geomspace(1e-8, 1e-5, 13), np.geomspace(1e-3, 1e3, 200)):
                for values in hy.log_kernel_values(n, r):
                    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
            k1, k2 = hy.log_kernel_values(n, np.geomspace(1e-8, 1e-5, 13))
            assert np.all(k1 > 0.0) and np.all(k2 > 0.0) and np.all(np.diff(k1) < 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 4])
    def test_even_resolved_toward_the_axis(self, n):
        # below r = 1e-12 the u-rule still follows the K1 peak at u ~ sqrt r,
        # which a floor at c^2 = 1e-12 once missed (98 % off at r = 1e-16 on
        # H^2). K1 against the flat kernel Gamma(n/2) pi^(-n/2) r^-n, which it
        # meets up to O(r^2 log r): measured 1.0e-15. K2 against its value
        # at r = 1e-8: measured 3.8e-15
        r = np.array([1e-13, 1e-14, 1e-16, 1e-30, 1e-60])
        k1, k2 = hy.log_kernel_values(n, r)
        flat = math.gamma(0.5 * n) * math.pi ** (-0.5 * n) * r ** -n
        assert np.max(np.abs(k1 / flat - 1.0)) <= 1e-14
        k2_near = hy.log_kernel_values(n, [1e-8])[1]
        assert np.max(np.abs(k2 / k2_near - 1.0)) <= 1e-13

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n, edge", [(2, 1e-102), (3, 1e-102), (4, 1e-61), (5, 1e-60)])
    def test_overflow_near_the_axis_and_zero_far_out(self, n, edge):
        # K1's transform exceeds double precision just below the edge:
        # OverflowError names the radius, while a K2 table stays finite, flat
        # toward the axis (within 4.9e-15 of its value at the edge). Far out
        # both kernels are 0, with no overflow on the way (b = r^2/4 once
        # did past r = 1e154)
        k2_edge = hy.log_kernel_values(n, [edge])[1]
        for tiny in (0.1 * edge, 1e-300):
            with pytest.raises(OverflowError, match=re.escape(f"r={tiny}")):
                hy.log_kernel_values(n, [1.0, tiny])
            table = hy.build_kernel_table(n, "log2", [tiny, 1.0], route="bessel_closed_form")
            assert table.values[0] == pytest.approx(k2_edge[0], rel=1e-14)
        k1, k2 = hy.log_kernel_values(n, [1.0, 1e200, 1e300])
        assert k1[0] > 0.0 and k2[0] > 0.0
        assert np.all(k1[1:] == 0.0) and np.all(k2[1:] == 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hy.log_kernel_values(7, np.array([1.0]))
        for n in (3, 4):
            with pytest.raises(ValueError):
                hy.log_kernel_values(n, np.array([1.0, 0.0]))

    def test_k2_large_r_rescaled_stabilization(self):
        # K2 * r * e^((n-1)r) approaches a constant; from r = 4 onward the
        # rescaled values sit within a factor 3 of each other (at r = 2 the
        # 1/r corrections still contribute a factor ~3.8)
        n = 3
        scaled = [
            hy.log_kernels(n, r)[1] * r * math.exp((n - 1) * r) for r in (4.0, 8.0)
        ]
        assert scaled[0] / scaled[1] <= 3.0 and scaled[1] / scaled[0] <= 3.0


class TestKernelTable:
    def test_invariants(self):
        with pytest.raises(ValueError):
            hy.KernelTable(3, 0.5, [1.0, 0.5], [1.0, 2.0], "time_quadrature")
        with pytest.raises(ValueError):
            hy.KernelTable(3, 0.5, [0.5, 1.0], [1.0, 2.0], "time_quadrature")

    @pytest.mark.parametrize(
        "r_grid, values",
        [
            ([1.0, 2.0], [math.nan, math.nan]),
            ([1.0, 2.0], [2.0, math.nan]),
            ([1.0, 2.0], [math.inf, 1.0]),
            ([1.0, math.nan], [2.0, 1.0]),
            ([1.0, math.inf], [2.0, 1.0]),
        ],
        ids=["nan-values", "nan-value", "inf-value", "nan-radius", "inf-radius"],
    )
    def test_rejects_non_finite(self, r_grid, values):
        with pytest.raises(ValueError, match="finite"):
            hy.KernelTable(3, None, r_grid, values, "time_quadrature")

    def test_build_and_serialize(self, tmp_path):
        table = hy.build_kernel_table(
            3, "frac", np.linspace(0.5, 4.0, 8), s=0.5, route="bessel_closed_form"
        )
        csv_path = tmp_path / "table.csv"
        table.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "r,value" and len(lines) == 9
        meta = json.loads((tmp_path / "table.csv.json").read_text())
        assert meta["n"] == 3 and meta["s"] == 0.5

    def test_heat_sidecar_records_t(self, tmp_path):
        table = hy.build_kernel_table(3, "heat", np.linspace(0.5, 4.0, 8), t=1.0)
        table.to_csv(tmp_path / "heat.csv")
        meta = json.loads((tmp_path / "heat.csv.json").read_text())
        assert meta["t"] == 1.0 and "s" not in meta

    def test_batched_matches_row_by_row(self, tmp_path):
        # a whole-grid build and one-point builds give the same bytes; the
        # grid reaches below 0.02, down toward the axis
        grid = np.linspace(0.005, 4.0, 8)
        cases = [(n, "heat", {"t": 0.3}) for n in (2, 3, 4, 5)]
        for n in (2, 3, 4, 5):
            for cfg in (hy.DEFAULT_CONFIG, REL_CFG):
                cases += [(n, "log1", {"cfg": cfg}), (n, "log2", {"cfg": cfg})]
                cases.append((n, "frac", {"s": 0.37, "cfg": cfg}))
            transform = {"route": "bessel_closed_form"}
            cases += [(n, "log1", transform), (n, "log2", transform)]
            cases.append((n, "frac", {"s": 0.37, **transform}))
        for n, kind, extra in cases:
            whole = hy.build_kernel_table(n, kind, grid, **extra)
            rows = [hy.build_kernel_table(n, kind, [r], **extra).values[0] for r in grid]
            by_row = hy.KernelTable(
                n, whole.parameter, grid, rows, whole.route, whole.cfg, kind=kind
            )
            whole.to_csv(tmp_path / "a.csv")
            by_row.to_csv(tmp_path / "b.csv")
            for suffix in (".csv", ".csv.json"):
                a = (tmp_path / f"a{suffix}").read_bytes()
                assert a == (tmp_path / f"b{suffix}").read_bytes(), (n, kind, extra)

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_log1_rows_near_axis(self, n):
        # time quadrature of the heat kernel down to r = 1e-4 against the
        # descent: measured 3.7e-15 (H^2) and 8.5e-13 (H^4)
        r = np.array([1e-4, 1e-3])
        k1 = hy.build_kernel_table(n, "log1", r).values
        assert np.max(np.abs(k1 / hy.log_kernel_values(n, r)[0] - 1.0)) <= 1e-9

    def test_h4_log2_row_against_the_transform(self):
        # the row of `hyper-tables --seed 3102` (r in linspace(0.160639,
        # 6.404619, 12)) where a single 15-node first panel missed structure
        # and time quadrature converged 5.6e-8 relative off the transform;
        # from four quarter panels it is 1.6e-12 off
        r = np.array([3.566446])
        got = hy.build_kernel_table(4, "log2", r).values[0]
        ref = hy.build_kernel_table(4, "log2", r, route="bessel_closed_form").values[0]
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_point_functions_are_table_rows(self):
        grid = np.array([0.005, 0.5, 3.0])
        for n in (2, 3, 4, 5):
            for route in ("time_quadrature", "bessel_closed_form"):
                table = hy.build_kernel_table(n, "frac", grid, s=0.37, route=route)
                points = [hy.frac_kernel(n, 0.37, float(r), route=route) for r in grid]
                assert table.values.tobytes() == np.array(points).tobytes()
            for route, point in (
                ("time_quadrature", lambda r: hy.log_kernels(n, r)),
                ("bessel_closed_form", lambda r: np.ravel(hy.log_kernel_values(n, r))),
            ):
                k1 = hy.build_kernel_table(n, "log1", grid, route=route).values
                k2 = hy.build_kernel_table(n, "log2", grid, route=route).values
                pairs = np.array([point(float(r)) for r in grid])
                assert pairs.tobytes() == np.stack([k1, k2], axis=1).tobytes()

    def test_unconverged_row_names_its_radius(self):
        # at s = 0.5 the short-time integral of r = 0.3 needs 5 subdivisions
        # after its four-panel start, the other rows at most 3
        cfg = QuadratureConfig(max_subdivisions=4)
        grid = [0.005, 0.3, 0.9, 2.5]
        with pytest.raises(NonConvergenceError, match=r"^frac_kernel\(n=3, s=0.5, r=0.3\)$"):
            hy.build_kernel_table(3, "frac", grid, s=0.5, cfg=cfg)
        one = QuadratureConfig(max_subdivisions=1)
        with pytest.raises(NonConvergenceError, match=r"r=0.005\): K1"):
            hy.build_kernel_table(3, "log1", grid, cfg=one)
        with pytest.raises(NonConvergenceError, match=r"r=0.005\): K2"):
            hy.build_kernel_table(3, "log2", grid, cfg=one)

    def test_one_heat_kernel_call_per_step(self, monkeypatch):
        # lockstep rows: a table makes one heat-kernel call for the first
        # panels and one per step, as many as its most subdivided row needs
        real = hy.heat_kernel
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hy, "heat_kernel", counting)

        def count(grid):
            calls.clear()
            hy.build_kernel_table(3, "log1", grid)
            return len(calls)

        grid = np.linspace(0.15, 6.0, 48)
        most = max(count([r]) for r in grid)  # 1 + that row's subdivisions
        assert count(grid) <= most


class TestAsymptFit:
    def test_small_r_slope(self):
        table = hy.build_kernel_table(
            3, "frac", np.geomspace(0.01, 0.25, 8), s=0.5, cfg=REL_CFG
        )
        fit = hy.asympt_fit(table, "small_r", "power")
        assert fit.coefficients["log_r"] == pytest.approx(-4.0, rel=0.02)

    def test_k1_gaussian_coefficient(self):
        table = hy.build_kernel_table(
            3, "log1", np.linspace(5.0, 12.0, 10), cfg=REL_CFG
        )
        fit = hy.asympt_fit(table, "large_r", "gaussian_tail", (5.0, 12.0))
        assert fit.coefficients["r2"] == pytest.approx(-0.25, rel=0.02)

    def test_needs_enough_points(self):
        table = hy.build_kernel_table(
            3, "frac", np.geomspace(0.01, 0.2, 4), s=0.5, route="bessel_closed_form"
        )
        with pytest.raises(ValueError):
            hy.asympt_fit(table, "small_r", "power")

    def test_unknown_model(self):
        table = hy.build_kernel_table(
            3, "frac", np.geomspace(0.01, 0.2, 6), s=0.5, route="bessel_closed_form"
        )
        with pytest.raises(ValueError):
            hy.asympt_fit(table, "small_r", "cubic")


class TestPointwise:
    def test_zero_function(self):
        zero = RadialFunction("zero", lambda r: np.zeros_like(r), 1.0)
        assert hy.log_pointwise_h(3, zero, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_far_outside_support_negative(self):
        bump = hy.hyper_registry()["bump"]
        val = hy.log_pointwise_h(3, bump, 8.0)
        assert val < 0.0

    def test_matches_bochner_route(self):
        bump = hy.hyper_registry()["bump"]
        a = hy.log_pointwise_h(3, bump, 0.0)
        b = hy.log_bochner_h(3, bump, 0.0)
        assert a == pytest.approx(b, rel=1e-3)

    def test_bochner_route_pinned(self):
        bump = hy.hyper_registry()["bump"]
        # at x = 0: the value with one adaptive radial integral per t-node
        assert hy.log_bochner_h(3, bump, 0.0) == pytest.approx(0.774964110905583, rel=1e-10)
        # at the support edge: nested scipy.integrate.quad (epsrel 1e-13 inside,
        # 1e-12 outside) over the closed-form H^3 heat kernel and 64-node
        # geodesic averages, which the split theta-rule moved by 1.3e-11;
        # per-node radial integrals were 4.6e-7 off here
        assert hy.log_bochner_h(3, bump, 1.0) == pytest.approx(
            -0.08895671586521911, rel=1e-10
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bochner_route_outside_support(self, n):
        # at x = 2 the geodesic spheres meet the support in a cap that the
        # 64-node average missed: the route was 5.1e-4 (relative) off here.
        # This is the far form of log_pointwise_h; measured 2.1e-10 (H^2),
        # 7.5e-12 (H^3), 1.9e-11 (H^4) and 1.9e-8 (H^5), the Bochner route's
        # own error there (ROADMAP item 2), hence H^5's wider bound
        bump = hy.hyper_registry()["bump"]
        a = hy.log_pointwise_h(n, bump, 2.0)
        b = hy.log_bochner_h(n, bump, 2.0)
        assert abs(a - b) <= (5e-8 if n == 5 else 1e-8) * abs(a)

    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_matches_bochner_route_h5(self, x):
        bump = hy.hyper_registry()["bump"]
        a = hy.log_pointwise_h(5, bump, x)
        assert abs(a - hy.log_bochner_h(5, bump, x)) <= 1e-10 * abs(a)

    def test_matches_bochner_route_h4(self):
        bump = hy.hyper_registry()["bump"]
        a = hy.log_pointwise_h(4, bump, 0.0)
        assert abs(a - hy.log_bochner_h(4, bump, 0.0)) <= 1e-8 * abs(a)

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_bochner_route_even(self, n):
        # measured 4.9e-11 (H^2) and 9.8e-13 (H^4)
        bump = hy.hyper_registry()["bump"]
        a = hy.log_pointwise_h(n, bump, 0.5)
        assert abs(a - hy.log_bochner_h(n, bump, 0.5)) <= 1e-10 * abs(a)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bochner_route_sees_the_tent_apex(self, n):
        # each radial row is cut at r = 8 sqrt(t), so its first piece holds
        # the heat kernel's peak of width sqrt(t), which the even-n rule
        # resolves down to the axis: measured 1.2e-9 (H^2), 3.1e-9 (H^3)
        # and 8.6e-9 (H^4)
        tent = hy.hyper_registry()["tent"]
        a = hy.log_pointwise_h(n, tent, 0.0)
        assert abs(a - hy.log_bochner_h(n, tent, 0.0)) <= 1e-7 * abs(a)

    def test_pointwise_unconverged_raises(self):
        bump = hy.hyper_registry()["bump"]
        cfg = QuadratureConfig(max_subdivisions=1)
        with pytest.raises(NonConvergenceError, match="core"):
            hy.log_pointwise_h(3, bump, 0.5, cfg=cfg)
        with pytest.raises(NonConvergenceError, match="far form"):
            hy.log_pointwise_h(3, bump, 2.0, cfg=cfg)
        # after its four-panel start split_check's first integral, over
        # (0, 1), needs one subdivision at the default tolerances: a tighter
        # one makes it, not the direct value's core, the integral that fails
        tight = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=1)
        with pytest.raises(NonConvergenceError, match=r"split_check.*\(0\.0, 1\.0\)"):
            hy.split_check(3, bump, 0.5, cfg=tight)

    def test_breaks(self):
        reg = hy.hyper_registry()
        assert reg["bump"].breaks == (0.9, 1.0) and reg["tent"].breaks == (1.0,)
        with pytest.raises(ValueError):
            RadialFunction("late", reg["bump"].profile, 1.0, breaks=(0.9, 2.0))

    def test_bochner_route_unconverged_raises(self):
        bump = hy.hyper_registry()["bump"]
        with pytest.raises(NonConvergenceError):
            hy.log_bochner_h(3, bump, 0.0, cfg=QuadratureConfig(max_subdivisions=1))

    def test_split_identity(self):
        bump = hy.hyper_registry()["bump"]
        for xd in (0.0, 1.0):
            rep = hy.split_check(3, bump, xd)
            assert rep.identity_residual <= 1e-8 * (1.0 + abs(rep.direct))

    def test_split_zero_function(self):
        zero = RadialFunction("zero", lambda r: np.zeros_like(r), 1.0)
        rep = hy.split_check(3, zero, 0.0)
        assert rep.near == rep.far == 0.0
        assert rep.remainder == pytest.approx(0.0, abs=1e-15)
        assert rep.direct == pytest.approx(0.0, abs=1e-15)

    def test_tail_constant_finite(self):
        rep = hy.split_check(3, hy.hyper_registry()["bump"], 0.0)
        assert math.isfinite(rep.tail_constant)
        # rho_h = |S^2| int_1^inf K1 sinh^2 + Gamma'(1); the integral is
        # positive and Gamma'(1) = -gamma
        assert rep.tail_constant > -EULER_GAMMA


class TestKernelNorms:
    def test_lp_stabilization(self):
        for p in (1.5, 2.0):
            rep = hy.kernel_norms(3, p, [20.0, 30.0])
            a, b = rep.truncated_norms
            assert abs(b - a) / a <= 1e-6

    def test_l1_log_growth(self):
        rep = hy.kernel_norms(3, 1.0, [13.3, 20.0, 30.0])
        c1, c2 = rep.log_growth_rates
        assert abs(c2 / c1 - 1.0) <= 0.2

    def test_weighted_l1_positive(self):
        bump = hy.hyper_registry()["bump"]
        rep = hy.kernel_norms(3, 2.0, [10.0], f=bump)
        assert rep.weighted_l1 > 0.0

    def test_energy_inequality(self):
        bump = hy.hyper_registry()["bump"]
        rep = hy.kernel_norms(3, 2.0, [10.0], f=bump, energy_pq=(2.0, 1.0))
        assert rep.energy_lhs <= rep.energy_rhs

    def test_unconverged_raises(self, monkeypatch):
        bump = hy.hyper_registry()["bump"]
        cfg = QuadratureConfig(max_subdivisions=1)
        # after its four-panel start the K2 shell out to 6 needs no
        # subdivision, the one out to 40 two
        with pytest.raises(NonConvergenceError, match=r"kernel_norms\(n=3, p=2.0\)"):
            hy.kernel_norms(3, 2.0, [40.0], cfg=cfg)
        with pytest.raises(NonConvergenceError, match="weighted L1"):
            hy.kernel_norms(3, 2.0, [1.0], f=bump, cfg=cfg)
        # the remainder's radial integrals raise on their own; past them, the
        # kernel integrals of the bound must raise too
        monkeypatch.setattr(hy, "_remainder", lambda *args, **kwargs: 0.0)
        with pytest.raises(NonConvergenceError, match="energy inequality"):
            hy._energy_inequality(3, bump, 2.0, 1.0, cfg)

    def test_energy_exponent_validation(self):
        bump = hy.hyper_registry()["bump"]
        with pytest.raises(ValueError):
            hy.kernel_norms(3, 2.0, [10.0], f=bump, energy_pq=(2.0, 2.0))
