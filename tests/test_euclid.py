"""Euclidean routes: constants, grid multipliers, singular integrals, and
the heat-quadrature route, cross-checked against each other and against
closed-form Gaussian moments."""

import itertools
import json
import math

import numpy as np
import pytest

from loglap import euclid as eu
from loglap.quadrature import (
    NonConvergenceError,
    QuadratureConfig,
    RadialFunction,
    integrate,
    integrate_semiinfinite,
)
from loglap.specfun import EULER_GAMMA, digamma, gamma


class TestConstants:
    def test_c2_is_inverse_pi(self):
        assert eu.constants(2).c_n == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_rho1_is_minus_two_gamma(self):
        assert eu.constants(1).rho_n == pytest.approx(-2.0 * EULER_GAMMA, abs=1e-14)

    def test_rho2(self):
        expected = 2.0 * math.log(2.0) - 2.0 * EULER_GAMMA
        assert eu.constants(2).rho_n == pytest.approx(expected, abs=1e-14)
        assert eu.constants(2).rho_n == pytest.approx(0.2319, abs=1e-4)

    def test_cn_equals_two_over_sphere_area(self):
        for n in range(1, 11):
            c = eu.constants(n)
            assert c.c_n == pytest.approx(2.0 / c.sphere_area, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            eu.constants(0)
        with pytest.raises(ValueError):
            eu.constants(11)


class TestFracConstant:
    def test_formula_vs_bochner_quadrature(self):
        for n in (1, 2, 3):
            for s in (0.25, 0.5, 0.75):
                formula = eu.frac_constant(n, s).c_ns
                quad = eu.bochner_prefactor_numeric(n, s, r=1.0)
                assert quad == pytest.approx(formula, rel=1e-8)

    def test_unconverged_raises(self):
        cfg = QuadratureConfig(max_subdivisions=1)
        with pytest.raises(NonConvergenceError, match="bochner_prefactor_numeric"):
            eu.bochner_prefactor_numeric(2, 0.5, cfg=cfg)

    def test_r_independence(self):
        a = eu.bochner_prefactor_numeric(2, 0.5, r=0.7)
        b = eu.bochner_prefactor_numeric(2, 0.5, r=2.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            eu.frac_constant(2, 1.5)


class TestRegistry:
    def test_members_present(self):
        assert set(eu.registry()) == {"gaussian", "bump", "plateau"}

    def test_supports(self):
        reg = eu.registry()
        assert math.isinf(reg["gaussian"].support_radius)
        assert reg["gaussian"].far_radius == 12.0
        assert reg["bump"].support_radius == 1.0
        rho = np.array([0.0, 0.5, 0.999, 1.0, 2.0])
        vals = reg["bump"].profile(rho)
        assert vals[3] == 0.0 and vals[4] == 0.0 and vals[0] == pytest.approx(
            math.exp(-1.0)
        )

    def test_plateau_shape(self):
        reg = eu.registry()
        p = reg["plateau"]
        assert p.profile(np.array([0.3]))[0] == 1.0
        assert p.profile(np.array([1.0]))[0] == 0.0
        assert p.holder_exponent == 1.0

    def test_rough_function_rejected(self):
        with pytest.raises(eu.SmoothnessTooLowError):
            RadialFunction("bad", lambda r: r, 1.0, 0.0)

    def test_breaks(self):
        reg = eu.registry()
        assert reg["bump"].breaks == (0.9, 1.0)
        assert reg["plateau"].breaks == (0.5, 1.0)
        assert reg["gaussian"].breaks == ()
        with pytest.raises(ValueError):
            RadialFunction("short", reg["bump"].profile, 1.0, breaks=(0.9,))


class TestPeriodicGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            eu.PeriodicGridFunction(1, 10.0, 7, np.zeros(7))  # odd N
        with pytest.raises(ValueError):
            eu.PeriodicGridFunction(1, 10.0, 8, np.full(8, np.nan))

    def test_heat_identity_limit(self):
        grid = eu.PeriodicGridFunction.from_function(
            eu.registry()["gaussian"], 1, 24.0, 256
        )
        out = eu.heat_apply(grid, 1e-12)
        assert np.max(np.abs(out.samples - grid.samples)) <= 1e-10

    def test_heat_preserves_constants(self):
        grid = eu.PeriodicGridFunction(1, 10.0, 64, np.full(64, 3.7))
        out = eu.heat_apply(grid, 2.0)
        assert np.max(np.abs(out.samples - 3.7)) <= 1e-13

    def test_heat_preserves_mean(self):
        grid = eu.PeriodicGridFunction.from_function(
            eu.registry()["bump"], 1, 24.0, 256
        )
        out = eu.heat_apply(grid, 0.7)
        assert out.mean() == pytest.approx(grid.mean(), abs=1e-15)

    def test_heat_eigenmode(self):
        length, points, t = 5.0, 128, 0.3
        x = -0.5 * length + np.arange(points) * (length / points)
        mode = np.cos(2.0 * math.pi * x / length)
        grid = eu.PeriodicGridFunction(1, length, points, mode)
        out = eu.heat_apply(grid, t)
        factor = math.exp(-t * (2.0 * math.pi / length) ** 2)
        assert np.max(np.abs(out.samples - factor * mode)) <= 1e-13

    def test_log_multiplier_unit_frequency_mode(self):
        # on a 2 pi torus the first mode has |xi| = 1 and log(1) = 0
        length, points = 2.0 * math.pi, 64
        x = -0.5 * length + np.arange(points) * (length / points)
        grid = eu.PeriodicGridFunction(1, length, points, np.cos(x))
        out = eu.log_multiplier(grid)
        assert np.max(np.abs(out.samples)) <= 1e-13

    def test_log_multiplier_kills_mean(self):
        grid = eu.PeriodicGridFunction(2, 10.0, 32, np.full((32, 32), 2.5))
        out = eu.log_multiplier(grid)
        assert np.max(np.abs(out.samples)) <= 1e-13

    def test_log_multiplier_eigenmode_exact(self):
        length, points = 24.0, 128
        x = -0.5 * length + np.arange(points) * (length / points)
        k = 5
        xi2 = (2.0 * math.pi * k / length) ** 2
        mode = np.sin(2.0 * math.pi * k * x / length)
        out = eu.log_multiplier(eu.PeriodicGridFunction(1, length, points, mode))
        assert np.max(np.abs(out.samples - math.log(xi2) * mode)) <= 1e-12

    def test_frac_multiplier_semigroup(self):
        grid = eu.PeriodicGridFunction.from_function(
            eu.registry()["bump"], 1, 24.0, 256
        )
        twice = eu.frac_multiplier(eu.frac_multiplier(grid, 0.5), 0.5)
        lap = eu.laplacian_multiplier(grid)
        assert np.max(np.abs(twice.samples + lap.samples)) <= 1e-10

    def test_frac_multiplier_domain(self):
        grid = eu.PeriodicGridFunction(1, 10.0, 16, np.zeros(16))
        with pytest.raises(ValueError):
            eu.frac_multiplier(grid, 1.2)

    def test_multiplier_linearity(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=64)
        g = rng.normal(size=64)
        ga = eu.PeriodicGridFunction(1, 10.0, 64, f)
        gb = eu.PeriodicGridFunction(1, 10.0, 64, g)
        gc = eu.PeriodicGridFunction(1, 10.0, 64, 2.0 * f - 3.0 * g)
        lhs = eu.log_multiplier(gc).samples
        rhs = 2.0 * eu.log_multiplier(ga).samples - 3.0 * eu.log_multiplier(gb).samples
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_freq_sq_is_half_spectrum(self):
        for n in (1, 2, 3):
            grid = eu.PeriodicGridFunction(n, 10.0, 8, np.zeros((8,) * n))
            assert grid.freq_sq().shape == (8,) * (n - 1) + (5,)

    @pytest.mark.parametrize("n", [1, 2])
    def test_half_spectrum_matches_full_fft(self, n):
        # test-local reference: the whole mode grid through fftn / ifftn
        grid = eu.PeriodicGridFunction.from_function(eu.registry()["bump"], n, 12.0, 64)
        xi = 2.0 * math.pi * np.fft.fftfreq(grid.points, d=grid.spacing)
        q = sum(g * g for g in np.meshgrid(*([xi] * n), indexing="ij"))
        logq = np.log(np.where(q > 0.0, q, 1.0)) * (q > 0.0)
        spectrum = np.fft.fftn(grid.samples)
        cases = [
            (eu.log_multiplier(grid), logq),
            (eu.frac_multiplier(grid, 0.3), q ** 0.3),
            (eu.heat_apply(grid, 0.2), np.exp(-0.2 * q)),
            (eu.laplacian_multiplier(grid), -q),
        ]
        for out, mult in cases:
            ref = np.fft.ifftn(spectrum * mult).real
            assert out.samples.shape == ref.shape
            assert np.max(np.abs(out.samples - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("points", [16, 32])
    def test_point_values_match_full_grid(self, n, points):
        # every node, against the full grid's value_at (its samples, in C order)
        rng = np.random.default_rng(points + n)
        grid = eu.PeriodicGridFunction.from_function(eu.registry()["bump"], n, 6.0, points)
        grid = grid.with_samples(grid.samples + 0.1 * rng.normal(size=grid.samples.shape))
        c = grid.axis_coords()
        nodes = np.stack(np.meshgrid(*([c] * n), indexing="ij"), axis=-1).reshape(-1, n)
        cases = [(eu.log_multiplier(grid), eu.log_multiplier(grid, at=nodes))]
        for s in (0.3, 0.7):
            cases.append((eu.frac_multiplier(grid, s), eu.frac_multiplier(grid, s, at=nodes)))
        for full, at_nodes in cases:
            ref = full.samples.ravel()
            assert full.value_at(nodes[-1]) == ref[-1]
            assert at_nodes.shape == ref.shape
            assert np.max(np.abs(at_nodes - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_point_values_keep_order_and_repeats(self):
        grid = eu.PeriodicGridFunction.from_function(eu.registry()["bump"], 2, 6.0, 16)
        full = eu.log_multiplier(grid)
        pts = [[0.375, -0.75], [0.0, 0.0], [0.375, -0.75], [-3.0, 2.625]]
        vals = eu.log_multiplier(grid, at=pts)
        assert vals == pytest.approx([full.value_at(p) for p in pts], rel=1e-13, abs=1e-15)
        assert vals[0] == vals[2]

    def test_point_values_reject_bad_points(self):
        grid = eu.PeriodicGridFunction(2, 6.0, 16, np.zeros((16, 16)))
        with pytest.raises(ValueError, match="not on the grid"):
            eu.log_multiplier(grid, at=[[0.0, 0.0], [0.1, 0.0]])
        with pytest.raises(ValueError, match="too far out"):
            eu.frac_multiplier(grid, 0.5, at=[[1e308, 0.0]])
        with pytest.raises(ValueError, match="2-dimensional"):
            eu.log_multiplier(grid, at=[0.0, 0.0])

    def test_from_function_radii(self):
        grid = eu.PeriodicGridFunction.from_function(lambda r: r, 3, 6.0, 8)
        c = grid.axis_coords()
        i, j, k = 1, 6, 3
        assert grid.samples[i, j, k] == math.sqrt(c[i] ** 2 + c[j] ** 2 + c[k] ** 2)

    def test_csv_serialization(self, tmp_path):
        grid = eu.PeriodicGridFunction.from_function(
            eu.registry()["bump"], 2, 10.0, 8
        )
        csv_path = tmp_path / "grid.csv"
        grid.to_csv(csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,value"
        assert len(lines) == 1 + 8 * 8
        meta = json.loads((tmp_path / "grid.csv.json").read_text())
        assert meta == {"n": 2, "L": 10.0, "N": 8}


class TestLogPointwise:
    def test_gaussian_chi_square_moment_n1(self):
        gauss = eu.registry()["gaussian"]
        target = digamma(0.5) + math.log(2.0)
        assert eu.log_pointwise(gauss, [0.0]) == pytest.approx(target, abs=1e-3)

    def test_gaussian_chi_square_moment_n2(self):
        gauss = eu.registry()["gaussian"]
        target = digamma(1.0) + math.log(2.0)
        assert eu.log_pointwise(gauss, [0.0, 0.0]) == pytest.approx(target, abs=1e-3)

    def test_outside_support_negative(self):
        bump = eu.registry()["bump"]
        val = eu.log_pointwise(bump, [2.5])
        # first and third terms vanish; what remains is minus a positive mass
        assert val < 0.0

    def test_linearity(self):
        reg = eu.registry()
        f, g = reg["bump"], reg["plateau"]
        combo = RadialFunction(
            "combo", lambda r: 2.0 * f.profile(r) - 0.5 * g.profile(r), 1.0, 1.0
        )
        x = [0.25]
        lhs = eu.log_pointwise(combo, x)
        rhs = 2.0 * eu.log_pointwise(f, x) - 0.5 * eu.log_pointwise(g, x)
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestFracPointwise:
    def test_gaussian_moment(self):
        gauss = eu.registry()["gaussian"]
        assert eu.frac_pointwise(gauss, [0.0], 0.5) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-3
        )

    def test_gaussian_moment_general(self):
        for n in (1, 2):
            gauss = eu.registry()["gaussian"]
            for s in (0.25, 0.75):
                target = 2.0 ** s * gamma(0.5 * n + s) / gamma(0.5 * n)
                val = eu.frac_pointwise(gauss, np.zeros(n), s)
                assert val == pytest.approx(target, abs=1e-3)

    def test_constant_extension_vanishes(self):
        # f identically 1 over the whole truncation region: the difference
        # integrand is zero and only the far boundary layer survives
        const = RadialFunction("const", lambda r: np.ones_like(r), 60.0)
        assert abs(eu.frac_pointwise(const, [0.0], 0.75)) <= 1e-3

    def test_domain(self):
        gauss = eu.registry()["gaussian"]
        with pytest.raises(ValueError):
            eu.frac_pointwise(gauss, [0.0], 1.5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unconverged_raises(self, n):
        bump = eu.registry()["bump"]
        cfg = QuadratureConfig(max_subdivisions=1)
        with pytest.raises(NonConvergenceError, match="log_pointwise"):
            eu.log_pointwise(bump, np.full(n, 0.3), cfg=cfg)
        with pytest.raises(NonConvergenceError, match="frac_pointwise"):
            eu.frac_pointwise(bump, np.full(n, 0.3), 0.5, cfg=cfg)

    def test_bump_near_curvature(self):
        # a one-sample quadratic fit below r = 2e-3 left this point 1.9e-5 off
        # the torus multiplier minus its periodization shift (4096- to
        # 65536-point grids: -0.1660664199) and off the Bochner route
        bump = eu.registry()["bump"]
        val = eu.frac_pointwise(bump, [0.75], 0.75)
        assert abs(val + 0.1660664199) <= 3e-8 * 0.166
        assert abs(val - eu.frac_bochner_point(bump, [0.75], 0.75)) <= 2e-8 * 0.166


def _bump_n3_outside_reference() -> float:
    """log(-Lap) of the 3-d bump at |x| = 1.2, by mpmath.

    f(x) = 0 at |x| = a > 1, so log(-Lap) f(x) = -2 int_0^inf avg_r f / r dr;
    with the 3-d spherical mean (1/2ar) int_{|a-r|}^{a+r} f(rho) rho d rho
    the r-integral is closed form, leaving one integral over rho.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    a = mp.mpf("1.2")
    g = lambda r: mp.e ** (-1 / (1 - r * r)) * r / (2 * a) * (1 / (a - r) - 1 / (a + r))
    return float(-2 * mp.quad(g, [0, 0.5, 0.9, 0.99, 1]))


class TestBochnerRoutes:
    def test_zero_function(self):
        zero = RadialFunction("zero", lambda r: np.zeros_like(r), 1.0)
        assert eu.log_bochner_point(zero, [0.0]) == pytest.approx(0.0, abs=1e-12)
        assert eu.frac_bochner_point(zero, [0.0], 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_log_matches_pointwise_on_bump(self):
        bump = eu.registry()["bump"]
        a = eu.log_bochner_point(bump, [0.0])
        b = eu.log_pointwise(bump, [0.0])
        assert a == pytest.approx(b, abs=1e-4)

    # grid nodes where the heat rule once ran a Gauss-Legendre panel across
    # the support edge and the gap reached 2e-4 to 6e-4
    @pytest.mark.parametrize("x", [0.140625, 0.28125, 0.328125, 0.421875])
    def test_log_matches_pointwise_across_support_edge(self, x):
        bump = eu.registry()["bump"]
        a = eu.log_bochner_point(bump, [x])
        b = eu.log_pointwise(bump, [x])
        assert abs(a - b) <= 1e-6 * max(abs(b), 1e-2)

    def test_frac_matches_pointwise_on_bump(self):
        bump = eu.registry()["bump"]
        a = eu.frac_bochner_point(bump, [0.0], 0.5)
        b = eu.frac_pointwise(bump, [0.0], 0.5)
        assert a == pytest.approx(b, abs=1e-4)

    def test_gaussian_closed_forms(self):
        gauss = eu.registry()["gaussian"]
        assert eu.log_bochner_point(gauss, [0.0]) == pytest.approx(
            digamma(0.5) + math.log(2.0), abs=1e-3
        )
        assert eu.frac_bochner_point(gauss, [0.0], 0.5) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=1e-3
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.26, 0.5, 0.74])
    def test_frac_gaussian_chi_square_moment(self, n, s):
        gauss = eu.registry()["gaussian"]
        target = 2.0 ** s * gamma(0.5 * n + s) / gamma(0.5 * n)
        assert abs(eu.frac_bochner_point(gauss, np.zeros(n), s) - target) <= 1e-7

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_log_gaussian_chi_square_moment(self, n):
        gauss = eu.registry()["gaussian"]
        target = digamma(0.5 * n) + math.log(2.0)
        assert abs(eu.log_bochner_point(gauss, np.zeros(n)) - target) <= 1e-8

    # every third node of the 512-point L = 24 torus grid in [0, 1.55]
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("s", [None, 0.25, 0.5, 0.75])
    def test_bump_matches_pointwise_on_grid_nodes(self, n, s):
        bump = eu.registry()["bump"]
        worst = 0.0
        for k in range(0, 34, 3):
            x = np.zeros(n)
            x[0] = k * 24.0 / 512
            if s is None:
                a, b = eu.log_bochner_point(bump, x), eu.log_pointwise(bump, x)
            else:
                a, b = eu.frac_bochner_point(bump, x, s), eu.frac_pointwise(bump, x, s)
            worst = max(worst, abs(a - b) / max(abs(b), 1e-2))
        assert worst <= 1e-7

    # the split theta-rule put the pointwise sphere means at round-off; the
    # largest gap left is 4.6e-8, frac at s = 0.75 and |x| = 0.9375
    @pytest.mark.parametrize("xn", [0.0, 0.3, 0.6, 0.9375])
    def test_bump_matches_pointwise_n3(self, xn):
        bump = eu.registry()["bump"]
        x = np.array([xn, 0.0, 0.0])
        pairs = [(eu.log_bochner_point(bump, x), eu.log_pointwise(bump, x))] + [
            (eu.frac_bochner_point(bump, x, s), eu.frac_pointwise(bump, x, s)) for s in (0.25, 0.75)
        ]
        for a, b in pairs:
            assert abs(a - b) <= 1e-7 * max(abs(b), 1e-2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gaussian_far_from_center(self, n):
        # spheres about |x| = 8 see the Gaussian as a narrow cap: one
        # theta-panel over the whole sphere left log 7.6e-8 (2-d) and 3.9e-7
        # (3-d) off; stopped at the far radius it is within 7.4e-10
        gauss = eu.registry()["gaussian"]
        x = np.zeros(n)
        x[0] = 8.0
        a, b = eu.log_pointwise(gauss, x), eu.log_bochner_point(gauss, x)
        assert abs(a - b) <= 5e-9 * abs(b)
        a, b = eu.frac_pointwise(gauss, x, 0.5), eu.frac_bochner_point(gauss, x, 0.5)
        assert abs(a - b) <= 5e-9 * abs(b)

    def test_bump_n3_outside_support_exact(self):
        val = eu.log_bochner_point(eu.registry()["bump"], [1.2, 0.0, 0.0])
        ref = _bump_n3_outside_reference()
        assert abs(val - ref) <= 1e-10 * abs(ref)

    def test_bump_n3_outside_support_pointwise(self):
        # the 32 x 64-direction sphere rule missed the cap where spheres
        # about |x| = 1.2 meet the support: log was 5.7e-6 off, frac 6.8e-6
        bump = eu.registry()["bump"]
        x = np.array([1.2, 0.0, 0.0])
        ref = _bump_n3_outside_reference()
        assert abs(eu.log_pointwise(bump, x) - ref) <= 1e-9 * abs(ref)
        for s in (0.25, 0.5, 0.75):
            exact = eu.frac_bochner_point(bump, x, s)
            assert abs(eu.frac_pointwise(bump, x, s) - exact) <= 1e-8 * abs(exact)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_heat_call_per_panel(self, n, monkeypatch):
        calls, integrals = [], []
        heat, integrate_ = eu._radial_heat, eu.integrate

        def counted_heat(*args, **kwargs):
            calls.append(np.size(args[3]))
            return heat(*args, **kwargs)

        def counted_integrate(*args, **kwargs):
            before = len(calls)
            res = integrate_(*args, **kwargs)
            integrals.append((len(calls) - before, res.evaluations))
            return res

        monkeypatch.setattr(eu, "_radial_heat", counted_heat)
        monkeypatch.setattr(eu, "integrate", counted_integrate)
        bump = eu.registry()["bump"]
        x = np.full(n, 0.3)
        for route in (lambda: eu.log_bochner_point(bump, x), lambda: eu.frac_bochner_point(bump, x, 0.4)):
            calls.clear()
            integrals.clear()
            route()
            # the two-sample deficit slope, then one call per subdivision
            # step of the short- and long-time integrals: the 15 nodes of the
            # whole range, then the 30 of both halves of each split panel
            # (the moments of the far tail are integrals that make no heat
            # call)
            outer = [(c, e) for c, e in integrals if c]
            assert calls[0] == 2
            assert len(outer) == 2
            assert all(c == 1 + (e - 15) // 30 for c, e in outer)
            assert all(size in (15, 30) for size in calls[1:])
            assert len(calls) == 1 + sum(c for c, _ in outer)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unconverged_raises(self, n):
        bump = eu.registry()["bump"]
        cfg = QuadratureConfig(max_subdivisions=1)
        with pytest.raises(NonConvergenceError, match="log_bochner_point"):
            eu.log_bochner_point(bump, np.full(n, 0.3), cfg=cfg)
        with pytest.raises(NonConvergenceError, match="frac_bochner_point"):
            eu.frac_bochner_point(bump, np.full(n, 0.3), 0.5, cfg=cfg)


class TestRadialHeat:
    """The heat semigroup on radial f behind the Bochner routes."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gaussian_closed_form(self, n):
        # e^{t Lap} e^(-|y|^2/2) at |x| = a: (1+2t)^(-n/2) e^(-a^2/(2(1+2t)))
        gauss = eu.registry()["gaussian"]
        t = np.geomspace(1e-6, 1e4, 41)
        for a in (0.0, 0.3, 1.0, 2.5, 5.0):
            exact = (1.0 + 2.0 * t) ** (-0.5 * n) * np.exp(-a * a / (2.0 * (1.0 + 2.0 * t)))
            value = eu._radial_heat(gauss, n, a, t, deficit=False)
            assert np.max(np.abs(value / exact - 1.0)) <= 1e-11
            # f(x) - e^{t Lap} f(x), without cancellation, for the short times
            short = t[t <= 1.0]
            exact_deficit = -math.exp(-0.5 * a * a) * np.expm1(
                a * a * short / (1.0 + 2.0 * short) - 0.5 * n * np.log1p(2.0 * short)
            )
            deficit = eu._radial_heat(gauss, n, a, short, deficit=True)
            assert np.all(np.abs(deficit - exact_deficit) <= 1e-9 * short)

    def test_bump_value_resolved_at_support_edge(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        bump = eu.registry()["bump"]
        for a, t in ((0.0, 1.0), (1.2, 1.0), (0.5, 10.0)):
            a_, t_ = mp.mpf(a), mp.mpf(t)
            kernel = lambda r: (4 * mp.pi * t_) ** -0.5 * (
                mp.e ** (-(a_ - r) ** 2 / (4 * t_)) + mp.e ** (-(a_ + r) ** 2 / (4 * t_))
            )
            ref = float(mp.quad(lambda r: mp.e ** (-1 / (1 - r * r)) * kernel(r), [0, 0.5, 0.9, 0.99, 1]))
            value = eu._radial_heat(bump, 1, a, np.array([t]), deficit=False)[0]
            assert abs(value - ref) <= 1e-14 * ref

    def test_batched_row_equals_single_time(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            for name in ("bump", "gaussian"):
                f = eu.registry()[name]
                for a in (0.0, 0.3, 0.97, 1.4):
                    t = np.exp(rng.uniform(math.log(1e-8), math.log(1e4), 15))
                    for deficit in (True, False):
                        row = eu._radial_heat(f, n, a, t, deficit)
                        one = [eu._radial_heat(f, n, a, t[i : i + 1], deficit)[0] for i in range(t.size)]
                        assert np.array_equal(row, one)


class TestPeriodizationShift:
    """The torus multiplier equals pointwise + shift exactly; residuals here
    are pure quadrature/aliasing noise."""

    def test_log_identity_gaussian_n1(self):
        gauss = eu.registry()["gaussian"]
        grid = eu.PeriodicGridFunction.from_function(gauss, 1, 24.0, 512)
        vt = eu.log_multiplier(grid).value_at([0.0])
        vp = eu.log_pointwise(gauss, [0.0])
        shift = eu.log_periodization_shift(gauss, 24.0, [0.0])
        assert abs(vt - vp - shift) <= 1e-7

    def test_log_identity_bump_n1_offcenter(self):
        bump = eu.registry()["bump"]
        grid = eu.PeriodicGridFunction.from_function(bump, 1, 24.0, 2048)
        out = eu.log_multiplier(grid)
        for x1 in (0.0, 0.1875, -0.28125):
            vt = out.value_at([x1])
            vp = eu.log_pointwise(bump, [x1])
            shift = eu.log_periodization_shift(bump, 24.0, [x1])
            assert abs(vt - vp - shift) <= 1e-7

    def test_frac_identity_gaussian_n1(self):
        gauss = eu.registry()["gaussian"]
        grid = eu.PeriodicGridFunction.from_function(gauss, 1, 24.0, 512)
        for s in (0.25, 0.5):
            vt = eu.frac_multiplier(grid, s).value_at([0.0])
            vp = eu.frac_pointwise(gauss, [0.0], s)
            shift = eu.frac_periodization_shift(gauss, 24.0, [0.0], s)
            assert abs(vt - vp - shift) <= 5e-7

    def test_log_identity_n2(self):
        gauss = eu.registry()["gaussian"]
        grid = eu.PeriodicGridFunction.from_function(gauss, 2, 24.0, 256)
        vt = eu.log_multiplier(grid).value_at([0.0, 0.0])
        vp = eu.log_pointwise(gauss, [0.0, 0.0])
        shift = eu.log_periodization_shift(gauss, 24.0, [0.0, 0.0], images=6)
        assert abs(vt - vp - shift) <= 1e-6

    def test_geometry_guard(self):
        bump = eu.registry()["bump"]
        with pytest.raises(ValueError):
            eu.log_periodization_shift(bump, 3.0, [1.2])


def _image_potential_ref(f, center, power, cfg):
    """One adaptive integral per lattice image, as the shifts once ran."""
    dist = float(np.linalg.norm(center))
    if center.size == 1:
        g = lambda rho: f.profile(rho) * ((dist - rho) ** -power + (dist + rho) ** -power)
    else:
        cos = np.cos(2.0 * math.pi * (np.arange(256) + 0.5) / 256.0)

        def g(rho):
            d2 = dist * dist + rho[:, None] ** 2 - 2.0 * dist * rho[:, None] * cos
            return f.profile(rho) * rho * np.mean(d2 ** (-0.5 * power), axis=1) * 2.0 * math.pi

    return integrate(g, 0.0, f.far_radius, cfg=cfg).value


def _cell_potential_ref(x, j, length):
    """int over cell j of |x - y|^(-n) dy, one cell at a time."""
    if x.size == 1:
        lo, hi = j[0] * length - 0.5 * length, j[0] * length + 0.5 * length
        if lo > x[0]:
            return math.log((hi - x[0]) / (lo - x[0]))
        return math.log((x[0] - lo) / (x[0] - hi))
    gx, gw = np.polynomial.legendre.leggauss(24)
    d1 = j[0] * length + 0.5 * length * gx - x[0]
    d2 = j[1] * length + 0.5 * length * gx - x[1]
    w = 0.5 * length * gw
    return float(w @ (1.0 / (d1[:, None] ** 2 + d2[None, :] ** 2)) @ w)


def _far_rows_ref(x, length, images, box, term):
    """sum of term(|x - L j|^2) over the lattice box outside the window, row by row."""
    total = 0.0
    jr = np.arange(-box, box + 1)
    c2 = x[1] - length * jr
    for j1 in jr:
        r2 = (x[0] - length * j1) ** 2 + c2 * c2
        if abs(j1) <= images:
            r2 = r2[np.abs(jr) > images]
        total += float(np.sum(term(r2)))
    return total


def _shift_ref(f, length, x, images, cfg, s=None):
    """log (s None) or fractional periodization shift, image by image."""
    x = np.asarray(x, dtype=float)
    n = x.size
    power = n + 2.0 * s if s is not None else float(n)
    mass, m2 = eu._moments(f, n, 0.0)
    m = mass / length ** n
    total = 0.0
    for j in itertools.product(range(-images, images + 1), repeat=n):
        if any(j):
            j = np.array(j, dtype=float)
            total += _image_potential_ref(f, x - length * j, power, cfg)
            if s is None:
                total -= m * _cell_potential_ref(x, j, length)
    if s is not None:
        if n == 1:
            for sign in (1, -1):
                q0 = images + 1 - sign * x[0] / length
                total += mass * length ** (-power) * eu._hurwitz_tail(power, q0)
        else:
            total += mass * _far_rows_ref(x, length, images, 400, lambda r2: np.sqrt(r2) ** -power)
            r_eff = 400.5 * length
            total += mass * 2.0 * math.pi * r_eff ** (2.0 - power) / ((power - 2.0) * length ** 2)
        return -eu.frac_constant(n, s).c_ns * total
    if n == 1:
        for j in range(images + 1, 4000):
            for sign in (1, -1):
                c = abs(x[0] - sign * j * length)
                i_j = mass * (1.0 / c + m2 / mass / c ** 3)
                total += i_j - m * _cell_potential_ref(x, [sign * j], length)
    else:
        coef = m2 / 4.0 - m * length ** 4 / 24.0
        total += _far_rows_ref(x, length, images, 600, lambda r2: 4.0 * coef / (r2 * r2))
    cn = eu.constants(n)
    return -cn.rho_n * m - cn.c_n * total + cn.c_n * m * eu._center_cell_potential(x, length, n)


class TestPeriodizationShiftEquivalence:
    """The summed-image integrals reproduce the image-by-image algorithm."""

    CFG = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-13)

    @pytest.mark.parametrize("n,images", [(1, 12), (2, 3)])
    @pytest.mark.parametrize("name", ["bump", "gaussian"])
    @pytest.mark.parametrize("s", [None, 0.25, 0.75])
    def test_matches_image_by_image(self, n, images, name, s):
        f = eu.registry()[name]
        x = [0.1875, -0.09375][:n]
        if s is None:
            got = eu.log_periodization_shift(f, 24.0, x, images=images, cfg=self.CFG)
        else:
            got = eu.frac_periodization_shift(f, 24.0, x, s, images=images, cfg=self.CFG)
        ref = _shift_ref(f, 24.0, x, images, self.CFG, s)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_frac_n2_pinned(self):
        # values computed with the 801 x 801 meshgrid far tail this lattice
        # sum replaced; on the Gaussian the image integrals agree to 1e-15
        gauss = eu.registry()["gaussian"]
        pinned = {
            (0.0, 0.25): -0.002836045259601957,
            (0.0, 0.75): -0.00011215012208320469,
            (0.1875, 0.25): -0.002836143155312034,
            (0.1875, 0.75): -0.00011216483640768152,
        }
        for (x1, s), value in pinned.items():
            got = eu.frac_periodization_shift(gauss, 24.0, [x1, 0.0], s)
            assert abs(got - value) <= 1e-13 * abs(value)

    def test_circle_series_near_its_bound(self):
        # an image at rho/D = 0.975 of the bump's edge takes most of the
        # series' terms; the circle mean against mpmath's 2F1
        mp = pytest.importorskip("mpmath")
        bump = eu.registry()["bump"]
        d, power = 1.0 / 0.975, 3.0

        def g(rho):
            mean = [float(mp.hyp2f1(1.5, 1.5, 1, (r / d) ** 2)) for r in rho]
            return bump.profile(rho) * rho * np.array(mean) * 2.0 * math.pi * d ** -power

        ref = integrate(g, 0.0, bump.far_radius, cfg=self.CFG).value
        got = eu._image_potential(bump, np.array([[d, 0.0]]), power, self.CFG)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_circle_series_past_its_bound_raises(self):
        # the nearest image 0.01 from the bump's edge: rho/D up to 0.99
        bump = eu.registry()["bump"]
        with pytest.raises(NonConvergenceError, match="circle series"):
            eu.frac_periodization_shift(bump, 2.2, [1.19, 0.0], 0.5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unconverged_raises(self, n):
        f = eu.registry()["gaussian"]
        cfg = QuadratureConfig(max_subdivisions=1)
        with pytest.raises(NonConvergenceError):
            eu.log_periodization_shift(f, 24.0, np.zeros(n), cfg=cfg)
        with pytest.raises(NonConvergenceError):
            eu.frac_periodization_shift(f, 24.0, np.zeros(n), 0.5, cfg=cfg)


class TestLimits:
    def test_e0_monotone_and_quotient(self):
        bump = eu.registry()["bump"]
        grid = eu.PeriodicGridFunction.from_function(bump, 1, 24.0, 512)
        mz = grid.with_samples(grid.samples - grid.mean())
        rep = eu.limits_report(mz, [0.2, 0.1, 0.05, 0.02])
        assert all(a > b for a, b in zip(rep.e0, rep.e0[1:]))
        qs = [q / s for q, s in zip(rep.quotient, rep.s_grid)]
        for a, b in zip(qs, qs[1:]):
            assert 1.0 / 3.0 <= b / a <= 3.0

    def test_s_to_one(self):
        bump = eu.registry()["bump"]
        grid = eu.PeriodicGridFunction.from_function(bump, 1, 24.0, 512)
        mz = grid.with_samples(grid.samples - grid.mean())
        rep = eu.limits_report(mz, [1e-4])
        assert rep.e1[0] <= 1e-3 * rep.laplacian_norm


class TestFlatKernels:
    def test_k1_plus_k2_total(self):
        # K1 + K2 integrates the full time axis: pi^(-n/2) Gamma(n/2) r^-n
        n, r = 3, 1.3
        total = eu.k1_flat(n, r) + eu.k2_flat(n, r)
        expected = math.pi ** -1.5 * gamma(1.5) * r ** -3.0
        assert total == pytest.approx(expected, rel=1e-12)

    def test_k1_k2_match_heat_time_integrals(self):
        # K1 and K2 split the time integral of the Gaussian heat kernel at t = 1
        r = 1.0
        for n in (1, 2, 3):

            def heat(t):
                return (4.0 * math.pi * t) ** (-0.5 * n) * np.exp(-r * r / (4.0 * t))

            k1 = integrate_semiinfinite(lambda u: heat(r * r / (4.0 * u)) / u, 0.25 * r * r)
            k2 = integrate_semiinfinite(lambda t: heat(t) / t, 1.0)
            assert eu.k1_flat(n, r) == pytest.approx(k1.value, abs=1e-10)
            assert eu.k2_flat(n, r) == pytest.approx(k2.value, abs=1e-10)

    def test_frac_kernel_flat(self):
        assert eu.frac_kernel_flat(1, 0.5, 2.0) == pytest.approx(
            eu.frac_constant(1, 0.5).c_ns * 2.0 ** -2.0, rel=1e-14
        )
