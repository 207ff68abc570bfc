"""Quadrature engine contracts and the scalar integral identities."""

import math

import numpy as np
import pytest

from loglap import quadrature as q
from loglap.specfun import EULER_GAMMA, exp_integral_e1


class TestConfigs:
    def test_defaults(self):
        cfg = q.QuadratureConfig()
        assert cfg.abs_tol == 1e-12 and cfg.rel_tol == 1e-10
        assert cfg.max_subdivisions == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            q.QuadratureConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            q.QuadratureConfig(max_subdivisions=0)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            q.QuadResult(1.0, -1.0, 15)
        with pytest.raises(ValueError):
            q.QuadResult(1.0, 0.0, 0)

    def test_hint_validation(self):
        with pytest.raises(ValueError):
            q.SingularityHint("middle")


class TestIntegrate:
    def test_constant(self):
        res = q.integrate(lambda x: np.ones_like(x), 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-13)
        assert res.converged and res.evaluations >= 15

    def test_sin(self):
        res = q.integrate(np.sin, 0.0, math.pi)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_inverse_sqrt_hint(self):
        res = q.integrate(
            lambda x: 1.0 / np.sqrt(x),
            0.0,
            1.0,
            hint=q.SingularityHint("lower"),
        )
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_upper_hint(self):
        res = q.integrate(
            lambda x: 1.0 / np.sqrt(1.0 - x),
            0.0,
            1.0,
            hint=q.SingularityHint("upper"),
        )
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_hint_consistent_on_smooth(self):
        plain = q.integrate(np.cos, 0.0, 1.0).value
        hinted = q.integrate(
            np.cos, 0.0, 1.0, hint=q.SingularityHint("lower")
        ).value
        assert abs(plain - hinted) <= 1e-12

    def test_nonfinite_error(self):
        def pole(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(q.NonFiniteIntegrandError):
            q.integrate(pole, 0.0, 1.0)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            q.integrate(np.sin, 1.0, 0.0)

    def test_budget_exhaustion_flags(self):
        cfg = q.QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=2)
        res = q.integrate(lambda x: np.exp(np.sin(7.0 * x)), 0.0, 6.0, cfg=cfg)
        assert not res.converged
        assert math.isfinite(res.value)

    def test_one_call_per_subdivision_step(self):
        # the whole interval first, then both halves of each split panel in
        # one call: 1 + splits calls for 15 + 30 splits evaluations
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(np.sin(7.0 * x))

        res = q.integrate(f, 0.0, 6.0)
        splits = (res.evaluations - 15) // 30
        assert res.converged and splits > 1
        assert sizes == [15] + [30] * splits


class TestSemiInfinite:
    def test_exponential(self):
        res = q.integrate_semiinfinite(lambda t: np.exp(-t), 0.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_gamma_five_halves(self):
        res = q.integrate_semiinfinite(lambda t: t ** 1.5 * np.exp(-t), 0.0)
        assert res.value == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-11)

    def test_exponential_integral_cross_module(self):
        res = q.integrate_semiinfinite(lambda t: np.exp(-t) / t, 1.0)
        assert res.value == pytest.approx(exp_integral_e1(1.0), abs=1e-11)

    def test_gaussian_tail(self):
        res = q.integrate_semiinfinite(lambda t: np.exp(-t * t), 0.0)
        assert res.value == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-11)

    def test_scalar_is_one_row(self):
        # a scalar integral is the one-row case of the independent-rows mode
        cases = ((lambda t: np.exp(-t) / t, 1.0), (lambda t: np.exp(-t * t) * np.cos(t), 0.3))
        for f, a in cases:
            scalar = q.integrate_semiinfinite(f, a)
            row = q.integrate_semiinfinite_rows(lambda rows, t: f(t), [a])
            assert isinstance(scalar.value, float)
            assert row.value.tobytes() == np.array([scalar.value]).tobytes()
            assert row.error_estimate.tobytes() == np.array([scalar.error_estimate]).tobytes()
            assert row.evaluations == scalar.evaluations
            assert row.converged.tolist() == [scalar.converged]


def _batch(x):
    """Three integrands of very different scale, one per row."""
    return np.stack([np.sin(x), 1e6 * np.exp(-x) * x * x, 1e-6 * np.cos(3.0 * x)])


class TestVectorIntegrands:
    def test_components_match_scalar(self):
        res = q.integrate(_batch, 0.0, 2.0)
        assert res.value.shape == res.error_estimate.shape == (3,)
        assert res.converged
        cfg = q.DEFAULT_CONFIG
        for i in range(3):
            scalar = q.integrate(lambda x: _batch(x)[i], 0.0, 2.0)
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(scalar.value))
            assert abs(res.value[i] - scalar.value) <= tol
            assert res.error_estimate[i] <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value[i]))

    def test_single_row_batch(self):
        res = q.integrate(lambda x: np.exp(np.sin(7.0 * x))[None, :], 0.0, 6.0)
        scalar = q.integrate(lambda x: np.exp(np.sin(7.0 * x)), 0.0, 6.0)
        assert res.value.shape == (1,)
        assert res.value[0] == scalar.value
        assert res.error_estimate[0] == scalar.error_estimate
        assert res.evaluations == scalar.evaluations

    def test_wrong_shape_raises(self):
        for bad in (
            lambda x: np.ones(x.size + 1),
            lambda x: np.ones((2, x.size - 1)),
            lambda x: np.ones((2, 2, x.size)),
            lambda x: np.ones((0, x.size)),
        ):
            with pytest.raises(ValueError, match="integrand must return"):
                q.integrate(bad, 0.0, 1.0)

    def test_shape_change_between_panels_raises(self):
        # the first call evaluates the whole interval, the second both
        # halves of its first split: the value shape changes on the second
        def changing(first, later):
            calls = []

            def f(x):
                calls.append(x.size)
                return (first if len(calls) == 1 else later)(x)

            return f, calls

        rows = lambda m: lambda x: np.ones((m, x.size)) * np.sin(10.0 * x)
        scalar = lambda x: np.sin(10.0 * x)
        for first, later in ((rows(2), rows(3)), (scalar, rows(2)), (rows(2), scalar)):
            f, calls = changing(first, later)
            with pytest.raises(ValueError, match="integrand must return"):
                q.integrate(f, 0.0, 1.0)
            assert calls == [15, 30]

    def test_nan_row_raises(self):
        def one_bad_row(x):
            out = _batch(x)
            out[1, 7] = np.nan
            return out

        with pytest.raises(q.NonFiniteIntegrandError):
            q.integrate(one_bad_row, 0.0, 1.0)

    def test_hint_map_passes_batches(self):
        hint = q.SingularityHint("lower")
        res = q.integrate(
            lambda x: np.stack([1.0 / np.sqrt(x), np.cos(x) / np.sqrt(x)]), 0.0, 1.0, hint=hint
        )
        scalar = q.integrate(lambda x: np.cos(x) / np.sqrt(x), 0.0, 1.0, hint=hint)
        assert res.value[0] == pytest.approx(2.0, abs=1e-12)
        assert res.value[1] == pytest.approx(scalar.value, abs=1e-12)
        upper = q.integrate(
            lambda x: np.stack([1.0 / np.sqrt(1.0 - x), x]),
            0.0,
            1.0,
            hint=q.SingularityHint("upper"),
        )
        assert upper.value == pytest.approx([2.0, 0.5], abs=1e-12)

    def test_semiinfinite_map_passes_batches(self):
        res = q.integrate_semiinfinite(
            lambda t: np.stack([np.exp(-t), t ** 1.5 * np.exp(-t), np.exp(-t * t)]), 0.0
        )
        expected = [1.0, 0.75 * math.sqrt(math.pi), 0.5 * math.sqrt(math.pi)]
        assert res.value == pytest.approx(expected, rel=1e-11)

    def test_budget_exhaustion_flags(self):
        cfg = q.QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=2)
        res = q.integrate(lambda x: np.stack([np.exp(np.sin(7.0 * x)), x]), 0.0, 6.0, cfg=cfg)
        assert not res.converged
        assert np.all(np.isfinite(res.value))

    def test_result_rejects_negative_component_error(self):
        with pytest.raises(ValueError):
            q.QuadResult(np.zeros(2), np.array([1e-3, -1e-3]), 15)


# rows that need refinement in different places: e^(-c t) cos(w t)
_RATES = np.array([0.5, 1.0, 3.0, 10.0, 0.2])
_FREQS = np.array([0.0, 2.0, 7.0, 1.0, 5.0])


def _damped(i, t):
    return np.exp(-_RATES[i, None] * t) * np.cos(_FREQS[i, None] * t)


def _damped_exact(a):
    c, w = _RATES, _FREQS
    return np.exp(-c * a) * (c * np.cos(w * a) - w * np.sin(w * a)) / (c * c + w * w)


class TestIndependentRows:
    def test_rows_match_closed_form(self):
        a = np.array([0.0, 0.5, 1.0, 0.0, 2.0])
        res = q.integrate_semiinfinite_rows(_damped, a)
        assert res.value.shape == res.error_estimate.shape == res.converged.shape == (5,)
        assert np.all(res.converged)
        exact = _damped_exact(a)
        assert np.all(np.abs(res.value - exact) <= 1e-10 * np.abs(exact) + 1e-12)

    def test_rows_match_scalar_engine(self):
        a = np.array([0.0, 0.5, 1.0, 0.0, 2.0])
        res = q.integrate_semiinfinite_rows(_damped, a)
        for i in range(a.size):
            scalar = q.integrate_semiinfinite(lambda t: _damped(np.array([i]), t[None])[0], a[i])
            assert res.value[i] == pytest.approx(scalar.value, rel=1e-13, abs=1e-15)

    def test_row_does_not_depend_on_the_batch(self):
        # bit for bit: alone, in the whole batch, and in reverse order
        a = np.array([0.0, 0.5, 1.0, 0.0, 2.0])
        whole = q.integrate_semiinfinite_rows(_damped, a)
        for i in range(a.size):
            alone = q.integrate_semiinfinite_rows(
                lambda rows, t: _damped(np.full(rows.shape, i), t), a[i : i + 1]
            )
            assert alone.value.tobytes() == whole.value[i : i + 1].tobytes()
            assert alone.error_estimate.tobytes() == whole.error_estimate[i : i + 1].tobytes()
        order = np.arange(a.size)[::-1]
        reverse = q.integrate_semiinfinite_rows(lambda rows, t: _damped(order[rows], t), a[order])
        assert reverse.value[::-1].tobytes() == whole.value.tobytes()

    def test_budget_is_per_row(self):
        a = np.zeros(5)
        splits = [
            (q.integrate_semiinfinite_rows(
                lambda rows, t: _damped(np.full(rows.shape, i), t), a[:1]
            ).evaluations - 15) // 30
            for i in range(5)
        ]
        cfg = q.QuadratureConfig(max_subdivisions=int(np.median(splits)))
        res = q.integrate_semiinfinite_rows(_damped, a, cfg)
        assert res.converged.tolist() == [s <= cfg.max_subdivisions for s in splits]

    def test_results_add_row_by_row(self):
        cfg = q.QuadratureConfig(max_subdivisions=10)
        head = q.integrate_semiinfinite_rows(_damped, np.zeros(5), cfg)
        tail = q.integrate_semiinfinite_rows(_damped, np.ones(5), cfg)
        total = head + tail
        assert not np.all(head.converged)
        assert total.converged.tolist() == (head.converged & tail.converged).tolist()
        assert total.value.tolist() == (head.value + tail.value).tolist()

    def test_nan_raises(self):
        def bad(rows, t):
            out = _damped(rows, t)
            out[rows == 3] = np.nan
            return out

        with pytest.raises(q.NonFiniteIntegrandError):
            q.integrate_semiinfinite_rows(bad, np.zeros(5))

    def test_wrong_shape_raises(self):
        for bad in (lambda rows, t: t[:, :-1], lambda rows, t: t[:-1], lambda rows, t: t[..., None]):
            with pytest.raises(ValueError):
                q.integrate_semiinfinite_rows(bad, np.zeros(3))

    @pytest.mark.parametrize("a", [np.zeros((2, 2)), np.array([]), np.array([0.0, np.inf])])
    def test_bad_lower_endpoints_raise(self, a):
        with pytest.raises(ValueError, match="lower endpoints"):
            q.integrate_semiinfinite_rows(_damped, a)


class TestFiniteRows:
    def test_rows_match_closed_form(self):
        a = np.array([0.0, 0.5, 1.0, 0.0, 2.0])
        b = np.array([1.0, 3.0, 1.5, 20.0, 2.25])
        res = q.integrate_rows(_damped, a, b)
        assert res.value.shape == res.error_estimate.shape == res.converged.shape == (5,)
        assert np.all(res.converged)
        exact = _damped_exact(a) - _damped_exact(b)
        assert np.all(np.abs(res.value - exact) <= 1e-10 * np.abs(exact) + 1e-12)

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.zeros((2, 2)), np.ones((2, 2))),
            (np.array([]), np.array([])),
            (np.zeros(2), np.ones(3)),
            (np.array([0.0, 1.0]), np.array([1.0, 1.0])),
            (np.array([0.0, 0.0]), np.array([1.0, np.inf])),
        ],
    )
    def test_bad_endpoints_raise(self, a, b):
        with pytest.raises(ValueError, match="finite a < b"):
            q.integrate_rows(_damped, a, b)

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="integrand must return"):
            q.integrate_rows(lambda rows, x: x[:, :-1], np.zeros(3), np.ones(3))


class TestFrullani:
    def test_unity(self):
        assert q.frullani_log(1.0) == 0.0

    def test_log_two(self):
        assert q.frullani_log(2.0) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_small_lambda(self):
        assert q.frullani_log(1e-3) == pytest.approx(math.log(1e-3), abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            q.frullani_log(0.0)
        with pytest.raises(ValueError):
            q.frullani_log(-2.0)

    def test_additivity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = float(rng.uniform(0.05, 20.0))
            b = float(rng.uniform(0.05, 20.0))
            lhs = q.frullani_log(a * b)
            rhs = q.frullani_log(a) + q.frullani_log(b)
            assert abs(lhs - rhs) <= 2e-10

    def test_inversion_antisymmetry(self):
        for lam in (0.2, 3.0, 40.0):
            assert q.frullani_log(1.0 / lam) == pytest.approx(
                -q.frullani_log(lam), abs=2e-10
            )

    def test_unconverged_raises(self):
        cfg = q.QuadratureConfig(max_subdivisions=1)
        with pytest.raises(q.NonConvergenceError, match="frullani_log"):
            q.frullani_log(2.0, cfg)


def _flat_dist(q_):
    return np.sqrt(np.maximum(q_, 0.0))


def _bump_cap_reference(mp, n, a, b, dist, cuts):
    """mpmath mean over S^(n-1) of the unit bump at dist(a - b cos theta),
    split where a - b cos theta crosses `cuts`, the images of the radii 0.9
    and 1."""
    mp.mp.dps = 20
    bump = lambda rho: mp.e ** (-1 / (1 - rho * rho)) if rho < 1 else mp.mpf(0)
    a, b = mp.mpf(a), mp.mpf(b)
    points = [mp.mpf(0)]
    for cut in cuts:
        cos = (a - cut) / b
        if -1 < cos < 1:
            points.append(mp.acos(cos))
    points.append(mp.pi)
    mean = mp.quad(lambda th: bump(dist(a - b * mp.cos(th))) * mp.sin(th) ** (n - 2), points)
    return float(mean / mp.quad(lambda th: mp.sin(th) ** (n - 2), [0, mp.pi]))


class TestSphereMean:
    """The one angular rule behind every sphere and geodesic-sphere mean."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gaussian_closed_form(self, n):
        # the mean of e^(-d^2/4t) over the sphere of radius r about x is
        # e^(-(|x| - r)^2/4t) A_n(|x| r/2t); one panel resolves the
        # exponent's z = |x| r/2t up to 10, the largest here
        from loglap.euclid import _angular_mean

        r = np.array([0.2, 1.0, 2.5])
        for xn in (0.3, 1.0, 2.0):
            for t in (0.25, 1.0, 4.0):
                gauss = lambda d: np.exp(-d * d / (4.0 * t))
                mean = q.sphere_mean(gauss, n, xn * xn + r * r, 2.0 * xn * r, _flat_dist)
                exact = np.exp(-((xn - r) ** 2) / (4.0 * t)) * _angular_mean(n, xn * r / (2.0 * t))
                assert np.max(np.abs(mean / exact - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_constant_has_mean_one(self, n):
        a, b = np.array([1.0, 2.0, 5.0]), np.array([0.5, 1.5, 1.0])
        one = lambda d: np.ones_like(d)
        assert np.max(np.abs(q.sphere_mean(one, n, a, b, _flat_dist) - 1.0)) <= 1e-15
        # a last cut past every sphere keeps it whole; a support edge
        # below every sphere leaves nothing of it
        whole = q.sphere_mean(one, n, a, b, _flat_dist, cuts=(1.0, 10.0))
        assert np.max(np.abs(whole - 1.0)) <= 1e-15
        inside = lambda d: 1.0 * (d <= 0.5)
        assert np.all(q.sphere_mean(inside, n, a, b, _flat_dist, cuts=(0.25,)) == 0.0)

    def test_zero_radius_is_the_profile(self):
        a = np.array([0.25, 0.81, 2.0])
        tent = lambda d: np.maximum(0.0, 1.0 - d)
        mean = q.sphere_mean(tent, 3, a, np.zeros(3), _flat_dist, cuts=(1.0,))
        assert np.array_equal(mean, tent(_flat_dist(a)))

    def test_bump_caps_match_mpmath(self):
        # spheres about points inside and outside the support of the bump,
        # in R^n (d^2 = a - b cos theta) and H^n (cosh d = a - b cos theta)
        from loglap import euclid as eu, hyperbolic as hy

        mp = pytest.importorskip("mpmath")
        flat_cuts = (mp.mpf("0.81"), mp.mpf(1))
        geodesic_cuts = (mp.cosh(mp.mpf("0.9")), mp.cosh(1))
        for n in (2, 3):
            bump = eu.registry()["bump"]
            for xn in (0.6, 1.2):
                x = np.zeros(n)
                x[0] = xn
                for r in (0.3, 0.7, 1.0, 2.0):
                    a, b = xn * xn + r * r, 2.0 * xn * r
                    ref = _bump_cap_reference(mp, n, a, b, mp.sqrt, flat_cuts)
                    assert abs(eu.sphere_average(bump, x, [r])[0] - ref) <= 5e-15
        bump = hy.hyper_registry()["bump"]
        for n in (2, 3, 5):
            for xd in (0.6, 1.2):
                for r in (0.3, 0.7, 1.0, 2.0):
                    a, b = math.cosh(xd) * math.cosh(r), math.sinh(xd) * math.sinh(r)
                    ref = _bump_cap_reference(mp, n, a, b, mp.acosh, geodesic_cuts)
                    mean = hy._geodesic_average(bump.profile, n, xd, [r], bump.breaks)[0]
                    assert abs(mean - ref) <= 5e-15

    def test_breaks_end_at_the_support_edge(self):
        def breaks(edge, given):
            return q.RadialFunction("f", np.ones_like, edge, breaks=given).breaks

        assert breaks(1.0, (0.9, 1.0)) == (0.9, 1.0)
        assert breaks(1.0, ()) == (1.0,)
        assert breaks(math.inf, ()) == ()
        with pytest.raises(ValueError):
            breaks(1.0, (1.0, 0.9))
        with pytest.raises(ValueError):
            breaks(1.0, (0.9,))


class TestScalarIdentities:
    def test_report_passes(self):
        rep = q.verify_scalar_identities([1, 2, 3, 4, 5, 6])
        assert rep.passed, [c.as_dict() for c in rep.checks if not c.passed]

    def test_euler_identity_residual(self):
        rep = q.verify_scalar_identities([2])
        euler = next(c for c in rep.checks if c.id == "euler-identity")
        assert euler.measured <= 1e-10

    def test_log_moment_value_n2(self):
        # right side at n=2 is -gamma/2 + log 2
        expected = -0.5 * EULER_GAMMA + math.log(2.0)
        assert expected == pytest.approx(0.4045393, abs=1e-7)

    def test_gamma_tail_point(self):
        lo, val, hi = q.gamma_tail_bounds(3, 0.5, 6.0)
        assert lo <= val <= hi

    def test_unconverged_raises(self):
        cfg = q.QuadratureConfig(max_subdivisions=1)
        with pytest.raises(q.NonConvergenceError, match="euler identity"):
            q._euler_identity_residual(cfg)
        for n in (1, 3):
            with pytest.raises(q.NonConvergenceError, match=f"log moment identity \\(n={n}\\)"):
                q._log_moment_identity_residual(n, cfg)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            q.verify_scalar_identities([])
