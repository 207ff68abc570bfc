"""Eigenbasis functional calculus and the killed half-line diffusion."""

import math

import numpy as np
import pytest

from loglap import spectral as sp
from loglap.quadrature import NonConvergenceError, QuadratureConfig, integrate
from loglap.specfun import gamma


class TestEigenModels:
    def test_sphere_multiplicities(self):
        m = sp.EigenModel.sphere2(5)
        assert m.eigenvalues.size == 36
        assert np.sum(m.eigenvalues == 2.0) == 3  # l = 1

    def test_torus_eigenvalues(self):
        m = sp.EigenModel.torus(1, 2.0 * math.pi, 8)
        ks = sorted({round(v) for v in m.eigenvalues})
        assert ks == [0, 1, 4, 9, 16]

    def test_validation(self):
        with pytest.raises(ValueError):
            sp.EigenModel.abstract([])
        with pytest.raises(ValueError):
            sp.EigenModel("bad", np.array([-1.0, 0.0]))

    def test_coefficient_alignment(self):
        m = sp.EigenModel.abstract([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            sp.SpectralCoefficients(m, np.zeros(2))


class TestApplyPhi:
    def test_log_on_sphere_mode(self):
        m = sp.EigenModel.sphere2(3)
        c = np.zeros(m.eigenvalues.size)
        idx = int(np.argmax(m.eigenvalues == 2.0))
        c[idx] = 1.0
        out = sp.apply_phi(m, c, sp.PhiSpec("log"))
        assert out.coeffs[idx] == pytest.approx(math.log(2.0), rel=1e-15)

    def test_frac_product_is_laplacian(self):
        m = sp.EigenModel.abstract([0.0, 0.5, 1.0, 3.0, 10.0])
        rng = np.random.default_rng(9)
        c = rng.normal(size=5)
        s = 0.3
        once = sp.apply_phi(m, c, sp.PhiSpec("frac", s=s))
        twice = sp.apply_phi(m, once.coeffs, sp.PhiSpec("frac", s=1.0 - s))
        assert np.max(np.abs(twice.coeffs - m.eigenvalues * c)) <= 1e-13

    def test_heat_contracts(self):
        m = sp.EigenModel.abstract([0.0, 1.0, 4.0, 9.0])
        c = np.array([1.0, -2.0, 3.0, -4.0])
        out = sp.apply_phi(m, c, sp.PhiSpec("heat", t=0.5))
        assert np.all(np.abs(out.coeffs) <= np.abs(c) + 1e-15)

    def test_multiplier_morphism(self):
        m = sp.EigenModel.abstract([0.0, 0.3, 1.0, 2.5, 40.0])
        rng = np.random.default_rng(2)
        c = rng.normal(size=5)
        heat = sp.PhiSpec("heat", t=0.2)
        frac = sp.PhiSpec("frac", s=0.6)
        seq = sp.apply_phi(m, sp.apply_phi(m, c, heat).coeffs, frac)
        product = sp.PhiSpec(
            "custom", fn=lambda lam: frac.values(lam) * heat.values(lam)
        )
        direct = sp.apply_phi(m, c, product)
        assert np.max(np.abs(seq.coeffs - direct.coeffs)) <= 1e-14

    def test_shifted_quotient_converges_to_log(self):
        m = sp.EigenModel.abstract([0.0, 0.2, 1.0, 7.0, 100.0])
        lam = m.eigenvalues
        logs = sp.PhiSpec("log").values(lam)
        for s in (0.1, 0.01):
            quo = sp.PhiSpec("shifted_frac_quotient", s=s).values(lam)
            cap = np.where(
                lam > 0,
                np.log(np.maximum(lam, 1e-300)) ** 2
                * np.maximum(lam ** s, 1.0),
                0.0,
            )
            bound = 0.6 * s * float(np.max(cap))
            assert float(np.max(np.abs(quo - logs))) <= bound + 1e-12

    def test_phi_validation(self):
        with pytest.raises(ValueError):
            sp.PhiSpec("frac", s=1.5)
        with pytest.raises(ValueError):
            sp.PhiSpec("heat")
        with pytest.raises(ValueError):
            sp.PhiSpec("unknown")


class TestBochnerEigenLog:
    def test_values(self):
        assert sp.bochner_eigen_log(4.0) == pytest.approx(math.log(4.0), abs=1e-10)
        assert sp.bochner_eigen_log(1.0) == 0.0
        assert sp.bochner_eigen_log(30.0) == pytest.approx(math.log(30.0), abs=1e-10)

    def test_log_spaced_sweep(self):
        for lam in np.geomspace(1e-3, 1e3, 13):
            assert abs(sp.bochner_eigen_log(float(lam)) - math.log(lam)) <= 1e-9


class TestSobolevNorms:
    def test_single_mode(self):
        m = sp.EigenModel.abstract([3.0])
        hs, hlog = sp.sobolev_norms(m, np.array([1.0]), 0.5)
        assert hs ** 2 == pytest.approx(1.0 + 3.0, rel=1e-14)
        assert hlog ** 2 == pytest.approx(1.0 + math.log(3.0) ** 2, rel=1e-14)

    def test_s_zero_double_counts_positive_modes(self):
        m = sp.EigenModel.abstract([0.0, 1.0, 2.0])
        c = np.array([1.0, 1.0, 1.0])
        hs, _ = sp.sobolev_norms(m, c, 0.0)
        assert hs ** 2 == pytest.approx(2.0 * 3.0 - 1.0, rel=1e-14)

    def test_monotone_in_s_above_one(self):
        m = sp.EigenModel.abstract([1.0, 2.0, 5.0])
        c = np.array([1.0, 0.5, 0.25])
        norms = [sp.sobolev_norms(m, c, s)[0] for s in (0.1, 0.5, 0.9)]
        assert norms[0] <= norms[1] <= norms[2]


class TestEmbeddingCounterexample:
    def test_g_is_harmonic_sum(self):
        rows = sp.embedding_counterexample(0.25, [100])
        harmonic = sum(1.0 / k for k in range(2, 101))
        assert rows[0][2] == pytest.approx(harmonic, rel=1e-12)

    def test_dichotomy(self):
        rows = sp.embedding_counterexample(0.25, [1000, 1000000])
        f_diff = rows[1][1] - rows[0][1]
        g_diff = rows[1][2] - rows[0][2]
        assert g_diff >= 6.0
        assert f_diff <= 1e-3

    def test_chunked_sums_match_one_sum(self):
        # checkpoints that straddle the summation chunks, against one fsum each
        rows = sp.embedding_counterexample(0.25, [70000, 140000])
        for n, f_sum, g_sum in rows:
            k = np.arange(2, n + 1, dtype=float)
            assert f_sum == pytest.approx(math.fsum(k ** -0.5 / (k * np.log(k) ** 2)), rel=1e-13)
            assert g_sum == pytest.approx(math.fsum(1.0 / k), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            sp.embedding_counterexample(0.0, [100])
        with pytest.raises(ValueError):
            sp.embedding_counterexample(0.25, [5])


class TestHalfLine:
    def test_short_time_mass(self):
        mass, lost = sp.halfline_mass(1e-8, 1.0)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert lost == pytest.approx(0.0, abs=1e-12)

    def test_long_time_mass(self):
        mass, _ = sp.halfline_mass(1e8, 1.0)
        assert mass <= 1e-4

    def test_mass_formula_vs_density_quadrature(self):
        t, x = 1.0, 1.0

        def g(y):
            return sp.KilledHalfLineModel.density(t, x, np.asarray(y))

        oracle = integrate(g, 0.0, x + 30.0).value
        assert sp.halfline_mass(t, x)[0] == pytest.approx(oracle, abs=1e-10)

    def test_density_positive_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            t = float(rng.uniform(0.05, 5.0))
            x = float(rng.uniform(0.1, 4.0))
            y = float(rng.uniform(0.1, 4.0))
            a = float(sp.KilledHalfLineModel.density(t, x, y))
            b = float(sp.KilledHalfLineModel.density(t, y, x))
            assert a >= 0.0
            assert a == pytest.approx(b, rel=1e-13, abs=1e-300)


class TestMassLoss:
    def test_monotone_toward_one(self):
        vals = [sp.massloss_vs(1.0, s) for s in (0.2, 0.1, 0.05, 0.02)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0

    def test_matches_exact_formula(self):
        for s in (0.2, 0.05):
            for x in (0.5, 1.0, 3.0):
                assert sp.massloss_vs(x, s) == pytest.approx(
                    sp.massloss_limit_exact(x, s), abs=1e-9
                )

    def test_richardson_limit(self):
        v1 = sp.massloss_vs(1.0, 0.05)
        v2 = sp.massloss_vs(1.0, 0.02)
        extrapolated = (0.05 * v2 - 0.02 * v1) / 0.03
        assert abs(extrapolated - 1.0) <= 1e-2

    def test_unconverged_raises(self):
        with pytest.raises(NonConvergenceError, match="massloss_vs"):
            sp.massloss_vs(1.0, 0.5, QuadratureConfig(max_subdivisions=1))

    def test_large_x_power_decay(self):
        # V_s(x) = (x/2)^(-2s) Gamma(s+1/2)/(sqrt(pi) Gamma(1-s)); at x = 50,
        # s = 0.1 this is about 0.41 and decays like x^(-2s)
        val = sp.massloss_vs(50.0, 0.1)
        assert val == pytest.approx(sp.massloss_limit_exact(50.0, 0.1), abs=1e-6)
        assert val < sp.massloss_vs(1.0, 0.1)
        ratio = sp.massloss_vs(50.0, 0.1) / sp.massloss_vs(5.0, 0.1)
        assert ratio == pytest.approx(10.0 ** (-0.2), rel=1e-4)


def _sine_transform_frac(s, x, length=256.0, points=2 ** 20):
    """(-Lap_D)^s of the bump at the node x: xi^(2s) on the discrete sine
    transform of its samples on (0, length), the rfft of the odd extension."""
    y = np.arange(points) * (length / points)
    odd = np.concatenate([_bump(y), [0.0], -_bump(y[:0:-1])])
    xi = np.arange(points + 1) * (math.pi / length)
    values = np.fft.irfft(np.fft.rfft(odd) * xi ** (2.0 * s), n=odd.size)
    return float(values[round(x * points / length)])


def _bump(y):
    y = np.asarray(y, dtype=float)
    inside = (y > 1.0) & (y < 2.0)
    arg = np.where(inside, (y - 1.0) * (2.0 - y), 1.0)
    return np.where(inside, np.exp(-1.0 / arg), 0.0)


class TestDiscrepancy:
    def test_identity_midpoint(self):
        rep = sp.frac_discrepancy_halfline(_bump, (1.0, 2.0), 0.5, 1.5)
        assert rep.identity_residual <= 1e-6 * (1.0 + abs(rep.deficit_form))

    def test_identity_near_one(self):
        rep = sp.frac_discrepancy_halfline(_bump, (1.0, 2.0), 0.9, 1.5)
        assert rep.identity_residual <= 1e-5 * (1.0 + abs(rep.deficit_form))

    def test_routes_agree_where_f_vanishes(self):
        rep = sp.frac_discrepancy_halfline(_bump, (1.0, 2.0), 0.5, 0.5)
        assert rep.f_at_x == 0.0
        assert abs(rep.deficit_form - rep.difference_form - rep.potential * 0.0) <= 1e-8

    def test_potential_matches_standalone(self):
        rep = sp.frac_discrepancy_halfline(_bump, (1.0, 2.0), 0.5, 1.5)
        assert rep.potential == pytest.approx(sp.massloss_vs(1.5, 0.5), rel=1e-10)

    def test_forms_match_pinned(self):
        # B with the difference inside its integrand, A = B + f(x) times the
        # lost mass, each time integral a power head below t = 1
        pinned = {
            (0.5, 1.5): (0.08770306475521768, 0.07992966618180923),
            (0.9, 1.5): (0.39579639776213255, 0.3941788803687848),
            (0.5, 0.5): (-0.001809389413513792, -0.001809389413513792),
        }
        for (s, x), (deficit, difference) in pinned.items():
            rep = sp.frac_discrepancy_halfline(_bump, (1.0, 2.0), s, x)
            assert rep.deficit_form == pytest.approx(deficit, rel=1e-10)
            assert rep.difference_form == pytest.approx(difference, rel=1e-10)

    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_deficit_form_matches_the_sine_transform(self, s):
        # the semigroup deficit is the spectral (-Lap_D)^s f, xi^(2s) on the
        # sine transform of f
        rep = sp.frac_discrepancy_halfline(_bump, (1.0, 2.0), s, 1.5)
        assert rep.deficit_form == pytest.approx(_sine_transform_frac(s, 1.5), rel=1e-9)

    def test_near_one_raises_or_is_right(self):
        # close to s = 1 the short-time head drowns in the rounding of
        # f(x) - f(y); it may raise, but not return a wrong value
        try:
            rep = sp.frac_discrepancy_halfline(_bump, (1.0, 2.0), 0.99, 1.5)
        except NonConvergenceError:
            return
        assert rep.deficit_form == pytest.approx(_sine_transform_frac(0.99, 1.5), rel=1e-9)

    @pytest.mark.parametrize(
        "s, x, message",
        [
            (0.0, 1.5, "s must lie in"),
            (-0.5, 1.5, "s must lie in"),
            (1.0, 1.5, "s must lie in"),
            (1.5, 1.5, "s must lie in"),
            (math.nan, 1.5, "s must lie in"),
            (0.5, 0.0, "x must be"),
            (0.5, -1.0, "x must be"),
            (0.5, math.inf, "x must be"),
            (0.5, math.nan, "x must be"),
        ],
    )
    def test_bad_s_or_x_raises_before_integrating(self, s, x, message):
        def untouched(y):
            raise AssertionError("f evaluated")

        with pytest.raises(ValueError, match=message):
            sp.frac_discrepancy_halfline(untouched, (1.0, 2.0), s, x)

    def test_unconverged_raises(self):
        with pytest.raises(NonConvergenceError):
            sp.frac_discrepancy_halfline(
                _bump, (1.0, 2.0), 0.5, 1.5, cfg=QuadratureConfig(max_subdivisions=1)
            )
