"""Discrete functional calculus and the killed half-line diffusion model.

Eigenbasis models (torus lattice, round 2-sphere, user-supplied lists) carry
the multiplier calculus phi(-Lap); the half-line model (Brownian motion on
(0, inf) killed at 0, density g_t(x-y) - g_t(x+y)) provides an explicit
testbed where heat mass is lost, exercising the survival probability, the
mass-loss potential V_s, and the discrepancy between the semigroup-deficit
and difference-kernel forms of the fractional operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _power_head,
    frullani_log,
    integrate,
    integrate_rows,
)
from .specfun import erf, erfc, gamma

__all__ = [
    "EigenModel",
    "SpectralCoefficients",
    "PhiSpec",
    "apply_phi",
    "bochner_eigen_log",
    "sobolev_norms",
    "embedding_counterexample",
    "KilledHalfLineModel",
    "halfline_mass",
    "massloss_vs",
    "massloss_limit_exact",
    "frac_discrepancy_halfline",
]


# ---------------------------------------------------------------------------
# eigenbasis models


@dataclass(frozen=True)
class EigenModel:
    id: str
    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d array")
        if np.any(ev < 0) or np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be nonnegative and nondecreasing")
        object.__setattr__(self, "eigenvalues", ev)

    @classmethod
    def torus(cls, n: int, length: float, points: int) -> "EigenModel":
        """|2 pi k / L|^2 over the integer lattice k in [-N/2, N/2)^n."""
        k = np.fft.fftfreq(points, d=1.0 / points)
        grids = np.meshgrid(*([k] * n), indexing="ij")
        lam = sum((2.0 * math.pi / length * g) ** 2 for g in grids).ravel()
        return cls(f"torus({n},{length},{points})", np.sort(lam))

    @classmethod
    def sphere2(cls, l_max: int) -> "EigenModel":
        """l(l+1) with multiplicity 2l+1 on the round 2-sphere."""
        lam = np.concatenate(
            [np.full(2 * l + 1, float(l * (l + 1))) for l in range(l_max + 1)]
        )
        return cls(f"sphere2({l_max})", lam)

    @classmethod
    def abstract(cls, eigenvalues) -> "EigenModel":
        return cls("abstract", np.sort(np.asarray(eigenvalues, dtype=float)))


@dataclass
class SpectralCoefficients:
    model: EigenModel
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != self.model.eigenvalues.shape:
            raise ValueError("coefficient vector must match the eigenvalue list")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        self.coeffs = c


@dataclass(frozen=True)
class PhiSpec:
    """Spectral multiplier: frac(s), log, heat(t), shifted_frac_quotient(s),
    or custom(callable on eigenvalue arrays)."""

    kind: str
    s: float | None = None
    t: float | None = None
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind in ("frac", "shifted_frac_quotient"):
            if self.s is None or not (0.0 < self.s < 1.0):
                raise ValueError("frac multipliers need s in (0, 1)")
        elif self.kind == "heat":
            if self.t is None or not (self.t > 0.0):
                raise ValueError("heat multiplier needs t > 0")
        elif self.kind == "custom":
            if self.fn is None:
                raise ValueError("custom multiplier needs a callable")
        elif self.kind != "log":
            raise ValueError(f"unknown multiplier kind {self.kind!r}")

    def values(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if self.kind == "heat":
            return np.exp(-self.t * lam)
        if self.kind == "custom":
            return np.asarray(self.fn(lam), dtype=float)
        if self.kind == "frac":
            out = np.fmax(lam, 0.0, out=np.empty_like(lam))  # 0 where lam <= 0 or NaN
            return np.power(out, self.s, out=out)  # in place, as cheap as a bare power
        # lam <= 0 is masked out: the zero eigenvalue carries no logarithm, so
        # that coefficient is annihilated (projection onto constants removed)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "log":
                return np.where(lam > 0.0, np.log(lam), 0.0)
            return np.where(lam > 0.0, (lam ** self.s - 1.0) / self.s, 0.0)


def apply_phi(
    model: EigenModel, coeffs, phi: PhiSpec
) -> SpectralCoefficients:
    """coeffs_j <- phi(lambda_j) coeffs_j."""
    sc = (
        coeffs
        if isinstance(coeffs, SpectralCoefficients)
        else SpectralCoefficients(model, coeffs)
    )
    return SpectralCoefficients(model, phi.values(model.eigenvalues) * sc.coeffs)


def bochner_eigen_log(lam: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Per-eigenvalue content of the log Bochner formula:
    int_0^inf (e^-t - e^-lam t)/t dt, which equals log(lam)."""
    value = frullani_log(lam, cfg)
    if abs(value - math.log(lam)) > 1e-6 * (1.0 + abs(math.log(lam))):
        raise ArithmeticError(
            f"scalar Bochner integral drifted from log({lam}): {value}"
        )
    return value


def sobolev_norms(
    model: EigenModel, coeffs, s: float
) -> tuple[float, float]:
    """(H^s norm, H^log norm) of a coefficient vector.

    Zero modes contribute |c|^2 to both sums (the log/power weights start at
    the first positive eigenvalue).
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    sc = (
        coeffs
        if isinstance(coeffs, SpectralCoefficients)
        else SpectralCoefficients(model, coeffs)
    )
    lam = model.eigenvalues
    c2 = sc.coeffs ** 2
    positive = lam > 0.0
    safe = np.where(positive, lam, 1.0)
    hs2 = float(np.sum(np.where(positive, 1.0 + safe ** (2.0 * s), 1.0) * c2))
    hlog2 = float(np.sum(np.where(positive, 1.0 + np.log(safe) ** 2, 1.0) * c2))
    return math.sqrt(hs2), math.sqrt(hlog2)


def embedding_counterexample(epsilon: float, n_list) -> list[tuple[int, float, float]]:
    """Partial sums of the accumulation-at-zero counterexample.

    With lambda_k = 1/k in the interval (1/(k+1), 1/k] and coefficients
    a_k = 1/(sqrt(k) log k), returns rows (N, F(N), G(N)) where
    F(N) = sum a_k^2 lambda_k^(2 eps) converges while
    G(N) = sum a_k^2 log^2(lambda_k) = sum 1/k diverges harmonically.
    """
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be positive")
    n_list = [int(n) for n in n_list]
    if n_list != sorted(n_list) or n_list[0] < 10:
        raise ValueError("checkpoints must increase and start at 10 or above")
    rows = []
    f_acc = 0.0
    g_acc = 0.0
    prev = 2
    chunk = 1 << 16  # 512 kB temporaries
    for n in n_list:
        k_start = prev
        while k_start <= n:
            k_end = min(n, k_start + chunk - 1)
            k = np.arange(k_start, k_end + 1, dtype=float)
            logk = np.log(k)
            a2 = 1.0 / (k * logk ** 2)
            f_acc += float(np.sum(a2 * k ** (-2.0 * epsilon)))
            # a_k^2 log^2(1/k) = 1/k exactly
            g_acc += float(np.sum(1.0 / k))
            k_start = k_end + 1
        prev = n + 1
        rows.append((n, f_acc, g_acc))
    return rows


# ---------------------------------------------------------------------------
# killed Brownian motion on the half line


class KilledHalfLineModel:
    """Brownian motion on (0, inf), Dirichlet-killed at 0.

    Transition density p_t(x, y) = g_t(x - y) - g_t(x + y) with the
    generator convention of the heat semigroup e^{t Lap}; total mass
    int_0^inf p_t(x, y) dy = erf(x / (2 sqrt t)) < 1 decays to 0, so the
    model loses all mass in the long-time limit.
    """

    @staticmethod
    def density(t: float, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        norm = (4.0 * math.pi * t) ** -0.5
        return norm * (
            np.exp(-((x - y) ** 2) / (4.0 * t)) - np.exp(-((x + y) ** 2) / (4.0 * t))
        )

    @staticmethod
    def mass(t: float, x: float) -> float:
        return erf(x / (2.0 * math.sqrt(t)))


def halfline_mass(t: float, x: float) -> tuple[float, float]:
    """(surviving mass, lost mass) = (erf(x/2 sqrt t), 1 - that)."""
    if not (t > 0.0 and x > 0.0):
        raise ValueError("t and x must be positive")
    m = KilledHalfLineModel.mass(t, x)
    return m, 1.0 - m


def massloss_vs(
    x: float, s: float, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """V_s(x) = (s/Gamma(1-s)) int_0^inf t^(-1-s) r(t, x) dt by quadrature,
    where r(t, x) = erfc(x / 2 sqrt t) is the lost mass."""
    if not (x > 0.0) or not (0.0 < s < 1.0):
        raise ValueError("need x > 0 and s in (0, 1)")

    def head(t):
        t = np.asarray(t, dtype=float)
        return erfc(x / (2.0 * np.sqrt(t))) * t ** (-1.0 - s)

    # past t0 the lost mass is 1 - erf(z) with z = x/(2 sqrt t) small; four
    # series terms integrate the slowly decaying tail in closed form
    t0 = max(400.0, 4.0 * x * x)
    head_part = integrate(head, 0.0, t0, cfg=cfg)
    rp = math.sqrt(math.pi)
    tail = (
        t0 ** (-s) / s
        - (x / rp) * t0 ** (-s - 0.5) / (s + 0.5)
        + (x ** 3 / (12.0 * rp)) * t0 ** (-s - 1.5) / (s + 1.5)
        - (x ** 5 / (160.0 * rp)) * t0 ** (-s - 2.5) / (s + 2.5)
    )
    return s / gamma(1.0 - s) * (head_part.checked(f"massloss_vs(x={x}, s={s})") + tail)


def massloss_limit_exact(x: float, s: float) -> float:
    """Closed form V_s(x) = (x/2)^(-2s) Gamma(s + 1/2) / (sqrt(pi) Gamma(1-s)),
    obtained by substituting w = x/(2 sqrt t) and integrating by parts."""
    return (
        (0.5 * x) ** (-2.0 * s)
        * gamma(s + 0.5)
        / (math.sqrt(math.pi) * gamma(1.0 - s))
    )


@dataclass
class DiscrepancyReport:
    deficit_form: float  # (s/Gamma(1-s)) int (f(x) - P_t f(x)) t^(-1-s) dt
    difference_form: float  # same with the difference kernel inside
    potential: float  # V_s(x) by quadrature
    f_at_x: float

    @property
    def identity_residual(self) -> float:
        return abs(
            self.deficit_form - self.difference_form - self.potential * self.f_at_x
        )


def frac_discrepancy_halfline(
    f: Callable[[np.ndarray], np.ndarray],
    support: tuple[float, float],
    s: float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> DiscrepancyReport:
    """Both routes to the fractional operator on the killed half line.

    B, the difference form, integrates (f(x) - f(y)) p_t(x, y) dy with the
    difference inside the integrand, so nothing cancels at small t. A, the
    semigroup deficit f(x) - P_t f(x), is B's integrand plus f(x) times the
    lost mass, itself a quadrature of the density's missing part rather than
    the erfc closed form. Their gap must equal V_s(x) f(x).

    Each time integral is scalar: below t = 1 the power head of
    `quadrature._power_head` (k = 1, alpha = s), above it t = w^(-1/s),
    which turns t^(-1-s) dt into dw/s.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not 0.0 < x < math.inf:
        raise ValueError(f"x must be finite and positive, got {x}")
    a_lo, a_hi = support
    if not 0.0 < a_lo < a_hi:
        raise ValueError(f"support must lie in (0, inf), got {support!r}")
    fx = float(np.atleast_1d(f(np.array([x])))[0])
    norm = (4.0 * math.pi) ** -0.5
    edges = np.array([0.0, a_lo, a_hi, math.inf])[:, None]
    what = f"half-line discrepancy at s={s}, x={x}"

    def heat_terms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """int (f(x) - f(y)) p_t(x, y) dy and the lost mass at each t, as
        the rows of one integral.

        B works in z = (y - x)/sqrt(t), where the density peak has unit
        width at every t, one row per piece between the support's edges
        (cut at |z| = 45); the lost mass, 2 int_(x/sqrt t)^inf e^(-w^2/4)
        dw/sqrt(4 pi), is one more row per t.
        """
        rt = np.sqrt(t)
        image = 2.0 * x / rt  # the killed image sits at z = -2x/sqrt(t)
        cuts = np.clip((edges - x) / rt, -45.0, 45.0)
        keep = (cuts[:-1] < cuts[1:]).ravel()
        node = np.tile(np.arange(t.size), 3)[keep]
        m = node.size

        def g(rows, z):
            out = 2.0 * norm * np.exp(-0.25 * z * z)
            b = rows < m
            j = node[rows[b]][:, None]
            zb = z[b]
            kern = norm * (np.exp(-0.25 * zb * zb) - np.exp(-0.25 * (image[j] + zb) ** 2))
            y = x + rt[j] * zb
            out[b] = (fx - np.reshape(f(y.ravel()), y.shape)) * kern
            return out

        lo = np.concatenate([cuts[:-1].ravel()[keep], 0.5 * image])
        hi = np.concatenate([cuts[1:].ravel()[keep], 0.5 * image + 45.0])
        values = integrate_rows(g, lo, hi, cfg).checked(what)
        return np.bincount(node, values[:m], t.size), values[m:]

    def deficit(t):
        b, lost = heat_terms(t)
        return b + fx * lost

    def difference(t):
        return heat_terms(t)[0]

    def form(g) -> float:
        head = _power_head(g, 1, s, 1e-7, 1e-9, cfg, what)
        # t = w^(-1/s) maps (1, inf) to (0, 1) and t^(-1-s) dt to dw/s
        tail = integrate(lambda w: g(w ** (-1.0 / s)) / s, 0.0, 1.0, cfg=cfg)
        return s / gamma(1.0 - s) * (head + tail.checked(what))

    v_s = massloss_vs(x, s, cfg=DEFAULT_CONFIG)
    return DiscrepancyReport(form(deficit), form(difference), v_s, fx)
