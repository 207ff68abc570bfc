"""Fractional and logarithmic Laplacians on R^n and the flat torus.

Three independent routes are implemented for n in {1, 2, 3}:

* spectral multipliers on a periodic grid (FFT, exact on eigenmodes),
* pointwise singular integrals with the explicit constants
  c_n = pi^(-n/2) Gamma(n/2) and rho_n = 2 log 2 + psi(n/2) - gamma,
* heat-semigroup time quadrature (split at t = 1).

The multiplier route acts on the periodization of a test function with the
mean mode removed; `log_periodization_shift` / `frac_periodization_shift`
compute the exact difference between that operator and the whole-space
pointwise operator (mean removal plus lattice images), so the routes can be
compared at quadrature accuracy rather than up to an O(1/L) artifact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import reporting, spectral
from .quadrature import (
    BUMP,
    DEFAULT_CONFIG,
    NonConvergenceError,
    QuadratureConfig,
    RadialFunction,
    SingularityHint,
    SmoothnessTooLowError,
    _power_head,
    integrate,
    integrate_rows,
    integrate_semiinfinite,
    sphere_area,
    sphere_mean,
)
from .specfun import EULER_GAMMA, bessel_i0e, digamma, exp_integral_e1, gamma, upper_gamma

__all__ = [
    "EuclideanConstants",
    "constants",
    "sphere_area",
    "FracConstant",
    "frac_constant",
    "bochner_prefactor_numeric",
    "SmoothnessTooLowError",
    "registry",
    "PeriodicGridFunction",
    "heat_apply",
    "log_multiplier",
    "frac_multiplier",
    "laplacian_multiplier",
    "log_pointwise",
    "frac_pointwise",
    "log_bochner_point",
    "frac_bochner_point",
    "log_periodization_shift",
    "frac_periodization_shift",
    "limits_report",
    "k1_flat",
    "k2_flat",
    "frac_kernel_flat",
]

POINTWISE_CFG = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-9, max_subdivisions=1500)
OUTER_TIME_CFG = QuadratureConfig(abs_tol=1e-10, rel_tol=3e-9, max_subdivisions=600)


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class EuclideanConstants:
    n: int
    c_n: float
    rho_n: float
    sphere_area: float


def constants(n: int) -> EuclideanConstants:
    if not (1 <= n <= 10):
        raise ValueError(f"dimension out of range: {n}")
    c_n = math.pi ** (-0.5 * n) * gamma(0.5 * n)
    rho_n = 2.0 * math.log(2.0) + digamma(0.5 * n) - EULER_GAMMA
    return EuclideanConstants(n, c_n, rho_n, sphere_area(n))


@dataclass(frozen=True)
class FracConstant:
    n: int
    s: float
    c_ns: float


def frac_constant(n: int, s: float) -> FracConstant:
    """c_{n,s} = s 4^s Gamma(n/2 + s) / (pi^(n/2) Gamma(1 - s))."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    c = (
        s
        * 4.0 ** s
        * gamma(0.5 * n + s)
        / (math.pi ** (0.5 * n) * gamma(1.0 - s))
    )
    return FracConstant(n, s, c)


def bochner_prefactor_numeric(
    n: int, s: float, r: float = 1.0, cfg: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Kernel prefactor from the heat-semigroup time integral, numerically.

    Computes (s/Gamma(1-s)) int_0^inf (4 pi t)^(-n/2) e^(-r^2/4t) t^(-1-s) dt
    and multiplies by r^(n+2s); the result should equal c_{n,s} for every r.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return (4.0 * math.pi * t) ** (-0.5 * n) * np.exp(
            -r * r / (4.0 * t)
        ) * t ** (-1.0 - s)

    head = integrate(integrand, 0.0, 1.0, hint=SingularityHint("lower"), cfg=cfg)
    tail = integrate_semiinfinite(integrand, 1.0, cfg=cfg)
    pref = s / gamma(1.0 - s)
    what = f"bochner_prefactor_numeric(n={n}, s={s}, r={r})"
    return pref * (head + tail).checked(what) * r ** (n + 2.0 * s)


# ---------------------------------------------------------------------------
# test function registry


def _moments(f: RadialFunction, n: int, x_norm: float) -> tuple[float, float]:
    """(int f, int |y - x|^2 f(y) dy) over R^n for radial f, given |x|: the
    radial integrals of f r^(n-1) and f r^(n+1), two rows of one
    integrate_rows call."""
    powers = (n - 1, n + 1)

    def g(rows, r):
        return f.profile(r) * np.stack([r[i] ** powers[row] for i, row in enumerate(rows)])

    res = integrate_rows(g, [0.0, 0.0], [f.far_radius] * 2, cfg=DEFAULT_CONFIG)
    mass, second = map(float, sphere_area(n) * res.checked(f"{f.id}: moments"))
    return mass, second + x_norm * x_norm * mass


def _gaussian_profile(rho):
    return np.exp(-0.5 * rho * rho)


def _plateau_profile(rho):
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    out[rho <= 0.5] = 1.0
    taper = (rho > 0.5) & (rho < 1.0)
    out[taper] = np.cos(math.pi * (rho[taper] - 0.5)) ** 2
    return out


def registry() -> dict[str, RadialFunction]:
    """The standard radial test functions, in the dimension of the point a
    route evaluates them at."""
    return {
        "gaussian": RadialFunction("gaussian", _gaussian_profile, math.inf),
        "bump": BUMP,
        "plateau": RadialFunction("plateau", _plateau_profile, 1.0, 1.0, breaks=(0.5, 1.0)),
    }


# ---------------------------------------------------------------------------
# periodic grids and multipliers


class PeriodicGridFunction:
    """A function on the torus [-L/2, L/2)^n, sampled at the N^n nodes
    -L/2 + i h, h = L/N and i = 0..N-1 on every axis.

    A grid from `from_function` is even about the centre node i = N/2 on
    every axis, and holds only its orthant: `orthant[m]` is the value at the
    nodes |i - N/2| = m, for m = 0..N/2 on every axis. `samples` builds the
    N^n array from it, by flips, the first time it is read. A grid built from
    arbitrary samples has no orthant (None).
    """

    def __init__(self, n: int, length: float, points: int, samples: np.ndarray):
        self.n, self.length, self.points = n, length, points
        self._samples = self._checked(samples, points)
        self.orthant = None

    @classmethod
    def _even(cls, n: int, length: float, points: int, orthant: np.ndarray):
        """The even grid with this (N/2 + 1)^n orthant (see the class docstring)."""
        grid = cls.__new__(cls)
        grid.n, grid.length, grid.points = n, length, points
        grid.orthant = grid._checked(orthant, points // 2 + 1)
        grid._samples = None
        return grid

    @staticmethod
    def _check_grid(n: int, length: float, points: int) -> None:
        if n not in (1, 2, 3):
            raise ValueError(f"n must be 1..3, got {n}")
        if length <= 0:
            raise ValueError("length must be positive")
        if points < 2 or points % 2 != 0:
            raise ValueError("points per axis must be even and at least 2")

    def _checked(self, values, side: int) -> np.ndarray:
        self._check_grid(self.n, self.length, self.points)
        values = np.asarray(values, dtype=float)
        if values.shape != (side,) * self.n:
            raise ValueError("sample array shape does not match grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        return values

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            full = self.orthant
            for axis in range(self.n):
                # node i of the axis holds orthant index |i - N/2|: N/2..1, 0, 1..N/2-1
                inner = full[(slice(None),) * axis + (slice(1, -1),)]
                full = np.concatenate([np.flip(full, axis), inner], axis=axis)
            self._samples = full
        return self._samples

    @property
    def spacing(self) -> float:
        return self.length / self.points

    def axis_coords(self) -> np.ndarray:
        i = np.arange(self.points)
        return -0.5 * self.length + i * self.spacing

    def freq_sq(self) -> np.ndarray:
        """|xi_k|^2 on the half spectrum of np.fft.rfftn: every axis holds
        all N frequencies except the last, which holds 0..N/2."""
        xi = 2.0 * math.pi * np.fft.fftfreq(self.points, d=self.spacing)
        last = 2.0 * math.pi * np.fft.rfftfreq(self.points, d=self.spacing)
        return sum(np.ix_(*([xi * xi] * (self.n - 1) + [last * last])))

    @classmethod
    def from_function(
        cls, f: RadialFunction | Callable, n: int, length: float, points: int
    ) -> "PeriodicGridFunction":
        """The even grid of f(|x|) (f.profile for a RadialFunction). Node i of
        an axis lies |i - N/2| h from the centre, so f is evaluated only at
        the (N/2 + 1)^n radii of one orthant, from the distances m h, m =
        0..N/2. With a dyadic spacing h these are the radii of the nodes
        -L/2 + i h bit for bit; otherwise m h is rounded once, where
        -L/2 + i h may cancel."""
        cls._check_grid(n, length, points)
        dist = np.arange(points // 2 + 1) * (length / points)
        profile = f.profile if isinstance(f, RadialFunction) else f
        orthant = np.empty((dist.size ** (n - 1), dist.size))
        for rows, sq in _orthant_rows(dist * dist, n):
            orthant[rows] = profile(np.sqrt(sq))
        return cls._even(n, length, points, orthant.reshape((dist.size,) * n))

    def index_of(self, point) -> tuple[int, ...]:
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        idx = []
        for c in pt.tolist():
            j = (c + 0.5 * self.length) / self.spacing
            if not math.isfinite(j):
                raise ValueError(f"point {point} is too far out to index the grid")
            jr = int(round(j))
            if abs(j - jr) > 1e-9:
                raise ValueError(f"point {point} is not on the grid")
            idx.append(jr % self.points)
        return tuple(idx)

    def value_at(self, point) -> float:
        idx = self.index_of(point)
        if self._samples is None:
            return float(self.orthant[tuple(abs(i - self.points // 2) for i in idx)])
        return float(self._samples[idx])

    def mean(self) -> float:
        return float(self.samples.mean())

    def with_samples(self, samples: np.ndarray) -> "PeriodicGridFunction":
        return PeriodicGridFunction(self.n, self.length, self.points, samples)

    def to_csv(self, csv_path, json_path=None) -> None:
        coords = self.axis_coords()
        grids = np.meshgrid(*([coords] * self.n), indexing="ij")
        cols = [g.ravel() for g in grids] + [self.samples.ravel()]
        header = [f"x{i + 1}" for i in range(self.n)] + ["value"]
        reporting.write_csv(csv_path, header, zip(*cols))
        if json_path is None:
            json_path = str(csv_path) + ".json"
        reporting.write_json(
            json_path, {"n": self.n, "L": self.length, "N": self.points}
        )


def _apply_multiplier(grid: PeriodicGridFunction, symbol, at=None):
    """Multiply the spectrum of the grid by symbol(|xi_k|^2): the whole
    operator grid, or with `at` (P points of n coordinates, each a grid node)
    its values there as a (P,) array.

    Points are checked before any transform, so an off-grid point costs
    nothing. An even grid (one with an orthant, from `from_function`) has an
    even spectrum, the type-I cosine transform of its orthant
    (`_cosine_transform`), so the symbol is taken on the (N/2 + 1)^n
    frequencies 2 pi k / L, k = 0..N/2 per axis, a block of rows at a time;
    the full grid is the same transform of the product, an even grid again.
    Any other grid goes through the rfftn half spectrum (see freq_sq) and
    back through irfftn. The values at points take only the forward
    transform, on either path (see `_node_values`).
    """
    if at is not None:
        pts = np.asarray(at, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != grid.n:
            raise ValueError(f"at needs {grid.n}-dimensional points, got shape {pts.shape}")
        nodes = np.array([grid.index_of(x) for x in pts], dtype=int).reshape(-1, grid.n)
    n, points = grid.n, grid.points
    if grid.orthant is not None:
        spectrum = _cosine_transform(grid.orthant.copy())
        xi = 2.0 * math.pi * np.fft.rfftfreq(points, d=grid.spacing)
        lines = spectrum.reshape(-1, xi.size)
        for rows, sq in _orthant_rows(xi * xi, n):
            lines[rows] *= symbol(sq)
        if at is None:
            out = _cosine_transform(spectrum)
            out /= points ** n
            return PeriodicGridFunction._even(n, grid.length, points, out)
        return _node_values(spectrum, points, np.abs(nodes - points // 2), even=True)
    axes = tuple(range(n))
    spectrum = np.fft.rfftn(grid.samples, axes=axes) * symbol(grid.freq_sq())
    if at is None:
        return grid.with_samples(np.fft.irfftn(spectrum, s=grid.samples.shape, axes=axes))
    return _node_values(spectrum, points, nodes)


_COSINE_BLOCK = 1 << 14  # elements of the even extensions per block of lines


def _orthant_rows(sq: np.ndarray, n: int):
    """(rows, sum_i sq[k_i]) for blocks of the rows of an (M + 1)^n orthant
    held as (M + 1)^(n-1) rows of M + 1 elements: sq (M + 1,) summed over
    each element's n indices, added in the order of sum(np.ix_(...)), the
    last index innermost. A function of |x|, or of |xi|, is taken a block
    at a time, so that its temporaries stay small (see _cosine_transform)."""
    head = np.ravel(sum(np.ix_(*([sq] * (n - 1)))))
    step = max(1, _COSINE_BLOCK // sq.size)
    for lo in range(0, head.size, step):
        rows = slice(lo, lo + step)
        yield rows, head[rows, None] + sq


def _cosine_transform(a: np.ndarray) -> np.ndarray:
    """The type-I cosine transform of an (M + 1)^n array on every axis, in
    place: a[k] becomes sum_m prod_i w_(m_i) cos(pi k_i m_i / M) a[m], with
    w = 1 at m_i = 0 and M and 2 between. That is the spectrum of the even
    grid whose orthant is a, up to the signs (-1)^k of its centring; applied
    twice it is (2M)^n times the identity.

    Each axis is the real part of the rfft of the even extension
    (a_0..a_M, a_(M-1)..a_1) of its lines, built contiguous a block of lines
    at a time and written back in place, whatever the stride of the axis.
    The blocks keep the temporaries a few hundred kB, small enough that the
    allocator reuses their memory from one block, and one call, to the next
    rather than fault it in anew.
    """
    m = a.shape[-1] - 1
    for axis in range(a.ndim):
        lines = np.moveaxis(a, axis, -1) if a.ndim > 1 else a[None]
        step = max(1, _COSINE_BLOCK // (2 * m * math.prod(lines.shape[1:-1])))
        for lo in range(0, lines.shape[0], step):
            block = lines[lo:lo + step]
            if block.any():  # zero lines, as off a compact support, stay zero
                ext = np.concatenate([block, block[..., -2:0:-1]], axis=-1)
                block[...] = np.fft.rfft(ext).real
    return a


def _node_values(
    spectrum: np.ndarray, points: int, nodes: np.ndarray, even: bool = False
) -> np.ndarray:
    """The inverse transform of a spectrum of `_apply_multiplier` at the
    nodes (P, n), with w_k = 2 for k = 1..N/2-1 and 1 for k = 0 and N/2:

    - the rfftn half spectrum: (1/N^n) Re sum_k w_k S_k e^(2 pi i k.j/N),
      w on the last axis only, whose columns 1..N/2-1 stand for their
      conjugate partners;
    - with `even`, the cosine coefficients over k = 0..N/2 per axis, at
      distances j = |i - N/2| from the centre:
      (1/N^n) sum_k prod_a w_(k_a) cos(2 pi k_a j_a / N) S_k.

    The factors are contracted one axis at a time with 1-d vectors, last
    axis first, once per distinct tuple of the coordinates contracted so
    far: a few points cost one pass over the spectrum, and every node of the
    grid costs n passes, as a row-column transform would. The sums use
    einsum, never BLAS (`@`, dot, matmul): a BLAS product on the spectrum
    wakes OpenBLAS's worker threads, whose spinning is charged to the
    process's CPU time and slows every later numpy call as well.
    """
    half = points // 2 + 1
    weight = np.full(half, 2.0)
    weight[[0, -1]] = 1.0
    last = nodes.shape[1] - 1

    def factors(idx: np.ndarray, axis: int) -> np.ndarray:
        # j k reduced mod N keeps every angle in [0, 2 pi), where exp and cos are accurate
        size = half if even or axis == last else points
        angle = (2.0 * math.pi / points) * (np.outer(idx, np.arange(size)) % points)
        if even:
            return weight * np.cos(angle)
        return weight * np.exp(1j * angle) if axis == last else np.exp(1j * angle)

    key, row = np.unique(nodes[:, -1], return_inverse=True)
    vals = np.einsum("...k,uk->u...", spectrum, factors(key, last))
    for axis in range(last - 1, -1, -1):
        # row: each point's row of vals; key: the distinct (row, node) pairs
        key, row = np.unique(row * points + nodes[:, axis], return_inverse=True)
        vals = np.einsum("u...k,uk->u...", vals[key // points], factors(key % points, axis))
    return vals[row].real / points ** nodes.shape[1]


def heat_apply(grid: PeriodicGridFunction, t: float) -> PeriodicGridFunction:
    """Heat semigroup: multiply mode k by exp(-t |xi_k|^2)."""
    return _apply_multiplier(grid, spectral.PhiSpec("heat", t=t).values)


def log_multiplier(grid: PeriodicGridFunction, at=None):
    """Multiply mode k != 0 by log(|xi_k|^2); the mean mode is annihilated.

    The zero eigenvalue carries no logarithm, so the operator acts on the
    mean-zero complement and the projection onto constants is removed.
    Returns the operator grid, or with `at` (a sequence of grid nodes) the
    (P,) array of its values there, without building the grid.
    """
    return _apply_multiplier(grid, spectral.PhiSpec("log").values, at)


def frac_multiplier(grid: PeriodicGridFunction, s: float, at=None):
    """Multiply mode k by |xi_k|^(2s); `at` as in log_multiplier."""
    return _apply_multiplier(grid, spectral.PhiSpec("frac", s=s).values, at)


def laplacian_multiplier(grid: PeriodicGridFunction) -> PeriodicGridFunction:
    """Spectral Laplacian: multiply mode k by -|xi_k|^2."""
    return _apply_multiplier(grid, np.negative)


# ---------------------------------------------------------------------------
# spherical averages and pointwise singular integrals


def _flat_dist(q: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(q, 0.0))


def sphere_average(f: RadialFunction, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Average of f over the sphere of radius r centered at x (vector in r),
    in R^n with n the number of coordinates of x.

    Without breaks (the Gaussian) the rule stops at the far radius, where the
    routes truncate f: the Gaussian's means about |x| = 8 are 1e-7 off over
    the whole sphere, 1e-13 off stopped at radius 12.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xn = math.sqrt(float(x @ x))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    cuts = np.square(f.breaks or (f.far_radius,))
    return sphere_mean(f.profile, x.size, xn * xn + r * r, 2.0 * xn * r, _flat_dist, cuts)


def log_pointwise(
    f: RadialFunction, x, cfg: QuadratureConfig = POINTWISE_CFG
) -> float:
    """Logarithmic Laplacian at x from the singular-integral representation.

    c_n int_{B_1} (f(x) - f(y)) / |x-y|^n dy
      - c_n int_{complement} f(y) / |x-y|^n dy + rho_n f(x),
    reduced to radial integrals of the spherical average; c_n |S^(n-1)| = 2.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cn = constants(x.size)
    xn = float(np.linalg.norm(x))
    fx = float(f.profile(np.asarray(xn)))
    rmax = f.far_radius + xn + 1.0

    def near(r):
        return (fx - sphere_average(f, x, r)) / r

    def far(r):
        return sphere_average(f, x, r) / r

    route = f"log_pointwise({f.id}, |x|={xn!r})"
    near_part = integrate(near, 0.0, 1.0, cfg=cfg).checked(f"{route}: near")
    far_part = integrate(far, 1.0, rmax, cfg=cfg).checked(f"{route}: far")
    return 2.0 * near_part - 2.0 * far_part + cn.rho_n * fx


def frac_pointwise(
    f: RadialFunction, x, s: float, cfg: QuadratureConfig = POINTWISE_CFG
) -> float:
    """(-Laplace)^s at x as the principal-value singular integral.

    The radial integrand (f(x) - avg f) r^(-1-2s) over r < 1 is the power
    head of `quadrature._power_head` (k = 2: the curvature from r = 1e-4 and
    2e-4, closed form below r = 2e-4, flattened by r = v^(1/(2-2s)) above);
    outside the far radius the spherical average vanishes and the tail
    integrates in closed form.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    xn = float(np.linalg.norm(x))
    fx = float(f.profile(np.asarray(xn)))
    rmax = f.far_radius + xn + 1.0
    pref = frac_constant(n, s).c_ns * sphere_area(n)

    def deficit(r):
        return fx - sphere_average(f, x, r)

    def mid(r):
        return deficit(r) * r ** (-1.0 - 2.0 * s)

    route = f"frac_pointwise({f.id}, |x|={xn!r}, s={s!r})"
    near_part = _power_head(deficit, 2, 2.0 * s, 1e-4, 2e-4, cfg, f"{route}: near")
    mid_part = integrate(mid, 1.0, rmax, cfg=cfg).checked(f"{route}: far")
    tail = fx * rmax ** (-2.0 * s) / (2.0 * s)
    return pref * (near_part + mid_part + tail)


# ---------------------------------------------------------------------------
# heat semigroup of a radial function (radial Bessel-kernel rule) and the
# Bochner routes

# the Gaussian weight e^(-v^2/4) is below 5e-32 past |v| = 17
_V_EDGES = np.array([-17.0, -10.0, -6.0, -3.0, 0.0, 3.0, 6.0, 10.0, 17.0])
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


@functools.cache
def _heat_norm(n: int) -> float:
    return (4.0 * math.pi) ** (-0.5 * n) * sphere_area(n)


def _angular_mean(n: int, z: np.ndarray) -> np.ndarray:
    """A_n(z) = e^(-z) Gamma(n/2) (z/2)^(1-n/2) I_(n/2-1)(z), the mean of
    e^(z (cos theta - 1)) over the unit sphere S^(n-1)."""
    if n == 1:
        return 0.5 * (1.0 + np.exp(-2.0 * z))
    if n == 2:
        return bessel_i0e(z)
    if n == 3:
        with np.errstate(invalid="ignore"):
            return np.where(z > 0.0, -np.expm1(-2.0 * z) / (2.0 * z), 1.0)
    raise ValueError(f"no radial heat rule for n={n}")


def _radial_heat(
    f: RadialFunction, n: int, xn: float, t: np.ndarray, deficit: bool
) -> np.ndarray:
    """e^{t Lap} f(x) on R^n at |x| = xn for each time in the (T,) array t,
    or f(x) - e^{t Lap} f(x) when `deficit` is set.

    For radial f the angular mean of the Gaussian is closed form:

      e^{t Lap} f(x) = int_0^inf f(rho) (4 pi t)^(-n/2) |S^(n-1)| rho^(n-1)
                       e^(-(|x| - rho)^2 / 4t) A_n(|x| rho / 2t) d rho.

    Each t integrates in v = (rho - |x|)/sqrt(t) on 24-point Gauss-Legendre
    panels over _V_EDGES, clipped at rho = 0 and split at f.breaks (the
    bump's 0.9 resolves its flat approach to the edge: 5e-16 where one panel
    left 1e-8). The value stops at the far radius. The deficit integrates
    f(x) - f(rho) over the whole Gaussian, so the small-t cancellation
    happens inside the integrand and no f(x) (1 - sum of weights) term
    enters. Every t gets the same panel layout (clipped panels have zero
    width), and each row's sum depends on its own t alone.
    """
    t = np.asarray(t, dtype=float)
    rt = np.sqrt(t)[:, None]
    lo = np.maximum(-xn / rt, _V_EDGES[0])
    top = _V_EDGES[-1] if deficit else (f.far_radius - xn) / rt
    hi = np.clip(top, lo, _V_EDGES[-1])
    fixed = np.broadcast_to(_V_EDGES, (t.size, _V_EDGES.size))
    edges = (np.asarray(f.breaks, dtype=float) - xn) / rt
    cuts = np.sort(np.concatenate([fixed, lo, edges], axis=1), axis=1)
    cuts = np.clip(cuts, lo, hi)
    half = 0.5 * np.diff(cuts, axis=1)[:, :, None]
    v = cuts[:, :-1, None] + half * (_GL_NODES + 1.0)
    rho = np.maximum(xn + rt[:, :, None] * v, 0.0)
    w = (half * _GL_WEIGHTS) * np.exp(-0.25 * v * v)
    if n > 1:
        w *= (rho / rt[:, :, None]) ** (n - 1)
    w *= _angular_mean(n, xn * rho / (2.0 * t[:, None, None]))
    values = f.profile(rho)
    if deficit:
        values = float(f.profile(np.asarray(xn))) - values
    rows = t.size
    return _heat_norm(n) * np.einsum("ij,ij->i", w.reshape(rows, -1), values.reshape(rows, -1))


_T_SLOPE = 1e-6  # the short-time deficit's slope is taken at t = 1e-6 and 2e-6
_T_TAYLOR = 1e-8  # and below t = 1e-8 it is its linear term
_T_FAR = 1e4
_TAU_FAR = math.log(_T_FAR)


def _heat_far_tail(f: RadialFunction, n: int, xn: float, p: float) -> float:
    """int_{T_FAR}^inf (e^{t Lap} f)(x) t^(-1-p) dt in closed form.

    Past T_FAR the semigroup is its two-term expansion
    (4 pi t)^(-n/2) (mass - m2 / (4 t)), m2 the second moment about x.
    """
    mass, m2 = _moments(f, n, xn)
    a = 0.5 * n + p
    return (4.0 * math.pi) ** (-0.5 * n) * (
        mass * _T_FAR ** (-a) / a - 0.25 * m2 * _T_FAR ** (-a - 1.0) / (a + 1.0)
    )


def log_bochner_point(
    f: RadialFunction, x, cfg: QuadratureConfig = OUTER_TIME_CFG
) -> float:
    """Logarithmic Laplacian at x from the heat-semigroup time integral.

    int_0^inf (e^-t f(x) - e^{t Lap} f(x)) / t dt, split at t = 1. Below
    t = 1 the f(x) (e^-t - 1)/t part is -(E1(1) + gamma) f(x) in closed
    form, and the deficit (f(x) - e^{t Lap} f(x))/t is the power head of
    `quadrature._power_head` (k = 1, alpha = 0), the same head as the
    fractional route's. Over (1, 1e4) it is integrated in tau = log t, where
    the integrand is smooth; the far tail uses the two-term heat expansion in
    closed form. Each subdivision step evaluates the semigroup at all its
    times (60 nodes of its four quarter panels, then 30 per split) in one
    call.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n, xn = x.size, float(np.linalg.norm(x))
    fx = float(f.profile(np.asarray(xn)))
    deficit = functools.partial(_radial_heat, f, n, xn, deficit=True)

    def mid(tau):
        t = np.exp(tau)
        return np.exp(-t) * fx - _radial_heat(f, n, xn, t, deficit=False)

    route = f"log_bochner_point({f.id}, |x|={xn!r})"
    head = _power_head(deficit, 1, 0.0, _T_SLOPE, _T_TAYLOR, cfg, f"{route}: short-time")
    mid_part = integrate(mid, 0.0, _TAU_FAR, cfg=cfg).checked(f"{route}: long-time")
    # the f(x) parts: E1(1e4) past t = 1e4, and -Ein(1) = -(E1(1) + gamma) below t = 1
    e1 = exp_integral_e1(_T_FAR) - exp_integral_e1(1.0) - EULER_GAMMA
    return head + mid_part + fx * e1 - _heat_far_tail(f, n, xn, 0.0)


def frac_bochner_point(
    f: RadialFunction, x, s: float, cfg: QuadratureConfig = OUTER_TIME_CFG
) -> float:
    """(-Laplace)^s at x via (s/Gamma(1-s)) int (f - e^{t Lap} f) t^(-1-s) dt.

    Below t = 1 the deficit is the power head of `quadrature._power_head`
    (k = 1, alpha = s: its slope from t = 1e-6 and 2e-6, closed form below
    t = 1e-8, flattened by t = v^(1/(1-s)) above). Past t = 1 the f(x) term
    gives f(x)/s, the semigroup term is integrated in tau = log t up to
    t = 1e4, and its far tail uses the two-term heat expansion in closed
    form. Each subdivision step evaluates the semigroup at all its times
    (60 nodes of its four quarter panels, then 30 per split) in one call.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n, xn = x.size, float(np.linalg.norm(x))
    fx = float(f.profile(np.asarray(xn)))
    deficit = functools.partial(_radial_heat, f, n, xn, deficit=True)

    def mid(tau):
        return _radial_heat(f, n, xn, np.exp(tau), deficit=False) * np.exp(-s * tau)

    route = f"frac_bochner_point({f.id}, |x|={xn!r}, s={s!r})"
    head = _power_head(deficit, 1, s, _T_SLOPE, _T_TAYLOR, cfg, f"{route}: short-time")
    mid_part = integrate(mid, 0.0, _TAU_FAR, cfg=cfg).checked(f"{route}: long-time")
    far = fx / s - mid_part - _heat_far_tail(f, n, xn, s)
    pref = s / gamma(1.0 - s)
    return pref * (head + far)


# ---------------------------------------------------------------------------
# exact spectral-vs-pointwise shift induced by periodization + mean removal


_LATTICE_BLOCK = 1 << 16  # elements per temporary array in lattice sums
_CIRCLE_TERMS = 1000  # bound on the 2F1 circle-mean series of _image_potential


def _image_potential(
    f: RadialFunction, centers: np.ndarray, power: float, cfg: QuadratureConfig
) -> float:
    """sum_j int f(y) |c_j - y|^(-power) dy over centers c_j, shape (J, n),
    all outside the support.

    One integral over rho of the summed kernels, in polar coordinates around
    the support center, where every kernel is smooth. In 2-D the mean of
    |c - y|^(-power) over the circle |y| = rho is, with D = |c|,
    D^(-power) 2F1(power/2, power/2; 1; rho^2/D^2): the Poisson kernel
    1/(D^2 - rho^2) for power 2, and otherwise the series, summed until a
    term falls below 1e-17 of the sum (rho^2/D^2 < 1 off the support). An
    image so close that this takes more than _CIRCLE_TERMS terms (rho/D
    above about 0.98) raises NonConvergenceError.
    """
    n = centers.shape[1]
    dist = np.linalg.norm(centers, axis=1)
    if np.any(dist - f.far_radius <= 0):
        raise ValueError("image overlaps the support")
    d = dist[:, None]
    if n == 1:

        def g(rho):
            kern = (d - rho) ** (-power) + (d + rho) ** (-power)
            return f.profile(rho) * np.sum(kern, axis=0)

    elif power == 2.0:

        def g(rho):
            return f.profile(rho) * rho * np.sum(2.0 * math.pi / (d * d - rho * rho), axis=0)

    else:
        half = 0.5 * power
        scale = d ** (-power)

        def g(rho):
            z = (rho / d) ** 2
            term = np.ones_like(z)
            mean = term.copy()
            for k in range(_CIRCLE_TERMS):
                term *= z * ((half + k) / (k + 1.0)) ** 2
                mean += term
                if not np.any(term > 1e-17 * mean):
                    break
            else:
                raise NonConvergenceError(
                    f"image potential of {f.id}, power {power}: circle series "
                    f"unconverged after {_CIRCLE_TERMS} terms at rho/D = "
                    f"{float(np.sqrt(z.max())):.4g}"
                )
            return f.profile(rho) * rho * np.sum(scale * mean, axis=0) * (2.0 * math.pi)

    return integrate(g, 0.0, f.far_radius, cfg=cfg).checked(
        f"image potential of {f.id}, power {power}"
    )


def _image_centers(x: np.ndarray, length: float, images: int) -> tuple[np.ndarray, np.ndarray]:
    """(j, x - L j) over the nonzero lattice points j in [-images, images]^n."""
    jr = np.arange(-images, images + 1)
    grids = np.meshgrid(*([jr] * x.size), indexing="ij")
    j = np.stack([g.ravel() for g in grids], axis=1)
    j = j[np.any(j != 0, axis=1)]
    return j, x - length * j


def _cell_potential_1d(x1: float, j: np.ndarray, L: float) -> np.ndarray:
    """int over cells j of |x - y|^(-1) dy in one dimension."""
    lo, hi = j * L - 0.5 * L, j * L + 0.5 * L
    right = lo > x1
    return np.log(np.where(right, (hi - x1) / (lo - x1), (x1 - lo) / (x1 - hi)))


def _cell_potential_2d(x: np.ndarray, j: np.ndarray, L: float) -> float:
    """sum over square cells j, shape (J, 2), of int |x - y|^(-2) dy (cells
    away from x)."""
    d1 = j[:, 0, None] * L + 0.5 * L * _GL_NODES - x[0]
    d2 = j[:, 1, None] * L + 0.5 * L * _GL_NODES - x[1]
    vals = d1[:, :, None] ** 2 + d2[:, None, :] ** 2
    np.reciprocal(vals, out=vals)
    w = 0.5 * L * _GL_WEIGHTS
    return float(np.einsum("a,jab,b->", w, vals, w))


_LATTICE_ORDER = 8  # the far lattice sums' expansion in x/L runs through |x/L|^8


@functools.lru_cache(maxsize=16)
def _lattice_moments(power: float, box: int):
    """The expansion of sum |y - j|^(-power) over the lattice points j of
    [-box, box]^2 beyond the window [-k, k]^2, for every k, in y:

      sum_(n even <= _LATTICE_ORDER) |y|^n sum_m a_nm cos(m phi) M_nm(k),

    phi the angle of y and m = 0, 4, 8, ... <= n, with the lattice moments
    M_nm(k) = sum |j|^(-power-n) cos(m theta_j) over the points beyond the
    window. It is the Gegenbauer series |j - y|^(-2 lam) = sum_n |y|^n
    |j|^(-2 lam-n) C_n^lam(cos(theta_j - phi)) with C_n^lam(cos a) =
    sum_i (lam)_i (lam)_(n-i) / (i! (n-i)!) cos((n - 2i) a), summed over the
    square's symmetries, which keep only the cosines of multiples of 4.

    Returns (n, m, a_nm, M_nm(k) as an (orders, box + 1) array, reach).
    Beyond the window k = reach |y| the first omitted term that survives the
    symmetries, of order |y|^(_LATTICE_ORDER + 2), is below 2^-52 of each
    point's own term. Every point is summed once, over the octant
    0 <= j2 <= j1 with its multiplicity.
    """
    lam = 0.5 * power
    # (lam)_i / i!, so that a_nm = 2 g_i g_(n-i) at i = (n - m)/2, once for m = 0
    g = [1.0]
    for i in range(_LATTICE_ORDER):
        g.append(g[-1] * (lam + i) / (i + 1))
    orders, ms, coefs = [], [], []
    for n in range(0, _LATTICE_ORDER + 1, 2):
        for m in range(0, n + 1, 4):
            i = (n - m) // 2
            orders.append(n)
            ms.append(m)
            coefs.append((2.0 if m else 1.0) * g[i] * g[n - i])
    orders, ms = np.array(orders), np.array(ms)
    shells = np.zeros((orders.size, box + 1))
    rows = max(1, _LATTICE_BLOCK // (box + 1))
    for lo in range(1, box + 1, rows):
        k = np.arange(lo, min(lo + rows, box + 1))[:, None]
        i = np.arange(k[-1, 0] + 1)[None, :]
        k, i = np.broadcast_arrays(k, i)
        octant = i <= k
        k, i = k[octant], i[octant]
        r2 = (k * k + i * i).astype(float)
        inv = 1.0 / r2
        # the point's images under the square's 8 symmetries, 4 on an axis or
        # a diagonal
        weight = np.where((i == 0) | (i == k), 4.0, 8.0) * r2 ** (-lam)
        # cos(4 q theta) by the Chebyshev recurrence from cos 2 theta
        cos4 = 2.0 * ((k * k - i * i) * inv) ** 2 - 1.0
        cosines = [np.ones_like(r2), cos4]
        while len(cosines) <= _LATTICE_ORDER // 4:
            cosines.append(2.0 * cos4 * cosines[-1] - cosines[-2])
        for row, m in enumerate(ms):
            if row and m == 0:  # the next order n: one more factor |j|^-2
                weight = weight * inv
            shells[row] += np.bincount(k, weights=weight * cosines[m // 4], minlength=box + 1)
    # beyond window k: the shells k + 1 .. box, summed from the outside in
    tails = np.zeros_like(shells)
    tails[:, :-1] = np.cumsum(shells[:, :0:-1], axis=1)[:, ::-1]
    # the first omitted term is at most C_N^lam(1) rho^N = (power)_N / N! rho^N
    # for N = _LATTICE_ORDER + 2 and rho = |y|/|j|
    top = _LATTICE_ORDER + 2
    first_omitted = math.prod((power + i) / (i + 1) for i in range(top))
    reach = (first_omitted * 2.0 ** 52) ** (1.0 / top)
    return orders, ms, np.array(coefs), tails, reach


def _far_lattice_sum(x: np.ndarray, length: float, images: int, box: int, power: float) -> float:
    """sum of |x - L j|^(-power) over j in [-box, box]^2 outside
    [-images, images]^2: term by term, in blocks of rows, out to the window
    past which `_lattice_moments`' expansion in x/L holds to rounding, and
    by that expansion beyond."""
    y = x / length
    ry = math.hypot(y[0], y[1])
    orders, ms, coefs, tails, reach = _lattice_moments(power, box)
    window = min(box, max(images, math.ceil(reach * ry) - 1))
    total = 0.0
    if window > images:
        jr = np.arange(-window, window + 1)
        c2 = y[1] - jr
        near2 = np.abs(jr) <= images
        rows = max(1, _LATTICE_BLOCK // jr.size)
        for lo in range(0, jr.size, rows):
            j1 = jr[lo : lo + rows]
            c1 = y[0] - j1
            r2 = c1[:, None] ** 2 + c2[None, :] ** 2
            far = ~((np.abs(j1) <= images)[:, None] & near2[None, :])
            total += float(np.sum(r2[far] ** (-0.5 * power)))
    phi = math.atan2(y[1], y[0])
    total += float(np.sum(coefs * ry ** orders * np.cos(ms * phi) * tails[:, window]))
    return total * length ** (-power)


def _center_cell_potential(x: np.ndarray, L: float, n: int) -> float:
    """int over the central cell minus B_1(x) of |x - y|^(-n) dy."""
    if n == 1:
        return math.log(0.5 * L - x[0]) + math.log(0.5 * L + x[0])
    # polar form: int_0^{2 pi} log R(theta) d theta, R = ray distance to the
    # square boundary from x
    m = 2048
    theta = 2.0 * math.pi * (np.arange(m) + 0.5) / m
    c, s_ = np.cos(theta), np.sin(theta)
    with np.errstate(divide="ignore"):
        tx = np.where(
            c > 0, (0.5 * L - x[0]) / c, np.where(c < 0, (-0.5 * L - x[0]) / c, np.inf)
        )
        ty = np.where(
            s_ > 0, (0.5 * L - x[1]) / s_, np.where(s_ < 0, (-0.5 * L - x[1]) / s_, np.inf)
        )
    r_ = np.minimum(tx, ty)
    return float(np.mean(np.log(r_))) * 2.0 * math.pi


def log_periodization_shift(
    f: RadialFunction,
    length: float,
    x,
    images: int = 12,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Exact difference (torus log-multiplier) - (whole-space pointwise) at x.

    The torus operator acts on the mean-removed periodization of f. Relative
    to the whole-space operator this shifts the value by the mean term and a
    lattice image sum in which each image is paired with the same cell of
    the constant background, making the sum absolutely convergent:

      shift(x) = -rho_n m - c_n sum_j [I_j(x) - m C_j(x)] + c_n m C_0(x),

    with m the cell mean of f, I_j the image potential, C_j the cell
    potential and C_0 the central cell minus the unit ball. The images
    within the window are one integral of their summed potentials.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    if n not in (1, 2):
        raise ValueError("periodization shift implemented for n in {1, 2}")
    xn = float(np.linalg.norm(x))
    if f.far_radius + xn + 1.0 >= length or xn + 1.0 >= 0.5 * length:
        raise ValueError("nearest image would reach the unit ball around x")
    cn = constants(n)
    mass, m2 = _moments(f, n, 0.0)
    m = mass / length ** n
    j, centers = _image_centers(x, length, images)
    images_sum = _image_potential(f, centers, float(n), cfg)
    if n == 1:
        pair_sum = images_sum - m * float(np.sum(_cell_potential_1d(x[0], j[:, 0], length)))
        # quadrature images exhausted; monopole+quadrupole model beyond
        sigma2 = m2 / mass
        jf = np.arange(images + 1, 4000)
        jf = np.concatenate([jf, -jf])
        c = np.abs(x[0] - jf * length)
        i_j = mass * (1.0 / c + sigma2 / c ** 3)
        pair_sum += float(np.sum(i_j - m * _cell_potential_1d(x[0], jf, length)))
    else:
        pair_sum = images_sum - m * _cell_potential_2d(x, j, length)
        # paired far field: (m2/4 - m L^4 / 24) * Lap |c|^(-2), Lap r^-2 = 4 r^-4
        coef = m2 / 4.0 - m * length ** 4 / 24.0
        pair_sum += 4.0 * coef * _far_lattice_sum(x, length, images, 600, 4.0)
    c0 = _center_cell_potential(x, length, n)
    return -cn.rho_n * m - cn.c_n * pair_sum + cn.c_n * m * c0


def frac_periodization_shift(
    f: RadialFunction,
    length: float,
    x,
    s: float,
    images: int = 10,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Exact difference (torus |xi|^2s multiplier) - (pointwise PV integral).

    Only the lattice images contribute (the kernel is integrable at
    infinity and the mean mode is annihilated by the symbol itself):

      shift(x) = -c_{n,s} sum_{j != 0} int f(y) |x - Lj - y|^(-n-2s) dy.

    Images beyond the quadrature window are summed by their monopole term,
    with a Hurwitz-zeta tail in 1-D and a lattice-plus-disc tail in 2-D.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    if n not in (1, 2):
        raise ValueError("periodization shift implemented for n in {1, 2}")
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    xn = float(np.linalg.norm(x))
    if f.far_radius + xn >= length:
        raise ValueError("nearest image would overlap the evaluation point")
    mass, _ = _moments(f, n, 0.0)
    a = n + 2.0 * s
    _, centers = _image_centers(x, length, images)
    total = _image_potential(f, centers, a, cfg)
    if n == 1:
        # monopole Hurwitz tails on both sides
        for sign in (1, -1):
            q0 = images + 1 + sign * (-x[0]) / length
            total += mass * length ** (-a) * _hurwitz_tail(a, q0)
    else:
        box = 400
        total += mass * _far_lattice_sum(x, length, images, box, a)
        # disc tail beyond the box: 2 pi int_R^inf r^(1-a) dr
        r_eff = (box + 0.5) * length
        total += mass * 2.0 * math.pi * r_eff ** (2.0 - a) / ((a - 2.0) * length ** 2)
    return -frac_constant(n, s).c_ns * total


def _hurwitz_tail(a: float, q: float) -> float:
    """sum_{k>=0} (q + k)^(-a) by Euler-Maclaurin, q not small."""
    head = 0.0
    k0 = 0
    while q + k0 < 30.0:
        head += (q + k0) ** (-a)
        k0 += 1
    z = q + k0
    tail = (
        z ** (1.0 - a) / (a - 1.0)
        + 0.5 * z ** (-a)
        + a * z ** (-a - 1.0) / 12.0
        - a * (a + 1.0) * (a + 2.0) * z ** (-a - 3.0) / 720.0
    )
    return head + tail


# ---------------------------------------------------------------------------
# small-s / s->1 limits on the torus


@dataclass
class LimitsReport:
    s_grid: list[float]
    e0: list[float]
    e1: list[float]
    quotient: list[float]
    laplacian_norm: float

    def table(self):
        return [
            (s, a, b, c)
            for s, a, b, c in zip(self.s_grid, self.e0, self.e1, self.quotient)
        ]


def limits_report(grid: PeriodicGridFunction, s_grid) -> LimitsReport:
    """Discrete L^2 limit diagnostics for the multiplier family on a torus.

    For each s: e0(s) = ||(-Lap)^s f - f||, e1(s) = ||(-Lap)^(1-s) f + Lap f||
    and q(s) = ||((-Lap)^s f - f)/s - log(-Lap) f||, all on the mean-zero
    part of the grid function f (the zero mode is projected out).
    """
    spectrum = np.fft.rfftn(grid.samples, axes=tuple(range(grid.n)))
    spectrum[(0,) * grid.n] = 0.0  # the mean-zero part
    q2 = grid.freq_sq()
    # discrete L^2 norm via Parseval: ||g||^2 = (L^n / N^2n) sum |G_k|^2 over
    # the full spectrum; on the half spectrum the modes whose conjugate is
    # not stored (last-axis index 1..N/2-1) count twice
    scale = grid.length ** grid.n / grid.points ** (2 * grid.n)
    twice = np.full(q2.shape[-1], 2.0)
    twice[[0, -1]] = 1.0

    def norm_of(mult):
        return math.sqrt(scale * float(np.sum(twice * np.abs(mult * spectrum) ** 2)))

    log = spectral.PhiSpec("log").values(q2)
    e0, e1, quot = [], [], []
    for s in s_grid:
        e0.append(norm_of(spectral.PhiSpec("frac", s=s).values(q2) - 1.0))
        e1.append(norm_of(spectral.PhiSpec("frac", s=1.0 - s).values(q2) - q2))
        quot.append(norm_of(spectral.PhiSpec("shifted_frac_quotient", s=s).values(q2) - log))
    lap_norm = norm_of(q2)
    return LimitsReport(list(s_grid), e0, e1, quot, lap_norm)


# ---------------------------------------------------------------------------
# flat-space kernels (closed forms used for cross-checks and the CLI)


def k1_flat(n: int, r: float) -> float:
    """Short-time log kernel on R^n: pi^(-n/2) r^(-n) Gamma(n/2, r^2/4)."""
    return math.pi ** (-0.5 * n) * r ** (-float(n)) * upper_gamma(0.5 * n, 0.25 * r * r)


def k2_flat(n: int, r: float) -> float:
    """Long-time log kernel on R^n: pi^(-n/2) r^(-n) (Gamma(n/2) - Gamma(n/2, r^2/4))."""
    half = 0.5 * n
    return math.pi ** (-half) * r ** (-float(n)) * (
        gamma(half) - upper_gamma(half, 0.25 * r * r)
    )


def frac_kernel_flat(n: int, s: float, r: float) -> float:
    """Singular-integral kernel c_{n,s} r^(-n-2s) on R^n."""
    return frac_constant(n, s).c_ns * r ** (-(n + 2.0 * s))
