"""The benchmark's workloads: seeded lists of loglap command lines.

A workload is one round of commands; a run repeats the round.  loglap sees
only the generated argv; the seed and the parameters the oracles need stay in
`Op.info`.  The operations that exercise a known fault run on fixed inputs,
so that the failed share of a run is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("hyper-tables", "euclid-apply", "verify-all")

# table rows per command; even n runs the 320-node u-rule per (r, t) pair and
# costs ~15x an odd row, so odd tables are 4x longer to keep their share steady
EVEN_POINTS = 12
ODD_POINTS = 48
HEAT_TIMES = ((0.1, 0.3), (0.8, 1.2), (2.5, 3.5))

# apply: grid of the multiplier route (the CLI defaults), and points per combination
APPLY_LENGTH = 24.0
APPLY_GRID = 512
APPLY_POINTS = 6
BUMP_SEED = 0  # the bump's inputs do not depend on --seed (see euclid_apply)


@dataclass(frozen=True)
class Op:
    """One command of a round.

    `group` classes the command for the reported splits: "even"/"odd" for
    kernel tables, the route for apply, "verify" for the verify gate.
    `units` is the work it produces (table rows, operator values); verify
    counts checks from its report.  `fault` names the program fault the
    operation exercises; it counts as failed while the fault shows.
    """

    name: str
    argv: tuple[str, ...]
    group: str
    units: int
    info: dict = field(default_factory=dict)
    fault: str | None = None


def fmt(x: float) -> str:
    return f"{x:.6f}"


def _table(name, n, kind, grid, group, extra=(), info=None, fault=None) -> Op:
    r_min, r_max, points = grid
    argv = (
        "kernel", "--space", "hyperbolic", "--kind", kind, "--n", str(n),
        "--r-min", fmt(r_min), "--r-max", fmt(r_max), "--points", str(points),
        *extra,
    )
    full = {"n": n, "kind": kind, "r_min": float(fmt(r_min)), "r_max": float(fmt(r_max)),
            "points": points, **(info or {})}
    return Op(name, argv, group, points, full, fault)


def hyper_tables(seed: int) -> list[Op]:
    """Kernel tables on H^n, n = 2..5, every kind; seeded grids, times and s."""
    rng = np.random.default_rng([seed, 1])
    times = [float(fmt(rng.uniform(lo, hi))) for lo, hi in HEAT_TIMES]
    ops = []
    for n in (2, 3, 4, 5):
        group = "even" if n % 2 == 0 else "odd"
        points = EVEN_POINTS if group == "even" else ODD_POINTS
        grid = (rng.uniform(0.15, 0.25), rng.uniform(5.5, 6.5), points)
        s = float(fmt(rng.uniform(0.25, 0.75)))
        for i, t in enumerate(times):
            ops.append(_table(f"h{n}-heat{i}", n, "heat", grid, group,
                              ("--t", fmt(t)), {"t": t}))
        ops.append(_table(f"h{n}-log1", n, "log1", grid, group))
        ops.append(_table(f"h{n}-log2", n, "log2", grid, group))
        ops.append(_table(f"h{n}-frac", n, "frac", grid, group, ("--s", fmt(s)),
                          {"s": s, "route": "time_quadrature"}))
        if group == "odd":
            ops.append(_table(f"h{n}-frac-bessel", n, "frac", grid, group,
                              ("--s", fmt(s), "--route", "bessel_closed_form"),
                              {"s": s, "route": "bessel_closed_form"}))
    # fixed inputs: each fails on every seed until its fault is mended
    ops.append(_table("fault-heat-sidecar", 3, "heat", (0.5, 4.0, 8), "fault",
                      ("--t", "1.000000"), {"t": 1.0}, fault="heat-sidecar-key"))
    ops.append(Op(
        "fault-r-min-nan",
        ("kernel", "--space", "hyperbolic", "--kind", "log1", "--n", "3",
         "--r-min", "nan", "--r-max", "4", "--points", "8"),
        "fault", 0, {"expect_rc": 2}, fault="r-min-nan",
    ))
    return ops


def _grid_point(rng, n: int, shell: int) -> list[float]:
    """A torus grid node with |x| in the shell-th of APPLY_POINTS shells over [0, 1.5)."""
    h = APPLY_LENGTH / APPLY_GRID
    lo = int(np.ceil((0.5 * APPLY_LENGTH - 1.5) / h))
    hi = int(np.floor((0.5 * APPLY_LENGTH + 1.5) / h))
    width = 1.5 / APPLY_POINTS
    while True:
        x = [-0.5 * APPLY_LENGTH + int(i) * h for i in rng.integers(lo, hi + 1, size=n)]
        if width * shell <= float(np.hypot.reduce(x)) < width * (shell + 1):
            return x


def euclid_apply(seed: int) -> list[Op]:
    """apply on R^1 and R^2: gaussian/bump x log/frac x three routes, seeded s and points.

    Cost depends strongly on s (s = 0.25 takes ~3x the time of 0.75 on the
    Bochner route) and on |x| against the bump's support, so point j of a
    combination is drawn with |x| in shell j and s in the j-th of as many
    equal parts of [0.25, 0.75]: every seed carries the same mix of cheap and
    dear cases.

    On the 1-d bump the Bochner route misses the pointwise one by more than
    checks.BUMP_ROUTE_TOL at scattered grid nodes, so on seeded points the
    check would fail on some seeds only.  The bump's points and s are drawn
    the same way from BUMP_SEED instead, and a fault operation probes one
    node where the Bochner route misses.
    """
    rngs = {"gaussian": np.random.default_rng([seed, 2]),
            "bump": np.random.default_rng([BUMP_SEED, 2])}
    part = 0.5 / APPLY_POINTS
    ops = []
    for n in (1, 2):
        for fn, rng in rngs.items():
            for op in ("log", "frac"):
                for j in range(APPLY_POINTS):
                    x = _grid_point(rng, n, j)
                    s = float(fmt(rng.uniform(0.25 + j * part, 0.25 + (j + 1) * part)))
                    for route in ("pointwise", "bochner", "multiplier"):
                        argv = ["apply", "--space", "euclid", "--op", op, "--route", route,
                                "--fn", fn, "--n", str(n), "--x=" + ",".join(repr(c) for c in x)]
                        if op == "frac":
                            argv += ["--s", fmt(s)]
                        ops.append(Op(
                            f"e{n}-{fn}-{op}-{route}-{j}", tuple(argv), route, 1,
                            {"n": n, "fn": fn, "op": op, "s": s if op == "frac" else None,
                             "x": x, "route": route},
                        ))
    # fixed inputs: each fails on every seed until its fault is mended
    ops.append(Op(
        "fault-off-grid",
        ("apply", "--space", "euclid", "--op", "log", "--route", "multiplier",
         "--fn", "gaussian", "--n", "1", "--x", "0.3"),
        "fault", 0, {"expect_rc": 2}, fault="off-grid-multiplier",
    ))
    # x = -7h on the grid: Bochner is 5.4e-4 (relative) off the pointwise value
    for route in ("pointwise", "bochner"):
        ops.append(Op(
            f"fault-bump-{route}",
            ("apply", "--space", "euclid", "--op", "log", "--route", route,
             "--fn", "bump", "--n", "1", "--x=-0.328125"),
            "fault", 0, {}, fault="bump-bochner-route" if route == "bochner" else None,
        ))
    ops.append(Op(
        "fault-x-inf",
        ("apply", "--space", "euclid", "--op", "log", "--route", "pointwise",
         "--fn", "gaussian", "--n", "1", "--x", "inf"),
        "fault", 0, {"expect_rc": 2}, fault="x-inf",
    ))
    return ops


def verify_all(seed: int) -> list[Op]:
    """The acceptance gate; it takes no inputs, so the seed changes nothing."""
    return [Op("verify-all", ("verify", "--suite", "all"), "verify", 0)]


def generate(workload: str, seed: int) -> list[Op]:
    if workload == "hyper-tables":
        return hyper_tables(seed)
    if workload == "euclid-apply":
        return euclid_apply(seed)
    if workload == "verify-all":
        return verify_all(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
