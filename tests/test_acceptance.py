"""Acceptance gate: each numbered criterion runs at its pinned tolerance.

One pass/fail line prints per criterion (run with -s to stream them). The
measured values come from the same verification suites that back the
`verify` command.
"""

import pytest

from loglap.verification import run_suite

CRITERIA = {
    1: ("identities", ["frullani"], "Frullani integral equals log over 13 decades"),
    2: ("identities", ["euler-identity"], "split exponential integrals give -gamma"),
    3: (
        "identities",
        [f"log-moment-n{n}" for n in range(1, 7)],
        "iterated double integral matches the gamma log-moment, n = 1..6",
    ),
    4: (
        "identities",
        [f"gamma-tail-n{n}-s{s}" for n in (2, 3, 4, 5) for s in (0.0, 0.5)],
        "incomplete-gamma tail sandwich on the r-scan",
    ),
    5: (
        "euclid",
        [
            "log-route-pointwise-n1",
            "log-route-bochner-n1",
            "log-route-pointwise-n2",
            "log-route-bochner-n2",
            "log-gauss-pointwise-n1",
            "log-gauss-bochner-n1",
            "log-gauss-multiplier-n1",
            "log-gauss-pointwise-n2",
            "log-gauss-bochner-n2",
            "log-gauss-multiplier-n2",
        ],
        "log route equivalence and Gaussian closed form",
    ),
    6: (
        "euclid",
        ["frac-constant", "frac-gauss-moment"],
        "fractional constant and Gaussian moment",
    ),
    7: (
        "euclid",
        ["limit-s-to-0", "limit-s-to-1", "limit-quotient"],
        "s-limits of the multiplier family",
    ),
    8: (
        "hyperbolic",
        ["heat3-closed-form", "heat3-mass", "heat3-semigroup"],
        "H^3 heat kernel: closed form, mass, semigroup",
    ),
    9: (
        "hyperbolic",
        ["envelope-n2", "envelope-n3"],
        "two-sided heat-kernel envelope constant",
    ),
    10: (
        "hyperbolic",
        [
            f"frac-{kind}-n{n}-s{s}"
            for kind in ("small", "rate", "power")
            for n in (2, 3)
            for s in (0.25, 0.5, 0.75)
        ],
        "fractional kernel asymptotics",
    ),
    11: (
        "hyperbolic",
        [
            f"{check}-n{n}"
            for check in ("k1-small", "k1-gauss", "k2-rate", "k2-power", "k2-const")
            for n in (2, 3)
        ],
        "log kernel asymptotics",
    ),
    12: (
        "hyperbolic",
        ["k2-lp-stable-p1.5", "k2-lp-stable-p2.0", "k2-l1-log-growth"],
        "K2 integrability dichotomy",
    ),
    13: (
        "hyperbolic",
        ["split-identity", "remainder-energy"],
        "split identity and remainder energy bound",
    ),
    14: (
        "spectral",
        ["massloss-monotone", "massloss-limit", "discrepancy-identity"],
        "mass-loss limit and the route discrepancy identity",
    ),
    15: (
        "spectral",
        ["embedding-g-diverges", "embedding-f-converges"],
        "embedding dichotomy counterexample",
    ),
    16: (
        "hyperbolic",
        ["frac-dual-route"],
        "Bessel closed form vs time quadrature",
    ),
    17: (
        "hyperbolic",
        ["frac-dual-route-n2", "frac-dual-route-n4"]
        + [f"log-dual-route-n{n}" for n in (2, 3, 4, 5)],
        "exact time transforms vs time quadrature on every n",
    ),
}


@pytest.fixture(scope="module")
def reports():
    names = sorted({suite for suite, _, _ in CRITERIA.values()})
    return {name: run_suite(name) for name in names}


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number, reports):
    suite_name, check_ids, label = CRITERIA[number]
    report = reports[suite_name]
    by_id = {c.id: c for c in report.checks}
    missing = [cid for cid in check_ids if cid not in by_id]
    assert not missing, f"criterion {number}: checks not produced: {missing}"
    checks = [by_id[cid] for cid in check_ids]
    ok = all(c.passed for c in checks)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    if not ok:
        detail = "; ".join(
            f"{c.id}: measured={c.measured:.6g} bound={c.bound:.6g}"
            for c in checks
            if not c.passed
        )
        pytest.fail(f"criterion {number} failed: {detail}")


def test_every_suite_check_consumed_or_supplementary(reports):
    # criteria cover the pinned acceptance list; anything extra in the suite
    # reports must at least pass as well
    for report in reports.values():
        failing = [c.id for c in report.checks if not c.passed]
        assert not failing, f"supplementary checks failing: {failing}"
