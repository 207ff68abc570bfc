"""Correctness checks for the benchmark's command outputs.

Values are compared against `oracles` (which never imports loglap) or
against properties every method must have: tables positive and strictly
decreasing, the bump's pointwise and Bochner values equal, the verify gate
passing every check in `verify_checks.json`.

    python3 perfbench/checks.py --regenerate-verify-ids

rewrites `verify_checks.json` from a `loglap verify --suite all` run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
VERIFY_IDS = HERE / "verify_checks.json"

# loglap integrates to abs_tol 1e-12 / rel_tol 1e-10, so far-tail rows carry
# an error fixed relative to the table's largest value (<= 1e-12 measured)
TABLE_RTOL = 1e-8
TABLE_ATOL = 1e-11  # times the largest |value| of the table
HEAT_RTOL = 1e-11  # closed form (odd n) or a fixed rule (even n): relative
EVEN_LOG_SAMPLE = 4  # even-n log rows per table checked (descent oracle ~35 ms a row)
GAUSS_TOL = 1e-7  # times max(1, |value|); measured <= 1.5e-8
# bump: relative gap allowed between its pointwise and Bochner values; on the
# 1-d grid nodes of [0, 1.5] it ranges from 5e-8 to 6.1e-4 (fault-bump-*)
BUMP_ROUTE_TOL = 2e-4
# multiplier route: sampling on the grid folds modes 2 pi / h apart; the
# oracle adds that many images per side (the bump's transform decays slowly)
MULT_ALIASES = {1: 3, 2: 2}
MULT_TOL = 1e-6  # times max(|value|, 0.1); measured <= 2e-7 (2-d bump, frac)


def _parse_csv(data: bytes):
    lines = data.decode().strip().splitlines()
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _outputs(outcome):
    name = outcome.op.name + ".csv"
    csv, side = outcome.outputs.get(name), outcome.outputs.get(name + ".json")
    if csv is None or side is None:
        return None, None
    return _parse_csv(csv), json.loads(side)


def bump_route_gap(bochner, outcomes: dict) -> float:
    """|Bochner - pointwise| / max(|pointwise|, 1e-2) for a bump Bochner operation."""
    pointwise = outcomes.get(bochner.op.name.replace("bochner", "pointwise"))
    a = apply_value(pointwise) if pointwise is not None and pointwise.rc == 0 else None
    b = apply_value(bochner) if bochner.rc == 0 else None
    if a is None or b is None:
        return math.inf
    return abs(b - a) / max(abs(a), 1e-2)


def fault_shows(outcome, outcomes: dict) -> bool:
    """Whether a fault operation of the round `outcomes` still shows its fault."""
    info = outcome.op.info
    if outcome.op.fault == "bump-bochner-route":
        return bump_route_gap(outcome, outcomes) > BUMP_ROUTE_TOL
    if "expect_rc" in info:
        return outcome.rc != info["expect_rc"]
    parsed, side = _outputs(outcome)
    return outcome.rc != 0 or side is None or side.get("t") != info["t"]


def _compare(label, values, ref, rtol, atol=0.0) -> list[str]:
    ref = np.asarray(ref, dtype=float)
    err = np.abs(np.asarray(values) - ref)
    bad = err > rtol * np.abs(ref) + atol
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"{label}: row {i} value {values[i]!r} vs oracle {ref[i]!r}"]
    return []


def check_table(outcome, oracles, rng) -> list[str]:
    info = outcome.op.info
    n, kind, label = info["n"], info["kind"], outcome.op.name
    parsed, side = _outputs(outcome)
    if parsed is None:
        return [f"{label}: missing output"]
    header, rows = parsed
    if header != ["r", "value"] or rows.shape != (info["points"], 2):
        return [f"{label}: table shape {header} {rows.shape}"]
    r, v = rows[:, 0], rows[:, 1]
    problems = []
    if np.max(np.abs(r - np.linspace(info["r_min"], info["r_max"], info["points"]))) > 1e-12:
        problems.append(f"{label}: r grid differs from the request")
    if not (np.all(v > 0) and np.all(np.diff(v) < 0)):
        problems.append(f"{label}: values not positive and strictly decreasing")
    route = info.get("route", "time_quadrature")
    if side.get("n") != n or side.get("route") != route or (kind == "frac" and side.get("s") != info["s"]):
        problems.append(f"{label}: sidecar {side}")
    if kind == "heat":
        t = info["t"]
        if n % 2:
            ref = oracles.heat_odd(n, r, t)
        else:
            ref = [oracles.heat_even(n, ri, t) for ri in r]
            i = int(rng.integers(len(r)))
            mp_ref = float(oracles.heat_even_mp(n, r[i], t))
            problems += _compare(f"{label} (mpmath, r={r[i]})", v[i : i + 1], [mp_ref], HEAT_RTOL)
        return problems + _compare(label, v, ref, HEAT_RTOL)
    if kind in ("log1", "log2"):
        part = "short" if kind == "log1" else "long"
        idx = np.arange(len(r)) if n % 2 else np.sort(rng.choice(len(r), EVEN_LOG_SAMPLE, replace=False))
        ref = [oracles.log_kernel(n, part, r[i]) for i in idx]
        return problems + _compare(label, v[idx], ref, TABLE_RTOL, TABLE_ATOL * np.max(np.abs(ref)))
    ref = [oracles.frac_kernel(n, info["s"], ri) for ri in r]
    return problems + _compare(label, v, ref, TABLE_RTOL, TABLE_ATOL * np.max(np.abs(ref)))


def check_h3_log_total(tables: dict, oracles) -> list[str]:
    """On H^3, K1 + K2 is the closed form with K_(3/2)."""
    (_, k1), _ = _outputs(tables["h3-log1"])
    (_, k2), _ = _outputs(tables["h3-log2"])
    r = k1[:, 0]
    ref = oracles.log_total_h3(r)
    return _compare("h3 log1+log2", k1[:, 1] + k2[:, 1], ref, TABLE_RTOL, TABLE_ATOL * np.max(ref))


def apply_value(outcome) -> float | None:
    parsed, side = _outputs(outcome)
    if parsed is None:
        return None
    return float(parsed[1][0, -1])


def check_apply(outcome, oracles) -> list[str]:
    info = outcome.op.info
    n, label = info["n"], outcome.op.name
    parsed, side = _outputs(outcome)
    if parsed is None:
        return [f"{label}: missing output"]
    header, rows = parsed
    if header != [f"x{i + 1}" for i in range(n)] + ["value"] or rows.shape != (1, n + 1):
        return [f"{label}: output shape {header} {rows.shape}"]
    problems = []
    if not np.array_equal(rows[0, :n], info["x"]) or not math.isfinite(rows[0, n]):
        problems.append(f"{label}: row {rows[0]}")
    meta = {"op": info["op"], "route": info["route"], "fn": info["fn"], "n": n}
    if info["s"] is not None:
        meta["s"] = info["s"]
    if any(side.get(k) != val for k, val in meta.items()):
        problems.append(f"{label}: sidecar {side}")
    value = rows[0, n]
    if info["route"] == "multiplier":
        ref = oracles.torus_multiplier(info["fn"], info["op"], n, info["x"], side["length"],
                                       side["grid_points"], info["s"], MULT_ALIASES[n])
        if abs(value - ref) > MULT_TOL * max(abs(ref), 0.1):
            problems.append(f"{label}: {value!r} vs torus series {ref!r}")
    elif info["fn"] == "gaussian":
        ref = oracles.euclid_gaussian(info["op"], n, info["x"], info["s"])
        if abs(value - ref) > GAUSS_TOL * max(1.0, abs(ref)):
            problems.append(f"{label}: {value!r} vs semigroup integral {ref!r}")
    return problems


def check_bump_routes(outcomes: dict) -> list[str]:
    """The bump has no closed form: its pointwise and Bochner values must agree."""
    return [f"{name}: Bochner off the pointwise value by {gap:.3g} (relative)"
            for name, o in outcomes.items()
            if o.op.info.get("fn") == "bump" and o.op.info.get("route") == "bochner"
            and (gap := bump_route_gap(o, outcomes)) > BUMP_ROUTE_TOL]


def verify_checks(outcome) -> tuple[list[str], int]:
    """(problems, checks reported) for a `verify --suite all` run."""
    data = outcome.outputs.get(outcome.op.name + ".json")
    if outcome.rc != 0 or data is None:
        return [f"verify: exit {outcome.rc!r}"], 0
    report = json.loads(data)
    passed = {c["id"] for c in report["checks"] if c["pass"]}
    missing = [i for i in json.loads(VERIFY_IDS.read_text()) if i not in passed]
    problems = [f"verify: check {i} missing or failing" for i in missing]
    if not report["pass"]:
        problems.append("verify: report does not pass")
    return problems, len(report["checks"])


def check_round(outcomes: dict, seed: int, failed: dict) -> list[str]:
    """Check one round's outputs, {op name: outcome}, skipping the operations
    in `failed` (they are counted, not checked) and those that only probe a
    fault's exit code or sidecar."""
    import oracles

    rng = np.random.default_rng([seed, 3])
    problems = []
    ok = {k: o for k, o in outcomes.items() if k not in failed and o.op.group != "fault"}
    for o in ok.values():
        if o.op.argv[0] == "kernel":
            problems += check_table(o, oracles, rng)
        elif o.op.argv[0] == "apply":
            problems += check_apply(o, oracles)
        else:
            problems += verify_checks(o)[0]
    if "h3-log1" in ok and "h3-log2" in ok:
        problems += check_h3_log_total(ok, oracles)
    return problems + check_bump_routes(ok)


def _regenerate_verify_ids() -> None:
    import tempfile

    sys.path.insert(0, str(HERE.parent / "src"))
    from loglap import cli

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        path = Path(tmp) / "report.json"
        if cli.main(["verify", "--suite", "all", "--json-out", str(path)]) != 0:
            raise SystemExit("verify --suite all failed; not writing the reference")
        ids = [c["id"] for c in json.loads(path.read_text())["checks"]]
    VERIFY_IDS.write_text(json.dumps(ids, indent=1) + "\n")
    print(f"wrote {len(ids)} check ids to {VERIFY_IDS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate-verify-ids"]:
        raise SystemExit(__doc__)
    _regenerate_verify_ids()
