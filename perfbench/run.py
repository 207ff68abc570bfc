"""Run one workload of the loglap benchmark and print its metrics.

    python3 perfbench/run.py --workload hyper-tables --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: loglap is imported from its `src/`.  The
workload's commands run in this process through `loglap.cli.main`, one after
another (a closed loop with one client), in whole rounds until `--seconds`
would be exceeded.  Outputs go to `.bench_out/`; the first round's are
checked against independent oracles and every later round must reproduce
them byte for byte.

With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics; with `--trace 1` one untraced round is followed by one round with
spans around every layer entry point, and the per-layer metrics are printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
APPLY_ROUTES = ("pointwise", "bochner", "multiplier")
# per-class rates: figure -> the Op groups it sums
CLASS_RATES = {
    "kernel_rows_per_s": ("even", "odd"),
    "kernel_rows_per_s.even": ("even",),
    "kernel_rows_per_s.odd": ("odd",),
    "apply_per_s": APPLY_ROUTES,
}
CLASS_UNITS = {**{name: "1/s" for name in CLASS_RATES},
               **{f"apply_p50_ms.{route}": "ms" for route in APPLY_ROUTES}, "verify_s": "s"}

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Outcome:
    op: workloads.Op
    rc: object  # exit code, or "ExcType: message" when main() raised
    seconds: float  # wall time
    cpu_seconds: float  # CPU time of this process, every thread included
    outputs: dict  # file name -> bytes


def load_cli():
    """Import loglap.cli from this checkout's sources, or exit non-zero."""
    if not (SRC / "loglap" / "cli.py").is_file():
        sys.exit(f"perfbench: no loglap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from loglap import cli

    if Path(cli.__file__).resolve().parent != (SRC / "loglap").resolve():
        sys.exit(f"perfbench: imported loglap from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup() -> float:
    """Median CPU time (user + system) of a fresh interpreter that imports
    loglap's CLI, after which the first command can be issued.  CPU time,
    unlike wall time, does not count the moments the machine gives the CPU
    to someone else: over ten runs its spread was 5%, against 16% for wall."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import loglap.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return statistics.median(times)


def run_op(cli, op: workloads.Op) -> Outcome:
    out = OUT / (op.name + (".json" if op.argv[0] == "verify" else ".csv"))
    paths = [out] if op.argv[0] == "verify" else [out, Path(f"{out}.json")]
    for p in paths:
        p.unlink(missing_ok=True)
    argv = [*op.argv, "--json-out" if op.argv[0] == "verify" else "--out", str(out)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc = f"{type(exc).__name__}: {exc}"
        seconds, cpu_seconds = time.perf_counter() - start, time.process_time() - cpu_start
    outputs = {p.name: p.read_bytes() for p in paths if p.exists()}
    return Outcome(op, rc, seconds, cpu_seconds, outputs)


def run_round(cli, ops) -> dict:
    return {op.name: run_op(cli, op) for op in ops}


def failures(rnd: dict) -> dict:
    """{op name: the known fault it shows, or "no known fault"} for each
    operation of a round that failed."""
    out = {}
    for name, o in rnd.items():
        if o.op.fault:
            if checks.fault_shows(o, rnd):
                out[name] = o.op.fault
        elif o.rc != 0:
            out[name] = "no known fault"
    return out


def round_stats(rnd: dict) -> tuple[float, float, float, dict]:
    """(units, seconds, CPU seconds, {group: [units, seconds, latencies]}) over
    the operations that did not fail, the fault probes left out."""
    fails = failures(rnd)
    groups: dict = {}
    cpu = 0.0
    for name, o in rnd.items():
        if name in fails or o.op.group == "fault":
            continue
        units = o.op.units or checks.verify_checks(o)[1]
        g = groups.setdefault(o.op.group, [0, 0.0, []])
        g[0] += units
        g[1] += o.seconds
        g[2].append(o.seconds)
        cpu += o.cpu_seconds
    units = sum(g[0] for g in groups.values())
    return units, sum(g[1] for g in groups.values()), cpu, groups


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def class_figures(rounds: list) -> dict:
    """{figure: (value, unit, note)}: the figures by command class, in wall
    time, for the classes the rounds ran.  Rates are medians over rounds;
    latencies are medians over every command of the class."""
    stats = [round_stats(r)[3] for r in rounds]
    figures = {}
    for name, groups in CLASS_RATES.items():
        rates = [sum(s[g][0] for g in groups if g in s) / sum(s[g][1] for g in groups if g in s)
                 for s in stats if any(g in s for g in groups)]
        if rates:
            figures[name] = (statistics.median(rates), "1/s", f"median of {len(rates)} rounds")
    for route in APPLY_ROUTES:
        lat = [x * 1e3 for s in stats if route in s for x in s[route][2]]
        if lat:
            note = f"{len(lat)} commands"
            if len(lat) >= 40:
                note += f", p90 {quantile(lat, 0.9):.6g} ms"
            figures[f"apply_p50_ms.{route}"] = (statistics.median(lat), "ms", note)
    verify = [s["verify"][1] for s in stats if "verify" in s]
    if verify:
        figures["verify_s"] = (statistics.median(verify), "s", f"median of {len(verify)} rounds")
    return figures


def check_rounds(rounds: list, seed: int) -> list[str]:
    """Oracles on the first round; byte-identical outputs on every later one."""
    problems = checks.check_round(rounds[0], seed, failures(rounds[0]))
    for later in rounds[1:]:
        for name, o in later.items():
            if o.op.argv[0] == "verify":
                problems += checks.verify_checks(o)[0]
            elif o.outputs != rounds[0][name].outputs:
                problems.append(f"{name}: output differs from the first round")
    return problems


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_untraced(cli, ops, seconds: float) -> tuple[list, dict]:
    rounds = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        rounds.append(run_round(cli, ops))
        last = time.perf_counter() - begin
        if time.perf_counter() - start + last > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = [round_stats(r) for r in rounds]
    return rounds, {
        "work_per_cpu_s": metric(statistics.median(u / c for u, _, c, _ in stats), "1/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def layer_metrics(tracer, by_class: dict, traced_wall: float, untraced_wall: float) -> dict:
    summary = spans.summarize(tracer)
    c = tracer.counters

    def busy(*prefixes):
        return sum(b for name, (_, b, _) in summary.items()
                   for p in prefixes if name == p or name.startswith(p + "."))

    m = {
        "specfun.calls": metric(c["specfun.calls"], "count"),
        "specfun.busy_s": metric(busy("specfun"), "s"),
        "quadrature.calls": metric(c["quadrature.calls"], "count"),
        "quadrature.evals": metric(c["quadrature.evals"], "count"),
        "quadrature.busy_s": metric(busy("quadrature.integrate", "quadrature.integrate_semiinfinite"), "s"),
        "quadrature.self_s": metric(sum(own for name, (_, _, own) in summary.items()
                                        if name.startswith("quadrature.integrate")), "s"),
        "quadrature.max_depth": metric(c["quadrature.max_depth"], "count"),
        "quadrature.unconverged": metric(c["quadrature.unconverged"], "count"),
        "quadrature.worst_err_ratio": metric(c["quadrature.worst_err_ratio"], "ratio"),
        "hyperbolic.heat_kernel.calls": metric(c["hyperbolic.heat_kernel.calls"], "count"),
        "hyperbolic.heat_kernel.busy_s": metric(busy("hyperbolic.heat_kernel"), "s"),
    }
    for n in (2, 3, 4, 5):
        points = c[f"hyperbolic.heat_kernel.points.n{n}"]
        seconds = busy(f"hyperbolic.heat_kernel.n{n}")
        m[f"hyperbolic.heat_kernel.points.n{n}"] = metric(points, "count")
        m[f"hyperbolic.heat_kernel.points_per_s.n{n}"] = metric(points / seconds if seconds else 0.0, "1/s")
    m["hyperbolic.log_kernel_values.radii"] = metric(c["hyperbolic.log_kernel_values.radii"], "count")
    m["hyperbolic.log_kernel_values.busy_s"] = metric(busy("hyperbolic.log_kernel_values"), "s")
    m["hyperbolic.pointwise.busy_s"] = metric(busy("hyperbolic.pointwise"), "s")
    for kind in spans.TABLE_KINDS:
        rows = c[f"hyperbolic.table.{kind}.rows"]
        seconds = busy(f"hyperbolic.table.{kind}")
        m[f"hyperbolic.table_rows_per_s.{kind}"] = metric(rows / seconds if seconds else 0.0, "1/s")
    m["euclid.sphere_average.calls"] = metric(c["euclid.sphere_average.calls"], "count")
    m["euclid.sphere_average.points"] = metric(c["euclid.sphere_average.points"], "count")
    for route in spans.EUCLID_ROUTES:
        m[f"euclid.busy_s.{route}"] = metric(busy(f"euclid.{route}"), "s")
    m["spectral.busy_s"] = metric(busy("spectral"), "s")
    for suite in spans.SUITES:
        m[f"verification.{suite}.wall_s"] = metric(busy(f"verification.{suite}"), "s")
    m["verification.checks"] = metric(c["verification.checks"], "count")
    m["cli.overhead_s"] = metric(summary.get("cli.main", (0, 0.0, 0.0))[2], "s")
    m["reporting.busy_s"] = metric(busy("reporting"), "s")
    m["reporting.bytes_written"] = metric(c["reporting.bytes_written"], "bytes")
    m["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    m.update(by_class)
    return m


def run_traced(cli, ops, workload: str) -> tuple[list, dict]:
    begin = time.perf_counter()
    plain = run_round(cli, ops)
    untraced_wall = time.perf_counter() - begin

    tracer = spans.Tracer()
    with spans.install(tracer):
        begin = time.perf_counter()
        traced = run_round(cli, ops)
        traced_wall = time.perf_counter() - begin
    tracer.write(OUT / f"trace-{workload}.npz")
    figures = class_figures([plain])
    by_class = {f"cli.{name}": metric(figures.get(name, (0.0,))[0], unit)
                for name, unit in CLASS_UNITS.items()}
    return [plain, traced], layer_metrics(tracer, by_class, traced_wall, untraced_wall)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    ops = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        rounds, metrics = run_traced(cli, ops, args.workload)
    else:
        setup_s = measure_setup()
        rounds, metrics = run_untraced(cli, ops, args.seconds)
        metrics["setup_s"] = metric(setup_s, "s")
        for name, (value, unit, note) in class_figures(rounds).items():
            print(f"{args.workload} {name}: {value:.6g} {unit} ({note})")

    problems = check_rounds(rounds, args.seed)
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    attempted = sum(len(r) for r in rounds)
    fails = [(name, fault, r[name].rc) for r in rounds for name, fault in failures(r).items()]
    for name in sorted({f[0] for f in fails}):
        same = [f for f in fails if f[0] == name]
        print(f"{args.workload}: {name} failed in {len(same)} of {len(rounds)} rounds "
              f"({same[0][1]}): rc={same[0][2]!r}")
    print(f"{args.workload}: {attempted} operations attempted, {len(fails)} failed, "
          f"{len(rounds)} rounds, seed {args.seed}")
    for path in OUT.iterdir():
        if path.suffix != ".npz":
            path.unlink()
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(fails),
                      "metrics": dict(sorted(metrics.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
