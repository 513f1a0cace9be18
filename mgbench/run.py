"""mgopt benchmark: one workload run per process.

    python3 mgbench/run.py --workload solve-L40 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; mgopt is imported from its ``src``.
The run sets up (imports, graph generation, a small oracle check and a
warm-up solve, repeated), then repeats the workload's unit of work until
``--seconds`` of work are done, checks every solve, and prints one JSON
object as the last line of standard output.  Times are host-scaled: divided
by the host factor that ``hostspeed`` reads between units, raised to the
workload's ``host_exponent``; the raw times are printed on a comment line.  With ``--trace 0`` it holds
the end-to-end metrics; with ``--trace 1`` the run repeats the same units
with spans around every layer and reports the per-layer metrics instead.
README.md in this directory defines every metric.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK = HERE.parent / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE / "traces"
# One BLAS thread: never more than the cores present, and the Krylov
# iteration counts (the unpreconditioned ones above all) depend on the
# summation order, which changes with the thread count.
BLAS_THREADS = 1
SETUP_REPEATS = 3
OBJECTIVE_RTOL = 1e-6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_mgopt():
    """Import mgopt from this checkout only, with the BLAS thread count pinned."""
    if not (SRC / "mgopt" / "__init__.py").is_file():
        raise SystemExit(f"mgbench: no mgopt sources under {SRC}; run from a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import mgopt

    if not Path(mgopt.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"mgbench: imported mgopt from {mgopt.__file__}, not {SRC}")


class Gate:
    """Counts solves and the ones that fail the correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def solve(self, rec, tol, reference=None, oracle=None) -> None:
        why = []
        if not rec.converged:
            why.append("not converged")
        if rec.stops_on_true_residual and not rec.true_residual <= tol:
            why.append(f"true residual {rec.true_residual:.3e} > {tol:g}")
        if reference is not None:
            label, its, objective = reference
            if label != rec.label or its != rec.iterations:
                why.append(f"{rec.iterations} iterations, reference {its} ({label})")
            if not _close(rec.objective, objective):
                why.append(f"objective {rec.objective!r}, reference {objective!r}")
        if oracle is not None and not _close(rec.objective, oracle):
            why.append(f"objective {rec.objective!r}, oracle {oracle!r}")
        self.check(not why, f"{rec.label}: " + "; ".join(why))


def _close(a, b) -> bool:
    return abs(a - b) <= OBJECTIVE_RTOL * abs(b)


def reference_for(workload, seed):
    table = json.loads(REFERENCE.read_text())["workloads"].get(workload.name, {})
    return table.get(str(seed) if workload.seeded else "any")


def run_units(workload, graph, probe, n_units=None, seconds=None, tracer=None):
    """Repeat the unit of work: a fixed count, or for about `seconds` of work.

    With `seconds`, a further unit starts only if it is expected to end at
    most half a unit past `seconds`, so long units do not overshoot by a whole
    unit; there is always at least one unit.

    Returns each unit's wall time, less the probe reads inside it; the host
    factor over it (the mean of the probe reads before, inside and after it);
    its records; and the process's peak RSS in MB after the first unit.
    Later units only add allocator fragmentation.
    """
    busy, factors, results, first_peak_mb = [], [], [], None
    probe.read()
    while (len(busy) < n_units if n_units is not None
           else not busy or sum(busy) + statistics.median(busy) / 2 < seconds):
        if tracer is not None:
            tracer.unit = len(busy)
        first, spent = len(probe.readings) - 1, probe.spent
        t0 = time.perf_counter()
        raw = workload.run_unit(graph, probe.read)
        busy.append(time.perf_counter() - t0 - (probe.spent - spent))
        if tracer is not None:
            tracer.unit = None
        probe.read()
        factors.append(statistics.mean(probe.readings[first:]))
        if first_peak_mb is None:
            first_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results.append(workload.records(raw))
        del raw  # free this unit's operators before the next unit allocates its own
    return busy, factors, results, first_peak_mb


def signature(results):
    return [[(r.label, r.iterations, r.objective) for r in res.records] for res in results]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_mgopt()
    import hostspeed
    import workloads

    import_s = time.perf_counter() - T_START
    probe = hostspeed.HostProbe()
    setup_factors = [probe.read()]
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"mgbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    gate = Gate()

    setup_times, graph_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        graph = wl.make_graph(args.seed)
        graph_times.append(time.perf_counter() - t0)
        dev = workloads.oracle_check(args.seed)
        gate.check(dev <= 1e-8, f"oracle check: control deviation {dev:.2e}")
        wl.warm_up(graph)
        setup_times.append(time.perf_counter() - t0)
        setup_factors.append(probe.read())
    raw_setup_s = import_s + statistics.median(setup_times)
    # Set-up is small, cache-resident work on every workload: the full factor.
    setup_s = import_s / setup_factors[0] + statistics.median(
        t / ((f0 + f1) / 2) for t, f0, f1 in zip(setup_times, setup_factors, setup_factors[1:]))

    busy, factors, results, peak_rss_mb = run_units(wl, graph, probe, seconds=args.seconds)
    sig = signature(results)
    if any(s != sig[0] for s in sig):
        gate.check(False, "units of identical work gave different iterations or objectives")

    reference = reference_for(wl, args.seed)
    if reference is not None and len(reference) != len(results[0].records):
        gate.check(False, f"reference lists {len(reference)} solves, the unit made "
                          f"{len(results[0].records)}")
        reference = None
    oracle = None
    if reference is None:
        oracle = {key: workloads.oracle_objective(graph, key[1], key[0]) for key in wl.keys}
    for res in results:
        for i, rec in enumerate(res.records):
            gate.solve(rec, workloads.TOL,
                       reference=reference[i] if reference else None,
                       oracle=oracle[rec.key] if oracle else None)

    scales = [f ** wl.host_exponent for f in factors]
    solve_times = [t / s for res, s in zip(results, scales) for t in res.solve_times]
    wall_s = statistics.median(t / s for t, s in zip(busy, scales))
    print(f"# {wl.name} seed={args.seed} blas_threads={BLAS_THREADS} units={len(busy)} "
          f"solve_samples={len(solve_times)} check={'reference' if reference else 'oracle'}")
    print(f"# raw setup_s={raw_setup_s!r} wall_s={statistics.median(busy)!r} "
          f"solve_p50_s={statistics.median(t for r in results for t in r.solve_times)!r} "
          f"host_factor={statistics.median(factors)!r}")
    for rec in results[0].records:
        print(f"# cell {rec.label!r} its={rec.iterations} objective={rec.objective!r} "
              f"true_residual={rec.true_residual:.3e}")
    for problem in gate.problems:
        print(f"# FAILED {problem}")

    if args.trace:
        metrics = traced_metrics(wl, graph, probe, args.seed, len(busy), wall_s, sig, gate)
        metrics["run.host_factor"] = statistics.median(factors)
        metrics["graphs.generate_s"] = statistics.median(graph_times)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "solve_p50_s": statistics.median(solve_times),
            "peak_rss_mb": peak_rss_mb,
            "krylov_iterations": sum(r.iterations for r in results[0].records),
            "solved_frac": (gate.attempted - gate.failed) / gate.attempted,
        }
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(wl, graph, probe, seed, n_units, wall_s, untraced_sig, gate):
    """Repeat the untraced run's units with spans on; per-layer metrics."""
    import layers
    from workloads import problem_data

    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        busy, factors, results, _ = run_units(wl, graph, probe, n_units=n_units, tracer=tracer)
    finally:
        tracer.restore()
    scales = [f ** wl.host_exponent for f in factors]
    gate.check(signature(results) == untraced_sig,
               "traced run differs from the untraced run in iterations or objectives")
    values = layers.span_metrics(tracer.spans, n_units)
    values.update(layers.probe_metrics(graph, wl.largest_ne, problem_data(wl.beta), seed))
    values["trace.overhead_s"] = statistics.median(t / s for t, s in zip(busy, scales)) - wall_s
    values["trace.spans"] = len(tracer.spans)
    values["run.blas_threads"] = BLAS_THREADS

    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"{wl.name}-seed{seed}.json"
    out.write_text(json.dumps({"workload": wl.name, "seed": seed, "units": n_units,
                               "spans": tracer.dump(), "metrics": values}))
    print(f"# {len(tracer.spans)} spans written to {out.relative_to(HERE.parent)}")
    return values


if __name__ == "__main__":
    sys.exit(main())
