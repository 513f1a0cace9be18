"""Record the per-seed reference values the benchmark's correctness gate uses.

    python3 mgbench/record_reference.py --seeds 0-39 [--workload NAME ...]

For every workload and seed, runs one unit of work, checks each solve
against the dense reduced-space oracle (objective within the gate's
tolerance, converged, true residual within tol), and stores its label,
iteration count and objective in reference.json.  Workloads whose inputs do
not depend on the seed are stored once, under "any".
"""

import argparse
import json
import sys

import run


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-39")
    p.add_argument("--workload", action="append", help="default: all")
    args = p.parse_args(argv)
    run.import_mgopt()
    import workloads

    table = json.loads(run.REFERENCE.read_text())
    table["blas_threads"] = run.BLAS_THREADS
    table["tol"] = workloads.TOL
    for name in args.workload or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        stored = table["workloads"].setdefault(name, {})
        for seed in args.seeds if wl.seeded else [0]:
            graph = wl.make_graph(seed)
            res = wl.records(wl.run_unit(graph))
            oracle = {key: workloads.oracle_objective(graph, key[1], key[0]) for key in wl.keys}
            gate = run.Gate()
            for rec in res.records:
                gate.solve(rec, workloads.TOL, oracle=oracle[rec.key])
            if gate.failed:
                raise SystemExit(f"{name} seed {seed}: " + "; ".join(gate.problems))
            stored[str(seed) if wl.seeded else "any"] = [
                [r.label, r.iterations, r.objective] for r in res.records
            ]
            print(name, seed, [r.iterations for r in res.records], flush=True)
            run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
