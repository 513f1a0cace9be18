"""Command-line interface: solve, iteration-study, convergence-study, eig-probe, graph-info."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .assembly import ProblemData, build_operators
from .experiments import (
    StudyConfig,
    convergence_study,
    dump_matrices,
    eig_probe,
    iteration_study,
    resolve_graph_spec,
    write_convergence_csv,
)
from .graphs import MetricGraph
from .mesh import build_mesh
from .optcontrol import solve_ocp_assembled


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write ``--opt -1e-3`` as ``--opt=-1e-3``, for every value that reads
    as a number or a comma-separated list of them.

    argparse takes a word that starts with ``-`` for an option unless it is
    a plain negative decimal such as ``-1`` or ``-.5``, so ``-1e-3`` and
    ``-inf`` would leave the option before them without a value.
    """
    out: list[str] = []
    for word in argv:
        prev = out[-1] if out else ""
        if word.startswith("-") and prev.startswith("--") and len(prev) > 2 and "=" not in prev:
            try:
                _float_list(word)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={word}"
                continue
        out.append(word)
    return out


def _add_options(p: argparse.ArgumentParser, *groups: str) -> None:
    """Add the shared option groups a command reads: graph, c0, loads, solver, out."""
    if "graph" in groups:
        p.add_argument("--graph", required=True,
                       help="graph spec: star:K, fdmL:N, path:N, or a .json/.mtx file")
        p.add_argument("--controls", type=int, default=12,
                       help="number of random Dirichlet nodes for generated/loaded graphs (default 12)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed for control selection")
    if "c0" in groups:
        p.add_argument("--c0", type=float, default=2.0, help="potential coefficient (default 2)")
    if "loads" in groups:
        p.add_argument("--f", type=float, default=1.5, help="source term (default 1.5)")
        p.add_argument("--ybar", type=float, default=1.0, help="desired state (default 1)")
    if "solver" in groups:
        p.add_argument("--solver", choices=("gmres", "minres"), default="gmres")
        p.add_argument("--precon", choices=("none", "ideal", "sym", "nonsym"), default="nonsym")
        p.add_argument("--tol", type=float, default=1e-8, help="relative solver tolerance (default 1e-8)")
        p.add_argument("--maxit", type=int, default=None, help="iteration cap")
    if "out" in groups:
        p.add_argument("--out", default=None, help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgopt",
        description="Optimal Dirichlet control problems on metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one control problem instance")
    _add_options(p, "graph", "c0", "loads", "solver")
    p.add_argument("--beta", type=float, default=0.1, help="regularization weight")
    p.add_argument("--ne", type=int, default=64, help="intervals per edge")
    p.add_argument("--dump-matrices", default=None, metavar="DIR",
                   help="write A, M, K as MatrixMarket files")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("iteration-study", help="iteration counts over a (beta, mesh) sweep")
    _add_options(p, "graph", "c0", "loads", "solver", "out")
    p.add_argument("--beta", type=_float_list, default=[1e-2, 1e-3, 1e-4, 1e-5],
                   help="comma-separated regularization weights")
    p.add_argument("--ne", type=_int_list, default=[8, 16, 32, 64],
                   help="comma-separated interval counts per edge")
    p.add_argument("--jobs", type=int, default=1, help="meshes swept in parallel")
    p.add_argument("--no-unpreconditioned", action="store_true",
                   help="skip the unpreconditioned comparison runs")
    p.set_defaults(func=_cmd_iteration_study)

    p = sub.add_parser("convergence-study", help="discretization errors against a fine reference")
    _add_options(p, "graph", "c0", "loads", "solver", "out")
    p.add_argument("--beta", type=float, default=1e-2, help="regularization weight (default 1e-2)")
    p.add_argument("--ne", type=_int_list, default=[8, 16, 32, 64],
                   help="comma-separated nested interval counts per edge")
    p.add_argument("--ref-ne", type=int, default=None,
                   help="reference interval count (default: 4x the finest level)")
    p.set_defaults(func=_cmd_convergence_study)

    p = sub.add_parser("eig-probe", help="spectra of the preconditioned operators (small scale)")
    _add_options(p, "graph", "c0", "out")
    p.add_argument("--beta", type=_float_list, default=[1e-2, 1e-3, 1e-4, 1e-5],
                   help="comma-separated regularization weights")
    p.add_argument("--ne", type=int, default=8, help="intervals per edge (default 8)")
    p.set_defaults(func=_cmd_eig_probe)

    p = sub.add_parser("graph-info", help="print vertex/edge/control counts of a graph spec")
    _add_options(p, "graph")
    p.set_defaults(func=_cmd_graph_info)
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def _data(args) -> dict:
    return dict(c0=args.c0, f=args.f, ybar=args.ybar)


def _solver(args) -> dict:
    return dict(solver=args.solver, precon=args.precon, tol=args.tol, max_it=args.maxit)


def _cmd_solve(graph: MetricGraph, args) -> int:
    data = ProblemData(beta=args.beta, **_data(args))
    t0 = time.perf_counter()
    ops = build_operators(build_mesh(graph, args.ne), data)
    sol = solve_ocp_assembled(ops, data, **_solver(args))
    s = sol.stats
    s.elapsed = time.perf_counter() - t0  # count mesh and assembly time too
    print(
        f"n_dof={s.n_dof} iterations={s.iterations} converged={s.converged} "
        f"residual={s.residual:.3e} stop_residual={s.stop_residual:.3e} "
        f"optimality={s.optimality_residual:.3e} "
        f"objective={s.objective:.6e} time={s.elapsed:.3f}s"
    )
    if args.dump_matrices:
        dump_matrices(ops, args.dump_matrices)
        print(f"wrote A.mtx, M.mtx, K.mtx to {args.dump_matrices}")
    return 0 if s.converged else 1


def _cmd_iteration_study(graph: MetricGraph, args) -> int:
    cfg = StudyConfig(graph, args.beta, args.ne, jobs=args.jobs,
                      include_unpreconditioned=not args.no_unpreconditioned,
                      **_data(args), **_solver(args))
    study = iteration_study(cfg)
    print(study.format_table())
    if args.out:
        study.write_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_convergence_study(graph: MetricGraph, args) -> int:
    cfg = StudyConfig(graph, (args.beta,), args.ne, ref_ne=args.ref_ne,
                      **_data(args), **_solver(args))
    records = convergence_study(cfg)
    header = f"{'n_dof':>9s} {'h':>10s} {'|u-u_h|':>12s} {'rate':>6s} {'L2(y)':>12s} {'rate':>6s} {'H1(y)':>12s} {'rate':>6s}"
    print(header)
    for r in records:
        eoc = lambda v: "  --" if v is None else f"{v:.2f}"
        print(
            f"{r.n_dof:9d} {r.h:10.4g} {r.err_u:12.4e} {eoc(r.eoc_u):>6s} "
            f"{r.err_y_l2:12.4e} {eoc(r.eoc_y_l2):>6s} {r.err_y_h1:12.4e} {eoc(r.eoc_y_h1):>6s}"
        )
    if args.out:
        write_convergence_csv(records, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_eig_probe(graph: MetricGraph, args) -> int:
    result = eig_probe(StudyConfig(graph, args.beta, (args.ne,), c0=args.c0))
    for kind, beta, vals in result.entries:
        mags = np.abs(vals) if len(vals) else [0.0]
        print(f"{kind:22s} beta={beta:<8g} n={len(vals):4d} |lambda| in [{min(mags):.4g}, {max(mags):.4g}]")
    if args.out:
        result.write_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_graph_info(graph: MetricGraph, args) -> int:
    print(
        f"{graph.n_vertices} vertices, {graph.n_edges} edges, "
        f"{graph.n_dirichlet} Dirichlet nodes, total length {graph.lengths.sum():g}"
    )
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # argparse hands a command's unknown options back to the top-level
            # parser, whose usage line lists the commands, not the options
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # a study's CSV needs its directory: refused before the study runs
        out = getattr(args, "out", None)
        if out and not Path(out).parent.is_dir():
            raise ValueError(f"output directory does not exist: {Path(out).parent}")
        # every command reads the graph options
        graph = resolve_graph_spec(args.graph, n_controls=args.controls, seed=args.seed)
        return args.func(graph, args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())
