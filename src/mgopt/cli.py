"""Command-line interface: solve, iteration-study, convergence-study, eig-probe, graph-info."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .assembly import ProblemData, build_operators
from .experiments import (
    StudyConfig,
    convergence_study,
    dump_matrices,
    eig_probe,
    iteration_study,
    resolve_graph_spec,
)
from .mesh import build_mesh
from .optcontrol import solve_ocp


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _add_common(p: argparse.ArgumentParser, study: bool) -> None:
    p.add_argument("--graph", required=True,
                   help="graph spec: star:K, fdmL:N, path:N, or a .json/.mtx file")
    p.add_argument("--controls", type=int, default=12,
                   help="number of random Dirichlet nodes for generated/loaded graphs (default 12)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for control selection")
    p.add_argument("--c0", type=float, default=2.0, help="potential coefficient (default 2)")
    p.add_argument("--f", type=float, default=1.5, help="source term (default 1.5)")
    p.add_argument("--ybar", type=float, default=1.0, help="desired state (default 1)")
    p.add_argument("--solver", choices=("gmres", "minres"), default="gmres")
    p.add_argument("--precon", choices=("none", "ideal", "sym", "nonsym"), default="nonsym")
    p.add_argument("--tol", type=float, default=1e-8, help="relative solver tolerance (default 1e-8)")
    p.add_argument("--maxit", type=int, default=None, help="iteration cap")
    p.add_argument("--out", default=None, help="CSV output path")
    if study:
        p.add_argument("--beta", type=_float_list, default=[1e-2, 1e-3, 1e-4, 1e-5],
                       help="comma-separated regularization weights")
        p.add_argument("--ne", type=_int_list, default=[8, 16, 32, 64],
                       help="comma-separated interval counts per edge")
        p.add_argument("--jobs", type=int, default=1, help="meshes swept in parallel")
    else:
        p.add_argument("--beta", type=float, default=0.1, help="regularization weight")
        p.add_argument("--ne", type=int, default=64, help="intervals per edge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgopt",
        description="Optimal Dirichlet control problems on metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one control problem instance")
    _add_common(p, study=False)
    p.add_argument("--dump-matrices", default=None, metavar="DIR",
                   help="write A, M, K as MatrixMarket files")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("iteration-study", help="iteration counts over a (beta, mesh) sweep")
    _add_common(p, study=True)
    p.add_argument("--no-unpreconditioned", action="store_true",
                   help="skip the unpreconditioned comparison runs")
    p.set_defaults(func=_cmd_iteration_study)

    p = sub.add_parser("convergence-study", help="discretization errors against a fine reference")
    _add_common(p, study=True)
    p.add_argument("--ref-ne", type=int, default=None,
                   help="reference interval count (default: 4x the finest level)")
    p.set_defaults(func=_cmd_convergence_study)

    p = sub.add_parser("eig-probe", help="spectra of the preconditioned operators (small scale)")
    _add_common(p, study=True)
    p.add_argument("--dense-cap", type=int, default=2000, help="dense probe size cap")
    p.set_defaults(func=_cmd_eig_probe)

    p = sub.add_parser("graph-info", help="print vertex/edge/control counts of a graph spec")
    p.add_argument("--graph", required=True)
    p.add_argument("--controls", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_graph_info)
    return parser


def _study_config(args, include_unpre: bool = True) -> StudyConfig:
    graph = resolve_graph_spec(args.graph, n_controls=args.controls, seed=args.seed)
    return StudyConfig(
        graph=graph,
        betas=tuple(args.beta),
        ne_values=tuple(args.ne),
        ref_ne=getattr(args, "ref_ne", None),
        solver=args.solver,
        precon=args.precon,
        tol=args.tol,
        max_it=args.maxit,
        c0=args.c0,
        f=args.f,
        ybar=args.ybar,
        jobs=getattr(args, "jobs", 1),
        include_unpreconditioned=include_unpre,
        dense_cap=getattr(args, "dense_cap", 2000),
        out=args.out,
    )


def _cmd_solve(args) -> int:
    graph = resolve_graph_spec(args.graph, n_controls=args.controls, seed=args.seed)
    data = ProblemData(beta=args.beta, c0=args.c0, f=args.f, ybar=args.ybar)
    sol = solve_ocp(
        graph, args.ne, data,
        solver=args.solver, precon=args.precon, tol=args.tol, max_it=args.maxit,
    )
    s = sol.stats
    print(
        f"n_dof={s.n_dof} iterations={s.iterations} converged={s.converged} "
        f"residual={s.residual:.3e} stop_residual={s.stop_residual:.3e} "
        f"optimality={s.optimality_residual:.3e} "
        f"objective={s.objective:.6e} time={s.elapsed:.3f}s"
    )
    if args.dump_matrices:
        ops = build_operators(build_mesh(graph, args.ne), data)
        dump_matrices(ops, args.dump_matrices)
        print(f"wrote A.mtx, M.mtx, K.mtx to {args.dump_matrices}")
    return 0 if s.converged else 1


def _cmd_iteration_study(args) -> int:
    cfg = _study_config(args, include_unpre=not args.no_unpreconditioned)
    study = iteration_study(cfg)
    print(study.format_table())
    if cfg.out:
        print(f"wrote {cfg.out}")
    return 0


def _cmd_convergence_study(args) -> int:
    cfg = _study_config(args, include_unpre=False)
    records = convergence_study(cfg)
    header = f"{'n_dof':>9s} {'h':>10s} {'|u-u_h|':>12s} {'rate':>6s} {'L2(y)':>12s} {'rate':>6s} {'H1(y)':>12s} {'rate':>6s}"
    print(header)
    for r in records:
        eoc = lambda v: "  --" if v is None else f"{v:.2f}"
        print(
            f"{r.n_dof:9d} {r.h:10.4g} {r.err_u:12.4e} {eoc(r.eoc_u):>6s} "
            f"{r.err_y_l2:12.4e} {eoc(r.eoc_y_l2):>6s} {r.err_y_h1:12.4e} {eoc(r.eoc_y_h1):>6s}"
        )
    if cfg.out:
        print(f"wrote {cfg.out}")
    return 0


def _cmd_eig_probe(args) -> int:
    cfg = _study_config(args, include_unpre=False)
    result = eig_probe(cfg)
    for kind, beta, vals in result.entries:
        mags = np.abs(vals) if len(vals) else [0.0]
        print(f"{kind:22s} beta={beta:<8g} n={len(vals):4d} |lambda| in [{min(mags):.4g}, {max(mags):.4g}]")
    if cfg.out:
        print(f"wrote {cfg.out}")
    return 0


def _cmd_graph_info(args) -> int:
    graph = resolve_graph_spec(args.graph, n_controls=args.controls, seed=args.seed)
    print(
        f"{graph.n_vertices} vertices, {graph.n_edges} edges, "
        f"{graph.n_dirichlet} Dirichlet nodes, total length {graph.lengths.sum():g}"
    )
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())
