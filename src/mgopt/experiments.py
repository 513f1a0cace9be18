"""Study harnesses: iteration counts, convergence rates, eigenvalue probes, CSV output."""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import ProblemData, assemble_mass, assemble_stiffness, build_operators, l2_norm
from .graphs import (
    MetricGraph,
    load_graph_json,
    load_matrix_market,
    make_fdm_L_graph,
    make_path,
    make_star,
)
from .mesh import build_mesh, prolong
from .optcontrol import (
    PRECONDITIONER_KINDS,
    build_kkt,
    build_preconditioner,
    gmres,
    normalize_precon_kind,
    solve_kkt,
    solve_ocp_assembled,
)


def resolve_graph_spec(spec: str, n_controls: int = 12, seed: int = 0) -> MetricGraph:
    """Build a metric graph from a generator spec or a file path.

    Accepted specs: ``star:K`` (K Dirichlet leaves), ``fdmL:N`` (L-shaped
    lattice with randomly drawn controls), ``path:N``, a ``.json`` graph file,
    or a MatrixMarket file (controls drawn with the given seed).
    """
    if ":" in spec and not Path(spec).exists():
        name, _, arg = spec.partition(":")
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"bad graph spec {spec!r}: parameter must be an integer") from None
        if name == "star":
            return make_star(k)
        if name == "fdmL":
            return make_fdm_L_graph(k, n_controls=n_controls, seed=seed)
        if name == "path":
            return make_path(k)
        raise ValueError(f"unknown graph generator {name!r}")
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(f"graph file not found: {path}")
    if path.suffix == ".json":
        return load_graph_json(path)
    return load_matrix_market(path, n_controls=n_controls, seed=seed)


@dataclass
class StudyConfig:
    """Configuration shared by the study harnesses."""

    graph: MetricGraph
    betas: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    ne_values: tuple[int, ...] = (8, 16, 32, 64)
    ref_ne: int | None = None
    solver: str = "gmres"
    precon: str = "matched_nonsymmetric"
    tol: float = 1e-8
    max_it: int | None = None
    c0: object = 2.0
    f: object = 1.5
    ybar: object = 1.0
    jobs: int = 1
    include_unpreconditioned: bool = True

    def __post_init__(self):
        self.betas = tuple(float(b) for b in self.betas)
        self.ne_values = tuple(int(k) for k in self.ne_values)
        if not self.betas or not self.ne_values:
            raise ValueError("parameter sweeps must be nonempty")
        if min(self.ne_values) < 1:
            raise ValueError(f"intervals per edge must be at least 1, got {min(self.ne_values)}")
        repeated = sorted({k for k in self.ne_values if self.ne_values.count(k) > 1})
        if repeated:
            raise ValueError(f"repeated levels in the sweep: {', '.join(map(str, repeated))}")
        repeated = sorted({b for b in self.betas if self.betas.count(b) > 1})
        if repeated:
            raise ValueError(f"repeated betas in the sweep: {', '.join(f'{b:g}' for b in repeated)}")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")

    def problem_data(self, beta: float) -> ProblemData:
        return ProblemData(beta=beta, c0=self.c0, f=self.f, ybar=self.ybar)


@dataclass(eq=False)
class IterationCell:
    beta: float
    n_e: int
    n_dof: int
    iterations: int | None
    time_s: float
    unprecond_iterations: int | None = None
    unprecond_time_s: float | None = None


@dataclass(eq=False)
class IterationStudy:
    config: StudyConfig
    cells: list[IterationCell]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["beta", "n_e", "n_dof", "iterations", "time_s",
                 "unpreconditioned_iterations", "unpreconditioned_time_s"]
            )
            for c in self.cells:
                writer.writerow(
                    [
                        f"{c.beta:g}",
                        c.n_e,
                        c.n_dof,
                        "--" if c.iterations is None else c.iterations,
                        f"{c.time_s:.6f}",
                        "" if c.unprecond_iterations is None else c.unprecond_iterations,
                        "" if c.unprecond_time_s is None else f"{c.unprecond_time_s:.6f}",
                    ]
                )

    def format_table(self) -> str:
        """Iteration table: one row per beta, one column per mesh."""
        ne_values = sorted({c.n_e for c in self.cells})
        by_key = {(c.beta, c.n_e): c for c in self.cells}
        ndofs = {c.n_e: c.n_dof for c in self.cells}
        lines = ["N_DOF      " + "  ".join(f"{ndofs[k]:>12d}" for k in ne_values)]
        for beta in sorted({c.beta for c in self.cells}, reverse=True):
            fields = []
            for k in ne_values:
                cell = by_key[(beta, k)]
                its = "--" if cell.iterations is None else str(cell.iterations)
                if cell.unprecond_iterations is not None:
                    its += f" ({cell.unprecond_iterations})"
                elif self.config.include_unpreconditioned:
                    its += " (--)"
                fields.append(f"{its:>12s}")
            lines.append(f"beta={beta:<7g}" + "  ".join(fields))
        return "\n".join(lines)


def iteration_study(cfg: StudyConfig) -> IterationStudy:
    """Iteration counts over the (beta, mesh) sweep, optionally with the
    unpreconditioned comparison column.

    The sweep runs mesh by mesh: a mesh is assembled, all of its beta cells
    share its operators and their cached factor and preconditioner blocks,
    and they are released before the next mesh is assembled.  With
    ``jobs > 1`` meshes run in parallel, so at most ``jobs`` meshes are held
    at once.  Cells are reported beta-major, in the order of ``cfg.betas``
    and ``cfg.ne_values``.
    """

    def run_cell(ops, n_e, beta):
        data = cfg.problem_data(beta)
        t0 = time.perf_counter()
        result, kkt, _ = solve_kkt(
            ops, data, solver=cfg.solver, precon=cfg.precon,
            tol=cfg.tol, max_it=cfg.max_it,
        )
        cell = IterationCell(
            beta=beta,
            n_e=n_e,
            n_dof=ops.mesh.n_dof,
            iterations=result.iterations if result.converged else None,
            time_s=time.perf_counter() - t0,
        )
        if cfg.include_unpreconditioned:
            maxit = ops.mesh.n_dof if cfg.max_it is None else min(ops.mesh.n_dof, cfg.max_it)
            t1 = time.perf_counter()
            plain = gmres(kkt.apply, kkt.rhs, None, tol=cfg.tol, max_it=maxit)
            cell.unprecond_time_s = time.perf_counter() - t1
            cell.unprecond_iterations = plain.iterations if plain.converged else None
        return cell

    def run_mesh(n_e):
        ops = build_operators(build_mesh(cfg.graph, n_e), cfg.problem_data(cfg.betas[0]))
        return [run_cell(ops, n_e, beta) for beta in cfg.betas]

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=min(cfg.jobs, len(cfg.ne_values))) as pool:
            by_mesh = list(pool.map(run_mesh, cfg.ne_values))
    else:
        by_mesh = [run_mesh(n_e) for n_e in cfg.ne_values]
    cells = [column[i] for i in range(len(cfg.betas)) for column in by_mesh]
    return IterationStudy(cfg, cells)


@dataclass(eq=False)
class ConvergenceRecord:
    n_e: int
    n_dof: int
    h: float
    err_u: float
    err_y_l2: float
    err_y_h1: float
    err_y_h1semi: float
    eoc_u: float | None = None
    eoc_y_l2: float | None = None
    eoc_y_h1: float | None = None
    eoc_y_h1semi: float | None = None


def _eoc(prev: float, cur: float, ratio: float) -> float | None:
    if prev <= 0 or cur <= 0:
        return None
    return math.log(prev / cur) / math.log(ratio)


def convergence_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Errors against the prolonged reference solution on the finest grid, at one beta.

    The sweep must be edgewise nested (every level must divide the reference
    level, which defaults to four times the finest level); control errors are
    plain Euclidean norms, state errors use the reference-mesh mass and
    stiffness matrices.
    """
    if len(cfg.betas) != 1:
        raise ValueError(f"the convergence study runs at one beta, got {len(cfg.betas)}")
    levels = sorted(cfg.ne_values)
    ref_ne = cfg.ref_ne if cfg.ref_ne is not None else 4 * levels[-1]
    for k_prev, k in zip(levels, levels[1:]):
        if k % k_prev != 0:
            raise ValueError(f"non-nested sweep: {k_prev} does not divide {k}")
    for k in levels:
        if ref_ne % k != 0:
            raise ValueError(f"non-nested sweep: level {k} does not divide reference {ref_ne}")

    beta = cfg.betas[0]
    data = cfg.problem_data(beta)
    ref_mesh = build_mesh(cfg.graph, ref_ne)
    ref_ops = build_operators(ref_mesh, data)
    ref_stiffness, ref_mass = assemble_stiffness(ref_mesh), assemble_mass(ref_mesh)
    ref_sol = solve_ocp_assembled(
        ref_ops, data, solver=cfg.solver, precon=cfg.precon, tol=cfg.tol, max_it=cfg.max_it
    )
    if not ref_sol.stats.converged:
        raise RuntimeError("reference solve did not converge")

    records: list[ConvergenceRecord] = []
    for n_e in levels:
        if n_e == ref_ne:
            sol = ref_sol
            ops = ref_ops
        else:
            ops = build_operators(build_mesh(cfg.graph, n_e), data)
            sol = solve_ocp_assembled(
                ops, data, solver=cfg.solver, precon=cfg.precon, tol=cfg.tol, max_it=cfg.max_it
            )
        err_u = float(np.linalg.norm(ref_sol.u - sol.u))
        e = ref_sol.y.values - prolong(sol.y, ref_mesh).values
        l2 = l2_norm(ref_mass, e)
        semi = float(np.sqrt(max(e @ (ref_stiffness @ e), 0.0)))
        records.append(
            ConvergenceRecord(
                n_e=n_e,
                n_dof=ops.mesh.n_dof,
                h=ops.mesh.h_max,
                err_u=err_u,
                err_y_l2=l2,
                err_y_h1=math.hypot(l2, semi),
                err_y_h1semi=semi,
            )
        )
    for prev, cur in zip(records, records[1:]):
        ratio = prev.h / cur.h
        cur.eoc_u = _eoc(prev.err_u, cur.err_u, ratio)
        cur.eoc_y_l2 = _eoc(prev.err_y_l2, cur.err_y_l2, ratio)
        cur.eoc_y_h1 = _eoc(prev.err_y_h1, cur.err_y_h1, ratio)
        cur.eoc_y_h1semi = _eoc(prev.err_y_h1semi, cur.err_y_h1semi, ratio)
    return records


def write_convergence_csv(records: list[ConvergenceRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n_e", "n_dof", "h", "err_u", "eoc_u", "err_y_l2", "eoc_y_l2",
             "err_y_h1", "eoc_y_h1", "err_y_h1semi", "eoc_y_h1semi"]
        )
        for r in records:
            writer.writerow(
                [r.n_e, r.n_dof, f"{r.h:.8g}",
                 f"{r.err_u:.8e}", "" if r.eoc_u is None else f"{r.eoc_u:.3f}",
                 f"{r.err_y_l2:.8e}", "" if r.eoc_y_l2 is None else f"{r.eoc_y_l2:.3f}",
                 f"{r.err_y_h1:.8e}", "" if r.eoc_y_h1 is None else f"{r.eoc_y_h1:.3f}",
                 f"{r.err_y_h1semi:.8e}", "" if r.eoc_y_h1semi is None else f"{r.eoc_y_h1semi:.3f}"]
            )


@dataclass(eq=False)
class EigProbeResult:
    entries: list[tuple[str, float, np.ndarray]]

    def get(self, kind: str, beta: float) -> np.ndarray:
        kind = normalize_precon_kind(kind) if kind != "mass" else "mass"
        for k, b, vals in self.entries:
            if k == kind and b == beta:
                return vals
        raise KeyError((kind, beta))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "beta", "re", "im"])
            for kind, beta, vals in self.entries:
                for lam in vals:
                    writer.writerow([kind, f"{beta:g}", f"{lam.real:.12e}", f"{lam.imag:.12e}"])


def eig_probe(cfg: StudyConfig) -> EigProbeResult:
    """Spectra of the preconditioned KKT operator and of the preconditioned
    mass block, per beta, on one mesh at dense-probe scale."""
    if len(cfg.ne_values) != 1:
        raise ValueError(f"the eigenvalue probe runs on one mesh level, got {len(cfg.ne_values)}")
    n_e = cfg.ne_values[0]
    # The operators do not depend on beta; their cached blocks serve every beta.
    ops = build_operators(build_mesh(cfg.graph, n_e), cfg.problem_data(cfg.betas[0]))
    entries = []
    for beta in cfg.betas:
        data = cfg.problem_data(beta)
        kkt = build_kkt(ops, data)
        dense = kkt.as_dense()
        dim = dense.shape[0]
        for kind in PRECONDITIONER_KINDS:
            pc = build_preconditioner(kind, ops, data)
            if pc.kind == "none":
                mat = dense
            else:
                mat = np.column_stack([pc.apply(dense[:, j]) for j in range(dim)])
            entries.append((pc.kind, beta, scipy.linalg.eigvals(mat)))
        # Mass-block probe: exact-Schur block diagonal against the 2x2 mass
        # block, the top-left [[M_FF, M_FD], [M_DF, M_DD + beta I]] of the KKT matrix.
        n_f = ops.n_free
        mass = dense[: n_f + ops.n_dirichlet, : n_f + ops.n_dirichlet]
        m_ff = mass[:n_f, :n_f]
        s_m = mass[n_f:, n_f:] - mass[n_f:, :n_f] @ np.linalg.solve(m_ff, mass[:n_f, n_f:])
        block = scipy.linalg.block_diag(m_ff, s_m)
        entries.append(("mass", beta, scipy.linalg.eigvals(np.linalg.solve(block, mass))))
    return EigProbeResult(entries)


def dump_matrices(ops, directory) -> None:
    """Write A and M (assembled here; the operators keep neither whole) and
    K to MatrixMarket files for external verification."""
    import scipy.io  # here, not at import: only this writer needs it

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mats = (("A", assemble_stiffness(ops.mesh)), ("M", assemble_mass(ops.mesh)), ("K", ops.K))
    for name, mat in mats:
        scipy.io.mmwrite(str(directory / f"{name}.mtx"), sp.coo_matrix(mat))
