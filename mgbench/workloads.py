"""The four benchmark workloads, run through mgopt's public API.

A workload builds its inputs from the seed, runs one *unit* of work (one
``solve_ocp`` call, or one ``iteration_study`` call, which calls a given hook
before each of its cells, outside the cell's timing), and turns what the
unit returned into one ``Record`` per Krylov solve for the correctness gate.  It
also knows how to compute every solve's objective independently of the KKT
path, through ``reduced_oracle``, for seeds that have no stored reference.

All problems use the paper's data: c0 = 2, f = 1.5, ybar = 1, tol = 1e-8.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from mgopt import ProblemData, make_fdm_L_graph, reduced_oracle, solve_ocp
from mgopt import experiments
from mgopt.assembly import build_operators
from mgopt.mesh import build_mesh
from mgopt.optcontrol import objective_value
from mgopt.pde import solve_state

TOL = 1e-8
PAPER_DATA = dict(c0=2.0, f=1.5, ybar=1.0)


def problem_data(beta: float) -> ProblemData:
    return ProblemData(beta=beta, **PAPER_DATA)


@dataclass(frozen=True)
class Record:
    """Outcome of one Krylov solve, as the correctness gate sees it."""

    label: str
    key: tuple[float, int]  # (beta, n_e): the problem the solve belongs to
    iterations: int
    converged: bool
    true_residual: float
    objective: float
    # GMRES (right-preconditioned) stops on the true residual; MINRES stops on
    # the preconditioned one and only reports the true residual alongside.
    stops_on_true_residual: bool


@dataclass
class UnitResult:
    records: list[Record]
    solve_times: list[float]  # one per solve_ocp call, or per study cell


def oracle_check(seed: int) -> float:
    """Control deviation of a small seeded solve from the dense reduced oracle.

    The instance is ``fdmL:10`` with 12 seeded controls, ``ne=8``, beta 1e-3;
    the deviation is |u - u_oracle| / (1 + |u_oracle|), or inf if GMRES did
    not converge.
    """
    graph = make_fdm_L_graph(10, n_controls=12, seed=seed)
    data = problem_data(1e-3)
    sol = solve_ocp(graph, 8, data, "gmres", "nonsym", tol=TOL)
    if not sol.stats.converged:
        return float("inf")
    u_ref = reduced_oracle(graph, 8, data)
    return float(np.linalg.norm(sol.u - u_ref) / (1.0 + np.linalg.norm(u_ref)))


def oracle_objective(graph, n_e: int, beta: float) -> float:
    """Objective at the dense reduced-space optimum, independent of the KKT solve."""
    data = problem_data(beta)
    u = reduced_oracle(graph, n_e, data)
    ops = build_operators(build_mesh(graph, n_e), data)
    y = solve_state(ops, u, f_vec=ops.f_vec).y.values
    return objective_value(ops, y, u)


@dataclass(frozen=True)
class SolveWorkload:
    """Repeated end-to-end ``solve_ocp`` calls on one seeded problem."""

    name: str
    lattice: int
    n_controls: int
    n_e: int
    beta: float
    solver: str
    precon: str
    host_exponent: float  # how unit time follows the host factor; see README.md
    seeded: bool = True

    @property
    def largest_ne(self) -> int:
        return self.n_e

    @property
    def keys(self) -> list[tuple[float, int]]:
        return [(self.beta, self.n_e)]

    def make_graph(self, seed: int):
        return make_fdm_L_graph(self.lattice, n_controls=self.n_controls, seed=seed)

    def warm_up(self, graph) -> None:
        solve_ocp(graph, 4, problem_data(self.beta), self.solver, self.precon, tol=TOL)

    def run_unit(self, graph, before_cell=None):
        t0 = time.perf_counter()
        sol = solve_ocp(graph, self.n_e, problem_data(self.beta), self.solver, self.precon, tol=TOL)
        return sol, time.perf_counter() - t0

    def records(self, raw) -> UnitResult:
        sol, elapsed = raw
        s = sol.stats
        rec = Record(
            f"beta={self.beta:g} ne={self.n_e}", (self.beta, self.n_e),
            s.iterations, s.converged, s.residual, s.objective, self.solver == "gmres",
        )
        return UnitResult([rec], [elapsed])


@contextmanager
def _capturing(owner, attr, keep, sink, before=None):
    """Temporarily route ``owner.attr`` through a shim that calls ``before()``
    first, if given, then appends ``keep(args, result)`` and the call's wall
    time to ``sink``; the study's own code path is otherwise unchanged."""
    inner = getattr(owner, attr)

    def shim(*args, **kwargs):
        if before is not None:
            before()
        t0 = time.perf_counter()
        out = inner(*args, **kwargs)
        sink.append((keep(args, out), time.perf_counter() - t0))
        return out

    setattr(owner, attr, shim)
    try:
        yield
    finally:
        setattr(owner, attr, inner)


def _keep_cell(args, out):
    # (ops, data, KrylovResult, KktSystem); the preconditioner, with its dense
    # n_f x n_D blocks, is not kept, so peak RSS stays the study's own.
    return args[0], args[1], out[0], out[1]


def _keep_plain(args, out):
    return args[0].__self__, out  # (KktSystem, KrylovResult)


@dataclass(frozen=True)
class StudyWorkload:
    """One ``iteration_study`` per unit; assembly is shared across its cells."""

    name: str
    graph_spec: str
    n_controls: int
    betas: tuple[float, ...]
    ne_values: tuple[int, ...]
    unpreconditioned: bool
    host_exponent: float  # how unit time follows the host factor; see README.md
    seeded: bool = True

    @property
    def largest_ne(self) -> int:
        return max(self.ne_values)

    @property
    def beta(self) -> float:
        return self.betas[0]

    @property
    def keys(self) -> list[tuple[float, int]]:
        return [(b, k) for b in self.betas for k in self.ne_values]

    def make_graph(self, seed: int):
        return experiments.resolve_graph_spec(self.graph_spec, n_controls=self.n_controls, seed=seed)

    def config(self, graph, ne_values) -> experiments.StudyConfig:
        return experiments.StudyConfig(
            graph=graph, betas=self.betas, ne_values=ne_values, solver="gmres",
            precon="nonsym", tol=TOL, jobs=1,
            include_unpreconditioned=self.unpreconditioned, **PAPER_DATA,
        )

    def warm_up(self, graph) -> None:
        experiments.iteration_study(self.config(graph, (4,)))

    def run_unit(self, graph, before_cell=None):
        solves, plain = [], []
        with _capturing(experiments, "solve_kkt", _keep_cell, solves, before_cell), \
                _capturing(experiments, "gmres", _keep_plain, plain):
            study = experiments.iteration_study(self.config(graph, self.ne_values))
        return study, solves, plain

    def records(self, raw) -> UnitResult:
        study, solves, plain = raw
        plain_by_kkt = {id(kkt): (out, dt) for (kkt, out), dt in plain}
        records, times = [], []
        for ((ops, data, result, kkt), dt), cell in zip(solves, study.cells, strict=True):
            label = f"beta={data.beta:g} ne={cell.n_e}"
            key = (data.beta, cell.n_e)
            # iteration_study assembles once with the first beta, so the
            # objective is evaluated with the cell's own data.
            cell_ops = dataclasses.replace(ops, data=data)
            records.append(self._record(label, key, result, kkt, cell_ops))
            if result.converged and cell.iterations != result.iterations:
                raise RuntimeError(f"study cell {label} reports {cell.iterations} iterations, "
                                   f"its solve made {result.iterations}")
            if self.unpreconditioned:
                out, plain_dt = plain_by_kkt[id(kkt)]
                records.append(self._record(label + " unprecond", key, out, kkt, cell_ops))
                dt += plain_dt
            times.append(dt)
        return UnitResult(records, times)

    @staticmethod
    def _record(label, key, result, kkt, ops) -> Record:
        y_f, u, _ = kkt.split(result.x)
        y = np.concatenate([y_f, u])
        return Record(label, key, result.iterations, result.converged,
                      result.true_residual, objective_value(ops, y, u), True)


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload("solve-L40", lattice=40, n_controls=100, n_e=64, beta=1e-3,
                      solver="gmres", precon="nonsym", host_exponent=0.5),
        StudyWorkload("sweep-L40-c400", graph_spec="fdmL:40", n_controls=400,
                      betas=(1e-2, 1e-3, 1e-4, 1e-5), ne_values=(16,), unpreconditioned=False,
                      host_exponent=0.75),
        SolveWorkload("minres-L20", lattice=20, n_controls=40, n_e=128, beta=1e-3,
                      solver="minres", precon="sym", host_exponent=1.0),
        # The star has no random part.  Seeded per-edge data would break the
        # symmetry across its identical spokes, and with it the unpreconditioned
        # column, which then no longer converges within its cap at ne = 128 and
        # 256; so every seed runs the same inputs here.
        StudyWorkload("unprecond-star12", graph_spec="star:12", n_controls=12,
                      betas=(1e-3,), ne_values=(64, 128, 256), unpreconditioned=True,
                      host_exponent=0.5, seeded=False),
    )
}
