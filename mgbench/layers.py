"""Per-layer measurement from outside mgopt: call spans and micro-kernel probes.

The traced run swaps module attributes of mgopt for timing wrappers (the
names each caller looks up at call time, e.g. ``optcontrol.build_preconditioner``
or ``experiments.build_operators``), and wraps the ``apply`` callables handed
to GMRES/MINRES.  Nothing in mgopt is edited; ``Tracer.restore`` undoes every
swap.  Spans are kept in memory and written out when the run ends.

Time metrics are per unit of work (one solve, or one study), the median over
the traced units, unless the name says otherwise.  Byte counts are computed
from array shapes, not measured.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from mgopt import assembly, experiments, linalg, mesh, optcontrol, pde

F8 = 8  # bytes per float64


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span for every call through a wrapped function.

    ``unit`` is the run id shared by the spans of one unit of work; while it
    is None (between units, e.g. during the correctness gate) wrappers call
    straight through and record nothing.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.unit: int | None = None
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.unit)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_return is not None:
                span.attrs = on_return(out, args, kwargs)
            return out

        return traced

    def patch(self, owner, attr, name, on_return=None, inner=None):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        fn = original if inner is None else inner(original)
        setattr(owner, attr, self.wrap(name, fn, on_return))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.unit, s.attrs] for s in self.spans]


def _operator_sizes(ops, args, kwargs):
    return {"n_dof": ops.mesh.n_dof, "nnz_K": ops.K.nnz}


def _precon_dense_bytes(pc, args, kwargs):
    # matched_nonsymmetric keeps K_FD and C^{-1} K_FD as dense n_f x n_D
    # arrays plus the n_D x n_D capacitance LU; the other kinds keep no
    # dense block of that size.
    if pc.kind != "matched_nonsymmetric":
        return {"dense_bytes": 0}
    return {"dense_bytes": F8 * (2 * pc.n_f * pc.n_d + pc.n_d * pc.n_d)}


def _krylov_info(method):
    def info(result, args, kwargs):
        b = args[1]
        n = b.size
        preconditioned = len(args) > 2 and args[2] is not None
        max_it = kwargs.get("max_it") or n
        k_max, its = min(max_it, n), result.iterations
        if method == "minres":
            alloc = touched = 0  # short recurrence: a fixed handful of vectors, no basis
        else:
            # V is n x (k_max+1), Z (preconditioned only) n x k_max, H (k_max+1) x k_max
            cols = lambda k: (k + 1) + (k if preconditioned else 0)
            alloc = F8 * (n * cols(k_max) + (k_max + 1) * k_max)
            touched = F8 * (n * cols(its) + (its + 1) * its)
        return {
            "iterations": its,
            "true_residual": result.true_residual,
            "converged": result.converged,
            "basis_bytes_alloc": alloc,
            "basis_bytes_touched": touched,
        }

    return info


def install(tracer: Tracer) -> None:
    """Wrap the calls into each mgopt layer that the workloads make."""

    def with_traced_applies(krylov):
        def run(apply_a, b, apply_p_inv=None, **kwargs):
            a = tracer.wrap("optcontrol.kkt_apply", apply_a)
            p = None if apply_p_inv is None else tracer.wrap("optcontrol.precon_apply", apply_p_inv)
            return krylov(a, b, p, **kwargs)

        return run

    for owner in (optcontrol, experiments):
        tracer.patch(owner, "build_mesh", "mesh.build")
        tracer.patch(owner, "build_operators", "assembly.build_operators", _operator_sizes)
    tracer.patch(assembly, "extended_incidence", "mesh.incidence")
    for owner in (assembly, optcontrol):
        tracer.patch(owner, "nodal_values", "mesh.nodal_values")
    tracer.patch(assembly, "assemble_stiffness", "assembly.stiffness")
    tracer.patch(assembly, "assemble_mass", "assembly.mass")
    tracer.patch(linalg, "factor", "linalg.factor")
    tracer.patch(linalg.Factorization, "solve", "linalg.solve", lambda out, a, k: {"n": a[0].n})
    tracer.patch(optcontrol, "build_kkt", "optcontrol.kkt_build")
    tracer.patch(optcontrol, "build_preconditioner", "optcontrol.precon_setup", _precon_dense_bytes)
    for method in ("gmres", "minres"):
        tracer.patch(optcontrol, method, "optcontrol.krylov", _krylov_info(method), with_traced_applies)
    for attr in ("objective_value", "optimality_residual"):
        tracer.patch(optcontrol, attr, "pde.post")
    tracer.patch(experiments, "solve_kkt", "experiments.cell")
    # the unpreconditioned column calls GMRES straight from experiments
    tracer.patch(
        experiments, "gmres", "experiments.unprecond_cell",
        inner=lambda f: tracer.wrap("optcontrol.krylov", with_traced_applies(f), _krylov_info("gmres")),
    )


def span_metrics(spans: list[Span], n_units: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_units`` traced units."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    solve_n = max((s.attrs["n"] for s in spans if s.name == "linalg.solve"), default=0)

    totals = defaultdict(lambda: [0.0] * n_units)
    counts = defaultdict(lambda: [0] * n_units)
    for i, s in enumerate(spans):
        names = [s.name]
        if s.name == "linalg.solve" and s.attrs["n"] == solve_n:
            names.append("linalg.kff_solve")
        for name in names:
            totals[name][s.unit] += s.duration
            counts[name][s.unit] += 1
        if s.name == "optcontrol.krylov":
            totals["optcontrol.krylov_self"][s.unit] += s.duration - child_time[i]

    def per_unit(name):
        return statistics.median(totals[name])

    def count(name):
        return statistics.median(counts[name])

    def attr_max(name, key):
        return max((s.attrs[key] for s in spans if s.name == name), default=0)

    krylov = [s for s in spans if s.name == "optcontrol.krylov"]
    its_per_unit = [0] * n_units
    for s in krylov:
        its_per_unit[s.unit] += s.attrs["iterations"]
    total_its = sum(its_per_unit)
    incidence = [s.duration for s in spans if s.name == "mesh.incidence"]

    return {
        "mesh.build_s": per_unit("mesh.build"),
        "mesh.incidence_s": statistics.median(incidence) if incidence else 0.0,
        "mesh.nodal_values_s": per_unit("mesh.nodal_values"),
        "assembly.build_operators_s": per_unit("assembly.build_operators"),
        "assembly.stiffness_s": per_unit("assembly.stiffness"),
        "assembly.mass_s": per_unit("assembly.mass"),
        "assembly.n_dof": attr_max("assembly.build_operators", "n_dof"),
        "assembly.nnz_K": attr_max("assembly.build_operators", "nnz_K"),
        "linalg.factor_s": per_unit("linalg.factor"),
        "linalg.factor_count": count("linalg.factor"),
        "linalg.kff_solve_s": per_unit("linalg.kff_solve"),
        "linalg.kff_solve_count": count("linalg.kff_solve"),
        "pde.post_s": per_unit("pde.post"),
        "optcontrol.kkt_build_s": per_unit("optcontrol.kkt_build"),
        "optcontrol.precon_setup_s": per_unit("optcontrol.precon_setup"),
        "optcontrol.precon_dense_bytes": attr_max("optcontrol.precon_setup", "dense_bytes"),
        "optcontrol.krylov_s": per_unit("optcontrol.krylov"),
        "optcontrol.kkt_apply_s": per_unit("optcontrol.kkt_apply"),
        "optcontrol.kkt_apply_count": count("optcontrol.kkt_apply"),
        "optcontrol.precon_apply_s": per_unit("optcontrol.precon_apply"),
        "optcontrol.precon_apply_count": count("optcontrol.precon_apply"),
        "optcontrol.krylov_self_s": per_unit("optcontrol.krylov_self"),
        "optcontrol.krylov_self_per_it_s": (
            sum(totals["optcontrol.krylov_self"]) / total_its if total_its else 0.0
        ),
        "optcontrol.basis_bytes_alloc": attr_max("optcontrol.krylov", "basis_bytes_alloc"),
        "optcontrol.basis_bytes_touched": attr_max("optcontrol.krylov", "basis_bytes_touched"),
        "optcontrol.iterations": statistics.median(its_per_unit),
        "optcontrol.true_residual": max((s.attrs["true_residual"] for s in krylov), default=0.0),
        "experiments.cell_s": per_unit("experiments.cell"),
        "experiments.unprecond_cell_s": per_unit("experiments.unprecond_cell"),
    }


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_metrics(graph, n_e: int, data, seed: int) -> dict[str, float]:
    """Micro-kernel timings through public calls on the workload's largest mesh."""
    m = mesh.build_mesh(graph, n_e)
    out = {
        "probe.extended_incidence_s": _median_time(lambda: mesh.extended_incidence(m, by_dof=True), 3),
        "probe.build_operators_s": _median_time(lambda: assembly.build_operators(m, data), 3),
    }
    ops = assembly.build_operators(m, data)
    for kind in ("cholesky", "lu"):
        out[f"probe.kff_factor_{kind}_s"] = _median_time(lambda: linalg.factor(ops.K_FF, kind), 3)
    lu = linalg.factor(ops.K_FF, "lu")
    chol = linalg.factor(ops.K_FF, "cholesky")
    out["linalg.factor_fill_nnz"] = int(lu._lu.L.nnz + lu._lu.U.nnz)
    out["linalg.factor_fill_nnz_cholesky"] = int(chol._lu.L.nnz + chol._lu.U.nnz)
    rng = np.random.default_rng(seed)
    r_f = rng.standard_normal(ops.n_free)
    out["probe.kff_solve_s"] = _median_time(lambda: lu.solve(r_f), 7)
    kkt = optcontrol.build_kkt(ops, data)
    x = rng.standard_normal(kkt.dim)
    out["probe.kkt_apply_s"] = _median_time(lambda: kkt.apply(x), 7)
    for kind in ("nonsym", "sym"):
        pc = optcontrol.build_preconditioner(kind, ops, data)
        out[f"probe.precon_apply_{kind}_s"] = _median_time(lambda: pc.apply(x), 7)
        del pc
    u = np.ones(ops.n_dirichlet)
    ops.kff_factor()
    out["pde.solve_state_s"] = _median_time(lambda: pde.solve_state(ops, u, f_vec=ops.f_vec), 3)
    return out
