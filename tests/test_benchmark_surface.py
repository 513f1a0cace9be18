"""The mgopt surface that the benchmark's traced run patches and reads.

``mgbench/layers.py`` wraps module attributes of mgopt (``optcontrol.nodal_values``,
``assembly.assemble_stiffness``, ``linalg.Factorization.solve``, ...) and reads
fields of what they return (``ops.K.nnz``, ``pc.n_f``, the SuperLU factor's
``L``).  One small traced unit here fails on a removed name at once.
"""

import importlib
import math
from pathlib import Path

from mgopt import ProblemData, assembly, make_fdm_L_graph, optcontrol, solve_ocp


def test_traced_unit_and_probes(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    layers = importlib.import_module("mgbench.layers")
    graph = make_fdm_L_graph(10, n_controls=12, seed=0)
    data = ProblemData(beta=1e-3, c0=2.0, f=1.5, ybar=1.0)
    tracer = layers.Tracer()
    iterations = 0
    try:
        layers.install(tracer)
        tracer.unit = 0
        for solver, precon in (("gmres", "nonsym"), ("minres", "sym")):
            sol = solve_ocp(graph, 4, data, solver, precon, tol=1e-8)
            assert sol.stats.converged
            iterations += sol.stats.iterations
        tracer.unit = None
        metrics = layers.span_metrics(tracer.spans, 1)
        metrics.update(layers.probe_metrics(graph, 4, data, 0))
    finally:
        tracer.restore()
    assert optcontrol.build_operators is assembly.build_operators
    assert metrics["assembly.n_dof"] == sol.stats.n_dof
    assert metrics["assembly.nnz_K"] > 0
    assert metrics["optcontrol.iterations"] == iterations
    assert metrics["optcontrol.precon_dense_bytes"] > 0
    assert metrics["linalg.factor_fill_nnz"] > 0
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())
