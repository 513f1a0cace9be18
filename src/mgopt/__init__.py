"""Optimal Dirichlet control on metric graphs.

Discretizes elliptic control problems on metric graphs with linear finite
elements, assembles the symmetric KKT saddle-point system of the first-order
conditions, and solves it with Schur-complement-preconditioned Krylov methods.
"""

from .assembly import (
    FeOperators,
    ProblemData,
    SingularOperatorError,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_operators,
)
from .graphs import (
    DIRICHLET,
    KIRCHHOFF,
    GraphFormatError,
    MetricGraph,
    load_graph_json,
    load_matrix_market,
    make_fdm_L_graph,
    make_path,
    make_star,
)
from .mesh import (
    ExtendedMesh,
    PiecewiseLinearFunction,
    build_mesh,
    extended_incidence,
    nodal_values,
    prolong,
)
from .optcontrol import (
    KktSystem,
    OcpSolution,
    Preconditioner,
    build_kkt,
    build_preconditioner,
    gmres,
    minres,
    objective_value,
    reduced_oracle,
    solve_ocp,
)
from .pde import StateSolution, discrete_kirchhoff, solve_state

__version__ = "0.1.0"
