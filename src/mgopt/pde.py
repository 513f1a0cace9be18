"""Discrete forward machinery: state solves and vertex fluxes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FeOperators
from .mesh import PiecewiseLinearFunction


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, PiecewiseLinearFunction) else np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class StateSolution:
    """The discrete state; it matches the control at Dirichlet nodes exactly.

    With zero control it is the source-driven part y(0); with zero load it
    is S u, the control-to-state map, so nodal-wise y(u) = S u + y(0) up to
    solver accuracy.
    """

    y: PiecewiseLinearFunction


def solve_state(ops: FeOperators, u=None, f_vec=None) -> StateSolution:
    """Solve the discrete state equation for Dirichlet data u and load f_vec.

    The free values solve K_FF y_F = f_F - K_FD u, one K_FF solve;
    Dirichlet values are u.
    """
    mesh = ops.mesh
    nf, nd = ops.n_free, ops.n_dirichlet
    u = np.zeros(nd) if u is None else np.asarray(u, dtype=float)
    if u.shape != (nd,):
        raise ValueError(f"expected {nd} Dirichlet values, got {u.shape}")
    f_free = np.zeros(nf) if f_vec is None else np.asarray(f_vec, dtype=float)[:nf]

    y = np.empty(mesh.n_dof)
    y[:nf] = ops.kff_factor().solve(f_free - ops.K_FD @ u)
    y[nf:] = u
    return StateSolution(PiecewiseLinearFunction(mesh, y))


def discrete_kirchhoff(ops: FeOperators, p, source) -> np.ndarray:
    """Variational vertex fluxes of p at the Dirichlet nodes.

    Evaluates a(phi_v, p) - (source, phi_v) for every Dirichlet vertex v,
    which in the nodal basis is the Dirichlet rows of K p - M source, formed
    from K's Dirichlet rows and M's blocks.  p must vanish at the Dirichlet
    DOFs.
    """
    pv = _values(p)
    sv = _values(source)
    nf = ops.n_free
    p_d = pv[nf:]
    scale = np.abs(pv).max() if pv.size else 0.0
    if p_d.size and np.abs(p_d).max() > 1e-10 * max(scale, 1.0):
        raise ValueError("p must vanish at the Dirichlet DOFs")
    return ops.K[nf:] @ pv - (ops.M_FD.T @ sv[:nf] + ops.M_DD @ sv[nf:])
