"""Discrete optimality (KKT) system, block preconditioners, and Krylov solvers.

The first-order conditions form the symmetric saddle-point system

    [ M_FF          M_FD        K_FF^T ] [ y_F ]   [ ybar_F ]
    [ M_FD^T        M_DD + bI   K_FD^T ] [ u   ] = [ ybar_D ]
    [ K_FF          K_FD        0      ] [ p_F ]   [ f_F    ]

whose third unknown carries the opposite sign of the adjoint state; solvers
flip it back on output so that b*u equals the variational vertex flux of p.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import linalg
from .assembly import FeOperators, ProblemData, build_operators, l2_distance_sq
from .graphs import MetricGraph
from .mesh import PiecewiseLinearFunction, build_mesh
from .mesh import nodal_values  # noqa: F401  (mgbench traces this module attribute)
from .pde import discrete_kirchhoff, harmonic_extension, solve_state

PRECONDITIONER_KINDS = ("none", "ideal", "matched_symmetric", "matched_nonsymmetric")

_PRECON_ALIASES = {
    "none": "none",
    "ideal": "ideal",
    "sym": "matched_symmetric",
    "matched_symmetric": "matched_symmetric",
    "nonsym": "matched_nonsymmetric",
    "matched_nonsymmetric": "matched_nonsymmetric",
}


def normalize_precon_kind(kind: str) -> str:
    try:
        return _PRECON_ALIASES[kind]
    except KeyError:
        raise ValueError(f"unknown preconditioner kind {kind!r}") from None


@dataclass(eq=False)
class KktSystem:
    """Matrix-free application of the symmetric 3x3 saddle-point operator.

    A view of the operators at one beta: the blocks and sizes are read from ``ops``.
    """

    ops: FeOperators
    beta: float
    rhs: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.ops.n_free + self.ops.n_dirichlet

    def split(self, x):
        nf, nd = self.ops.n_free, self.ops.n_dirichlet
        return x[:nf], x[nf : nf + nd], x[nf + nd :]

    def apply(self, x) -> np.ndarray:
        ops = self.ops
        x1, x2, x3 = self.split(np.asarray(x, dtype=float))
        nf, nd = x1.size, x2.size
        out = np.empty(2 * nf + nd)
        out[:nf] = ops.M_FF @ x1 + ops.M_FD @ x2 + ops.K_FF @ x3
        out[nf : nf + nd] = ops.M_FD.T @ x1 + ops.M_DD @ x2 + self.beta * x2 + ops.K_FD.T @ x3
        out[nf + nd :] = ops.K_FF @ x1 + ops.K_FD @ x2
        return out

    def as_dense(self, cap: int = 2000) -> np.ndarray:
        """Materialized operator for oracles and eigenvalue probes, size-capped."""
        if self.dim > cap:
            raise ValueError(f"dense KKT materialization capped at {cap}, got {self.dim}")
        ops = self.ops
        z = sp.csr_matrix((ops.n_free, ops.n_free))
        full = sp.bmat(
            [
                [ops.M_FF, ops.M_FD, ops.K_FF.T],
                [ops.M_FD.T, ops.M_DD + self.beta * sp.identity(ops.n_dirichlet), ops.K_FD.T],
                [ops.K_FF, ops.K_FD, z],
            ]
        )
        return full.toarray()


def _require_assembled_data(ops: FeOperators, data: ProblemData) -> None:
    """Raise ValueError unless ``data`` holds the c0, f and ybar ``ops`` was assembled with.

    Samplers are compared by identity, scalars and arrays by value.
    """
    for name in ("c0", "f", "ybar"):
        given, assembled = getattr(data, name), getattr(ops.data, name)
        if callable(given) or callable(assembled):
            same = given is assembled
        else:
            same = np.array_equal(given, assembled)
        if not same:
            raise ValueError(f"{name} differs from the {name} the operators were assembled with")


def build_kkt(ops: FeOperators, data: ProblemData) -> KktSystem:
    """The saddle-point operator at ``data.beta`` and its right-hand side (ybar_F, ybar_D, f_F).

    c0, f and ybar must be those ``ops`` was assembled with (ValueError otherwise).
    """
    if not data.beta > 0:
        raise ValueError("regularization weight must be positive")
    _require_assembled_data(ops, data)
    return KktSystem(ops, data.beta, np.concatenate([ops.ybar_F, ops.ybar_D, ops.f_F]))


class Preconditioner:
    """Block-diagonal approximate inverse of the KKT operator.

    ``apply`` maps a residual to the preconditioned residual; inner solves are
    prefactored once at construction.  ``symmetric_definite`` marks the kinds
    admissible for MINRES.
    """

    def __init__(self, kind, n_f, n_d, apply_fn, symmetric_definite):
        self.kind = kind
        self.n_f = n_f
        self.n_d = n_d
        self._apply = apply_fn
        self.symmetric_definite = symmetric_definite

    def apply(self, r) -> np.ndarray:
        return self._apply(np.asarray(r, dtype=float))


def _mass_diag_schur(ops: FeOperators, beta: float):
    """D_M = diag(M_FF) and the diagonal-based control Schur block D_SM."""
    d_m = ops.M_FF.diagonal()
    n_d = ops.n_dirichlet
    d_sm = (
        ops.M_DD
        + beta * sp.identity(n_d, format="csr")
        - ops.M_FD.T @ sp.diags(1.0 / d_m) @ ops.M_FD
    ).tocsr()
    bad = np.nonzero(d_sm.diagonal() <= 0)[0]
    if bad.size:
        raise ValueError(f"control Schur block has nonpositive diagonal at index {int(bad[0])}")
    return d_m, d_sm


def build_preconditioner(
    kind: str, ops: FeOperators, data: ProblemData, dense_cap: int = 2000
) -> Preconditioner:
    """Set up one of the KKT preconditioners with prefactored inner solves.

    Kinds: ``none`` (identity), ``ideal`` (exact mass block and exact dense
    Schur complement, size-capped diagnostic), ``matched_symmetric``
    (diagonal mass approximations and the lumped-square-root matching term N,
    SPD and usable with MINRES) and ``matched_nonsymmetric`` (the
    GMRES-oriented Schur approximation with the full M_FF, applied exactly
    through its low-rank structure).  c0, f and ybar must be those ``ops`` was
    assembled with (ValueError otherwise).
    """
    kind = normalize_precon_kind(kind)
    _require_assembled_data(ops, data)
    n_f, n_d = ops.n_free, ops.n_dirichlet
    beta = data.beta
    if kind == "none":
        return Preconditioner("none", n_f, n_d, lambda r: r, symmetric_definite=True)
    if n_d == 0:
        raise ValueError(f"{kind} preconditioner needs at least one Dirichlet node")

    if kind == "ideal":
        dim = 2 * n_f + n_d
        if dim > dense_cap:
            raise ValueError(f"ideal preconditioner is dense and capped at {dense_cap}, got {dim}")
        m2 = sp.bmat(
            [[ops.M_FF, ops.M_FD], [ops.M_FD.T, ops.M_DD + beta * sp.identity(n_d)]]
        ).tocsc()
        m2_fact = linalg.factor(m2, "cholesky")
        b = sp.hstack([ops.K_FF, ops.K_FD]).tocsr()
        x = m2_fact.solve(b.T.toarray())
        s = b @ x
        s = 0.5 * (s + s.T)
        s_fact = scipy.linalg.cho_factor(s)

        def apply_ideal(r):
            out = np.empty_like(r)
            out[: n_f + n_d] = m2_fact.solve(r[: n_f + n_d])
            out[n_f + n_d :] = scipy.linalg.cho_solve(s_fact, r[n_f + n_d :])
            return out

        return Preconditioner("ideal", n_f, n_d, apply_ideal, symmetric_definite=True)

    d_m, d_sm = _mass_diag_schur(ops, beta)
    dsm_fact = linalg.factor(d_sm.tocsc(), "cholesky")

    if kind == "matched_symmetric":
        # Lumped diagonal of K_FD D_SM^{-1} K_FD^T via its row sums.
        d_kdk = ops.K_FD @ dsm_fact.solve(np.asarray(ops.K_FD.sum(axis=0)).ravel())
        floor = -1e-12 * max(float(np.abs(d_kdk).max(initial=0.0)), 1.0)
        if np.any(d_kdk < floor):
            raise ValueError("lumped Schur matching diagonal has negative entries")
        d_kdk = np.maximum(d_kdk, 0.0)
        n_diag = np.sqrt(d_kdk * d_m)
        # G stays on SuperLU: eliminated along the graph like K_FF, it rounds
        # differently and moves the MINRES counts of some benchmark seeds
        g = (ops.K_FF + sp.diags(n_diag)).tocsc()
        try:
            g_fact = linalg.factor(g, "cholesky")
        except linalg.NotPositiveDefiniteError as exc:
            raise ValueError(f"matched Schur block not SPD: {exc}") from exc

        def apply_sym(r):
            out = np.empty_like(r)
            out[:n_f] = r[:n_f] / d_m
            out[n_f : n_f + n_d] = dsm_fact.solve(r[n_f : n_f + n_d])
            out[n_f + n_d :] = g_fact.solve(d_m * g_fact.solve(r[n_f + n_d :]))
            return out

        return Preconditioner("matched_symmetric", n_f, n_d, apply_sym, symmetric_definite=True)

    # matched_nonsymmetric: the GMRES-oriented Schur approximation
    #   S = K_FF M_FF^{-1} K_FF^T + K_FD D_SM^{-1} K_FD^T
    # applied exactly.  The second term has rank n_D, so the inverse follows
    # from the Woodbury identity around C = K_FF M_FF^{-1} K_FF^T.  With
    # H = K_FF^{-1} K_FD, C^{-1} K_FD = K_FF^{-1} M_FF H, so an apply takes two
    # solves with the shared K_FF factor.  H comes from the beta-independent
    # vertex condensation cached on the operators (``assembly.condense``).
    # A matched-product surrogate (K_FF + N1) M_FF^{-1} (K_FF^T + N2)
    # overshoots S by O(h^-2) on n_D directions and loses both beta- and
    # mesh-robustness, so the exact low-rank form is used instead.
    cond = ops.condensation()
    kff = ops.kff_factor()
    cap_fact = scipy.linalg.lu_factor(d_sm.toarray() + cond.gram)

    def apply_nonsym(r):
        out = np.empty_like(r)
        out[:n_f] = r[:n_f] / d_m
        out[n_f : n_f + n_d] = dsm_fact.solve(r[n_f : n_f + n_d])
        y = kff.solve(r[n_f + n_d :])
        s = scipy.linalg.lu_solve(cap_fact, cond.h_t_mass(y))
        out[n_f + n_d :] = kff.solve(ops.M_FF @ y - cond.mass_h(s))
        return out

    return Preconditioner("matched_nonsymmetric", n_f, n_d, apply_nonsym, symmetric_definite=False)


@dataclass(eq=False)
class KrylovResult:
    x: np.ndarray
    iterations: int
    converged: bool
    residuals: np.ndarray
    true_residual: float  # ||b - A x|| / ||b|| at x
    # the relative norm the stop compared with tol: the verified true one for
    # GMRES, the preconditioned one (the last ``residuals`` entry) for MINRES
    stop_residual: float


# Products with a Krylov basis of at least this many entries run in two
# halves, one on the calling thread and one on the module's helper thread.
# Below about 1M entries the handoff (some 30 us) costs more than the
# second core saves.
_SPLIT_MIN_ENTRIES = 1 << 21
_helper: ThreadPoolExecutor | None = None
# held while one product uses the helper; a product that finds it held runs
# in one call rather than queue behind another solve's half
_helper_free = threading.Lock()
# GMRES solves running in this process: while another one runs, its thread
# keeps the second core busy, and a split would only crowd it
_solves = 0
_solves_lock = threading.Lock()


def _blas_one_thread() -> bool:
    """Whether the environment pins BLAS to one thread.

    OpenBLAS takes its thread count from the first of these variables that
    holds a positive number, and otherwise runs one thread per core.  Only
    under one BLAS thread is a split product the same bit for bit as one
    call; with more, OpenBLAS divides a product by its own thread count.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


# read once: OpenBLAS read them when numpy, imported above, loaded it
_BLAS_ONE_THREAD = _blas_one_thread()


def _forget_threads() -> None:
    global _helper, _helper_free, _solves, _solves_lock
    _helper = None
    _helper_free = threading.Lock()
    _solves = 0
    _solves_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    # a forked child inherits the executor, the locks and the count, but
    # none of the other threads
    os.register_at_fork(after_in_child=_forget_threads)


def _two_cpus() -> bool:
    """Whether this process may run on at least two CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _split_pays(entries: int) -> bool:
    """Whether a product with a basis of ``entries`` entries should split."""
    return entries >= _SPLIT_MIN_ENTRIES and _BLAS_ONE_THREAD and _solves <= 1 and _two_cpus()


def _in_halves(first, second) -> bool:
    """Run ``first`` on the helper thread (started on first use) and ``second`` here.

    Returns False, having run neither, while another thread uses the helper.
    """
    global _helper
    if not _helper_free.acquire(blocking=False):
        return False
    try:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mgopt-gmres")
        first_done = _helper.submit(first)
        try:
            second()
        finally:
            first_done.result()
    finally:
        _helper_free.release()
    return True


def _basis_t_dot(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``basis.T @ w``, for a large basis in two column halves.

    The boundary is a multiple of 8 columns, so each column's dot product
    keeps the BLAS kernel grouping of one call: under one BLAS thread the
    result is the same bit for bit.  numpy's BLAS calls release the GIL.
    """
    n, k = basis.shape
    mid = k // 16 * 8
    if mid == 0 or not _split_pays(n * k):
        return basis.T @ w
    out = np.empty(k)
    if _in_halves(
        lambda: np.matmul(basis[:, :mid].T, w, out=out[:mid]),
        lambda: np.matmul(basis[:, mid:].T, w, out=out[mid:]),
    ):
        return out
    return basis.T @ w


def _basis_dot(basis: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``basis @ c``, for a large basis in two row halves.

    The boundary is a multiple of 64 rows, which keeps every row's sum as
    in one BLAS call (see ``_basis_t_dot``).
    """
    n, k = basis.shape
    mid = n // 128 * 64
    if mid == 0 or not _split_pays(n * k):
        return basis @ c
    out = np.empty(n)
    if _in_halves(
        lambda: np.matmul(basis[:mid], c, out=out[:mid]),
        lambda: np.matmul(basis[mid:], c, out=out[mid:]),
    ):
        return out
    return basis @ c


def gmres(apply_a, b, apply_p_inv=None, tol: float = 1e-8, max_it: int | None = None) -> KrylovResult:
    """Right-preconditioned GMRES without restarts.

    Solves A x = b with the Arnoldi process on A P^{-1}; right preconditioning
    keeps the recurrence residual equal to the true residual, and the method
    terminates as soon as ||b - A x|| <= tol ||b||.  The iteration count is
    the number of Arnoldi steps; the residual history holds the relative
    residual after each step.
    """
    global _solves
    with _solves_lock:
        _solves += 1
    try:
        return _gmres(apply_a, b, apply_p_inv, tol, max_it)
    finally:
        with _solves_lock:
            _solves -= 1


def _gmres(apply_a, b, apply_p_inv, tol, max_it) -> KrylovResult:
    b = np.asarray(b, dtype=float)
    n = b.size
    preconditioned = apply_p_inv is not None
    if apply_p_inv is None:
        apply_p_inv = lambda q: q
    if max_it is None:
        max_it = n
    k_max = min(max_it, n)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return KrylovResult(np.zeros(n), 0, True, np.zeros(1), 0.0, 0.0)
    residuals = [1.0]
    if residuals[0] <= tol:
        return KrylovResult(np.zeros(n), 0, True, np.array(residuals), 1.0, 1.0)

    # Only written entries are read: the bases column by column, H by its
    # upper triangle.  np.empty keeps the unused columns out of the resident
    # set; np.zeros clears all of them when the allocator recycles heap memory.
    v = np.empty((n, k_max + 1), order="F")
    v[:, 0] = b / b_norm
    # The preconditioned basis is kept so the solution can be combined
    # directly in solution space; mapping V y through P^{-1} instead would
    # amplify roundoff by the spread of the preconditioner block scales.
    z = np.empty((n, k_max), order="F") if preconditioned else v
    h = np.empty((k_max + 1, k_max), order="F")
    cs, sn = [], []  # Givens rotations, as Python floats
    g = np.zeros(k_max + 1)
    g[0] = b_norm

    def form_solution(k):
        y = scipy.linalg.solve_triangular(h[:k, :k], g[:k], check_finite=False)
        return _basis_dot(z[:, :k], y)

    k_used = 0
    converged = False
    x = None
    true_res = None
    # The recurrence residual equals the true residual only in exact
    # arithmetic; verify on candidate solutions and tighten if needed.
    target = tol
    for k in range(k_max):
        zk = np.asarray(apply_p_inv(v[:, k]), dtype=float)
        if preconditioned:
            z[:, k] = zk
        w = np.asarray(apply_a(zk), dtype=float)
        # Classical Gram-Schmidt with one reorthogonalization pass.
        basis = v[:, : k + 1]
        coeffs = _basis_t_dot(basis, w)
        w = w - _basis_dot(basis, coeffs)
        corr = _basis_t_dot(basis, w)
        w = w - _basis_dot(basis, corr)
        coeffs = coeffs + corr
        h_next = float(np.linalg.norm(w))
        # the stored rotations, on Python floats: numpy scalar arithmetic
        # rounds the same but costs about a microsecond per operation
        col = coeffs.tolist() + [h_next]
        for i in range(k):
            c, s = cs[i], sn[i]
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], -s * col[i] + c * col[i + 1]
        denom = float(np.hypot(col[k], col[k + 1]))
        if denom == 0.0:
            cs.append(1.0)
            sn.append(0.0)
        else:
            cs.append(col[k] / denom)
            sn.append(col[k + 1] / denom)
        col[k], col[k + 1] = denom, 0.0
        h[: k + 2, k] = col
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]
        k_used = k + 1
        rel = abs(g[k + 1]) / b_norm
        residuals.append(rel)
        breakdown = h_next <= 1e-14 * b_norm
        if rel <= target or breakdown:
            cand = form_solution(k_used)
            cand_res = float(np.linalg.norm(b - np.asarray(apply_a(cand))) / b_norm)
            if true_res is None or cand_res < true_res:
                x, true_res = cand, cand_res
            if cand_res <= tol:
                converged = True
                break
            if breakdown:
                break
            target = min(target, rel) / 4.0
        if breakdown:
            break
        v[:, k + 1] = w / h_next

    if not converged:
        final = form_solution(k_used)
        final_res = float(np.linalg.norm(b - np.asarray(apply_a(final))) / b_norm)
        if true_res is None or final_res < true_res:
            x, true_res = final, final_res
        converged = true_res <= tol
    return KrylovResult(x, k_used, converged, np.array(residuals), true_res, true_res)


def minres(apply_a, b, apply_p_inv=None, tol: float = 1e-8, max_it: int | None = None) -> KrylovResult:
    """Preconditioned MINRES for symmetric (indefinite) operators.

    The preconditioner application must be symmetric positive definite.
    Symmetry of the operator is probed on random vectors at setup; the
    iteration stops once the preconditioned relative residual drops below
    tol, and the true unpreconditioned residual is reported alongside.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    if apply_p_inv is None:
        apply_p_inv = lambda q: q
    if max_it is None:
        max_it = n

    rng = np.random.default_rng(12345)
    vp = rng.standard_normal(n)
    wp = rng.standard_normal(n)
    av = np.asarray(apply_a(vp))
    aw = np.asarray(apply_a(wp))
    scale = np.linalg.norm(av) * np.linalg.norm(wp) + np.linalg.norm(vp) * np.linalg.norm(aw)
    if abs(av @ wp - vp @ aw) > 1e-10 * max(scale, 1.0):
        raise ValueError("operator is not symmetric; MINRES requires <Av,w> = <v,Aw>")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return KrylovResult(np.zeros(n), 0, True, np.zeros(1), 0.0, 0.0)

    x = np.zeros(n)
    r1 = b.copy()
    y = np.asarray(apply_p_inv(r1), dtype=float)
    beta1_sq = float(r1 @ y)
    if beta1_sq < 0.0:
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1_sq)
    if beta1 == 0.0:
        return KrylovResult(x, 0, True, np.zeros(1), 0.0, 0.0)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    residuals = [1.0]
    converged = False
    iterations = 0
    for itn in range(1, max_it + 1):
        s = 1.0 / beta
        v = s * y
        y = np.asarray(apply_a(v), dtype=float)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = np.asarray(apply_p_inv(r2), dtype=float)
        oldb = beta
        beta_sq = float(r2 @ y)
        if beta_sq < 0.0:
            raise ValueError("preconditioner is not positive definite")
        beta = np.sqrt(beta_sq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        iterations = itn
        rel = phibar / beta1
        residuals.append(rel)
        if rel <= tol:
            converged = True
            break

    true_res = float(np.linalg.norm(b - np.asarray(apply_a(x))) / b_norm)
    return KrylovResult(x, iterations, converged, np.array(residuals), true_res, float(residuals[-1]))


@dataclass(eq=False)
class SolveStats:
    n_dof: int
    iterations: int
    converged: bool
    residual: float  # true relative KKT residual
    stop_residual: float  # KrylovResult.stop_residual; for MINRES it may sit far below residual
    optimality_residual: float
    objective: float
    elapsed: float
    solver: str
    precon: str


@dataclass(eq=False)
class OcpSolution:
    y: PiecewiseLinearFunction
    u: np.ndarray
    p: PiecewiseLinearFunction
    stats: SolveStats


def objective_value(ops: FeOperators, y_values, u) -> float:
    """Tracking objective 0.5 ||y - ybar||_{L2}^2 + 0.5 beta |u|^2.

    ybar is integrated edge by edge, as ``ops.ybar_vec`` is assembled.
    """
    tracking = l2_distance_sq(ops.mesh, y_values, ops.data.ybar)
    u = np.asarray(u, dtype=float)
    return 0.5 * tracking + 0.5 * ops.data.beta * float(u @ u)


def optimality_residual(ops: FeOperators, y, u, p) -> float:
    """Relative defect of b*u - K_h p with the adjoint-state sign convention.

    The flux of p takes the source y - ybar with ybar's load ``ops.ybar_D``,
    the same one the KKT right-hand side holds.
    """
    flux = discrete_kirchhoff(ops, p, y) + ops.ybar_D
    defect = ops.data.beta * np.asarray(u) - flux
    denom = ops.data.beta * np.linalg.norm(u) + np.linalg.norm(flux)
    if denom == 0.0:
        return float(np.linalg.norm(defect))
    return float(np.linalg.norm(defect) / denom)


def solve_kkt(
    ops: FeOperators,
    data: ProblemData,
    solver: str = "gmres",
    precon: str = "matched_nonsymmetric",
    tol: float = 1e-8,
    max_it: int | None = None,
    dense_cap: int = 2000,
):
    """Build and solve the saddle-point system; returns (result, kkt, preconditioner).

    Raises ValueError if c0, f or ybar differ from those ``ops`` was assembled
    with, and SingularOperatorError, naming its vertices, for a graph component
    with no Dirichlet node and c0 = 0, whatever the preconditioner.
    """
    ops.require_coercive()
    kkt = build_kkt(ops, data)
    pc = build_preconditioner(precon, ops, data, dense_cap=dense_cap)
    if max_it is None:
        # unpreconditioned comparison runs are capped near the mesh size;
        # preconditioned runs get a generous cap never below the system size
        max_it = ops.mesh.n_dof if pc.kind == "none" else min(kkt.dim, 1000)
    if solver == "gmres":
        result = gmres(kkt.apply, kkt.rhs, pc.apply, tol=tol, max_it=max_it)
    elif solver == "minres":
        if not pc.symmetric_definite:
            raise ValueError(f"MINRES needs an SPD preconditioner, not {pc.kind}")
        result = minres(kkt.apply, kkt.rhs, pc.apply, tol=tol, max_it=max_it)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return result, kkt, pc


def solve_ocp(
    graph: MetricGraph,
    n_e: int,
    data: ProblemData,
    solver: str = "gmres",
    precon: str = "matched_nonsymmetric",
    tol: float = 1e-8,
    max_it: int | None = None,
) -> OcpSolution:
    """Discretize and solve the optimal control problem end to end.

    Returns the state, the control, and the adjoint state (sign restored so
    that the optimality condition b*u = K_h p holds), plus solve statistics.
    """
    t0 = time.perf_counter()
    mesh = build_mesh(graph, n_e)
    ops = build_operators(mesh, data)
    sol = solve_ocp_assembled(ops, data, solver=solver, precon=precon, tol=tol, max_it=max_it)
    # count mesh and assembly time too
    sol.stats.elapsed = time.perf_counter() - t0
    return sol


def solve_ocp_assembled(
    ops: FeOperators,
    data: ProblemData,
    solver: str = "gmres",
    precon: str = "matched_nonsymmetric",
    tol: float = 1e-8,
    max_it: int | None = None,
) -> OcpSolution:
    """Solve on prebuilt operators (used by parameter sweeps to share assembly).

    ``data`` may differ from ``ops.data`` in beta only (ValueError otherwise);
    the objective and the optimality defect are those at ``data.beta``.
    """
    t0 = time.perf_counter()
    result, kkt, pc = solve_kkt(ops, data, solver=solver, precon=precon, tol=tol, max_it=max_it)
    mesh = ops.mesh
    y_f, u, p_flipped = kkt.split(result.x)
    y = np.concatenate([y_f, u])
    p = np.concatenate([-p_flipped, np.zeros(u.size)])
    y_fn = PiecewiseLinearFunction(mesh, y)
    p_fn = PiecewiseLinearFunction(mesh, p)
    at_beta = replace(ops, data=replace(ops.data, beta=data.beta))
    stats = SolveStats(
        n_dof=mesh.n_dof,
        iterations=result.iterations,
        converged=result.converged,
        residual=result.true_residual,
        stop_residual=result.stop_residual,
        optimality_residual=optimality_residual(at_beta, y_fn, u, p_fn),
        objective=objective_value(at_beta, y, u),
        elapsed=time.perf_counter() - t0,
        solver=solver,
        precon=pc.kind,
    )
    return OcpSolution(y=y_fn, u=u.copy(), p=p_fn, stats=stats)


def reduced_oracle(graph: MetricGraph, n_e: int, data: ProblemData, cap: int = 500) -> np.ndarray:
    """Brute-force control via the dense reduced normal equations.

    Builds G_ij = (S e_i, S e_j)_{L2} + beta delta_ij column by column from
    harmonic-extension solves and r_i = (ybar - y_f, S e_i)_{L2}, where y_f
    is the state at zero control and ybar's load is ``ops.ybar_vec`` as in
    the KKT right-hand side, then solves the dense n_D x n_D system.
    Independent of the KKT path; intended as a cross-check at small control
    counts.
    """
    mesh = build_mesh(graph, n_e)
    ops = build_operators(mesh, data)
    n_d = ops.n_dirichlet
    if n_d > cap:
        raise ValueError(f"reduced oracle capped at {cap} controls, got {n_d}")
    if n_d == 0:
        return np.zeros(0)
    y_f = solve_state(ops, f_vec=ops.f_vec).y.values
    columns = np.column_stack(
        [harmonic_extension(ops, np.eye(n_d)[i]).values for i in range(n_d)]
    )
    gram = columns.T @ (ops.M @ columns) + data.beta * np.eye(n_d)
    rhs = columns.T @ (ops.ybar_vec - ops.M @ y_f)
    return scipy.linalg.solve(gram, rhs, assume_a="pos")
