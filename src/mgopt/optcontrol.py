"""Discrete optimality (KKT) system, block preconditioners, and Krylov solvers.

The first-order conditions form the symmetric saddle-point system

    [ M_FF          M_FD        K_FF^T ] [ y_F ]   [ ybar_F ]
    [ M_FD^T        M_DD + bI   K_FD^T ] [ u   ] = [ ybar_D ]
    [ K_FF          K_FD        0      ] [ p_F ]   [ f_F    ]

whose third unknown carries the opposite sign of the adjoint state; solvers
flip it back on output so that b*u equals the variational vertex flux of p.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import linalg
from .assembly import FeOperators, ProblemData, assemble_mass, build_operators, l2_distance_sq
from .graphs import MetricGraph
from .mesh import PiecewiseLinearFunction, build_mesh
from .mesh import nodal_values  # noqa: F401  (mgbench traces this module attribute)
from .pde import discrete_kirchhoff, solve_state

PRECONDITIONER_KINDS = ("none", "ideal", "matched_symmetric", "matched_nonsymmetric")
ORACLE_CAP = 500  # reduced_oracle's limit on controls, one state solve each

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

    A view of the operators at one beta: the blocks, sizes and right-hand
    side (ybar_F, ybar_D, f_F, formed on first use) are read from ``ops``.
    The DF blocks, ``K_FD.T`` and ``M_FD.T``, are CSR views built once here.
    """

    ops: FeOperators
    beta: float
    _m_df: sp.csr_matrix = field(init=False, repr=False)
    _k_df: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self._m_df = self.ops.M_FD.T
        self._k_df = self.ops.K_FD.T

    @property
    def dim(self) -> int:
        return 2 * self.ops.n_free + self.ops.n_dirichlet

    @functools.cached_property
    def rhs(self) -> np.ndarray:
        return np.concatenate([self.ops.ybar_F, self.ops.ybar_D, self.ops.f_F])

    def split(self, x):
        nf, nd = self.ops.n_free, self.ops.n_dirichlet
        return x[:nf], x[nf : nf + nd], x[nf + nd :]

    def apply(self, x) -> np.ndarray:
        x1, x2, x3 = self.split(np.asarray(x, dtype=float))
        out = self._rows(x1, x1, x2, linalg.matvec(self._k_df, x3))
        out[: x1.size] += linalg.matvec(self.ops.K_FF, x3)
        return out

    def _rows(self, x_top, x1, x2, kdf_x3) -> np.ndarray:
        """The operator at (x1, x2, x3) but the top row's K_FF x3, given
        K_FD^T x3; the top row's M_FF multiplies ``x_top`` (x1 in ``apply``)."""
        # each row adds its products left to right, the order the tests hold
        # it to against the plain scipy expression, bit for bit
        ops, mv = self.ops, linalg.matvec
        nf, nd = x1.size, x2.size
        out = np.empty(2 * nf + nd)
        top, mid, low = out[:nf], out[nf : nf + nd], out[nf + nd :]
        np.add(mv(ops.M_FF, x_top), mv(ops.M_FD, x2), out=top)
        np.add(mv(self._m_df, x1), mv(ops.M_DD, x2), out=mid)
        mid += self.beta * x2
        mid += kdf_x3
        np.add(mv(ops.K_FF, x1), mv(ops.K_FD, x2), out=low)
        return out

    def as_dense(self) -> np.ndarray:
        """Materialized operator for oracles and eigenvalue probes, at most
        ``linalg.DENSE_CAP`` rows."""
        if self.dim > linalg.DENSE_CAP:
            raise ValueError(f"dense KKT materialization capped at {linalg.DENSE_CAP}, got {self.dim}")
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
    _require_assembled_data(ops, data)
    return KktSystem(ops, data.beta)


class Preconditioner:
    """Block-diagonal approximate inverse of the KKT operator.

    ``apply`` maps a residual to the preconditioned residual; inner solves are
    prefactored once at construction.  Every kind applies an SPD operator, so
    every kind serves both GMRES and MINRES.  ``product`` is A P^{-1} on the
    same operators and beta as one callable that saves work the two applies
    repeat, or None for every kind but ``matched_nonsymmetric``.
    """

    def __init__(self, kind, n_f, n_d, apply_fn, product=None):
        self.kind = kind
        self.n_f = n_f
        self.n_d = n_d
        self._apply = apply_fn
        self.product = product

    def apply(self, r) -> np.ndarray:
        return self._apply(np.asarray(r, dtype=float))


def _mass_diag_schur(ops: FeOperators, beta: float):
    """D_M = diag(M_FF) and the diagonal-based control Schur block
    D_SM = M_DD + beta I - M_FD^T D_M^{-1} M_FD, whose last term is cached
    on the operators."""
    d_m, coupling = ops.mass_diagonal()
    d_sm = (ops.M_DD + beta * sp.identity(ops.n_dirichlet, format="csr") - coupling).tocsr()
    bad = np.nonzero(d_sm.diagonal() <= 0)[0]
    if bad.size:
        raise ValueError(f"control Schur block has nonpositive diagonal at index {int(bad[0])}")
    return d_m, d_sm


def build_preconditioner(
    kind: str, ops: FeOperators, data: ProblemData
) -> Preconditioner:
    """Set up one of the KKT preconditioners with prefactored inner solves.

    Kinds: ``none`` (identity), ``ideal`` (exact mass block and exact dense
    Schur complement, size-capped diagnostic), ``matched_symmetric``
    (diagonal mass approximations and the lumped-square-root matching term N)
    and ``matched_nonsymmetric`` (the Schur approximation the paper pairs with
    GMRES, with the full M_FF, applied exactly through its low-rank
    structure).  Each applies an SPD operator, for GMRES and MINRES alike;
    each factor in it is checked positive definite at setup (ValueError
    otherwise).  ``matched_symmetric`` raises ValueError where its lumped
    matching diagonal goes negative, as once c0·h² > 6 on some edges next to
    a control (K_FD's entry -1/h + c0·h/6 changes sign).  c0, f and ybar
    must be those ``ops`` was assembled with (ValueError otherwise).
    """
    kind = normalize_precon_kind(kind)
    _require_assembled_data(ops, data)
    n_f, n_d = ops.n_free, ops.n_dirichlet
    beta = data.beta
    if kind == "none":
        return Preconditioner("none", n_f, n_d, lambda r: r)
    if n_d == 0:
        raise ValueError(f"{kind} preconditioner needs at least one Dirichlet node")

    if kind == "ideal":
        dim = 2 * n_f + n_d
        if dim > linalg.DENSE_CAP:
            raise ValueError(f"ideal preconditioner is dense and capped at {linalg.DENSE_CAP}, got {dim}")
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

        return Preconditioner("ideal", n_f, n_d, apply_ideal)

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
            np.divide(r[:n_f], d_m, out=out[:n_f])
            out[n_f : n_f + n_d] = dsm_fact.solve(r[n_f : n_f + n_d])
            out[n_f + n_d :] = g_fact.solve(d_m * g_fact.solve(r[n_f + n_d :]))
            return out

        return Preconditioner("matched_symmetric", n_f, n_d, apply_sym)

    # matched_nonsymmetric: the Schur approximation the paper pairs with GMRES
    #   S = K_FF M_FF^{-1} K_FF^T + K_FD D_SM^{-1} K_FD^T
    # applied exactly, so blkdiag(D_M, D_SM, S)^{-1} is SPD.  The second term
    # has rank n_D, so the inverse follows from the Woodbury identity around
    # C = K_FF M_FF^{-1} K_FF^T.  With H = K_FF^{-1} K_FD, y = K_FF^{-1} r3,
    # q = H^T M_FF y and s = (D_SM + H^T M_FF H)^{-1} q,
    # S^{-1} r3 = K_FF^{-1} M_FF (y - H s).
    # y is kept as the graph factor's two parts, so y - H s is one lift
    # product (``GraphFactor.minus_h``, which reads only K); H^T M_FF and
    # the Gram matrix come from the beta-independent vertex condensation
    # cached on the operators (``assembly.condense``).
    # A matched-product surrogate (K_FF + N1) M_FF^{-1} (K_FF^T + N2)
    # overshoots S by O(h^-2) on n_D directions and loses both beta- and
    # mesh-robustness, so the exact low-rank form is used instead.
    cond = ops.condensation()
    kff = ops.kff_factor()
    try:
        cap_fact = scipy.linalg.cho_factor(d_sm.toarray() + cond.gram, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"capacitance matrix D_SM + H^T M_FF H is not positive definite: {exc}"
        ) from exc

    def woodbury(r3):
        # u = y - H s, q and s
        x_i0, x_v = cond.kff.parts(r3)
        q = cond.h_t_mass(x_i0, x_v)
        s = scipy.linalg.cho_solve(cap_fact, q, check_finite=False)
        return cond.kff.minus_h(x_i0, x_v, s), q, s

    def apply_nonsym(r):
        out = np.empty_like(r)
        np.divide(r[:n_f], d_m, out=out[:n_f])
        out[n_f : n_f + n_d] = dsm_fact.solve(r[n_f : n_f + n_d])
        out[n_f + n_d :] = kff.solve(linalg.matvec(ops.M_FF, woodbury(r[n_f + n_d :])[0]))
        return out

    # A P^{-1} r with one K_FF solve: the third block z3 = K_FF^{-1} M_FF u
    # enters A only through its third block column, as K_FF z3 = M_FF u,
    # which joins M_FF z1 in the top row, and K_FD^T z3 = H^T M_FF u =
    # q - gram s, so the second solve cancels.  The view is its own, so
    # the product is always on these operators and this beta
    kkt = KktSystem(ops, beta)

    def product(r):
        r = np.asarray(r, dtype=float)
        z1 = np.divide(r[:n_f], d_m)
        z2 = dsm_fact.solve(r[n_f : n_f + n_d])
        u, q, s = woodbury(r[n_f + n_d :])
        u += z1  # not z1 += u: the K_FF z1 row needs z1 as P^{-1} gives it
        q -= cond.gram @ s
        return kkt._rows(u, z1, z2, q)

    return Preconditioner("matched_nonsymmetric", n_f, n_d, apply_nonsym, product)


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


def _krylov_inputs(b, apply_p_inv, tol: float, max_it: int | None):
    """b as floats, its norm, the preconditioner apply (the identity if None)
    and the iteration cap (the dimension if None), for GMRES and MINRES.

    A tolerance of 0, below 0 or NaN is never met, nor is any tolerance on a
    right-hand side that is not finite: such a run would go to the cap, so
    it raises ValueError, as a negative cap does.
    """
    b = np.asarray(b, dtype=float)
    if apply_p_inv is None:
        apply_p_inv = lambda q: q
    if max_it is None:
        max_it = b.size
    b_norm = float(np.linalg.norm(b))
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_it < 0:
        raise ValueError(f"iteration cap must be at least 0, got {max_it}")
    if not np.isfinite(b_norm):
        raise ValueError(f"right-hand side must be finite, got norm {b_norm}")
    return b, b_norm, apply_p_inv, max_it


def gmres(
    apply_a, b, apply_p_inv=None, tol: float = 1e-8, max_it: int | None = None, apply_ap=None
) -> KrylovResult:
    """Right-preconditioned GMRES without restarts.

    Solves A x = b with the Arnoldi process on A P^{-1}; right preconditioning
    keeps the recurrence residual equal to the true residual, and the method
    terminates as soon as ||b - A x|| <= tol ||b||.  Each Arnoldi step makes
    one call of ``apply_ap``, the product A P^{-1} (by default ``apply_a``
    after ``apply_p_inv``); a preconditioner may supply it as one operator
    that saves work the two applies repeat.  A candidate solution is formed
    as x = P^{-1} (V y) from the one Krylov basis V and checked with
    ``apply_a``, so ``apply_p_inv`` must be the same linear map at every
    step.  Candidates are checked at one place in the loop: when the
    recurrence residual meets the target, on breakdown, and at the last
    step the cap allows; the best one checked is returned.  The iteration
    count is the number of Arnoldi steps; the residual history holds the
    relative residual after each step.
    """
    b, b_norm, p_inv, max_it = _krylov_inputs(b, apply_p_inv, tol, max_it)
    if apply_ap is None:
        apply_ap = apply_a if apply_p_inv is None else lambda q: apply_a(np.asarray(p_inv(q), dtype=float))
    n = b.size
    k_max = min(max_it, n)
    if b_norm == 0.0:
        return KrylovResult(np.zeros(n), 0, True, np.zeros(1), 0.0, 0.0)
    residuals = [1.0]
    if k_max == 0 or residuals[0] <= tol:  # x = 0 is the only candidate
        return KrylovResult(np.zeros(n), 0, residuals[0] <= tol, np.array(residuals), 1.0, 1.0)

    # Only written basis columns are read.  np.empty keeps the unused ones out
    # of the resident set; np.zeros clears all of them when the allocator
    # recycles heap memory.
    v = np.empty((n, k_max + 1), order="F")
    np.divide(b, b_norm, out=v[:, 0])
    # R, the Givens-rotated Hessenberg matrix, one array per column.  numpy
    # advises huge pages for arrays of 4 MB and more, so short columns written
    # into one (k_max+1) x k_max array would fault in whole 2 MB pages.
    r_cols = []
    cs, sn = [], []  # Givens rotations, as Python floats
    g = np.zeros(k_max + 1)
    g[0] = b_norm

    def form_solution():
        # C order: scipy hands LAPACK R^T in Fortran order and solves with
        # the transpose; an F-ordered R takes LAPACK's untransposed path,
        # which rounds differently and moves the last bits of x
        k = len(r_cols) - (r_cols[-1][-1] == 0.0)  # no zero diagonal enters R
        r = np.zeros((k, k))
        for j, col in enumerate(r_cols[:k]):
            r[: j + 1, j] = col
        y = scipy.linalg.solve_triangular(r, g[:k], check_finite=False)
        return np.asarray(p_inv(v[:, :k] @ y), dtype=float)

    x = None
    true_res = None
    # The recurrence residual equals the true residual only in exact
    # arithmetic; verify on candidate solutions and tighten if needed.
    target = tol
    for k in range(k_max):
        w = np.asarray(apply_ap(v[:, k]), dtype=float)
        if np.may_share_memory(w, v) or np.may_share_memory(w, b):
            w = w.copy()  # updated in place below; an identity returns its input
        # Classical Gram-Schmidt with one reorthogonalization pass.
        basis = v[:, : k + 1]
        coeffs = basis.T @ w
        w -= basis @ coeffs
        corr = basis.T @ w
        w -= basis @ corr
        coeffs += corr
        h_next = float(np.linalg.norm(w))
        # the stored rotations, on Python floats: numpy scalar arithmetic
        # rounds the same but costs about a microsecond per operation.  The
        # entry the next rotation also turns is carried in ``top``.
        col = coeffs.tolist()
        top = col[0]
        for i in range(k):
            c, s = cs[i], sn[i]
            below = col[i + 1]
            col[i], top = c * top + s * below, -s * top + c * below
        denom = float(np.hypot(top, h_next))
        if denom == 0.0:
            # A P^-1 v_k lies in the span of v_0..v_{k-1}, so R gets a zero
            # diagonal: the rotation c = 0, s = 1 keeps the residual, and the
            # candidate is formed from the columns before this one
            cs.append(0.0)
            sn.append(1.0)
        else:
            cs.append(top / denom)
            sn.append(h_next / denom)
        col[k] = denom
        r_cols.append(np.array(col))
        g[k + 1] = -sn[k] * g[k]
        g[k] = cs[k] * g[k]
        rel = abs(g[k + 1]) / b_norm
        residuals.append(rel)
        breakdown = h_next <= 1e-14 * b_norm
        if rel <= target or breakdown or k == k_max - 1:
            cand = form_solution()
            cand_res = float(np.linalg.norm(b - np.asarray(apply_a(cand))) / b_norm)
            if true_res is None or cand_res < true_res:
                x, true_res = cand, cand_res
            if cand_res <= tol or breakdown:
                break
            target = min(target, rel) / 4.0
        np.divide(w, h_next, out=v[:, k + 1])

    return KrylovResult(x, len(r_cols), true_res <= tol, np.array(residuals), true_res, true_res)


def _require_symmetric(apply_a, n: int) -> None:
    """Raise ValueError unless <Av, w> = <v, Aw> on two random vectors; the
    four probe vectors are freed on return, before MINRES allocates its own."""
    rng = np.random.default_rng(12345)
    vp = rng.standard_normal(n)
    wp = rng.standard_normal(n)
    av = np.array(apply_a(vp), dtype=float)  # a copy: the operator may reuse one buffer
    aw = np.asarray(apply_a(wp))
    scale = np.linalg.norm(av) * np.linalg.norm(wp) + np.linalg.norm(vp) * np.linalg.norm(aw)
    if abs(av @ wp - vp @ aw) > 1e-10 * max(scale, 1.0):
        raise ValueError("operator is not symmetric; MINRES requires <Av,w> = <v,Aw>")


def minres(apply_a, b, apply_p_inv=None, tol: float = 1e-8, max_it: int | None = None) -> KrylovResult:
    """Preconditioned MINRES for symmetric (indefinite) operators.

    The preconditioner application must be symmetric positive definite.
    Symmetry of the operator is probed on random vectors at setup; the
    iteration stops once the preconditioned relative residual drops below
    tol, and the true unpreconditioned residual is reported alongside.
    """
    b, b_norm, apply_p_inv, max_it = _krylov_inputs(b, apply_p_inv, tol, max_it)
    n = b.size
    _require_symmetric(apply_a, n)
    if b_norm == 0.0:
        return KrylovResult(np.zeros(n), 0, True, np.zeros(1), 0.0, 0.0)

    x = np.zeros(n)
    r2 = b.copy()
    y = np.asarray(apply_p_inv(r2), dtype=float)
    beta1_sq = float(r2 @ y)
    if beta1_sq <= 0.0:  # b is nonzero, so an SPD preconditioner gives b.P b > 0
        raise ValueError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1_sq)

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    # Every vector is updated in place, in the order of the expanded
    # formulas.  The residuals r1, r2 and the next one rotate through three
    # buffers (r1 is first read in step 2), and w takes the buffer of the w1
    # it replaces.  The operator's result is only read, so it may be its
    # input or one buffer reused on every call.
    v = np.empty(n)
    r1, r_next = np.empty(n), np.empty(n)
    w, w1, w2 = np.zeros(n), np.empty(n), np.zeros(n)
    scratch = np.empty(n)
    residuals = [1.0]
    converged = False
    iterations = 0
    for itn in range(1, max_it + 1):
        s = 1.0 / beta
        np.multiply(s, y, out=v)
        q = np.asarray(apply_a(v), dtype=float)
        if itn >= 2:
            np.subtract(q, np.multiply(beta / oldb, r1, out=scratch), out=r_next)
        else:
            r_next[:] = q
        alfa = float(v @ r_next)
        r_next -= np.multiply(alfa / beta, r2, out=scratch)
        r1, r2, r_next = r2, r_next, r1
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

        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(oldeps, w1, out=scratch), out=w)
        w -= np.multiply(delta, w2, out=scratch)
        w /= gamma
        x += np.multiply(phi, w, out=scratch)

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


@dataclass(eq=False)
class OcpSolution:
    y: PiecewiseLinearFunction
    u: np.ndarray
    p: PiecewiseLinearFunction
    stats: SolveStats


def objective_value(ops: FeOperators, y_values, u) -> float:
    """Tracking objective 0.5 ||y - ybar||_{L2}^2 + 0.5 beta |u|^2.

    ybar is integrated edge by edge, as ``ops.ybar_vec`` is assembled.  u
    must hold one value per control (ValueError otherwise).
    """
    tracking = l2_distance_sq(ops.mesh, y_values, ops.data.ybar)
    u = np.asarray(u, dtype=float)
    if u.shape != (ops.n_dirichlet,):
        raise ValueError(f"expected {ops.n_dirichlet} control values, got {u.shape}")
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
):
    """Build and solve the saddle-point system; returns (result, kkt).

    Raises ValueError for an unknown solver, before anything is built, and
    if c0, f or ybar differ from those ``ops`` was assembled with, and
    SingularOperatorError, naming its vertices, for a graph component with
    no Dirichlet node and c0 = 0, whatever the preconditioner.
    """
    if solver not in ("gmres", "minres"):
        raise ValueError(f"unknown solver {solver!r}")
    ops.require_coercive()
    kkt = build_kkt(ops, data)
    pc = build_preconditioner(precon, ops, data)
    if max_it is None:
        # unpreconditioned comparison runs are capped near the mesh size;
        # preconditioned runs get a generous cap never below the system size
        max_it = ops.mesh.n_dof if pc.kind == "none" else min(kkt.dim, 1000)
    if solver == "gmres":
        result = gmres(kkt.apply, kkt.rhs, pc.apply, tol=tol, max_it=max_it, apply_ap=pc.product)
    else:
        result = minres(kkt.apply, kkt.rhs, pc.apply, tol=tol, max_it=max_it)
    return result, kkt


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
    result, kkt = solve_kkt(ops, data, solver=solver, precon=precon, tol=tol, max_it=max_it)
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
    )
    return OcpSolution(y=y_fn, u=u.copy(), p=p_fn, stats=stats)


def reduced_oracle(graph: MetricGraph, n_e: int, data: ProblemData) -> np.ndarray:
    """Brute-force control via the dense reduced normal equations.

    Builds G_ij = (S e_i, S e_j)_{L2} + beta delta_ij column by column from
    zero-load state solves S e_i and r_i = (ybar - y_f, S e_i)_{L2}, where y_f
    is the state at zero control and ybar's load is ``ops.ybar_vec`` as in
    the KKT right-hand side, then solves the dense n_D x n_D system.
    Independent of the KKT path; intended as a cross-check at small control
    counts, at most ``ORACLE_CAP`` controls.
    """
    mesh = build_mesh(graph, n_e)
    ops = build_operators(mesh, data)
    n_d = ops.n_dirichlet
    if n_d > ORACLE_CAP:
        raise ValueError(f"reduced oracle capped at {ORACLE_CAP} controls, got {n_d}")
    if n_d == 0:
        return np.zeros(0)
    y_f = solve_state(ops, f_vec=ops.f_vec).y.values
    columns = np.column_stack([solve_state(ops, e).y.values for e in np.eye(n_d)])
    mass = assemble_mass(mesh)
    gram = columns.T @ (mass @ columns) + data.beta * np.eye(n_d)
    rhs = columns.T @ (ops.ybar_vec - mass @ y_f)
    return scipy.linalg.solve(gram, rhs, assume_a="pos")
