"""Damped Newton solver for the Dirichlet problem in the log chart at the
floor eps_reg, manufactured problems, a convergence study helper, and the
domain-exhaustion existence procedure.

A solve continues in p alone: a p = 2 presolve, then one Newton stage per
rung of the fixed ladder p_1 < p_1 + 2 < ... < p with p_1 in (2, 4], each
at the floor eps_reg and started from the field of the rung below it; the
operator's coefficient sees spikes (``operators.gradient_powers``), so no
eps continuation has to steer Newton around them.  One Newton system per
stage gives the residual and the linear solve of a step: fast
diagonalization at p = 2, and otherwise flexible GMRES on the Jacobian as
a stencil operator in natural order, one slice per stencil offset.  A stage,
cold or warm, preconditions one GMRES cycle by scaling each row by its node's
diffusion and inverting the scaled rows' constant-coefficient mean by fast
diagonalization (a Newton-Krylov step with physics-based preconditioning;
Knoll & Keyes, J. Comput. Phys. 193, 2004), to the forcing term that the
stage picks per step from its residual norms (an inexact Newton step;
Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996), and factorizes only
when that cycle misses.
A factorization gathers the operator's products into the interior block
in the grid's nested-dissection order, on a pattern kept on the grid (the
symbolic/numeric split; Davis, Direct Methods for Sparse Linear Systems,
SIAM 2006); a stage that holds that ``splu`` factor preconditions by it,
and only a step that GMRES cannot finish replaces it (a Shamanskii-type
inexact Newton step; Kelley, Solving Nonlinear Equations with Newton's
Method, SIAM 2003).  The operator, both diagonalizations and the Krylov
cycle run on numpy alone, so scipy.sparse and scipy.sparse.linalg are
imported at the first factorization (``_bind``).

The iterate is the flattened field on the full tensor grid.  Its boundary
values are the Dirichlet data, so the unknowns and the log-chart residual
live on the interior nodes.  The radial drift term is the central radial
difference the gradient already holds.  Central differencing keeps the sign
structure the discrete comparison checks need only while the mesh Peclet
number |n-p| h_a / (p-1) stays at most 2, so a solve on a coarser radial
grid is rejected rather than run with another scheme.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from conepde.calculus import GridFunction, LogGrid, first_diff, second_diff
from conepde.geometry import ConeDomain, exhaustion
from conepde.operators import (AnalyticField, PDEProblem, constant_field,
                               divergence_part_field, gradient_coefficient,
                               log_polynomial_field, operator_terms,
                               separable_exponential_field)

__all__ = [
    "SolverConfig",
    "StageRecord",
    "SolveReport",
    "power_of_t_field",
    "log_t_field",
    "quadratic_field",
    "make_exact_solution",
    "solve_dirichlet",
    "manufactured_problem",
    "exact_solution_values",
    "solve_by_exhaustion",
    "ExhaustionReport",
    "convergence_study",
    "StudyRow",
]


_SPARSE = {"sp": "scipy.sparse", "spla": "scipy.sparse.linalg"}


def _bind(name: str):
    """The module bound as ``name`` on this module, ``sp`` (scipy.sparse)
    or ``spla`` (scipy.sparse.linalg), imported at its first use, the first
    factorization: a solve that never factorizes pays for neither.  A name
    already bound stays, so a stand-in set on ``spla`` (a tracer's proxy)
    keeps receiving the calls."""
    if name not in globals():
        globals()[name] = importlib.import_module(_SPARSE[name])
    return globals()[name]


def __getattr__(name: str):
    # PEP 562: reading conepde.solver.sp or .spla from outside binds them
    if name in _SPARSE:
        return _bind(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SolverConfig:
    """The floor eps_reg of a solve's stages, the residual max-norm
    tolerance and the Newton steps per stage.  A rejected value raises a
    ValueError whose message starts with the name of the field at fault."""

    eps_reg_floor: float = 1e-6
    tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        for name in ("eps_reg_floor", "tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be finite and positive")
        if self.max_iter < 0:
            raise ValueError("max_iter: must be at least 0")


@dataclass(frozen=True)
class StageRecord:
    p: float                      # the exponent of the stage's Newton system
    iterations: int
    residual_norm: float
    stop_reason: str              # converged (to tol), max_iter, line_search or short_step
    factorizations: int           # splu factorizations taken in the stage
    krylov_iterations: int        # GMRES iterations, on either preconditioner


@dataclass
class SolveReport:
    stages: list
    converged: bool
    final_residual: float


# ---------------------------------------------------------------------------
# analytic fields and manufactured problems

def power_of_t_field(kappa: float) -> AnalyticField:
    """u = t^kappa, i.e. e^(kappa a) in the log chart, at any dimension."""
    return separable_exponential_field(1.0, kappa, [])


def log_t_field() -> AnalyticField:
    """u = ln t, the radial-coordinate field itself, at any dimension."""
    return log_polynomial_field([(1.0, 1.0)])


def quadratic_field(n: int, coef_a: float = 1.0, coef_x: float = 1.0) -> AnalyticField:
    """u = coef_a a^2 + coef_x sum x_i^2 in the log chart."""
    return log_polynomial_field([(coef_a, 2.0)] + [
        (coef_x, 0.0) + tuple(2.0 if j == k else 0.0 for j in range(n - 1))
        for k in range(n - 1)])


def make_exact_solution(p: float, n: int) -> AnalyticField:
    """A forcing-free solution of the operator: t^((p-n)/(p-1)), or ln t
    when p == n (the drift coefficient vanishes there)."""
    if p == n:
        return log_t_field()
    return power_of_t_field((p - n) / (p - 1.0))


def manufactured_problem(u_star: AnalyticField, p: float) -> PDEProblem:
    """Problem whose exact solution is ``u_star``: the forcing is the analytic
    strong-form residual of the field, at the dimension n = 1 + len(xs) of
    the points it samples, and the Dirichlet data is its trace."""
    def forcing(t, xs):
        t = np.asarray(t, dtype=float)
        a = np.log(t)
        g = u_star.grad(a, xs)
        H = u_star.hess(a, xs)
        return operator_terms(g, H, p)[0] * t ** (-p)

    return PDEProblem(p=p, f=forcing, dirichlet=u_star)


def exact_solution_values(u_star: AnalyticField, grid: LogGrid) -> GridFunction:
    return GridFunction.from_callable(grid, u_star.value)


# ---------------------------------------------------------------------------
# discretization

def _check_peclet(grid: LogGrid, p: float) -> None:
    """Reject a radial step with |n-p| h_a > 2(p-1) at n = ``grid.n``, where
    the central drift difference loses the M-matrix sign structure."""
    n, h_a, bound = grid.n, grid.h[0], 2.0 * (p - 1.0)
    if abs(n - p) * h_a > bound:
        need = math.ceil(abs(n - p) * (grid.a[-1] - grid.a[0]) / bound) + 1
        raise ValueError(f"radial step h_a = {h_a:.6g} gives |n-p| h_a = "
                         f"{abs(n - p) * h_a:.6g} above the mesh Peclet bound "
                         f"2(p-1) = {bound:.6g}; use at least {need} radial nodes")


@dataclass(frozen=True, eq=False)
class _StencilOperator:
    """A Jacobian on the flattened full grid in natural order:
    ``products[o, i]`` is node i's entry in column i + offsets[o] of
    ``grid.interior_taps``, 0 on a boundary row.  ``J @ v`` takes one
    contiguous slice per offset (9 in 2D, 19 in 3D) and sums each row in
    ascending offset order from +0."""

    grid: LogGrid
    products: np.ndarray

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        offsets = self.grid.interior_taps[0]
        # the rows from the first to the last interior node, and all they reach
        s, size = int(offsets[-1]), v.size
        out, term = np.zeros(size), np.empty(size - 2 * s)
        for d, row in zip(offsets, self.products):
            np.multiply(row[s:size - s], v[s + d:size - s + d], out=term)
            out[s:size - s] += term
        return out


def _jacobian_operator(grid: LogGrid, A: np.ndarray, B: np.ndarray,
                       C: np.ndarray) -> _StencilOperator:
    """Jacobian of the log-chart residual on the interior rows: one product
    of the coefficient fields with the weights of ``grid.interior_taps``.
    Its rows are sum_kl A_kl H_kl + sum_k C_k G_k + B G_0: the residual's
    own difference operators weighted by the coefficient fields that
    ``operator_terms`` returned with the residual (A, plus the dA of
    ``gradient_coefficient``, and B) and C, so it is the exact
    linearization at that residual's iterate.  Over the pairs k <= l, the
    taps' row order, A_kl with k < l enters twice, for H_kl and H_lk.  B
    keeps its own term on G_0; added to C_0 it would round differently."""
    pairs = [(k, l) for k in range(grid.n) for l in range(k, grid.n)]
    coeffs = [A[k, l] * (1.0 if k == l else 2.0) for k, l in pairs]
    coeffs += [*C, B]
    # taps rows: H_kl for k <= l, then G_0 ... G_{n-1}, then G_0 for B
    h = len(pairs)
    weights = grid.interior_taps[1][[*range(h + grid.n), h]]
    products = weights.T @ np.stack([c.ravel() for c in coeffs])
    products[:, grid.boundary_mask.ravel()] = 0.0
    return _StencilOperator(grid, products)


def _assemble_jacobian(J: _StencilOperator) -> sp.csc_matrix:
    """The interior block of J in CSC, rows and columns in
    ``grid.dissection_order``, for a factorization: J's products gathered
    on the grid's kept pattern (``grid.interior_pattern``)."""
    grid = J.grid
    pattern, order = grid.interior_pattern, grid.dissection_order
    data = J.products[:, order].T.ravel()[pattern.gather]
    return _bind("sp").csc_matrix((data, pattern.indices, pattern.indptr),
                                  shape=(order.size, order.size))


def _solve_linear(grid: LogGrid, drift: float, rhs: np.ndarray) -> np.ndarray:
    """The solution du of J du = rhs for the interior block J of the p == 2
    Jacobian, sum_k D2_k + drift D1_a for every iterate and eps_reg; ``rhs``
    is read on the interior nodes and du is zero on the boundary.

    On the interior nodes J is a Kronecker sum of one tridiagonal block per
    axis, which fast diagonalization inverts exactly (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964): each base axis goes into the orthonormal
    eigenbasis of its symmetric block, every base mode leaves one
    tridiagonal system along a shifted by the mode's eigenvalue, and
    ``_tridiagonal_solve`` eliminates all of them at once.  Its partial
    pivoting keeps the solve exact also where |drift| h_a > 2 and the a
    blocks are not diagonally dominant.
    """
    inner = (slice(1, -1),) * grid.n
    r = rhs[inner]
    shift = np.zeros(())
    for lam, V in grid.eigenbases[1:]:
        r = np.tensordot(r, V, axes=([1], [0]))
        shift = np.add.outer(shift, lam)
    L = (grid.stencil_matrix(0, second_diff)
         + drift * grid.stencil_matrix(0, first_diff))[1:-1, 1:-1]
    x = _tridiagonal_solve(np.diag(L, -1), np.diag(L)[:, None] + shift.ravel(), np.diag(L, 1),
                           r.reshape(len(L), -1))
    # stored mode by mode, as the banded solve of the stacked systems returns
    # them: the products below round by the memory layout of their operand
    x = np.moveaxis(x.T.copy().reshape(shift.shape + (len(L),)), -1, 0)
    for _, V in grid.eigenbases[1:]:
        x = np.tensordot(x, V, axes=([1], [1]))
    du = np.zeros(grid.shape)
    du[inner] = x
    return du


def _tridiagonal_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """The solutions x[:, s] of the m x m tridiagonal systems with diagonal
    ``diag[:, s]``, sub- and superdiagonal ``lower`` and ``upper`` (m - 1
    entries, shared by every system) and right-hand side ``rhs[:, s]``.

    Gaussian elimination with partial pivoting as LAPACK's dgtsv does it
    for one right-hand side, row by row for all systems at once, so x is
    bit-equal to dgtsv's (scipy.linalg.solve_banded at (1, 1)): a row
    whose |diagonal| is below |lower| swaps with the next, which fills the
    second superdiagonal, and a row where no system swaps takes the
    two-update step.  A singular system gives inf or NaN rather than an
    error.
    """
    d, b = np.array(diag, dtype=float), np.array(rhs, dtype=float)
    du = np.zeros_like(d)
    du[:-1] = np.reshape(upper, (-1, 1))
    du2 = np.zeros_like(d)
    for j, dl in enumerate(lower):
        if np.abs(d[j]).min() >= abs(dl):
            fact = dl / d[j]
            d[j + 1] -= fact * du[j]
            b[j + 1] -= fact * b[j]
            continue
        swap = np.abs(d[j]) < abs(dl)
        fact = np.where(swap, d[j], dl) / np.where(swap, dl, d[j])
        d[j], d[j + 1], du[j], du[j + 1], du2[j], b[j], b[j + 1] = (
            np.where(swap, dl, d[j]),
            np.where(swap, du[j] - fact * d[j + 1], d[j + 1] - fact * du[j]),
            np.where(swap, d[j + 1], du[j]),
            np.where(swap, -fact * du[j + 1], du[j + 1]),
            np.where(swap, du[j + 1], 0.0),
            np.where(swap, b[j + 1], b[j]),
            np.where(swap, b[j] - fact * b[j + 1], b[j + 1] - fact * b[j]))
    b[-1] /= d[-1]
    if len(b) > 1:
        b[-2] = (b[-2] - du[-2] * b[-1]) / d[-2]
    for j in range(len(b) - 3, -1, -1):
        b[j] = (b[j] - du[j] * b[j + 1] - du2[j] * b[j + 2]) / d[j]
    return b


def _fd_preconditioner(grid: LogGrid, A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """P y = M^-1 (y / s), an approximate inverse of the Jacobian that
    ``_jacobian_operator`` builds from the fields A, B and C, on flattened
    full-grid vectors that are 0 on the boundary.  Each row is first divided
    by its node's diffusion s = (sum_k A_kk) / n, and M = sum_k c_k D2_k +
    b D1_a on the interior block is the constant-coefficient operator
    nearest the scaled rows: c_k is the interior mean of A_kk / s and b
    that of (B + C_0) / s.  Where every coefficient field is one positive
    field times constants, the Jacobian is diag(s) M and P its exact
    inverse; on zero data, where |grad u|^(p-2) varies by orders of
    magnitude across the base, the scaled rows stay near one constant
    operator (physics-based preconditioning; Knoll & Keyes, J. Comput.
    Phys. 193, 2004).  There is none (None) unless s > 0 at every interior
    node, every c_k > 0 and the sub- and superdiagonal s_- and s_+ of M's
    a-block have s_- s_+ > 0.

    M is inverted by fast diagonalization along every axis (Lynch, Rice &
    Thomas, Numer. Math. 6, 1964) in ``grid.eigenbases``, so no call solves
    an eigenproblem.  The base axes go into their bases as in
    ``_solve_linear``.  The a-block L = c_0 D2_a + b D1_a is tridiagonal
    Toeplitz, and D^-1 L D with D = diag(r^i), r = sqrt(s_- / s_+), is the
    symmetric one with off-diagonal s_- / r: an affine function of D2_a's
    interior block, which has the same eigenvectors.  D is centred on the
    middle node, and where its condition number r^(m-1) exceeds 1/eps the
    similarity would lose every digit, so there is no preconditioner."""
    inner = (slice(1, -1),) * grid.n
    diffusion = np.einsum("kk...->...", A) / grid.n
    s = diffusion[inner]
    if not s.min() > 0.0:
        return None
    c = [float((A[k, k][inner] / s).mean()) for k in range(grid.n)]
    b = float(((B + C[0])[inner] / s).mean())
    w2, w1 = (dict(grid.stencil_weights[st][0][0]) for st in (second_diff, first_diff))
    sub, sup = c[0] * w2[-1] + b * w1[-1], c[0] * w2[1] + b * w1[1]
    if not (min(c) > 0.0 and sub * sup > 0.0):
        return None
    bases = [V for _, V in grid.eigenbases]
    lam_a, m = grid.eigenbases[0][0], len(bases[0])
    log_r = 0.5 * math.log(sub / sup)
    if abs(log_r) * (m - 1) > -math.log(np.finfo(float).eps):
        return None
    # D^-1 L D = alpha D2_a + beta I on the interior, whose diagonal is L's
    alpha = sub * math.exp(-log_r) / w2[1]
    lam = alpha * lam_a + (c[0] - alpha) * w2[0]
    for ck, (lk, _) in zip(c[1:], grid.eigenbases[1:]):
        lam = np.add.outer(lam, ck * lk)
    scale = np.exp(log_r * (np.arange(m) - 0.5 * (m - 1))).reshape((m,) + (1,) * (grid.n - 1))

    def solve(y):
        x = y.reshape(grid.shape)[inner] / s / scale
        for V in bases:
            x = np.tensordot(x, V, axes=([0], [0]))
        x /= lam
        for V in bases:
            x = np.tensordot(x, V, axes=([0], [1]))
        out = np.zeros(grid.shape)
        out[inner] = x * scale
        return out.ravel()

    return solve


# the most GMRES iterations in a step's one cycle, on the fast-diagonalization
# preconditioner and on a kept factor, and the smallest forcing term: the
# tightest relative tolerance on the true residual |J du - rhs|_2 of a step
FD_RESTART, KRYLOV_RESTART, KRYLOV_RTOL = 30, 10, 1e-6


def _forcing_term(norm: float, prev_norm: float | None) -> float:
    """The relative tolerance eta of a Newton step's linear solve, from the
    residual max norm at its iterate and at the iterate before (None at a
    stage's first step, which takes 0.1): Eisenstat and Walker's choice 2,
    0.9 (norm / prev_norm)^2, clipped to [KRYLOV_RTOL, 0.1] (SIAM J. Sci.
    Comput. 17, 1996).  Their safeguard 0.9 eta_prev^2 can exceed the cap
    0.1 only where eta_prev > 1/3, never under it, so it is left out."""
    if prev_norm is None:
        return 0.1
    return min(0.1, max(KRYLOV_RTOL, 0.9 * (norm / prev_norm) ** 2))


def _fgmres(J, b: np.ndarray, precondition, restart: int, eta: float) -> tuple:
    """One cycle of right-preconditioned flexible GMRES (Saad, SIAM J. Sci.
    Comput. 14, 1993) for J x = b from x = 0, at most ``restart`` iterations:
    (x, iterations), with x None when the true residual misses
    |J x - b|_2 <= eta |b|_2.

    Iteration j keeps z_j = precondition(v_j) and x is a combination of the
    z_j, so each iteration calls ``precondition`` once and x needs no
    further call.  As in scipy's gmres, the cycle stops when its rotated
    Hessenberg residual meets the tolerance on |b|_2 or the new Krylov
    vector vanishes (at most eps of its norm before orthogonalization), and
    a zero pivot of the triangular solve leaves its component of y at 0.
    The orthogonalization is classical Gram-Schmidt, twice.  A zero b gives
    x = 0 in no iteration."""
    x, norm_b = np.zeros_like(b), float(np.linalg.norm(b))
    if norm_b == 0.0:
        return x, 0
    target = eta * norm_b
    V, Z = np.empty((restart + 1, b.size)), np.empty((restart, b.size))
    R = np.zeros((restart, restart))  # the Hessenberg matrix, rotated upper triangular
    g = np.zeros(restart + 1)
    g[0], V[0] = norm_b, b / norm_b
    rotations = []
    for j in range(restart):
        Z[j] = precondition(V[j])
        w = J @ Z[j]
        h, norm = np.zeros(j + 2), np.linalg.norm(w)
        for _ in range(2):
            proj = V[:j + 1] @ w
            w -= proj @ V[:j + 1]
            h[:j + 1] += proj
        h[j + 1] = np.linalg.norm(w)
        breakdown = h[j + 1] <= np.finfo(float).eps * norm
        if breakdown:
            h[j + 1] = 0.0
        else:
            V[j + 1] = w / h[j + 1]
        for i, (cs, sn) in enumerate(rotations):
            h[i], h[i + 1] = cs * h[i] + sn * h[i + 1], cs * h[i + 1] - sn * h[i]
        rho = math.hypot(h[j], h[j + 1])
        cs, sn = (h[j] / rho, h[j + 1] / rho) if rho else (1.0, 0.0)
        rotations.append((cs, sn))
        R[:j, j], R[j, j] = h[:j], rho
        g[j], g[j + 1] = cs * g[j], -sn * g[j]
        if abs(g[j + 1]) <= target or breakdown:
            break
    k = j + 1
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        if R[i, i]:
            y[i] = (g[i] - R[i, i + 1:k] @ y[i + 1:k]) / R[i, i]
    x += y @ Z[:k]
    return (x if np.linalg.norm(b - J @ x) <= target else None), k


@dataclass
class _NewtonSystem:
    """One Newton system of a solve: the log-chart residual at exponent p,
    radial drift coefficient ``drift`` (n - p, which a p = 2 presolve keeps
    from the rung it starts), interior forcing F_log and regularization
    ``eps_reg``, and the linear solve of a step, by ``_solve_linear`` at
    p == 2 and otherwise by ``_solve_jacobian`` on the stencil operator of
    the residual's coefficient fields (``_jacobian_operator``), to the
    step's forcing term, with the kept ``splu`` factor ``lu``.  While the
    system holds no factor, its steps try the fast-diagonalization
    preconditioner first, from a cold start and a warm one alike.  Only a
    step that factorizes builds a CSC matrix.  It counts the factorizations
    taken and the GMRES iterations run.  Only p == 2 reads ``drift``: its
    residual is sum_k D2_k u + drift D1_a u - F_log; other p take n - p
    from the grid, and only they read ``eps_reg``."""

    grid: LogGrid
    p: float
    drift: float
    F_log: np.ndarray
    eps_reg: float
    lu: object = None
    factorizations: int = 0
    krylov_iterations: int = 0

    def residual(self, values: np.ndarray) -> tuple:
        """(res, lin): the residual at every node, zero on the boundary, and
        its linearization point: the coefficient fields A and B of
        ``operator_terms`` at ``values``, with the derivative fields g and H,
        from which a step forms C and dA; None at p == 2, whose step reads
        no coefficient field."""
        grid = self.grid
        if self.p == 2.0:
            lin = None
            R = sum(grid.apply_stencil(values, k, second_diff) for k in range(grid.n))
            R = R + self.drift * grid.apply_stencil(values, 0, first_diff)
        else:
            R, *lin = divergence_part_field(GridFunction(grid, values, check_finite=False),
                                            self.p, self.eps_reg)
        res = R - self.F_log
        res[grid.boundary_mask] = 0.0
        return res, lin

    def step(self, lin: tuple, rhs: np.ndarray, eta: float) -> np.ndarray:
        """The Newton step: du with J du = rhs for the Jacobian at the
        linearization point ``lin`` from ``residual``, zero on the boundary,
        to the relative tolerance ``eta`` (exact at p == 2).  C = dR/dg and
        the addition to A's diagonal from the coefficient's second-difference
        term are formed here, so a residual that no step reads (a rejected
        line-search trial, a stage's last iterate) never pays for them, nor
        for the fast-diagonalization preconditioner."""
        if self.p == 2.0:
            return _solve_linear(self.grid, self.drift, rhs)
        A, B, g, H = lin
        C, dA = gradient_coefficient(g, H, self.p, self.eps_reg, self.grid.h)
        A = A + dA
        fd = None if self.lu is not None else _fd_preconditioner(self.grid, A, B, C)
        return _solve_jacobian(_jacobian_operator(self.grid, A, B, C), rhs, self, eta, fd)


def _solve_jacobian(J: _StencilOperator, rhs: np.ndarray, system: _NewtonSystem,
                    eta: float, precondition=None) -> np.ndarray:
    """The solution du of J du = rhs for the operator J of
    ``_jacobian_operator``, to the relative tolerance ``eta`` on the true
    residual, or exact; ``rhs`` is read on the interior nodes and du is
    zero on the boundary, whose values are data.

    One cycle of right-preconditioned flexible GMRES (``_fgmres``) runs
    first, on full-grid vectors that are 0 on the boundary, to ``eta``: at
    most ``KRYLOV_RESTART`` iterations on the system's kept factor (solved
    at the interior nodes in dissection order) or, while it holds none, at
    most ``FD_RESTART`` on ``precondition``, the row-scaled
    fast-diagonalization inverse that the system's step passes.  When the
    cycle misses ``eta``, or there is no preconditioner, J's interior block
    (``_assemble_jacobian``) is factorized in its nested-dissection order
    with SuperLU's partial pivoting, kept on ``system`` and solved
    directly; a singular factor raises RuntimeError.  The Krylov basis and
    the missed factor are freed first, so a solve never holds two factors,
    nor a factor and a basis."""
    grid = system.grid
    b = np.where(grid.boundary_mask, 0.0, rhs).ravel()
    cycle = (((lambda y: _scatter(grid, system.lu.solve(y[grid.dissection_order]))),
              KRYLOV_RESTART) if system.lu is not None else (precondition, FD_RESTART))
    if cycle[0] is not None:
        x, iterations = _fgmres(J, b, *cycle, eta)
        system.krylov_iterations += iterations
        if x is not None:
            return x.reshape(grid.shape)
    # the missed factor goes before SuperLU builds the next, so one is alive
    system.lu = cycle = None
    system.lu = _bind("spla").splu(_assemble_jacobian(J), permc_spec="NATURAL")
    system.factorizations += 1
    return _scatter(grid, system.lu.solve(b[grid.dissection_order])).reshape(grid.shape)


def _scatter(grid: LogGrid, x: np.ndarray) -> np.ndarray:
    """The flattened full-grid vector with x at the interior nodes in
    ``grid.dissection_order`` and 0 on the boundary."""
    out = np.zeros(math.prod(grid.shape))
    out[grid.dissection_order] = x
    return out


def _newton_stage(values: np.ndarray, system: _NewtonSystem, max_iter: int,
                  target: float, min_step: float = 0.0) -> tuple:
    """Damped Newton on ``system``, run until the residual's max norm is at
    most ``target``; returns (values, StageRecord).  A step reads the
    linearization that its iterate's residual evaluation returned, solves
    it to the forcing term of ``_forcing_term`` on the residual norms of
    its iterate and the one before, and a rejected trial step halves the
    step length.  A stage whose step is accepted at a length below
    ``min_step`` stops after that step.  The record names the system's p,
    counts the stage's factorizations and GMRES iterations and names why
    the stage stopped."""
    start = (system.factorizations, system.krylov_iterations)
    res, lin = system.residual(values)
    if not np.all(np.isfinite(res)):
        raise FloatingPointError("non-finite value in discrete residual")
    norm, prev_norm = float(np.max(np.abs(res))), None
    iters = 0
    lam = 1.0
    accepted = True
    while norm > target and iters < max_iter and lam >= min_step:
        du = system.step(lin, -res, _forcing_term(norm, prev_norm))
        lam = 1.0
        accepted = False
        while lam >= 1e-12:
            trial = values + lam * du
            tres, tlin = system.residual(trial)
            if np.any(np.isnan(tres)):
                raise FloatingPointError("NaN in discrete residual")
            tnorm = float(np.max(np.abs(tres)))
            if tnorm <= (1.0 - 1e-4 * lam) * norm or tnorm <= target:
                accepted = True
                break
            lam *= 0.5
        iters += 1
        if not accepted:
            break
        values, res, lin, prev_norm, norm = trial, tres, tlin, norm, tnorm
    stop = ("converged" if norm <= target else "line_search" if not accepted
            else "short_step" if lam < min_step else "max_iter")
    return values, StageRecord(p=system.p, iterations=iters, residual_norm=norm,
                               stop_reason=stop,
                               factorizations=system.factorizations - start[0],
                               krylov_iterations=system.krylov_iterations - start[1])


# a warm start whose Newton step is damped this far is not near the
# solution, and the cold solve from the presolve is then the cheaper way on
WARM_MIN_STEP = 0.125


def solve_dirichlet(prob: PDEProblem, grid: LogGrid, cfg: SolverConfig | None = None,
                    initial: GridFunction | None = None) -> tuple:
    """Solve the Dirichlet problem on the grid; returns (GridFunction, SolveReport).

    Boundary values (including the artificial truncation face) are pinned to
    the problem's Dirichlet sampler.  The solve continues in p alone, up the
    rungs p, p - 2, p - 4, ... above 2 in ascending order (p itself at
    p == 2), so the first rung lies in (2, 4] and starts from the p = 2
    presolve on its drift and forcing.  Rung q is one cold Newton stage at
    exponent q with forcing t^q f, at ``cfg.eps_reg_floor`` to ``cfg.tol``,
    from the field the rung below left, met ``tol`` or not (Allgower &
    Georg, Introduction to Numerical Continuation Methods, SIAM 2003); its
    steps solve to a forcing term from its residual norms
    (``_forcing_term``), and a stage keeps the factor it takes
    (``_solve_jacobian``).  Each rung gives one stage record, and the
    report is converged when the last, at p, is.

    An ``initial`` field on the grid's nodes is a warm start: its values,
    with the boundary reset to the Dirichlet data, go through one Newton
    stage at p to ``tol``, with no presolve or ladder, whose steps take the
    fast-diagonalization preconditioner as a cold stage's do and which
    stops at its first step accepted at a length below ``WARM_MIN_STEP``.
    When that stage misses ``tol`` the solve goes on exactly as a solve
    without ``initial``, and the failed warm stage stays first in the
    report.

    The solve is deterministic; failure to
    converge is reported, never raised.  A radial step beyond the mesh Peclet
    bound at p, or an ``initial`` on other nodes, raises ValueError; a
    forcing t^p f that is not finite at an interior node, or a residual that
    turns NaN, raises FloatingPointError.
    """
    cfg = cfg or SolverConfig()
    p = prob.p
    _check_peclet(grid, p)
    bmask = grid.boundary_mask
    data = prob.dirichlet_values(grid)[bmask]

    def system(q: float) -> _NewtonSystem:
        # the residual lives on the interior, so the forcing on the boundary is never read
        F_log = replace(prob, p=q).log_forcing(grid, interior_only=True)
        return _NewtonSystem(grid, q, grid.n - q, F_log, cfg.eps_reg_floor)

    stages: list = []
    if initial is not None:
        if not initial.grid.same_nodes(grid):
            raise ValueError(f"the initial field's grid {initial.grid.shape} does not have "
                             f"the nodes of the solve's grid {grid.shape}")
        values = np.array(initial.values, dtype=float)
        values[bmask] = data
        values, stage = _newton_stage(values, system(p), cfg.max_iter, cfg.tol,
                                      WARM_MIN_STEP)
        stages.append(stage)
        if stage.residual_norm <= cfg.tol:
            return GridFunction(grid, values), SolveReport(stages, True, stage.residual_norm)

    values = np.zeros(grid.shape)
    values[bmask] = data
    rungs = [p]
    while rungs[0] - 2.0 > 2.0:
        rungs.insert(0, rungs[0] - 2.0)
    for q in rungs:
        rung = system(q)
        if q == rungs[0] and q > 2.0:
            # linearized presolve: the p = 2 system with the first rung's drift and forcing
            values, _ = _newton_stage(values, replace(rung, p=2.0), cfg.max_iter, cfg.tol)
        values, stage = _newton_stage(values, rung, cfg.max_iter, cfg.tol)
        stages.append(stage)
    norm = stage.residual_norm
    return GridFunction(grid, values), SolveReport(stages, bool(norm <= cfg.tol), norm)


# ---------------------------------------------------------------------------
# exhaustion and convergence studies

@dataclass
class ExhaustionReport:
    members: list                 # (ConeDomain, GridFunction) per stage
    diffs: list                   # (j, sup_{H_{j-1}} |u_j - u_{j-1}|)
    monotone: bool


def solve_by_exhaustion(prob: PDEProblem, domain: ConeDomain, j_max: int,
                        grid_density: float,
                        cfg: SolverConfig | None = None) -> ExhaustionReport:
    """Zero-boundary solves on the nested subdomain sequence.

    The Cauchy record holds the sup differences of consecutive solutions on
    the previous (smaller) member, each evaluated by interpolating the newer
    solution onto the older grid.  A solver failure propagates with the
    stage index.
    """
    from scipy.interpolate import RegularGridInterpolator

    if j_max < 2:
        raise ValueError("need at least two exhaustion stages")
    members = []
    for j in range(1, j_max + 1):
        dom_j = exhaustion(domain, j)
        extents = [dom_j.a_max - dom_j.a_min, *(dom_j.base_hi - dom_j.base_lo)]
        counts = [max(5, int(round(e * grid_density)) + 1) for e in extents]
        grid_j = LogGrid.build(dom_j, counts)
        u_j, rep = solve_dirichlet(replace(prob, dirichlet=constant_field(0.0)), grid_j, cfg)
        if not rep.converged:
            raise RuntimeError(f"exhaustion stage j={j} failed to converge")
        members.append((dom_j, u_j))

    diffs = []
    for j, ((_, u_prev), (_, u_cur)) in enumerate(zip(members, members[1:]), start=2):
        # every member has at least 5 nodes per axis, as cubic needs
        interp = RegularGridInterpolator(u_cur.grid.axes, u_cur.values, method="cubic")
        gap = interp(u_prev.grid.log_points) - u_prev.values.ravel()
        diffs.append((j, float(np.max(np.abs(gap)))))
    gaps = [g for _, g in diffs]
    return ExhaustionReport(members, diffs, all(b <= a for a, b in zip(gaps, gaps[1:])))


@dataclass(frozen=True)
class StudyRow:
    h: float
    max_error: float
    order: float | None


def convergence_study(prob: PDEProblem, u_star: AnalyticField,
                      grids: Sequence[LogGrid],
                      cfg: SolverConfig | None = None) -> list:
    """Max-norm errors against the exact field over a grid sequence; the
    observed order on each refined row is log2(e_coarse / e_fine), or None
    when either error is at round-off, at most 64 machine epsilons times
    max |u*|, where the scheme reproduces u* and the ratio means nothing."""
    rows = []
    prev = None
    for grid in grids:
        u, rep = solve_dirichlet(prob, grid, cfg)
        exact = exact_solution_values(u_star, grid)
        err = float(np.max(np.abs(u.values - exact.values)))
        roundoff = err <= 64.0 * np.finfo(float).eps * float(np.max(np.abs(exact.values)))
        order = None if prev is None or roundoff or prev[1] else math.log2(prev[0] / err)
        rows.append(StudyRow(h=max(grid.h), max_error=err, order=order))
        prev = (err, roundoff)
    return rows
