"""Damped Newton solver for the Dirichlet problem in the log chart at the
floor eps_reg, manufactured problems, a convergence study helper, and the
domain-exhaustion existence procedure.

For p > 2 a presolve on the p = 2 system with the target's drift gives
the starting field of one Newton stage at the floor eps_reg; the
operator's coefficient sees spikes (``operators.gradient_powers``), so no
eps continuation has to steer Newton around them.  One Newton system per
solve gives the residual and the linear solve of a step: fast
diagonalization at p = 2, and otherwise the interior Jacobian in the
grid's nested-dissection order, whose pattern is kept on the grid (the
symbolic/numeric split; Davis, Direct Methods for Sparse Linear Systems,
SIAM 2006), solved by GMRES on one kept ``splu`` factor, which only a step
that GMRES cannot finish replaces (a Shamanskii-type inexact Newton step;
Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003).
The fast diagonalization runs on numpy alone, so scipy's sparse modules
are imported only at the first p != 2 step (``_bind_sparse``).

The iterate is the flattened field on the full tensor grid.  Its boundary
values are the Dirichlet data, so the unknowns and the log-chart residual
live on the interior nodes.  The radial drift term is the central radial
difference the gradient already holds.  Central differencing keeps the sign
structure the discrete comparison checks need only while the mesh Peclet
number |n-p| h_a / (p-1) stays at most 2, so a solve on a coarser radial
grid is rejected rather than run with another scheme.
"""

from __future__ import annotations

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


def _bind_sparse() -> None:
    """Bind scipy.sparse as ``sp`` and scipy.sparse.linalg as ``spla`` on
    this module, at the first p != 2 assembly or step: a p = 2 solve needs
    numpy alone, so a command line that never factorizes does not pay for
    their import.  A name already bound stays, so a stand-in set on
    ``spla`` (a tracer's proxy) keeps receiving the calls."""
    import scipy.sparse
    import scipy.sparse.linalg

    globals().setdefault("sp", scipy.sparse)
    globals().setdefault("spla", scipy.sparse.linalg)


def __getattr__(name: str):
    # PEP 562: reading conepde.solver.sp or .spla from outside binds them
    if name in ("sp", "spla"):
        _bind_sparse()
        return globals()[name]
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
    eps_reg: float
    iterations: int
    residual_norm: float
    stop_reason: str              # converged (to tol), max_iter or line_search
    factorizations: int           # splu factorizations taken in the stage
    krylov_iterations: int        # GMRES iterations on the kept factor


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


def _assemble_jacobian(grid: LogGrid, A: np.ndarray, B: np.ndarray,
                       C: np.ndarray) -> sp.csc_matrix:
    """Jacobian of the log-chart residual on the interior nodes, rows and
    columns in ``grid.dissection_order``; boundary values are data, not
    unknowns.  Its rows are sum_kl A_kl H_kl + sum_k C_k G_k + B G_0: the
    residual's own difference operators weighted by the coefficient fields
    that ``operator_terms`` returned with the residual (A, plus the dA of
    ``gradient_coefficient``, and B) and C, so the block is its exact
    linearization at that residual's iterate.  Over the pairs k <= l, the
    pattern's row order, A_kl with k < l enters twice, for H_kl and H_lk.

    The sparsity pattern is fixed for the grid (``grid.interior_pattern``),
    so a call does only the numeric part: one product of the coefficient
    fields with the stencil weights and one gather into CSC data order.
    B keeps its own term on G_0 rather than being added to C_0, which
    would round differently."""
    _bind_sparse()
    pattern, order = grid.interior_pattern, grid.dissection_order
    pairs = [(k, l) for k in range(grid.n) for l in range(k, grid.n)]
    coeffs = [A[k, l] * (1.0 if k == l else 2.0) for k, l in pairs]
    coeffs += [*C, B]
    # pattern rows: H_kl for k <= l, then G_0 ... G_{n-1}, then G_0 for B
    h = len(pairs)
    weights = pattern.weights[[*range(h + grid.n), h]]
    data = np.stack([c.ravel()[order] for c in coeffs], axis=1) @ weights
    return sp.csc_matrix((data.ravel()[pattern.gather], pattern.indices, pattern.indptr),
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
    for lam, V in grid.base_eigenbases:
        r = np.tensordot(r, V, axes=([1], [0]))
        shift = np.add.outer(shift, lam)
    L = (grid.stencil_matrix(0, second_diff)
         + drift * grid.stencil_matrix(0, first_diff))[1:-1, 1:-1]
    x = _tridiagonal_solve(np.diag(L, -1), np.diag(L)[:, None] + shift.ravel(), np.diag(L, 1),
                           r.reshape(len(L), -1))
    # stored mode by mode, as the banded solve of the stacked systems returns
    # them: the products below round by the memory layout of their operand
    x = np.moveaxis(x.T.copy().reshape(shift.shape + (len(L),)), -1, 0)
    for _, V in grid.base_eigenbases:
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


# one GMRES cycle per step: its restart length and relative tolerance on
# the true residual |J du - rhs|_2
KRYLOV_RESTART, KRYLOV_RTOL = 10, 1e-6


@dataclass
class _NewtonSystem:
    """One solve's Newton system: the log-chart residual at exponent p,
    radial drift coefficient ``drift`` (the solve's n - p, which its p = 2
    presolve keeps) and interior forcing F_log, and the linear solve of a
    step, by ``_solve_linear`` at p == 2 and otherwise by ``_solve_jacobian``
    on the Jacobian assembled from the residual's coefficient fields, with
    the kept ``splu`` factor ``lu``.  It counts the factorizations taken and
    the GMRES iterations run.  Only p == 2 reads ``drift``: its residual is
    sum_k D2_k u + drift D1_a u - F_log; other p take n - p from the grid."""

    grid: LogGrid
    p: float
    drift: float
    F_log: np.ndarray
    lu: object = None
    factorizations: int = 0
    krylov_iterations: int = 0

    def residual(self, values: np.ndarray, eps_reg: float) -> tuple:
        """(res, lin): the residual at every node, zero on the boundary, and
        its linearization point: the coefficient fields A and B of
        ``operator_terms`` at ``values``, with the derivative fields g and H
        and eps_reg, from which a step forms C and dA; None at p == 2, whose step
        reads no coefficient field."""
        grid = self.grid
        if self.p == 2.0:
            lin = None
            R = sum(grid.apply_stencil(values, k, second_diff) for k in range(grid.n))
            R = R + self.drift * grid.apply_stencil(values, 0, first_diff)
        else:
            R, *lin = divergence_part_field(GridFunction(grid, values, check_finite=False),
                                            self.p, eps_reg)
            lin = (*lin, eps_reg)
        res = R - self.F_log
        res[grid.boundary_mask] = 0.0
        return res, lin

    def step(self, lin: tuple, rhs: np.ndarray) -> np.ndarray:
        """The Newton step: du with J du = rhs for the Jacobian at the
        linearization point ``lin`` from ``residual``, zero on the boundary.
        C = dR/dg and the addition to A's diagonal from the coefficient's
        second-difference term are formed here, so a residual that no step
        reads (a rejected line-search trial, a stage's last iterate) never
        pays for them."""
        if self.p == 2.0:
            return _solve_linear(self.grid, self.drift, rhs)
        A, B, g, H, eps_reg = lin
        C, dA = gradient_coefficient(g, H, self.p, eps_reg, self.grid.h)
        return _solve_jacobian(_assemble_jacobian(self.grid, A + dA, B, C), rhs, self)


def _solve_jacobian(J: sp.csc_matrix, rhs: np.ndarray, system: _NewtonSystem) -> np.ndarray:
    """The solution du of J du = rhs for the interior block J from
    ``_assemble_jacobian``; du is zero on the boundary, whose values are
    data.

    With a kept factor M of an earlier Jacobian, one cycle of right-
    preconditioned GMRES (at most ``KRYLOV_RESTART`` iterations) solves
    J M^-1 y = rhs and du = M^-1 y; right preconditioning puts the
    tolerance on the true residual, |J du - rhs|_2 <= KRYLOV_RTOL |rhs|_2.
    When the cycle misses it, or there is no factor yet, J itself is
    factorized in its own (nested-dissection) order with SuperLU's partial
    pivoting, kept on ``system`` and solved directly; a singular factor
    raises RuntimeError.  The missed factor is freed first, so a solve
    never holds two."""
    _bind_sparse()
    order = system.grid.dissection_order
    b = rhs.ravel()[order]
    du = np.zeros(system.grid.shape)
    lu = system.lu
    if lu is not None:
        def tally(_):
            system.krylov_iterations += 1

        last = []  # the operator's latest (y, M^-1 y)

        def matvec(y):
            last[:] = y.copy(), lu.solve(y)
            return J @ last[1]

        op = spla.LinearOperator(J.shape, matvec=matvec, dtype=float)
        y, info = spla.gmres(op, b, rtol=KRYLOV_RTOL, atol=0.0, restart=KRYLOV_RESTART,
                             maxiter=1, callback=tally, callback_type="pr_norm")
        if info == 0:
            # gmres checks the true residual at the y it returns, so M^-1 y
            # is usually the operator's last solve
            du.flat[order] = (last[1] if last and np.array_equal(last[0], y)
                              else lu.solve(y))
            return du
    # the missed factor goes before SuperLU builds the next, so one is alive
    system.lu = lu = None
    system.lu = spla.splu(J, permc_spec="NATURAL")
    system.factorizations += 1
    du.flat[order] = system.lu.solve(b)
    return du


def _newton_stage(values: np.ndarray, system: _NewtonSystem, eps_reg: float,
                  max_iter: int, target: float) -> tuple:
    """Damped Newton on ``system`` at one eps_reg stage, run until the
    residual's max norm is at most ``target``; returns (values, StageRecord).
    A step reads the linearization that its iterate's residual evaluation
    returned, and a rejected trial step halves the step length.  The record
    counts the stage's factorizations and GMRES iterations and names why the
    stage stopped."""
    start = (system.factorizations, system.krylov_iterations)
    res, lin = system.residual(values, eps_reg)
    if not np.all(np.isfinite(res)):
        raise FloatingPointError("non-finite value in discrete residual")
    norm = float(np.max(np.abs(res)))
    iters = 0
    accepted = True
    while norm > target and iters < max_iter:
        du = system.step(lin, -res)
        lam = 1.0
        accepted = False
        while lam >= 1e-12:
            trial = values + lam * du
            tres, tlin = system.residual(trial, eps_reg)
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
        values, res, lin, norm = trial, tres, tlin, tnorm
    stop = ("converged" if norm <= target else "max_iter" if accepted else "line_search")
    return values, StageRecord(eps_reg=eps_reg, iterations=iters, residual_norm=norm,
                               stop_reason=stop,
                               factorizations=system.factorizations - start[0],
                               krylov_iterations=system.krylov_iterations - start[1])


def solve_dirichlet(prob: PDEProblem, grid: LogGrid, cfg: SolverConfig | None = None,
                    initial: GridFunction | None = None) -> tuple:
    """Solve the Dirichlet problem on the grid; returns (GridFunction, SolveReport).

    Boundary values (including the artificial truncation face) are pinned to
    the problem's Dirichlet sampler.  At p > 2 the p = 2 presolve gives the
    start of one Newton stage at ``cfg.eps_reg_floor``; every stage runs
    until the residual's max norm is at most ``cfg.tol``, and the report is
    converged when the final one is.  A p > 2 stage that misses ``tol``
    climbs: a stage at the geometric midpoint of it and the one before it
    (4 eps before the first, so 2 eps, 4 eps, ...) goes in before it, at
    most 24 per solve.

    An ``initial`` field on the grid's nodes is a warm start: its values,
    with the boundary reset to the Dirichlet data, go through one Newton
    stage at the floor eps to ``tol``, with no presolve or climb.  When
    that stage misses ``tol`` the solve goes on exactly as a solve without
    ``initial`` (a fresh start, a fresh kept factor), and the failed warm
    stage stays first in the report.

    The solve is deterministic; failure to
    converge is reported, never raised.  A radial step beyond the mesh Peclet
    bound, or an ``initial`` on other nodes, raises ValueError; a forcing
    t^p f that is not finite at an interior node, or a residual that turns
    NaN, raises FloatingPointError.
    """
    cfg = cfg or SolverConfig()
    p = prob.p
    _check_peclet(grid, p)
    bmask = grid.boundary_mask
    data = prob.dirichlet_values(grid)[bmask]
    # the residual lives on the interior, so the forcing on the boundary is never read
    F_log = prob.log_forcing(grid, interior_only=True)

    stages: list = []
    if initial is not None:
        if not initial.grid.same_nodes(grid):
            raise ValueError(f"the initial field's grid {initial.grid.shape} does not have "
                             f"the nodes of the solve's grid {grid.shape}")
        values = np.array(initial.values, dtype=float)
        values[bmask] = data
        values, stage = _newton_stage(values, _NewtonSystem(grid, p, grid.n - p, F_log),
                                      cfg.eps_reg_floor, cfg.max_iter, cfg.tol)
        stages.append(stage)
        if stage.residual_norm <= cfg.tol:
            return GridFunction(grid, values), SolveReport(stages, True, stage.residual_norm)

    values = np.zeros(grid.shape)
    values[bmask] = data
    system = _NewtonSystem(grid, p, grid.n - p, F_log)
    if p > 2.0:
        # linearized presolve: the p = 2 system with the target's drift n - p
        values, _ = _newton_stage(values, replace(system, p=2.0),
                                  cfg.eps_reg_floor, cfg.max_iter, cfg.tol)

    # climb stages go in before the stalled one, so the floor stays last; a
    # p = 2 stage reads no eps, so a climb would only redo it
    queue, i = [cfg.eps_reg_floor], 0
    while i < len(queue):
        eps = queue[i]
        values, stage = _newton_stage(values, system, eps, cfg.max_iter, cfg.tol)
        stages.append(stage)
        ref = queue[i - 1] if i else 4.0 * eps
        if stage.residual_norm > cfg.tol and p > 2.0 and len(queue) <= 24 and ref / eps > 1.05:
            queue.insert(i, math.sqrt(ref * eps))
        else:
            i += 1
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
