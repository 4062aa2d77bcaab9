"""Slow reference implementations that the tests compare the package against.

They are the pointwise forms of code the package evaluates on whole fields or
in closed form: per-node difference stencils, the grid's difference
operators as Kronecker-built sparse matrices, the per-point residual algebra,
the full-grid Newton Jacobian as a sum of weighted grid operators, its
interior block assembled from the stencils on every call and from the
coefficient fields in dissection order, the block recovered from a Jacobian
operator's action by probing, the recursive nested-dissection numbering,
the p = 2 Newton step as one banded LAPACK solve, the Newton step that
factorizes every Jacobian afresh, the preconditioned GMRES cycle as scipy's
``gmres`` on a ``LinearOperator``, the halving eps continuation that one
floor stage replaced, the grid-function writers that format and pack value
by value, the per-node boundary distance, the all-pairs ball supremum of the
forcing, the min-plus passes as dense scans of every partner on the axis,
the all-pairs loops of the regularizations, the doubling diagnostic and the
Hoelder seminorm, and the closed-form fields written out kind by kind.
Nothing here is imported by the package itself.
"""

import dataclasses
import math
import struct
import weakref

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from conepde import solver
from conepde.calculus import (GridFunction, first_diff, gradient_field, hessian_field,
                              second_diff)
from conepde.operators import (PucciParams, gradient_coefficient, operator_terms, pucci_minus,
                               pucci_plus)


# ---------------------------------------------------------------------------
# per-node difference stencils

def _line(values, node, axis):
    idx = list(node)
    idx[axis] = slice(None)
    return values[tuple(idx)], node[axis]


def first_diff_at(values, node, axis, h):
    line, i = _line(values, node, axis)
    m = line.size
    if 0 < i < m - 1:
        return (line[i + 1] - line[i - 1]) / (2.0 * h)
    if i == 0:
        return (-3.0 * line[0] + 4.0 * line[1] - line[2]) / (2.0 * h)
    return (3.0 * line[-1] - 4.0 * line[-2] + line[-3]) / (2.0 * h)


def second_diff_at(values, node, axis, h):
    line, i = _line(values, node, axis)
    m = line.size
    if 0 < i < m - 1:
        return (line[i + 1] - 2.0 * line[i] + line[i - 1]) / h**2
    if m < 4:
        j = 1 if i == 0 else m - 2
        return (line[j + 1] - 2.0 * line[j] + line[j - 1]) / h**2
    if i == 0:
        return (2.0 * line[0] - 5.0 * line[1] + 4.0 * line[2] - line[3]) / h**2
    return (2.0 * line[-1] - 5.0 * line[-2] + 4.0 * line[-3] - line[-4]) / h**2


def cross_diff_at(values, node, ax1, ax2, h1, h2):
    """D1(D2 u): the ax1 first-difference stencil applied to pointwise ax2
    first differences."""
    i = node[ax1]
    m = values.shape[ax1]

    def d2_at(j):
        nd = list(node)
        nd[ax1] = j
        return first_diff_at(values, tuple(nd), ax2, h2)

    if 0 < i < m - 1:
        return (d2_at(i + 1) - d2_at(i - 1)) / (2.0 * h1)
    if i == 0:
        return (-3.0 * d2_at(0) + 4.0 * d2_at(1) - d2_at(2)) / (2.0 * h1)
    return (3.0 * d2_at(m - 1) - 4.0 * d2_at(m - 2) + d2_at(m - 3)) / (2.0 * h1)


def pointwise_gradient(u, node):
    node = tuple(node)
    h = u.grid.h
    return np.array([first_diff_at(u.values, node, k, h[k]) for k in range(u.grid.n)])


def pointwise_hessian(u, node):
    node = tuple(node)
    n, h = u.grid.n, u.grid.h
    H = np.empty((n, n))
    for k in range(n):
        H[k, k] = second_diff_at(u.values, node, k, h[k])
        for l in range(k + 1, n):
            H[k, l] = H[l, k] = 0.5 * (
                cross_diff_at(u.values, node, k, l, h[k], h[l])
                + cross_diff_at(u.values, node, l, k, h[l], h[k]))
    return H


# ---------------------------------------------------------------------------
# per-point residual algebra

def pointwise_magnitude2(grad, hess, h, eps_reg):
    """|g|_d^2 at one node: |g|^2 + T^2 / (|g|^2 + T) + eps_reg^2 with
    T = sum_k (h_k H_kk / 2)^2, the second differences blended in where
    the gradient is small; h = None is the continuous operator, T = 0."""
    g = np.asarray(grad, dtype=float)
    G = float(g @ g)
    T = 0.0 if h is None else sum((0.5 * hk * hess[k][k]) ** 2 for k, hk in enumerate(h))
    return G + (T * T / (G + T) if G + T > 0.0 else 0.0) + eps_reg ** 2


def pointwise_diffusion(grad, hess, p, eps_reg, extremal=None, h=None):
    """(|g|_d^(p-2) * tr-like term, |g|_d^(p-2)); tr-like is tr(Q_d H) or the
    upper/lower Pucci value of H, and |g|_d that of ``pointwise_magnitude2``
    at the grid steps h."""
    g = np.asarray(grad, dtype=float)
    H = np.asarray(hess, dtype=float)
    s2 = pointwise_magnitude2(g, H, h, eps_reg)
    if p == 2.0:
        coef = 1.0
    elif s2 == 0.0:
        return 0.0, 0.0
    else:
        coef = s2 ** ((p - 2.0) / 2.0)
    if extremal is None:
        tr_like = float(np.trace(H))
        if p != 2.0:
            tr_like += (p - 2.0) * float(g @ H @ g) / s2
    elif extremal == "upper":
        tr_like = pucci_plus(H, PucciParams.from_p(p))
    else:
        tr_like = pucci_minus(H, PucciParams.from_p(p))
    return coef * tr_like, coef


def pointwise_residual_log(u, node, prob, eps_reg=0.0, extremal=None):
    """Log-chart residual at one node from the per-node stencils."""
    node = tuple(node)
    a = float(u.grid.a[node[0]])
    xs = tuple(np.asarray(ax[i]) for ax, i in zip(u.grid.xs, node[1:]))
    fval = float(np.asarray(prob.f(np.asarray(math.exp(a)), xs)))
    g = pointwise_gradient(u, node)
    diff, coef = pointwise_diffusion(g, pointwise_hessian(u, node), prob.p, eps_reg,
                                     extremal, u.grid.h)
    return diff + (u.grid.n - prob.p) * coef * float(g[0]) - fval * math.exp(a * prob.p)


# ---------------------------------------------------------------------------
# closed-form fields, kind by kind

def tpower_field(kappa, n):
    """(value, grad, hess) of u = t^kappa = e^(kappa a) in the log chart."""
    def value(a, xs):
        return np.exp(kappa * np.asarray(a, dtype=float))

    def grad(a, xs):
        a = np.asarray(a, dtype=float)
        g = np.zeros((n,) + a.shape)
        g[0] = kappa * np.exp(kappa * a)
        return g

    def hess(a, xs):
        a = np.asarray(a, dtype=float)
        H = np.zeros((n, n) + a.shape)
        H[0, 0] = kappa**2 * np.exp(kappa * a)
        return H

    return value, grad, hess


def logt_field(n):
    """(value, grad, hess) of u = ln t = a."""
    def value(a, xs):
        return np.asarray(a, dtype=float).copy()

    def grad(a, xs):
        a = np.asarray(a, dtype=float)
        g = np.zeros((n,) + a.shape)
        g[0] = 1.0
        return g

    def hess(a, xs):
        return np.zeros((n, n) + np.asarray(a, dtype=float).shape)

    return value, grad, hess


def quadratic_field(n, coef_a=1.0, coef_x=1.0):
    """(value, grad, hess) of u = coef_a a^2 + coef_x sum x_i^2."""
    def value(a, xs):
        a = np.asarray(a, dtype=float)
        out = coef_a * a**2
        for x in xs:
            out = out + coef_x * np.asarray(x, dtype=float) ** 2
        return out

    def grad(a, xs):
        a = np.asarray(a, dtype=float)
        g = np.zeros((n,) + a.shape)
        g[0] = 2.0 * coef_a * a
        for k, x in enumerate(xs):
            g[1 + k] = 2.0 * coef_x * np.asarray(x, dtype=float)
        return g

    def hess(a, xs):
        a = np.asarray(a, dtype=float)
        H = np.zeros((n, n) + a.shape)
        H[0, 0] = 2.0 * coef_a
        for k in range(n - 1):
            H[1 + k, 1 + k] = 2.0 * coef_x
        return H

    return value, grad, hess


def exp_sampler(c, t_power, x_coeffs):
    """f(t, x) = c t^q prod_i exp(k_i x_i), a (t, x) sampler."""
    def fn(t, xs):
        out = c * np.asarray(t, dtype=float) ** t_power
        for k, x in zip(x_coeffs, xs):
            out = out * np.exp(k * np.asarray(x, dtype=float))
        return out
    return fn


def poly_sampler(terms):
    """Polynomial in (a, x), a = ln t, from (coefficient, power_a,
    power_x1, ...) terms; a (t, x) sampler."""
    def fn(t, xs):
        a = np.log(np.asarray(t, dtype=float))
        out = np.zeros_like(a)
        for coef, pa, *pxs in terms:
            mono = coef * a ** pa
            for px, x in zip(pxs, xs):
                mono = mono * np.asarray(x, dtype=float) ** px
            out = out + mono
        return out
    return fn


# ---------------------------------------------------------------------------
# Newton Jacobian on the full grid

def coefficient_fields(values, grid, p, eps_reg):
    """The coefficient fields (A, B, C) of the Jacobian at ``values``, which
    a Newton step of ``solver._NewtonSystem`` assembles from the
    linearization point its residual returns: A and B of ``operator_terms``
    with the grid's second-difference term, A plus the dA of
    ``gradient_coefficient``, and its C."""
    u = GridFunction(grid, values, check_finite=False)
    g, H = gradient_field(u), hessian_field(u)
    T = sum((0.5 * hk * H[k, k]) ** 2 for k, hk in enumerate(grid.h))
    A, B = operator_terms(g, H, p, eps_reg, T=T)[1:]
    C, dA = gradient_coefficient(g, H, p, eps_reg, grid.h)
    return A + dA, B, C


def _along_axis(shape, axis, D):
    """The 1D operator D applied along one axis of row-major flattened values."""
    inner = sp.kron(D, sp.identity(math.prod(shape[axis + 1:])))
    return sp.kron(sp.identity(math.prod(shape[:axis])), inner, format="csr")


# sparse_difference_ops per grid, built once and freed with the grid
_SPARSE_OPS = weakref.WeakKeyDictionary()


def sparse_difference_ops(grid):
    """(first, hessian): the grid's difference stencils as sparse matrices on
    the flattened values, each 1D stencil matrix tensorized per axis and
    built once per grid.  ``first`` holds the first differences D_k per
    axis, ``hessian`` the operators of the Hessian entries (k, l), k <= l,
    in row-major order: second differences on the diagonal, the products
    D_k D_l off it.  They are the reference for ``LogGrid.apply_stencil``
    and ``LogGrid.interior_pattern``, which keep only the 1D weights."""
    if grid in _SPARSE_OPS:
        return _SPARSE_OPS[grid]

    def op(axis, stencil):
        return _along_axis(grid.shape, axis, sp.csr_matrix(grid.stencil_matrix(axis, stencil)))

    first = tuple(op(k, first_diff) for k in range(grid.n))
    hessian = {}
    for k in range(grid.n):
        hessian[(k, k)] = op(k, second_diff)
        hessian.update({(k, l): first[k] @ first[l] for l in range(k + 1, grid.n)})
    _SPARSE_OPS[grid] = first, hessian
    return first, hessian


def full_jacobian(grid, A, B, C):
    """Jacobian of the log-chart residual w.r.t. every node value at the
    coefficient fields A, B, C, in flat node order: identity rows on the
    boundary, and on the interior rows sum_kl diag(A_kl) H_kl +
    sum_k diag(C_k) G_k + diag(B) G_0 over the grid's Hessian and
    first-difference operators.  Its interior rows are the operator of
    ``solver._jacobian_operator``, and its interior rows and columns the
    block ``solver._assemble_jacobian`` gathers from it."""
    first, hessian = sparse_difference_ops(grid)
    terms = [((1.0 if k == l else 2.0) * A[k, l], op) for (k, l), op in hessian.items()]
    terms += list(zip(C, first)) + [(B, first[0])]
    bmask = grid.boundary_mask.ravel()
    J = sum(sp.diags(np.where(bmask, 0.0, c.ravel())) @ op for c, op in terms)
    return (J + sp.diags(bmask.astype(float))).tocsr()


def _row_stencils(grid, ops):
    """(offsets, W): the flat column offsets that the operators reach on
    interior rows, ascending, and W[t, o], operator t's weight at offset o,
    read off the row of the first interior node in dissection order."""
    order = grid.dissection_order
    stencils = [op[order[0]].tocoo() for op in ops]
    cols = np.unique(np.concatenate([st.col for st in stencils]))
    W = np.zeros((len(ops), cols.size))
    for t, st in enumerate(stencils):
        W[t, np.searchsorted(cols, st.col)] = st.data
    return cols - order[0], W


def sparse_interior_pattern(grid):
    """(weights, gather, indices, indptr) of ``LogGrid.interior_pattern``
    read off the operators of ``sparse_difference_ops``, the Hessian's and
    then the first differences: the stencils of one interior row, their
    (row, offset) products in row-major order with the boundary columns
    dropped, and a stable sort by column."""
    first, hessian = sparse_difference_ops(grid)
    offsets, weights = _row_stencils(grid, [*hessian.values(), *first])
    order = grid.dissection_order
    rank = np.full(math.prod(grid.shape), -1)
    rank[order] = np.arange(order.size)
    cols = rank[order[:, None] + offsets].ravel()
    inner = np.flatnonzero(cols >= 0)
    gather = inner[np.argsort(cols[inner], kind="stable")]
    counts = np.bincount(cols[inner], minlength=order.size)
    return weights, gather, gather // offsets.size, np.concatenate([[0], np.cumsum(counts)])


def coo_interior_block(grid, A, B, C):
    """The interior block of ``full_jacobian`` built from scratch: each
    operator's stencil read off one interior row, the (row, offset) products
    with the boundary columns dropped, and a COO to CSC conversion.  It is
    the reference for ``solver._assemble_jacobian``, which keeps the pattern
    on the grid; the two agree bit for bit."""
    first, hessian = sparse_difference_ops(grid)
    pairs = [(op, A[k, l] * (1.0 if k == l else 2.0)) for (k, l), op in hessian.items()]
    pairs += list(zip(first, C))
    pairs.append((first[0], B))
    order = grid.dissection_order
    offsets, W = _row_stencils(grid, [op for op, _ in pairs])
    data = np.stack([c.ravel()[order] for _, c in pairs], axis=1) @ W
    rank = np.full(math.prod(grid.shape), -1)
    rank[order] = np.arange(order.size)
    cols = rank[order[:, None] + offsets]
    inner = cols >= 0
    rows = np.broadcast_to(np.arange(order.size)[:, None], cols.shape)[inner]
    return sp.csc_matrix((data[inner], (rows, cols[inner])), shape=(order.size, order.size))


def ordered_interior_block(grid, A, B, C):
    """The interior block of ``full_jacobian`` in ``grid.dissection_order``,
    assembled straight from the coefficient fields: the coefficient columns
    gathered in dissection order, one product with the weights of
    ``grid.interior_pattern`` and one gather into CSC data order.  It is
    the reference for ``solver._assemble_jacobian``, which gathers the same
    products from the natural-order rows of ``solver._jacobian_operator``;
    the two agree bit for bit."""
    pattern, order = grid.interior_pattern, grid.dissection_order
    pairs = [(k, l) for k in range(grid.n) for l in range(k, grid.n)]
    coeffs = [A[k, l] * (1.0 if k == l else 2.0) for k, l in pairs]
    coeffs += [*C, B]
    h = len(pairs)
    weights = pattern.weights[[*range(h + grid.n), h]]
    data = np.stack([c.ravel()[order] for c in coeffs], axis=1) @ weights
    return sp.csc_matrix((data.ravel()[pattern.gather], pattern.indices, pattern.indptr),
                         shape=(order.size, order.size))


def probed_interior_block(J, grid):
    """The interior block of the operator J (``J @ v`` for a flattened
    full-grid v), rows and columns in natural order, recovered from J's
    action alone by Curtis-Powell-Reid probing (J. Inst. Math. Appl. 13,
    1974): every interior row reaches at most one step either way along
    each axis, so among the nodes of one colour (i_k mod 3 on every axis) it
    reaches at most one, and J times that colour's interior indicator reads
    off the entry.  Each row lists its whole 3^n neighbourhood, structural zeros
    included."""
    interior = np.flatnonzero(~grid.boundary_mask.ravel())
    rank = np.full(math.prod(grid.shape), -1)
    rank[interior] = np.arange(interior.size)
    index = np.indices(grid.shape).reshape(grid.n, -1)
    colour = sum((index[k] % 3) * 3**k for k in range(grid.n))
    probes = np.stack([J @ np.where((colour == c) & (rank >= 0), 1.0, 0.0)
                       for c in range(3**grid.n)])
    rows, cols, data = [], [], []
    strides = [math.prod(grid.shape[k + 1:]) for k in range(grid.n)]
    for shift in np.ndindex(*(3,) * grid.n):
        col = interior + sum((d - 1) * st for d, st in zip(shift, strides))
        keep = rank[col] >= 0
        rows.append(rank[interior[keep]])
        cols.append(rank[col[keep]])
        data.append(probes[colour[col[keep]], interior[keep]])
    return sp.csc_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(interior.size, interior.size))


def recursive_dissection_order(grid):
    """``LogGrid.dissection_order`` by plain recursion on views of the
    interior box, one call per box: the reference for the grid's numbering,
    which numbers each box shape once."""
    order = []

    def number(box):
        axis = int(np.argmax(box.shape))
        if box.shape[axis] < 3:
            order.append(box.ravel())
            return
        box = np.moveaxis(box, axis, 0)
        mid = box.shape[0] // 2
        number(box[:mid])
        number(box[mid + 1:])
        order.append(box[mid].ravel())

    number(np.arange(math.prod(grid.shape)).reshape(grid.shape)[(slice(1, -1),) * grid.n])
    return np.concatenate(order)


def stacked_banded_solve(lower, diag, upper, rhs):
    """``solver._tridiagonal_solve``'s systems stacked into one banded
    matrix, zero couplings between them, and solved by
    ``scipy.linalg.solve_banded((1, 1), ...)``, i.e. LAPACK's dgtsv."""
    m, count = diag.shape
    bands = np.zeros((3, count, m))
    bands[0, :, 1:] = upper
    bands[1] = diag.T
    bands[2, :, :-1] = lower
    return solve_banded((1, 1), bands.reshape(3, -1), rhs.T.ravel()).reshape(count, m).T


def banded_linear_solve(grid, drift, rhs):
    """The p = 2 Newton step of ``solver._solve_linear`` with the tridiagonal
    systems of all base modes built as the bands of one matrix and solved
    by one ``solve_banded`` call: the reference for its numpy
    elimination."""
    inner = (slice(1, -1),) * grid.n
    r = rhs[inner]
    shift = np.zeros(())
    for lam, V in grid.eigenbases[1:]:
        r = np.tensordot(r, V, axes=([1], [0]))
        shift = np.add.outer(shift, lam)
    L = (grid.stencil_matrix(0, second_diff)
         + drift * grid.stencil_matrix(0, first_diff))[1:-1, 1:-1]
    m = L.shape[0]
    bands = np.zeros((3, shift.size, m))
    bands[0, :, 1:] = np.diag(L, 1)
    bands[1] = np.diag(L) + shift.reshape(-1, 1)
    bands[2, :, :-1] = np.diag(L, -1)
    x = solve_banded((1, 1), bands.reshape(3, -1), np.moveaxis(r, 0, -1).ravel())
    x = np.moveaxis(x.reshape(shift.shape + (m,)), -1, 0)
    for _, V in grid.eigenbases[1:]:
        x = np.tensordot(x, V, axes=([1], [1]))
    du = np.zeros(grid.shape)
    du[inner] = x
    return du


def refactorized_solve(J, rhs, system, eta, precondition=None):
    """The p != 2 Newton step with a fresh ``splu`` factor on every call of
    the interior block of the operator J, recovered from J's action
    (``probed_interior_block``) in natural order: the reference for
    ``solver._solve_jacobian``, which reuses a kept factor or takes a
    fast-diagonalization cycle to the forcing term ``eta`` (neither
    ``eta`` nor ``precondition`` is read).  ``rhs`` is
    read on the interior nodes and du is zero on the boundary.  It stores
    the factor and counts it on ``system``, so a solve's stage records
    still add up."""
    interior = np.flatnonzero(~system.grid.boundary_mask.ravel())
    system.lu = spla.splu(probed_interior_block(J, system.grid))
    system.factorizations += 1
    du = np.zeros(system.grid.shape)
    du.flat[interior] = system.lu.solve(rhs.ravel()[interior])
    return du


def scipy_gmres_cycle(J, b, precondition):
    """One cycle of scipy's ``gmres`` (at most ``solver.KRYLOV_RESTART``
    iterations, relative tolerance ``solver.KRYLOV_RTOL``) on the right-
    preconditioned operator J M^-1 with M^-1 = ``precondition``: (x = M^-1
    y, iterations, info), the reference for ``solver._fgmres`` on a kept
    factor, which is the same method in exact arithmetic."""
    iterations = []
    op = spla.LinearOperator((b.size, b.size), matvec=lambda y: J @ precondition(y),
                             dtype=float)
    y, info = spla.gmres(op, b, rtol=solver.KRYLOV_RTOL, atol=0.0,
                         restart=solver.KRYLOV_RESTART, maxiter=1,
                         callback=iterations.append, callback_type="pr_norm")
    return precondition(y), len(iterations), info


def halving_schedule(prob, grid, cfg=None, eps_start=0.1):
    """``solver.solve_dirichlet`` along a halving eps continuation at p: the
    p = 2 presolve, then stages at eps_start, eps_start / 2, ... down to
    exactly ``cfg.eps_reg_floor``, each run to ``cfg.tol``, where a stage
    that misses tol first inserts the geometric midpoint of it and the
    stage before it (at most 24 per solve): the reference for the solve's
    ladder in p.  One Newton system at p serves every stage, with its
    ``eps_reg`` set per stage, so a kept factor carries over.  Returns
    (GridFunction, SolveReport)."""
    cfg = cfg or solver.SolverConfig()
    p = prob.p
    solver._check_peclet(grid, p)
    values = np.zeros(grid.shape)
    bmask = grid.boundary_mask
    values[bmask] = prob.dirichlet_values(grid)[bmask]
    system = solver._NewtonSystem(grid, p, grid.n - p,
                                  prob.log_forcing(grid, interior_only=True), eps_start)
    queue = [cfg.eps_reg_floor]
    if p > 2.0:
        presolve = dataclasses.replace(system, p=2.0)
        values, _ = solver._newton_stage(values, presolve, cfg.max_iter, cfg.tol)
        while eps_start > cfg.eps_reg_floor:
            queue.insert(-1, eps_start)
            eps_start *= 0.5
    stages, prev_eps, insertions, i = [], None, 0, 0
    while i < len(queue):
        system.eps_reg = eps = queue[i]
        values, stage = solver._newton_stage(values, system, cfg.max_iter, cfg.tol)
        stages.append(stage)
        norm = stage.residual_norm
        if norm > cfg.tol and p > 2.0:
            ref = prev_eps if prev_eps is not None else 4.0 * eps
            if insertions < 24 and ref / eps > 1.05:
                queue.insert(i, math.sqrt(ref * eps))
                insertions += 1
                continue
        prev_eps = eps
        i += 1
    return GridFunction(grid, values), solver.SolveReport(
        stages=stages, converged=bool(norm <= cfg.tol), final_residual=norm)


# ---------------------------------------------------------------------------
# grid-function files, one value at a time

def _header(grid):
    head = [str(grid.n), str(grid.a.size)] + [str(x.size) for x in grid.xs]
    head += [f"{grid.a[0]:.17g}", f"{grid.domain.t_min:.17g}"]
    for xs in grid.xs:
        head += [f"{xs[0]:.17g}", f"{xs[-1]:.17g}"]
    head.append(f"{grid.a[-1]:.17g}")
    return ",".join(head)


def write_gridfunction_per_value(path, u):
    """The text format that preceded the binary one, each numpy value
    formatted on its own at 17 significant digits: the reference for the
    text files that ``calculus.read_gridfunction`` still reads."""
    lines = [_header(u.grid)] + [f"{v:.17g}" for v in u.values.ravel()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_gridfunction_binary_per_value(path, u):
    """``calculus.write_gridfunction`` packing each value on its own: the
    tagged header line, then ``struct.pack("<d", v)`` per value in row-major
    order."""
    with open(path, "wb") as fh:
        fh.write(("f8le," + _header(u.grid) + "\n").encode())
        for v in u.values.ravel():
            fh.write(struct.pack("<d", v))


# ---------------------------------------------------------------------------
# forcing supremum over per-node balls

def ball_sup_forcing(grid, weight_values, p, radius_field, chunk=int(5e6)):
    """sup over nodes z of the sup of ``weight_values`` over the metric ball
    of per-node radius around z, raised to 1/(p-1); all node pairs."""
    pts = grid.log_points
    w = weight_values.ravel()
    r = radius_field.ravel()
    m = pts.shape[0]
    best = 0.0
    step = max(1, chunk // max(m, 1))
    for start in range(0, m, step):
        stop = min(start + step, m)
        d2 = np.sum((pts[start:stop, None, :] - pts[None, :, :]) ** 2, axis=2)
        inside = d2 <= (r[start:stop, None]) ** 2
        sup = np.max(np.where(inside, w[None, :], -np.inf), axis=1)
        best = max(best, float(np.max(sup)))
    return best ** (1.0 / (p - 1.0)) if best > 0.0 else 0.0


# ---------------------------------------------------------------------------
# all-pairs regularizations and pair maximization

def _pair_d2(pts, start, stop):
    return np.sum((pts[start:stop, None, :] - pts[None, :, :]) ** 2, axis=2)


def min_plus(values, axis_coords, eps):
    """``regularization._min_plus`` as a dense scan: each 1D pass, last
    axis first, forms the candidate of every partner on its axis and keeps
    the minimum and the first minimizer; the passes read back from axis 0
    give the lex-smallest argmin."""
    f = values
    firsts = []
    for axis in reversed(range(values.ndim)):
        c = axis_coords[axis]
        cand = np.moveaxis(f, axis, -1)[..., None, :] + (c[:, None] - c) ** 2 / (2.0 * eps)
        f = np.moveaxis(cand.min(axis=-1), -1, axis)
        firsts.insert(0, np.moveaxis(cand.argmin(axis=-1), -1, axis))
    z = tuple(np.indices(values.shape))
    w = ()
    for axis, first in enumerate(firsts):
        w += (first[w + z[axis:]],)
    return f, w


def inf_convolution(u, eps, window=None, chunk=int(5e6)):
    """min over nodes w within ``window`` (default: the lossless support
    radius 2 sqrt(sup|u| eps)) of u(w) + d(z, w)^2 / (2 eps), flattened."""
    pts = u.grid.log_points
    vals = u.values.ravel()
    r = 2.0 * math.sqrt(float(np.max(np.abs(vals))) * eps) if window is None else window
    out = np.empty_like(vals)
    m = pts.shape[0]
    step = max(1, chunk // max(m, 1))
    for start in range(0, m, step):
        stop = min(start + step, m)
        d2 = _pair_d2(pts, start, stop)
        cand = vals[None, :] + d2 / (2.0 * eps)
        cand[d2 > r * r] = np.inf
        out[start:stop] = np.min(cand, axis=1)
    return out.reshape(u.grid.shape)


def ball_max(grid, values, radius, cap=False, chunk=int(5e6)):
    """Per node z, the max over nodes w with d(z, w) <= radius of values(w),
    plus sqrt(radius^2 - d^2) with ``cap``, and d(z, w) at the first
    maximizing w in flat order."""
    pts = grid.log_points
    vals = values.ravel()
    m = pts.shape[0]
    out = np.empty(m)
    offs = np.empty(m)
    step = max(1, chunk // max(m, 1))
    for start in range(0, m, step):
        stop = min(start + step, m)
        d2 = _pair_d2(pts, start, stop)
        bonus = np.sqrt(np.maximum(radius * radius - d2, 0.0)) if cap else 0.0
        cand = np.where(d2 <= radius * radius, vals[None, :] + bonus, -np.inf)
        best = np.argmax(cand, axis=1)
        rows = np.arange(stop - start)
        out[start:stop] = cand[rows, best]
        offs[start:stop] = np.sqrt(d2[rows, best])
    return out.reshape(grid.shape), offs.reshape(grid.shape)


def doubling(z1, z2, alpha, chunk=int(5e6)):
    """(M_alpha, (z flat index, w flat index)): the max over all node pairs
    of z1(z) - z2(w) - (alpha/2) d(z, w)^2, ties broken lexicographically."""
    pts = z1.grid.log_points
    a1 = z1.values.ravel()
    a2 = z2.values.ravel()
    m = pts.shape[0]
    step = max(1, chunk // max(m, 1))
    best, pair = -math.inf, (0, 0)
    for start in range(0, m, step):
        stop = min(start + step, m)
        val = a1[start:stop, None] - a2[None, :] - 0.5 * alpha * _pair_d2(pts, start, stop)
        i, j = np.unravel_index(int(np.argmax(val)), val.shape)
        if val[i, j] > best:
            best, pair = float(val[i, j]), (start + int(i), int(j))
    return best, pair


def hoelder_norm(u, rho, chunk=int(1e6)):
    """sup |u| plus the max over all node pairs of |u(z) - u(w)| / d(z, w)^rho."""
    pts = u.grid.log_points
    vals = u.values.ravel()
    m = pts.shape[0]
    semi = 0.0
    step = max(1, chunk // max(m, 1))
    for start in range(0, m - 1, step):
        stop = min(start + step, m - 1)
        d2 = _pair_d2(pts, start, stop)
        dv = np.abs(vals[start:stop, None] - vals[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = dv / np.sqrt(d2) ** rho
        q[d2 == 0.0] = 0.0
        semi = max(semi, float(np.max(q)))
    return float(np.max(np.abs(vals))) + semi


# ---------------------------------------------------------------------------
# boundary distance per node

def boundary_distance_field(grid):
    """Distance of each node to the analytic boundary, in the cone metric."""
    A = grid.mesh[0]
    d = grid.domain.a_max - A
    for k in range(grid.n - 1):
        X = grid.mesh[1 + k]
        d = np.minimum(d, X - grid.domain.base_lo[k])
        d = np.minimum(d, grid.domain.base_hi[k] - X)
    if grid.domain.bottom_is_boundary:
        d = np.minimum(d, A - grid.domain.a_min)
    return np.maximum(d, 0.0)
