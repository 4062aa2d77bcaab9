"""The residual algebra of the degenerate p-Laplace operator and everything
built on it: the residual fields the solver drives to zero, the direction
matrix Q, Pucci extremal operators, the sub/supersolution classification of
every node, and the exponential substitution used by the comparison
machinery; and the problem data, ``PDEProblem`` and the one closed-form
field type ``AnalyticField``.

The strong operator, acting on u(t, x) with cone gradient g and cone
Hessian H, is

    t^-p |g|^(p-2) tr(Q H) + t^-p (n-p) |g|^(p-2) g_a - f(t, x),

with Q = I + (p-2) g g^T / |g|^2.  In the log chart the same expression
without the t^-p factor equals

    |g|^(p-2) tr(Q H) + (n-p) |g|^(p-2) g_a - f(e^a, x) e^(a p),

and the two residuals agree after the t^-p scaling.  The coefficient and
Q's denominator read the smoothed magnitude s, s^2 = |g|^2 + r T + eps_reg^2;
Q_d keeps its eigenvalues inside [1, p-1], so the Pucci bracketing survives.
On a grid |g| is the central gradient, which skips u at its own node, so
where it vanishes the node would decouple (a spike); the second-difference
term T = sum_k h_k^2 (D2_k u)^2 / 4, blended in by r = T / (|g|^2 + T),
sees it, and adds only O(h^4) where the gradient is resolved.  The
continuous operator, as of a manufactured forcing, has T = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from conepde.calculus import (
    GridFunction,
    LogGrid,
    gradient_field,
    hessian_field,
)

__all__ = [
    "PDEProblem",
    "PucciParams",
    "TransformParams",
    "q_matrix",
    "pucci_plus",
    "pucci_minus",
    "classify_point",
    "psi",
    "psi_inverse",
    "transformed_residual",
    "gradient_powers",
    "operator_terms",
    "gradient_coefficient",
    "transformed_residual_from_derivs",
    "residual_log_field",
    "divergence_part_field",
    "AnalyticField",
    "constant_field",
    "separable_exponential_field",
    "log_polynomial_field",
    "gridfunction_field",
]

SYMMETRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# problem data

@dataclass(eq=False)
class PDEProblem:
    """Exponent, forcing and Dirichlet data of one Dirichlet problem; its
    dimension is that of the grid it is solved or checked on (``grid.n``).

    ``f`` and ``dirichlet`` are samplers f(t, xs) where t is an array and xs a
    tuple of base-coordinate arrays of the same shape.  ``log_forcing`` is
    the one place that forms the log-chart forcing t^p f.
    """

    p: float
    f: Callable
    dirichlet: Callable

    def __post_init__(self):
        if not 2.0 <= self.p < np.inf:
            raise ValueError("the exponent p must be finite and at least 2")

    def forcing_values(self, grid: LogGrid, interior_only: bool = False) -> np.ndarray:
        """f at every node, evaluated with floating-point warnings silenced.

        Raises FloatingPointError, counting the NaN and the inf nodes, when f
        is not finite at a node (at an interior node if ``interior_only``).
        Since t <= 1 and p >= 2, t^p f is finite exactly where f is.
        """
        with np.errstate(all="ignore"):
            f = np.broadcast_to(self.f(grid.t_field, grid.mesh[1:]), grid.shape).astype(float)
        checked = ~grid.boundary_mask if interior_only else np.ones(grid.shape, bool)
        bad = f[~np.isfinite(f) & checked]
        if bad.size:
            nans = int(np.isnan(bad).sum())
            where = "interior nodes" if interior_only else "nodes"
            raise FloatingPointError(f"forcing t^p f is not finite at {bad.size} {where} "
                                     f"({nans} NaN, {bad.size - nans} inf)")
        return f

    def log_forcing(self, grid: LogGrid, interior_only: bool = False) -> np.ndarray:
        """t^p f = f e^(a p) at every node, checked as in ``forcing_values``."""
        return self.forcing_values(grid, interior_only) * np.exp(grid.mesh[0] * self.p)

    def dirichlet_values(self, grid: LogGrid) -> np.ndarray:
        t = grid.t_field
        return np.broadcast_to(self.dirichlet(t, grid.mesh[1:]), grid.shape).astype(float)


@dataclass(frozen=True)
class AnalyticField:
    """Closed-form field with exact log-chart derivatives: ``value(a, xs)``
    maps a = ln t and base-coordinate arrays of its shape to values, ``grad``
    and ``hess`` return arrays of shape (n, ...) and (n, n, ...) with
    n = 1 + len(xs).  ``field(t, xs)`` samples it, as a ``PDEProblem`` sampler."""

    value: Callable
    grad: Callable
    hess: Callable

    def __call__(self, t, xs):
        return self.value(np.log(np.asarray(t, dtype=float)), xs)


def separable_exponential_field(c: float, q: float, ks) -> AnalyticField:
    """u = c e^(q a + k.x) = c t^q e^(k.x), a missing k_i being 0.  With
    w = (q, k) the gradient is w u and the Hessian w w^T u, whose diagonal
    takes w_i**2 as a float power."""
    c, q, ks = float(c), float(q), [float(k) for k in ks]

    def value(a, xs):
        s = q * np.asarray(a, dtype=float)
        for k, x in zip(ks, xs):
            s = s + k * np.asarray(x, dtype=float)
        return c * np.exp(s)

    def slopes_and_value(a, xs) -> tuple:
        return [q] + (ks + [0.0] * len(xs))[:len(xs)], value(a, xs)

    def grad(a, xs):
        w, u = slopes_and_value(a, xs)
        return np.stack([wi * u for wi in w])

    def hess(a, xs):
        w, u = slopes_and_value(a, xs)
        return np.stack([np.stack([(wi ** 2 if i == j else wi * wj) * u
                                   for j, wj in enumerate(w)]) for i, wi in enumerate(w)])

    return AnalyticField(value=value, grad=grad, hess=hess)


def log_polynomial_field(terms) -> AnalyticField:
    """Polynomial in (a, x) with a = ln t from (coefficient, power_a,
    power_x1, ...) terms, a missing x power being 0.  The derivatives take
    the power rule term by term, and a term whose power of the variable is
    0 drops out of that derivative, so no 0 * inf appears at a = 0."""
    terms = [(float(coef), tuple(float(e) for e in powers)) for coef, *powers in terms]

    def sample(terms, a, xs):
        a = np.asarray(a, dtype=float)
        out = np.zeros_like(a)
        for coef, (pa, *pxs) in terms:
            mono = coef * a ** pa
            for px, x in zip(pxs, xs):
                mono = mono * np.asarray(x, dtype=float) ** px
            out = out + mono
        return out

    def derivative(terms, k) -> list:
        return [(coef * pw[k], pw[:k] + (pw[k] - 1.0,) + pw[k + 1:])
                for coef, pw in terms if k < len(pw) and pw[k] != 0.0]

    def grad(a, xs):
        return np.stack([sample(derivative(terms, k), a, xs) for k in range(1 + len(xs))])

    def hess(a, xs):
        axes = range(1 + len(xs))
        return np.stack([np.stack([sample(derivative(derivative(terms, k), l), a, xs)
                                   for l in axes]) for k in axes])

    return AnalyticField(value=lambda a, xs: sample(terms, a, xs), grad=grad, hess=hess)


def constant_field(c: float) -> AnalyticField:
    return log_polynomial_field([(c, 0.0)])


def gridfunction_field(u: GridFunction) -> Callable:
    """Sampler of a stored grid function.  A coordinate within 4 ulps of 1
    (or of its axis' largest |value|) of a node snaps to that node, so
    ln(e^a) != a still finds it; a query whose every coordinate snapped
    reads the stored values by index, bit for bit, and any other query is
    interpolated multilinearly (extrapolated outside the grid), by an
    interpolator built on the first such query."""
    axes = u.grid.axes
    interp = None

    def snap(q, axis):
        """(the nearest node's index, whether q lies within 4 ulps of it)."""
        i = np.clip(np.searchsorted(axis, q), 1, axis.size - 1)
        j = np.where(q - axis[i - 1] < axis[i] - q, i - 1, i)
        return j, np.abs(q - axis[j]) <= 4.0 * np.spacing(max(1.0, *np.abs(axis)))

    def fn(t, xs):
        nonlocal interp
        coords = [np.log(np.asarray(t, dtype=float))] + [np.asarray(x, dtype=float) for x in xs]
        snaps = [snap(q, axis) for q, axis in zip(coords, axes)]
        if all(np.all(on) for _, on in snaps):
            return u.values[tuple(j for j, _ in snaps)]
        if interp is None:
            from scipy.interpolate import RegularGridInterpolator

            interp = RegularGridInterpolator(axes, u.values, method="linear",
                                             bounds_error=False, fill_value=None)
        return interp(np.stack([np.where(on, axis[j], q) for q, axis, (j, on)
                                in zip(coords, axes, snaps)], axis=-1))
    return fn


# ---------------------------------------------------------------------------
# direction matrix and Pucci operators

def q_matrix(grad: np.ndarray, p: float) -> np.ndarray:
    """Q = I + (p-2) g g^T / |g|^2; eigenvalues are {p-1, 1, ..., 1}."""
    g = np.asarray(grad, dtype=float)
    ng2 = float(g @ g)
    if ng2 == 0.0:
        raise ValueError("direction matrix is undefined at a zero gradient")
    return np.eye(g.size) + (p - 2.0) * np.outer(g, g) / ng2


@dataclass(frozen=True)
class PucciParams:
    """Ellipticity bounds; the p-Laplace direction matrix satisfies
    lam I <= Q <= Lam I with lam = 1 and Lam = p - 1."""

    lam: float = 1.0
    Lam: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise ValueError("need 0 < lam <= Lam")

    @classmethod
    def from_p(cls, p: float) -> "PucciParams":
        return cls(lam=1.0, Lam=max(p - 1.0, 1.0))


def _check_symmetric(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(X - X.T)) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-12")
    return X


def _pucci(eigs: np.ndarray, params: PucciParams, upper: bool) -> np.ndarray:
    """Pucci value from eigenvalues stacked on the last axis."""
    pos = np.sum(np.where(eigs > 0, eigs, 0.0), axis=-1)
    neg = np.sum(np.where(eigs < 0, eigs, 0.0), axis=-1)
    if upper:
        return params.Lam * pos + params.lam * neg
    return params.lam * pos + params.Lam * neg


def pucci_plus(X: np.ndarray, params: PucciParams) -> float:
    """sup of tr(A X) over lam I <= A <= Lam I, via the eigenvalues of X."""
    return float(_pucci(np.linalg.eigvalsh(_check_symmetric(X)), params, True))


def pucci_minus(X: np.ndarray, params: PucciParams) -> float:
    """inf of tr(A X) over lam I <= A <= Lam I."""
    return float(_pucci(np.linalg.eigvalsh(_check_symmetric(X)), params, False))


# ---------------------------------------------------------------------------
# residual algebra

def gradient_powers(g, p: float, eps_reg: float = 0.0, T=0.0) -> tuple:
    """(s2, |g|_d^(p-2), |g|_d^(p-4), r) for g of shape (n, ...) and the
    second-difference term T (...): s2 = |g|_d^2 = G + r T + eps_reg^2 with
    G = |g|^2 and r = T / (G + T), 0 where G + T = 0.

    A zero regularized gradient with p > 2 kills both powers; p == 2 keeps
    the unit coefficient (the operator is linear there) and a zero second one.
    """
    g = np.asarray(g, dtype=float)
    G = np.einsum("k...,k...->...", g, g)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(G + T > 0.0, T / (G + T), 0.0)
    s2 = G + r * T + eps_reg ** 2
    if p == 2.0:
        return s2, np.ones_like(s2), np.zeros_like(s2), r
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(s2 > 0.0, s2 ** ((p - 2.0) / 2.0), 0.0)
        return s2, coef, np.where(s2 > 0.0, coef / s2, 0.0), r


def _second_difference_term(H, h) -> np.ndarray:
    """T = sum_k h_k^2 H_kk^2 / 4 of the Hessian H (n, n, ...) at grid steps h."""
    return sum((0.5 * hk * H[k, k]) ** 2 for k, hk in enumerate(h))


def operator_terms(g, H, p: float, eps_reg: float = 0.0,
                   extremal: str | None = None, T=0.0) -> tuple:
    """The operator R = sum_kl A_kl H_kl + B g_a (no forcing) and two of its
    partial derivatives, as (R, A, B), from derivative arrays g (n, ...)
    and H (n, n, ...), whose leading axis is the dimension n, and T as in
    ``gradient_powers``; the radial drift derivative g_a is g[0].

    A = |g|_d^(p-2) Q_d weighs the Hessian entries (it is also the derivative
    of the flux at fixed |g|_d) and B = (n-p) |g|_d^(p-2) the drift;
    ``gradient_coefficient`` gives C = dR/dg and the rest of dR/dH.  Under
    an ``extremal`` mode ("upper"/"lower") R carries |g|_d^(p-2) times the
    Pucci value of H instead of sum A_kl H_kl.
    """
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    n = g.shape[0]
    s2, coef, inv, _ = gradient_powers(g, p, eps_reg, T)
    eye = np.eye(n).reshape((n, n) + (1,) * s2.ndim)
    A = coef * eye + (p - 2.0) * inv * g[:, None] * g[None, :]
    B = (n - p) * coef
    if extremal is None:
        diffusion = np.einsum("kl...,kl...->...", A, H)
    elif extremal in ("upper", "lower"):
        eigs = np.linalg.eigvalsh(np.moveaxis(H, (0, 1), (-2, -1)))
        diffusion = coef * _pucci(eigs, PucciParams.from_p(p), extremal == "upper")
    else:
        raise ValueError(f"unknown extremal mode {extremal!r}")
    return diffusion + B * g[0], A, B


def gradient_coefficient(g, H, p: float, eps_reg: float, h) -> tuple:
    """(C, dA): C = dR/dg of the ``operator_terms`` operator R at the
    gradient g (n, ...), the Hessian H (n, n, ...) and the grid steps h of
    the second-difference term, B's term on g_a apart, and dA, what s2's
    dependence on H adds to A, zero off its diagonal.  With
    R_s = dR/ds2 = (p-2)/2 (s^(p-4) W + (p-4) s^(p-6) g^T H g) and
    W = tr H + (n-p) g_a, C = 2 g (1 - r^2) R_s + 2 (p-2) s^(p-4) H g and
    dA_kk = R_s r (2 - r) h_k^2 H_kk / 2; both are zero at p == 2."""
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    n = g.shape[0]
    s2, _, inv, r = gradient_powers(g, p, eps_reg, _second_difference_term(H, h))
    Hg = np.einsum("kl...,l...->k...", H, g)
    W = np.einsum("kk...->...", H) + (n - p) * g[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_s2 = np.where(s2 > 0.0, inv / s2, 0.0)
    R_s = 0.5 * (p - 2.0) * (inv * W + (p - 4.0) * inv_s2 * np.einsum("k...,k...->...", g, Hg))
    dA = np.zeros_like(H)
    for k, hk in enumerate(h):
        dA[k, k] = R_s * r * (2.0 - r) * (0.5 * hk * hk) * H[k, k]
    return 2.0 * g * ((1.0 - r * r) * R_s) + 2.0 * (p - 2.0) * inv * Hg, dA


def transformed_residual_from_derivs(z, grad, hess, p: float, log_forcing,
                                     K: float, eps_reg: float = 0.0, T=0.0) -> np.ndarray:
    """Residual of the exponentially substituted equation from the values z
    (...), gradient (n, ...), Hessian (n, n, ...) and second-difference term
    T (...) of the substituted field and the log-chart forcing t^p f (...)."""
    s2 = gradient_powers(grad, p, eps_reg, T)[0]
    return (operator_terms(grad, hess, p, eps_reg, T=T)[0]
            - (p - 1.0) * s2 ** (p / 2.0)
            - log_forcing * np.exp(z * (p - 1.0)) / K ** (p - 1.0))


# ---------------------------------------------------------------------------
# sub/supersolution classification

SUPER_CONSISTENT = "supersolution-consistent"
SUB_CONSISTENT = "subsolution-consistent"
SOLUTION_CONSISTENT = "solution-consistent"
INCONSISTENT = "inconsistent"


def classify_point(u: GridFunction, prob: PDEProblem, eps_reg: float,
                   tol: float) -> np.ndarray:
    """Smooth-point surrogate of the viscosity classification, one label per node.

    A supersolution must keep the lower Pucci residual <= tol, a subsolution
    the upper Pucci residual >= -tol, both in the strong form; both together
    are solution-consistent.
    """
    scale = u.grid.t_field ** -prob.p
    lower_ok = scale * residual_log_field(u, prob, eps_reg, "lower") <= tol
    upper_ok = scale * residual_log_field(u, prob, eps_reg, "upper") >= -tol
    return np.select([lower_ok & upper_ok, lower_ok, upper_ok],
                     [SOLUTION_CONSISTENT, SUPER_CONSISTENT, SUB_CONSISTENT], INCONSISTENT)


# ---------------------------------------------------------------------------
# exponential substitution

@dataclass(frozen=True)
class TransformParams:
    """Scale of the exponential substitution v = K (1 - e^-z); built from a
    bound M on the fields being compared via K = 2 M."""

    K: float

    def __post_init__(self):
        if not self.K > 0.0:
            raise ValueError("substitution scale K must be positive")

    @classmethod
    def from_bound(cls, M: float) -> "TransformParams":
        if not M > 0.0:
            raise ValueError("field bound M must be positive")
        return cls(K=2.0 * M)


def psi(s, params: TransformParams):
    """psi(s) = K (1 - e^-s); strictly increasing onto (-inf, K)."""
    return -params.K * np.expm1(-np.asarray(s, dtype=float))


def psi_inverse(v, params: TransformParams):
    """Inverse of psi on (-inf, K)."""
    v = np.asarray(v, dtype=float)
    if np.any(v >= params.K):
        raise ValueError("psi_inverse is only defined below K")
    return -np.log1p(-v / params.K)


def transformed_residual(z: GridFunction, prob: PDEProblem, params: TransformParams,
                         eps_reg: float = 0.0) -> np.ndarray:
    """Residual of the substituted equation at every node of the z field."""
    g = gradient_field(z)
    H = hessian_field(z, g)
    return transformed_residual_from_derivs(z.values, g, H, prob.p,
                                            prob.log_forcing(z.grid), params.K, eps_reg,
                                            _second_difference_term(H, z.grid.h))


# ---------------------------------------------------------------------------
# vectorized residual fields (shared with the solver)

def divergence_part_field(u: GridFunction, p: float, eps_reg: float = 0.0,
                          extremal: str | None = None) -> tuple:
    """(R, A, B, g, H): ``operator_terms`` of u at every node with the
    grid's second-difference term, R the operator |g|_d^(p-2) (tr(Q_d H) +
    (n-p) g_a) at n = ``u.grid.n`` (no forcing term) or its ``extremal``
    mode, then the derivative fields g and H it read."""
    g = gradient_field(u)
    H = hessian_field(u, g)
    return (*operator_terms(g, H, p, eps_reg, extremal, _second_difference_term(H, u.grid.h)),
            g, H)


def residual_log_field(u: GridFunction, prob: PDEProblem, eps_reg: float = 0.0,
                       extremal: str | None = None) -> np.ndarray:
    """Log-chart residual at every node (boundary rows use one-sided
    stencils); t^-p times it is the strong-form residual.  An ``extremal``
    mode replaces the diffusion by the Pucci value, as in ``operator_terms``."""
    R = divergence_part_field(u, prob.p, eps_reg, extremal)[0]
    return R - prob.log_forcing(u.grid)
