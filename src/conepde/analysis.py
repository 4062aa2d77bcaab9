"""Empirical verification harness for the operator's structural estimates:
the interior bound by boundary data plus forcing, weighted Hoelder
continuity, weak and local Harnack ratios, oscillation decay, the
comparison principle with its pair-maximization diagnostic, and the
weak-form residual.

All constants are empirical: checks report the minimal constant making the
corresponding inequality an equality, and acceptance asserts stability of
those constants across refinement rather than absolute values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from conepde.calculus import (
    GridFunction,
    LogGrid,
    gradient_field,
    hoelder_norm,
    quadrature_weights,
)
from conepde.geometry import ConeDomain
from conepde.operators import PDEProblem, gradient_powers
from conepde.regularization import _min_plus

__all__ = [
    "AbpReport",
    "abp_check",
    "HoelderReport",
    "hoelder_check",
    "empirical_alpha1",
    "HarnackReport",
    "harnack_radius_bound",
    "harnack_ratio",
    "weak_harnack_check",
    "OscillationReport",
    "oscillation_decay",
    "ComparisonReport",
    "comparison_check",
    "DoublingDiagnostic",
    "doubling_diagnostic",
    "CosineBump",
    "cosine_bumps",
    "weak_form_residual",
]


# ---------------------------------------------------------------------------
# shared helpers

def _sup_forcing(weight_values: np.ndarray, p: float) -> float:
    """Global sup of ``weight_values`` (t^p f) over the grid, raised to
    1/(p-1); 0 when it is not positive."""
    best = float(np.max(weight_values))
    return best ** (1.0 / (p - 1.0)) if best > 0.0 else 0.0


def _ball_mask(grid: LogGrid, center: np.ndarray, radius: float) -> np.ndarray:
    """Nodes strictly inside the metric ball about the log-chart point ``center``."""
    d2 = np.sum((grid.log_points - center) ** 2, axis=1)
    return (d2 < radius * radius).reshape(grid.shape)


def _require_same_grid(u: GridFunction, v: GridFunction) -> None:
    if not u.grid.same_nodes(v.grid):
        raise ValueError("fields must share a grid")


def _require_ball_resolved(mask: np.ndarray, what: str) -> None:
    if not np.any(mask):
        raise ValueError(f"{what} contains no grid nodes; refine the grid")


# ---------------------------------------------------------------------------
# interior bound by boundary data plus forcing

@dataclass
class AbpReport:
    """Constituents of the interior-sup estimate for one orientation.

    ``variant`` is "subsolution" (positive part against the negative part of
    the forcing) or "two-sided" (absolute values on both sides).  ``forcing``
    is the global sup over the grid of the matching part of t^p f, raised to
    1/(p-1).  The empirical constant makes the inequality an equality;
    ``holds_with`` re-evaluates it for any reference constant.
    """

    variant: str
    interior_sup_vplus: float
    boundary_sup_vplus: float
    forcing: float
    geometry_factor: float
    C_emp: float | None
    forcing_zero: bool
    bottom_face_active: bool
    vacuous: bool = False  # the positive-part maximum sits on the boundary

    def holds_with(self, C: float, slack: float = 0.0) -> bool:
        rhs = self.boundary_sup_vplus + C * self.geometry_factor * self.forcing
        return self.interior_sup_vplus <= rhs + slack


def _abp_variant(v: GridFunction, prob: PDEProblem, signed_part: np.ndarray,
                 forcing_part: np.ndarray, variant: str) -> AbpReport:
    grid = v.grid
    bmask = grid.analytic_boundary_mask
    interior = ~grid.boundary_mask
    if not np.any(bmask):
        raise ValueError("the grid carries no analytic boundary nodes")
    K0, d0 = grid.domain.g_params.K0, grid.domain.g_params.d0
    forcing = _sup_forcing(forcing_part, prob.p)
    geometry = (K0 * d0) ** (prob.p / (prob.p - 1.0))
    interior_sup = float(np.max(signed_part[interior]))
    boundary_sup = float(np.max(signed_part[bmask]))
    forcing_zero = forcing <= 0.0
    C_emp = None
    if not forcing_zero:
        C_emp = (interior_sup - boundary_sup) / (geometry * forcing)
    bottom = grid.artificial_bottom_mask
    bottom_active = bool(np.any(bottom) and np.max(signed_part[bottom]) > interior_sup)
    return AbpReport(
        variant=variant,
        interior_sup_vplus=interior_sup,
        boundary_sup_vplus=boundary_sup,
        forcing=forcing,
        geometry_factor=geometry,
        C_emp=C_emp,
        forcing_zero=forcing_zero,
        bottom_face_active=bottom_active,
        vacuous=bool(interior_sup < boundary_sup - 1e-13),
    )


def abp_check(v: GridFunction, prob: PDEProblem) -> tuple:
    """Interior-sup reports: (subsolution variant with v^+ against f^-,
    two-sided variant with |v| against |f|), with K0 d0 of the field's domain."""
    tpf = prob.log_forcing(v.grid)
    one = _abp_variant(v, prob, np.maximum(v.values, 0.0),
                       np.maximum(-tpf, 0.0), "subsolution")
    two = _abp_variant(v, prob, np.abs(v.values), np.abs(tpf), "two-sided")
    return one, two


# ---------------------------------------------------------------------------
# weighted Hoelder estimate

@dataclass
class HoelderReport:
    rho: float
    norm: float
    forcing: float
    ratio: float | None
    vacuous: bool
    inconsistent: bool


def hoelder_check(v: GridFunction, prob: PDEProblem, rho: float) -> HoelderReport:
    """Ratio of the weighted Hoelder norm of a zero-boundary solve to the
    two-sided forcing supremum, the global sup of |t^p f| over the grid
    raised to 1/(p-1).

    Boundary-attached pairs enter through the grid's boundary nodes, where a
    zero-boundary solve stores exact zeros.
    """
    grid = v.grid
    norm = float(hoelder_norm(v, rho))
    forcing = _sup_forcing(np.abs(prob.log_forcing(grid)), prob.p)
    vacuous = norm == 0.0
    inconsistent = forcing == 0.0 and norm > 0.0
    ratio = None if forcing == 0.0 else norm / forcing
    return HoelderReport(rho=rho, norm=norm, forcing=forcing, ratio=ratio,
                         vacuous=vacuous, inconsistent=inconsistent)


def empirical_alpha1(coarse: Sequence[HoelderReport],
                     fine: Sequence[HoelderReport]) -> float | None:
    """Largest swept exponent whose ratio is finite on both grids and moves
    by at most 20% under the refinement."""
    best = None
    for rc, rf in zip(coarse, fine):
        if rc.ratio is None or rf.ratio is None or rc.ratio == 0.0:
            continue
        if abs(rf.ratio / rc.ratio - 1.0) <= 0.2:
            best = rc.rho if best is None else max(best, rc.rho)
    return best


# ---------------------------------------------------------------------------
# Harnack ratios

@dataclass
class HarnackReport:
    sup: float
    inf: float
    forcing: float
    C_emp: float


def harnack_radius_bound(domain: ConeDomain) -> float:
    """K0 d0 + 1, the largest ball radius the Harnack estimates admit."""
    return domain.g_params.K0 * domain.g_params.d0 + 1.0


def _require_harnack_ball(grid: LogGrid, center: np.ndarray, d: float) -> None:
    """A Harnack ball has a positive radius of at most ``harnack_radius_bound``
    and lies in the grid's log box."""
    if not d > 0.0:
        raise ValueError("ball radius must be positive")
    if d > harnack_radius_bound(grid.domain):
        raise ValueError("ball radius exceeds the admissible K0 d0 + 1")
    c = np.asarray(center, dtype=float)
    lo, hi = np.array([(ax[0], ax[-1]) for ax in grid.axes]).T
    if np.any(c - d < lo - 1e-12) or np.any(c + d > hi + 1e-12):
        raise ValueError("the ball is not compactly contained in the grid")


def harnack_ratio(u: GridFunction, prob: PDEProblem, center: np.ndarray,
                  d: float) -> HarnackReport:
    """Minimal constant in sup <= C (inf + d^(p/(p-1)) forcing^(1/(p-1)))
    with both extrema over the half ball about the log-chart point ``center``,
    d at most ``harnack_radius_bound`` of the field's domain and the ball
    inside the grid."""
    grid = u.grid
    _require_harnack_ball(grid, center, d)
    ball = _ball_mask(grid, center, d)
    half = _ball_mask(grid, center, d / 2.0)
    _require_ball_resolved(half, "the half ball")
    if float(np.min(u.values[ball])) < -1e-12:
        raise ValueError("the field is negative inside the ball")
    sup = float(np.max(u.values[half]))
    inf = float(np.min(u.values[half]))
    forcing = d ** (prob.p / (prob.p - 1.0)) * _sup_forcing(
        np.abs(prob.log_forcing(grid)[ball]), prob.p)
    denom = inf + forcing
    C_emp = 1.0 if sup == 0.0 and denom == 0.0 else (
        math.inf if denom == 0.0 else sup / denom)
    return HarnackReport(sup=sup, inf=inf, forcing=forcing, C_emp=C_emp)


@dataclass
class WeakHarnackRow:
    p0: float
    mean: float
    inf: float
    C_emp_minus: float
    C_emp_plus: float


def weak_harnack_check(u: GridFunction, prob: PDEProblem, p0s: Sequence[float],
                       center: np.ndarray, d: float) -> list:
    """Normalized p0-means of a nonnegative supersolution on the ball B(center,
    d) against its infimum plus forcing, one row per p0 in ``p0s`` (each in (0, 1]),
    d at most ``harnack_radius_bound`` of the field's domain and the ball
    inside the grid.

    Both forcing sign conventions are reported: the negative part appears in
    the stated estimate, the positive part in its derivation.
    """
    grid = u.grid
    _require_harnack_ball(grid, center, d)
    if not all(0.0 < p0 <= 1.0 for p0 in p0s):
        raise ValueError("p0 values must lie in (0, 1]")
    ball = _ball_mask(grid, center, d)
    double = _ball_mask(grid, center, 2.0 * d)
    _require_ball_resolved(ball, "the ball")
    if float(np.min(u.values[ball])) < -1e-12:
        raise ValueError("the field is negative inside the ball")
    w = quadrature_weights(grid)
    volume = float(np.sum(w * ball))
    inf_u = float(np.min(u.values[ball]))
    tpf = prob.log_forcing(grid)[double]
    scale = d ** (prob.p / (prob.p - 1.0))
    f_minus = scale * _sup_forcing(np.maximum(-tpf, 0.0), prob.p)
    f_plus = scale * _sup_forcing(np.maximum(tpf, 0.0), prob.p)
    rows = []
    uvals = np.maximum(u.values, 0.0)
    for p0 in p0s:
        mean = (float(np.sum(w * ball * uvals ** p0)) / volume) ** (1.0 / p0)
        rows.append(WeakHarnackRow(
            p0=p0,
            mean=mean,
            inf=inf_u,
            C_emp_minus=mean / (inf_u + f_minus) if inf_u + f_minus > 0 else math.inf,
            C_emp_plus=mean / (inf_u + f_plus) if inf_u + f_plus > 0 else math.inf,
        ))
    return rows


# ---------------------------------------------------------------------------
# oscillation decay

@dataclass
class OscillationReport:
    rows: list                   # (radius, oscillation)
    exponent: float | None
    vacuous: bool


def oscillation_decay(v: GridFunction, center: np.ndarray,
                      radii: Sequence[float]) -> OscillationReport:
    """Oscillation sup - inf over shrinking metric balls and the fitted
    log-log decay exponent."""
    radii = list(radii)
    if len(radii) < 3:
        raise ValueError("need at least three radii")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    rows = []
    for r in radii:
        mask = _ball_mask(v.grid, center, r)
        _require_ball_resolved(mask, f"the radius-{r} ball")
        rows.append((float(r), float(np.max(v.values[mask]) - np.min(v.values[mask]))))
    positive = [(r, o) for r, o in rows if o > 0.0]
    if len(positive) < 2:
        return OscillationReport(rows=rows, exponent=None, vacuous=True)
    lr = np.log([r for r, _ in positive])
    lo = np.log([o for _, o in positive])
    exponent = float(np.polyfit(lr, lo, 1)[0])
    return OscillationReport(rows=rows, exponent=exponent, vacuous=False)


# ---------------------------------------------------------------------------
# comparison principle

@dataclass
class ComparisonReport:
    violations: int
    worst_gap: float
    location: tuple | None


def comparison_check(u: GridFunction, v: GridFunction, prob: PDEProblem,
                     tol: float) -> ComparisonReport:
    """Count interior nodes where the subsolution exceeds the supersolution
    beyond tol; preconditions are the boundary ordering and min t^p f > 0."""
    _require_same_grid(u, v)
    grid = u.grid
    floor = float(np.min(prob.log_forcing(grid)))
    if not floor > 0.0:
        raise ValueError(f"comparison requires a positive floor of t^p f, got {floor:.6g}")
    bmask = grid.boundary_mask
    bad = (u.values > v.values + tol) & bmask
    if np.any(bad):
        nodes = np.argwhere(bad)[:20].tolist()
        raise ValueError(
            "boundary ordering violated at nodes " + ", ".join(map(str, map(tuple, nodes)))
        )
    gap = u.values - v.values
    interior = ~bmask
    violations = int(np.sum(gap[interior] > tol))
    worst = float(np.max(gap[interior]))
    location = None
    if violations > 0:
        flat = int(np.argmax(np.where(interior, gap, -np.inf)))
        location = tuple(int(i) for i in np.unravel_index(flat, grid.shape))
    return ComparisonReport(violations=violations, worst_gap=worst, location=location)


# ---------------------------------------------------------------------------
# pair-maximization diagnostic

@dataclass
class DoublingDiagnostic:
    alpha: float
    M_alpha: float
    argmax_pair: tuple
    penalty: float
    diagonal_gap: float


def doubling_diagnostic(z1: GridFunction, z2: GridFunction,
                        alphas: Sequence[float]) -> list:
    """Maximize z1(z) - z2(w) - (alpha/2) d(z, w)^2 over node pairs.

    The best partner w*(z) of each z minimizes z2(w) + d(z, w)^2 / (2 eps)
    at eps = 1/alpha, the min-plus kernel of the infimal convolution.  The
    objective at (z, w*(z)) then picks the first maximizing z, so ties break
    lexicographically in (z, w) as in a search over all pairs.
    """
    _require_same_grid(z1, z2)
    grid = z1.grid
    pts = grid.log_points
    a1 = z1.values.ravel()
    a2 = z2.values.ravel()
    out = []
    for alpha in alphas:
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        _, partner = _min_plus(z2.values, grid.axes, 1.0 / alpha)
        w = np.ravel_multi_index(partner, grid.shape).ravel()
        val = a1 - a2[w] - 0.5 * alpha * np.sum((pts - pts[w]) ** 2, axis=1)
        zi = int(np.argmax(val))
        d = float(np.linalg.norm(pts[zi] - pts[w[zi]]))
        out.append(DoublingDiagnostic(
            alpha=float(alpha),
            M_alpha=float(val[zi]),
            argmax_pair=tuple(tuple(int(k) for k in np.unravel_index(i, grid.shape))
                              for i in (zi, w[zi])),
            penalty=0.5 * alpha * d * d,
            diagonal_gap=d,
        ))
    return out


# ---------------------------------------------------------------------------
# weak-form residual

@dataclass(frozen=True)
class CosineBump:
    """Tensor cosine-squared bump with closed-form gradient; compactly
    supported on the box center +- widths."""

    center: np.ndarray
    widths: np.ndarray

    def _factors(self, pts_axes) -> list:
        """Per axis (s, inside, cos^2 factor), s the offset from the center
        in widths."""
        out = []
        for c, w, q in zip(self.center, self.widths, pts_axes):
            s = (np.asarray(q, dtype=float) - c) / w
            inside = np.abs(s) < 1.0
            out.append((s, inside, np.where(inside, np.cos(0.5 * math.pi * s) ** 2, 0.0)))
        return out

    def value(self, pts_axes) -> np.ndarray:
        return math.prod(f for *_, f in self._factors(pts_axes))

    def grad(self, pts_axes) -> np.ndarray:
        factors = self._factors(pts_axes)
        g = []
        for k, (w, (s, inside, _)) in enumerate(zip(self.widths, factors)):
            piece = np.where(inside, -0.5 * math.pi / w * np.sin(math.pi * s), 0.0)
            for l, (*_, f) in enumerate(factors):
                if l != k:
                    piece = piece * f
            g.append(piece)
        return np.stack(g)


BUMP_MIN_CELLS = 3.0


def cosine_bumps(grid: LogGrid, count: int, seed: int = 0) -> list:
    """Deterministic family of admissible bumps strictly inside the grid,
    each at least ``BUMP_MIN_CELLS`` cells wide on every axis.

    The centers and widths are rounded to node multiples so the support
    edges (where the bump curvature jumps) fall on grid nodes; that keeps
    the quadrature error of bump integrals clean second order, also on
    nested refinements of the same grid.
    """
    rng = np.random.default_rng(seed)
    los = np.array([ax[0] for ax in grid.axes])
    his = np.array([ax[-1] for ax in grid.axes])
    hs = np.array(grid.h)
    bumps = []
    for _ in range(count):
        widths = np.maximum(
            (his - los) * (0.12 + 0.18 * rng.random(grid.n)), BUMP_MIN_CELLS * hs
        )
        lo = los + widths + hs
        hi = his - widths - hs
        center = lo + rng.random(grid.n) * np.maximum(hi - lo, 0.0)
        widths = np.maximum(np.round(widths / hs), BUMP_MIN_CELLS) * hs
        center = los + np.round((center - los) / hs) * hs
        center = np.minimum(np.maximum(center, los + widths + hs), his - widths - hs)
        bumps.append(CosineBump(center=center, widths=widths))
    return bumps


def _check_support(grid: LogGrid, bump: CosineBump) -> None:
    los = np.array([ax[0] for ax in grid.axes])
    his = np.array([ax[-1] for ax in grid.axes])
    if np.any(bump.center - bump.widths <= los) or np.any(bump.center + bump.widths >= his):
        raise ValueError("test bump support is not compactly inside the grid interior")


def weak_form_residual(u: GridFunction, prob: PDEProblem,
                       test_family: Sequence[CosineBump]) -> tuple:
    """Residual of the scaled weak form over a family of nonnegative tests.

    For each test: int |g|^(p-2) g . grad(psi) - int (-t^p f + (n-p)
    |g|^(p-2) g_a) psi, all against dt/t dx.  The unscaled divergence-form
    variant is evaluated with the analytically weighted test t^p psi and
    reported alongside; the two agree identically in exact arithmetic.
    """
    grid = u.grid
    g = gradient_field(u)
    p, n = prob.p, grid.n
    flux = gradient_powers(g, p)[1] * g               # |g|^(p-2) g, shape (n, ...)
    f = prob.forcing_values(grid)
    tpf = prob.log_forcing(grid)
    t = grid.t_field
    w = quadrature_weights(grid)
    axes_pts = grid.mesh

    rows = []
    worst = 0.0
    for bump in test_family:
        _check_support(grid, bump)
        psi = bump.value(axes_pts)
        gpsi = bump.grad(axes_pts)
        lhs = float(np.sum(w * np.sum(flux * gpsi, axis=0)))
        rhs = float(np.sum(w * (-tpf + (n - p) * flux[0]) * psi))
        residual = lhs - rhs
        # divergence-form variant with the weighted test t^p psi
        psi_w = t ** p * psi
        gpsi_w = t ** p * gpsi
        gpsi_w[0] = gpsi_w[0] + p * t ** p * psi
        lhs2 = float(np.sum(w * t ** (-p) * np.sum(flux * gpsi_w, axis=0)))
        rhs2 = float(np.sum(w * (-f + n * t ** (-p) * flux[0]) * psi_w))
        residual_div = lhs2 - rhs2
        rows.append({
            "center": [float(c) for c in bump.center],
            "widths": [float(wd) for wd in bump.widths],
            "residual": residual,
            "residual_divergence_form": residual_div,
            "form_gap": abs(residual - residual_div),
        })
        worst = max(worst, abs(residual))
    return worst, rows
