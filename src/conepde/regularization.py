"""Infimal convolution and upper envelope of grid functions.

Both are exact extrema over grid nodes that never visit all node pairs: the
infimal convolution is one 1D min-plus pass per axis, each a windowed scan
of the partners whose penalty can still reach the minimum (``_min_plus``,
which also finds the doubling diagnostic's partners), and the envelope
and the windowed forcing maximum sweep the index offsets inside a ball on
shifted slices (``_offset_slices``).  The pairing distance is the cone
metric, Euclidean in the log chart (a, x), in which the envelope Hessian
bound is stated; every kernel reads the node coordinates ``grid.axes``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from conepde.calculus import GridFunction, hessian_field
from conepde.operators import PDEProblem, divergence_part_field

__all__ = [
    "EnvelopeParams",
    "EnvelopeResult",
    "support_radius",
    "inf_convolution",
    "upper_envelope",
    "semiconvexity_check",
    "convolution_supersolution_check",
]


@dataclass(frozen=True)
class EnvelopeParams:
    """Envelope scale eps with the offset bound delta and cushion gamma_env
    entering the semiconvexity constant -eps^2 (eps^2 - (delta + 2 gamma)^2)^(-3/2)."""

    eps: float
    delta: float
    gamma_env: float

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not (0.0 < self.delta < self.eps):
            raise ValueError("delta must lie in (0, eps)")
        if not (0.0 < self.gamma_env < (self.eps - self.delta) / 3.0):
            raise ValueError("gamma_env must lie in (0, (eps - delta)/3)")

    @property
    def hessian_bound(self) -> float:
        reach = self.delta + 2.0 * self.gamma_env
        return -self.eps**2 * (self.eps**2 - reach**2) ** (-1.5)


@dataclass
class EnvelopeResult:
    """Upper envelope values with the validity mask and per-node data."""

    field: GridFunction
    mask: np.ndarray            # True where the envelope is defined
    offsets: np.ndarray         # pairing distance to the attaining node (NaN outside)
    eps: float

    @property
    def max_offset(self) -> float:
        if not np.any(self.mask):
            return 0.0
        return float(np.nanmax(self.offsets[self.mask]))


def support_radius(u: GridFunction, eps: float) -> float:
    """Search window 2 sqrt(sup|u| eps) outside of which the quadratic
    penalty always exceeds any possible gain."""
    return 2.0 * math.sqrt(float(np.max(np.abs(u.values))) * eps)


def _min_plus(values: np.ndarray, axis_coords, eps: float) -> tuple:
    """min over nodes w of values(w) + |c(z) - c(w)|^2 / (2 eps) at every
    node z, with the lex-smallest minimizing w as one index array per axis.

    The squared distance is a sum over axes, so this is one 1D pass per
    axis, last axis first (Felzenszwalb & Huttenlocher, Theory of Computing
    8, 2012); each pass keeps its first minimizer, and reading the passes
    back from axis 0 gives the joint lex-smallest argmin.

    Each pass is a windowed scan.  A partner w whose penalty, added in
    floating point to the pass's smallest value, exceeds its largest costs
    more than the node's own candidate f(z) + 0 (rounding is monotone), so
    it is neither a minimizer nor tied with one.  The pass reads the
    offsets |w - z| <= reach, the largest offset of any other partner,
    padded with +inf past the faces.  A window scans shorter rows, which
    cost more per candidate, so when it would read more than half the axis
    the pass reads every partner, as the dense scan does.  Either way it
    keeps the dense scan's minima and first minimizers, bit for bit.
    """
    f = values
    firsts = []
    for axis in reversed(range(values.ndim)):
        c = axis_coords[axis]
        m = c.size
        cost = (c[:, None] - c) ** 2 / (2.0 * eps)
        i = np.arange(m)
        reach = int(np.abs(i[:, None] - i)[f.min() + cost <= f.max()].max())
        g = np.moveaxis(f, axis, -1)
        if 2 * (2 * reach + 1) > m:
            cand, start = g[..., None, :] + cost, 0
        else:
            cols = i[:, None] + np.arange(-reach, reach + 1)
            band = np.where((cols >= 0) & (cols < m), cost[i[:, None], cols % m], np.inf)
            g = np.pad(g, [(0, 0)] * (g.ndim - 1) + [(reach, reach)], constant_values=np.inf)
            cand, start = sliding_window_view(g, 2 * reach + 1, axis=-1) + band, i - reach
        # a candidate is never NaN or -0, so the first minimizer's entry is
        # the minimum to the bit
        first = cand.argmin(axis=-1)
        f = np.moveaxis(np.take_along_axis(cand, first[..., None], axis=-1)[..., 0], -1, axis)
        firsts.insert(0, np.moveaxis(first + start, -1, axis))
    z = tuple(np.indices(values.shape))
    w = ()
    for axis, first in enumerate(firsts):
        w += (first[w + z[axis:]],)
    return f, w


def inf_convolution(u: GridFunction, eps: float) -> GridFunction:
    """Quadratic-penalty infimal convolution over grid nodes.

    min over all nodes w of u(w) + d(z, w)^2 / (2 eps).  The result never
    exceeds u and grows as eps shrinks.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    out, _ = _min_plus(u.values, u.grid.axes, eps)
    return GridFunction(u.grid, out)


def _offset_slices(axis_coords, r2: float):
    """Every index offset o = w - z between nodes of the tensor grid with
    these axis coordinates whose nearest pair lies within sqrt(r2), in lex
    order, as (z slices, w slices, squared coordinate gaps per axis);
    u[w slices] - u[z slices] pairs each node z with z + o.
    """
    per_axis = []
    for c in axis_coords:
        m = c.size
        steps = []
        for o in range(1 - m, m):
            zs, ws = slice(max(0, -o), m - max(0, o)), slice(max(0, o), m - max(0, -o))
            gap = (c[zs] - c[ws]) ** 2
            if gap.min() <= r2:
                steps.append((zs, ws, gap))
        per_axis.append(steps)
    for combo in product(*per_axis):
        zs, ws, gaps = zip(*combo)
        if sum(g.min() for g in gaps) <= r2:
            yield zs, ws, gaps


def _ball_max(values: np.ndarray, axis_coords, radius: float, cap: bool = False) -> tuple:
    """Max over nodes w with d(z, w) <= radius of values(w), plus
    sqrt(radius^2 - d(z, w)^2) with ``cap``, at every node z, and d(z, w)^2
    at the first maximizing w in flat order.  Sweeps the index offsets
    o = w - z that reach the ball in lex order on shifted slices, keeping a
    later candidate only when strictly larger.
    """
    r2 = radius * radius
    best = np.full(values.shape, -np.inf)
    best_d2 = np.full(values.shape, np.nan)
    for zs, ws, gaps in _offset_slices(axis_coords, r2):
        d2 = sum(np.ix_(*gaps))
        cand = values[ws] + np.sqrt(np.maximum(r2 - d2, 0.0)) if cap else values[ws]
        better = (d2 <= r2) & (cand > best[zs])
        best[zs] = np.where(better, cand, best[zs])
        best_d2[zs] = np.where(better, d2, best_d2[zs])
    return best, best_d2


def _boundary_margin(u: GridFunction) -> np.ndarray:
    """Distance of every node to the nearest grid face, the artificial
    truncation face included: the grid cannot see beyond any face, so
    envelope windows must not reach one."""
    margins = [np.minimum(c - c[0], c[-1] - c) for c in u.grid.axes]
    return functools.reduce(np.minimum, np.ix_(*margins))


def upper_envelope(u: GridFunction, eps: float) -> EnvelopeResult:
    """Spherical upper envelope max_w (u(w) + sqrt(eps^2 - d(z, w)^2)).

    Defined on nodes farther than eps from the boundary; the mask and the
    attained pairing offsets are recorded.  The w = z candidate makes the
    envelope exceed u by at least eps everywhere on the mask.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    mask = _boundary_margin(u) > eps
    best, d2 = _ball_max(u.values, u.grid.axes, eps, cap=True)
    field = GridFunction(u.grid, np.where(mask, best, np.nan), check_finite=False)
    return EnvelopeResult(field=field, mask=mask, offsets=np.where(mask, np.sqrt(d2), np.nan),
                          eps=eps)


def _box_interior(mask: np.ndarray) -> np.ndarray:
    """The nodes of ``mask`` whose whole 3^n stencil box lies in it, off
    the grid's faces: the minimum of the 3^n shifted masks, with the mask
    taken as False beyond the faces."""
    padded = np.pad(mask, 1)
    return functools.reduce(np.logical_and, (
        padded[tuple(slice(1 + o, 1 + o + m) for o, m in zip(offset, mask.shape))]
        for offset in product((-1, 0, 1), repeat=mask.ndim)))


def semiconvexity_check(u_env: EnvelopeResult, params: EnvelopeParams,
                        slack: float = 0.0) -> tuple:
    """Minimum discrete Hessian eigenvalue over the masked interior against
    the envelope bound; returns (min eigenvalue, bound, pass)."""
    if params.eps != u_env.eps:
        raise ValueError("params.eps must match the envelope eps")
    grid = u_env.field.grid
    mask = u_env.mask
    if not np.any(mask):
        raise ValueError("envelope mask is empty")
    interior = _box_interior(mask)
    if not np.any(interior):
        raise ValueError("envelope mask has no interior nodes")
    work = u_env.field.values.copy()
    work[~mask] = 0.0  # values under excluded nodes never reach a kept stencil
    H = hessian_field(GridFunction(grid, work, check_finite=False))
    Hmat = np.moveaxis(H.reshape(grid.n, grid.n, -1), -1, 0)[interior.ravel()]
    eigs = np.linalg.eigvalsh(Hmat)
    min_eig = float(np.min(eigs))
    bound = params.hessian_bound
    return min_eig, bound, bool(min_eig >= bound - slack)


def convolution_supersolution_check(u: GridFunction, prob: PDEProblem,
                                    eps: float, tol: float) -> dict:
    """Count nodes where the divergence-form residual of the infimal
    convolution, at gradient regularization 1e-8, exceeds the windowed
    forcing sup (t^p f)_eps, beyond tol.

    For a supersolution-consistent input the count is zero up to
    discretization slack.
    """
    u_eps = inf_convolution(u, eps)
    grid = u.grid
    r = support_radius(u, eps)
    mask = _boundary_margin(u) > r
    # interior nodes only: the stencils must not touch the grid faces
    mask &= ~grid.boundary_mask
    if not np.any(mask):
        raise ValueError("no interior nodes remain inside the shrunken region")

    lhs = divergence_part_field(u_eps, prob.p, 1e-8)[0]
    rhs = np.where(mask, _ball_max(prob.log_forcing(grid), grid.axes, r)[0], np.nan)

    gap = lhs - rhs
    violations = int(np.sum(gap[mask] > tol))
    worst = float(np.max(gap[mask]))
    return {
        "violations": violations,
        "worst_gap": worst,
        "nodes_checked": int(np.sum(mask)),
        "window_radius": r,
    }
