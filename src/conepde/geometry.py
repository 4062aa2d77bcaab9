"""Stretched-cone geometry: domains, boundary distance, the exterior-mass
condition and nested exhaustion subdomains.

Points live on the cylinder (0, 1] x X with X an axis-aligned box.  In the
logarithmic radial coordinate a = ln t the cone metric is the flat Euclidean
metric on (a, x) and the singular measure dt/t dx is Lebesgue measure, so
every computation below reduces to Euclidean geometry on a box, and a point
is the array of its log-chart coordinates (a, x_1, ..., x_{n-1}).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConeDomain",
    "GConditionParams",
    "boundary_distance",
    "estimate_g_condition",
    "exhaustion",
]


@dataclass(frozen=True)
class GConditionParams:
    """Probe-ball parameters of the uniform exterior-mass condition.

    K0 scales the probe-ball radius relative to the boundary distance, d0
    caps the boundary distance entering that radius.  The exterior mass
    fraction sigma is estimated by ``estimate_g_condition``, never given.
    """

    K0: float = 2.0
    d0: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.K0 < math.inf and 0.0 < self.d0 < math.inf):
            raise ValueError("K0 and d0 must be finite and positive")


@dataclass(frozen=True, eq=False)
class ConeDomain:
    """The (possibly truncated) stretched cone (t_min, t_max) x base.

    The analytic boundary consists of the top face {t_max} x X and the
    lateral face (0, t_max] x dX.  The bottom face t = t_min is an artificial
    numerical truncation unless ``bottom_is_boundary`` is set, which is the
    case for the compactly contained exhaustion subdomains.
    """

    n: int
    base_lo: np.ndarray
    base_hi: np.ndarray
    t_min: float
    t_max: float = 1.0
    bottom_is_boundary: bool = False
    g_params: GConditionParams = GConditionParams()

    def __post_init__(self):
        object.__setattr__(self, "base_lo", np.atleast_1d(np.asarray(self.base_lo, dtype=float)))
        object.__setattr__(self, "base_hi", np.atleast_1d(np.asarray(self.base_hi, dtype=float)))
        if self.n < 2:
            raise ValueError("total dimension n must be >= 2")
        if self.base_lo.shape != (self.n - 1,) or self.base_hi.shape != (self.n - 1,):
            raise ValueError("base box must have n-1 axes")
        if not np.all(np.isfinite([self.base_lo, self.base_hi])):
            raise ValueError("base box bounds must be finite")
        if not np.all(self.base_hi > self.base_lo):
            raise ValueError("base box must have positive side lengths")
        if not (0.0 < self.t_min < self.t_max <= 1.0):
            raise ValueError("need 0 < t_min < t_max <= 1")

    @property
    def a_min(self) -> float:
        return math.log(self.t_min)

    @property
    def a_max(self) -> float:
        return math.log(self.t_max)

    @property
    def log_box(self) -> tuple:
        """(lo, hi) corners of the domain in the log chart (a, x)."""
        return (np.concatenate(([self.a_min], self.base_lo)),
                np.concatenate(([self.a_max], self.base_hi)))


def _nearest_face(z_log: np.ndarray, domain: ConeDomain) -> tuple:
    """(distance, unit vector in (a, x)) from the log-chart point z to its
    nearest analytic face: the top, a side of the base box, or the bottom
    when it is a true boundary ({t -> 0} is at infinite metric distance)."""
    a, x = z_log[0], z_log[1:]
    faces = [(domain.a_max - a, 0, +1.0)]
    for k in range(domain.n - 1):
        faces.append((x[k] - domain.base_lo[k], 1 + k, -1.0))
        faces.append((domain.base_hi[k] - x[k], 1 + k, +1.0))
    if domain.bottom_is_boundary:
        faces.append((a - domain.a_min, 0, -1.0))
    d, axis, sign = min(faces, key=lambda f: f[0])
    e = np.zeros(domain.n)
    e[axis] = sign
    return d, e


def boundary_distance(z: np.ndarray, domain: ConeDomain) -> float:
    """Distance from the log-chart point z = (a, x) to the analytic boundary
    of the domain; z must be finite and lie in the closure of the log box,
    up to 1e-12 on every axis.

    Closed form: the top-face minimizer keeps the base coordinate and the
    lateral minimizer keeps the radial coordinate, so the distance is the
    one to the nearest face (``_nearest_face``).
    """
    z = np.asarray(z, dtype=float)
    lo, hi = domain.log_box
    if z.shape != lo.shape or not np.all(np.isfinite(z)):
        raise ValueError(f"need {domain.n} finite log-chart coordinates (a, x), got {z}")
    if np.any(z < lo - 1e-12) or np.any(z > hi + 1e-12):
        raise ValueError("point lies outside the closure of the domain")
    return max(float(_nearest_face(z, domain)[0]), 0.0)


def estimate_g_condition(domain: ConeDomain, samples: int, seed: int,
                         mc_points: int = 4096) -> float:
    """Empirical exterior-mass fraction sigma of the domain.

    For each sampled interior point a probe ball of radius K0 * min(d, d0)
    is centered on the segment toward the nearest boundary point, and the
    fraction of ball volume (in the dt/t dx measure, i.e. Lebesgue in the
    log chart) falling outside the analytic domain is estimated by Monte
    Carlo.  The returned sigma is the infimum over the sample; it is 0 only
    for degenerate setups (probe ball never reaching the complement), which
    triggers a warning.  Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("need at least one sample point")
    rng = np.random.default_rng(seed)
    K0, d0 = domain.g_params.K0, domain.g_params.d0
    n = domain.n
    lo, hi = domain.log_box
    sigma = 1.0
    for _ in range(samples):
        z = lo + rng.random(n) * (hi - lo)
        d, e = _nearest_face(z, domain)
        radius = K0 * min(d, d0)
        if radius <= 0.0:
            sigma = 0.0
            continue
        offset = min(d, 0.999 * radius)
        center = z + offset * e
        # uniform sample in the n-ball around the shifted center
        dirs = rng.standard_normal((mc_points, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = radius * rng.random(mc_points) ** (1.0 / n)
        pts = center[None, :] + radii[:, None] * dirs
        outside = (pts[:, 0] > hi[0]) | np.any((pts[:, 1:] < lo[1:]) | (pts[:, 1:] > hi[1:]),
                                               axis=1)
        if domain.bottom_is_boundary:
            outside |= pts[:, 0] < lo[0]
        sigma = min(sigma, float(np.mean(outside)))
    if sigma <= 0.0:
        warnings.warn("probe balls never reached the complement; "
                      "exterior-mass fraction reported as 0", RuntimeWarning)
        sigma = 0.0
    return sigma


def exhaustion(domain: ConeDomain, j: int) -> ConeDomain:
    """The j-th member of a nested sequence of compactly contained subdomains.

    Margins are powers of two, which makes strict nesting and exhaustion of
    the truncated domain immediate: the radial interval is
    (max(e^-(j+1), t_min (1 + 2^-j)), 1 - 2^-(j+2)) and the base box shrinks
    by 2^-(j+2) on each side.  All faces of a member are true boundaries.
    """
    if j < 1:
        raise ValueError("exhaustion index must be >= 1")
    if domain.t_max != 1.0:
        raise ValueError("exhaustion is defined for the full cone t_max = 1")
    t_lo = max(math.exp(-(j + 1)), domain.t_min * (1.0 + 2.0 ** (-j)))
    t_hi = 1.0 - 2.0 ** (-(j + 2))
    margin = 2.0 ** (-(j + 2))
    lo = domain.base_lo + margin
    hi = domain.base_hi - margin
    if not (t_lo < t_hi) or not np.all(lo < hi):
        raise ValueError(f"exhaustion member j={j} is empty for this domain")
    return ConeDomain(
        n=domain.n,
        base_lo=lo,
        base_hi=hi,
        t_min=t_lo,
        t_max=t_hi,
        bottom_is_boundary=True,
        g_params=domain.g_params,
    )
