import math

import numpy as np
import pytest

from conepde.geometry import (
    ConeDomain,
    GConditionParams,
    boundary_distance,
    estimate_g_condition,
    exhaustion,
)


def unit_domain(n=2, t_min=math.exp(-1.0)):
    return ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                      t_min=t_min)


class TestDomainValidation:
    @pytest.mark.parametrize("K0, d0", [(math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0),
                                        (0.0, 1.0)])
    def test_params_must_be_finite_and_positive(self, K0, d0):
        with pytest.raises(ValueError, match="K0 and d0 must be finite and positive"):
            GConditionParams(K0=K0, d0=d0)

    @pytest.mark.parametrize("lo, hi", [([0.0], [math.inf]), ([-math.inf], [1.0]),
                                        ([0.0, 0.0], [1.0, math.inf])])
    def test_base_bounds_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match="base box bounds must be finite"):
            ConeDomain(n=len(lo) + 1, base_lo=lo, base_hi=hi, t_min=0.1)


class TestBoundaryDistance:
    def test_on_top_face(self):
        assert boundary_distance([0.0, 0.5], unit_domain()) == 0.0

    def test_balanced_point(self):
        d = boundary_distance([-0.5, 0.5], unit_domain())
        assert d == pytest.approx(0.5, abs=1e-14)

    def test_deep_point_lateral_dominates(self):
        # {t -> 0} is not boundary, so the lateral distance 0.5 wins over 3.0
        dom = unit_domain(t_min=1e-4)
        d = boundary_distance([-3.0, 0.5], dom)
        assert d == pytest.approx(0.5, abs=1e-14)

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            boundary_distance([math.log(0.5), 1.5], unit_domain())

    @pytest.mark.parametrize("z", [[math.nan, 0.5], [-0.5, math.inf], [-math.inf, 0.5]])
    def test_non_finite_point_rejected(self, z):
        with pytest.raises(ValueError, match="finite log-chart coordinates"):
            boundary_distance(z, unit_domain())

    def test_point_below_the_artificial_face_rejected(self):
        # the bottom face a = a_min = -1 is no boundary, yet it bounds the domain
        dom = unit_domain()
        assert boundary_distance([-1.0 - 1e-13, 0.5], dom) == pytest.approx(0.5)
        with pytest.raises(ValueError, match="outside the closure"):
            boundary_distance([-1.0 - 1e-9, 0.5], dom)

    @pytest.mark.parametrize("z", [[-0.5], [-0.5, 0.5, 0.5], [[-0.5, 0.5]]])
    def test_wrong_length_point_rejected(self, z):
        with pytest.raises(ValueError, match="finite log-chart coordinates"):
            boundary_distance(z, unit_domain())

    def test_triangle_compatibility(self):
        # the cone metric is Euclidean in (ln t, x)
        dom = unit_domain(t_min=1e-3)
        rng = np.random.default_rng(3)
        for _ in range(300):
            z = np.array([rng.uniform(-2, 0), *rng.uniform(0, 1, 1)])
            w = np.array([rng.uniform(-2, 0), *rng.uniform(0, 1, 1)])
            assert boundary_distance(z, dom) <= (
                np.linalg.norm(z - w) + boundary_distance(w, dom) + 1e-12
            )


class TestExhaustion:
    def test_strict_nesting(self):
        dom = unit_domain(t_min=1e-4)
        for j in range(1, 11):
            hj = exhaustion(dom, j)
            hj1 = exhaustion(dom, j + 1)
            assert hj1.t_min < hj.t_min
            assert hj1.t_max > hj.t_max
            assert np.all(hj1.base_lo < hj.base_lo)
            assert np.all(hj1.base_hi > hj.base_hi)
            assert hj.t_min > dom.t_min and hj.t_max < 1.0

    def test_side_lengths_increase(self):
        dom = unit_domain(t_min=1e-4)
        prev = exhaustion(dom, 1)
        for j in range(2, 8):
            cur = exhaustion(dom, j)
            assert np.all(cur.base_hi - cur.base_lo > prev.base_hi - prev.base_lo)
            prev = cur

    def test_compact_set_eventually_covered(self):
        dom = unit_domain(t_min=1e-4)
        # compact box K inside the truncated cone; margins shrink as 2^-j so
        # j(K) is computable from the worst clearance
        t_lo, t_hi, x_lo, x_hi = 0.01, 0.9, 0.1, 0.9
        clearance = min(x_lo, 1.0 - x_hi)
        j_of_k = max(2, int(math.ceil(-math.log2(min(clearance, 1.0 - t_hi)))) )
        for j in range(j_of_k + 1, j_of_k + 4):
            hj = exhaustion(dom, j)
            assert hj.t_min < t_lo and hj.t_max > t_hi
            assert hj.base_lo[0] < x_lo and hj.base_hi[0] > x_hi

    def test_empty_member_rejected(self):
        dom = unit_domain(t_min=0.9)
        with pytest.raises(ValueError):
            exhaustion(dom, 1)

    def test_all_faces_are_boundary(self):
        assert exhaustion(unit_domain(t_min=1e-4), 2).bottom_is_boundary


class TestGConditionEstimate:
    def test_deterministic_and_positive(self):
        dom = unit_domain(n=3, t_min=math.exp(-2.0))
        p1 = estimate_g_condition(dom, samples=20, seed=42, mc_points=1024)
        p2 = estimate_g_condition(dom, samples=20, seed=42, mc_points=1024)
        assert p1 == p2
        assert 0.0 < p1 <= 1.0

    def test_thin_slab_base(self):
        dom = ConeDomain(n=2, base_lo=[0.0], base_hi=[0.02], t_min=math.exp(-1.0),
                         g_params=GConditionParams(K0=1.0, d0=1.0))
        est = estimate_g_condition(dom, samples=20, seed=5, mc_points=2048)
        assert est > 0.0

    def test_monte_carlo_oracle_agreement(self):
        # independent volume oracle: with K0 = 2 the probe ball is centered
        # exactly on the nearest boundary point (offset min(d, 0.999 * 2d) = d),
        # so away from corners the exterior fraction is the half-plane cut
        # through the center: exactly one half; corners only add exterior
        # mass, so the infimum tracks the flat-face value with a small
        # downward Monte Carlo bias.  Oracle at 1e5 rejection samples.
        dom = unit_domain(t_min=math.exp(-1.0))
        est = estimate_g_condition(dom, samples=40, seed=1, mc_points=4096)
        rng = np.random.default_rng(999)
        pts = rng.uniform(-1, 1, size=(100000, 2))
        pts = pts[np.sum(pts**2, axis=1) <= 1.0]
        half_fraction = float(np.mean(pts[:, 1] > 0.0))
        assert half_fraction == pytest.approx(0.5, abs=0.01)
        assert est == pytest.approx(half_fraction, abs=0.03)
        assert est <= half_fraction + 0.01

    def test_degenerate_reports_zero_with_warning(self):
        # K0 < 1 probe balls centered inside can never reach the complement
        dom = ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0], t_min=math.exp(-1.0),
                         g_params=GConditionParams(K0=0.2, d0=1.0))
        with pytest.warns(RuntimeWarning):
            est = estimate_g_condition(dom, samples=10, seed=2, mc_points=512)
        assert est == 0.0
