import math

import numpy as np
import pytest

from conepde.analysis import (
    CosineBump,
    abp_check,
    comparison_check,
    cosine_bumps,
    doubling_diagnostic,
    empirical_alpha1,
    harnack_ratio,
    hoelder_check,
    oscillation_decay,
    weak_form_residual,
    weak_harnack_check,
)
from conepde.calculus import GridFunction, LogGrid
from conepde.geometry import ConeDomain, GConditionParams
from conepde.operators import PDEProblem, constant_field
from conepde.solver import (
    exact_solution_values,
    make_exact_solution,
    manufactured_problem,
    solve_dirichlet,
)
from oracles import ball_sup_forcing, boundary_distance_field


def unit_domain(n=2, t_min=math.exp(-1.0)):
    return ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                      t_min=t_min)


def zero_field(t, xs):
    return np.zeros_like(np.asarray(t, dtype=float))


def tp_floor_field(c, p):
    def fn(t, xs):
        return c * np.asarray(t, dtype=float) ** (-p)
    return fn


class TestAbp:
    def test_all_zero_is_trivial(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        one, two = abp_check(GridFunction(grid, np.zeros(grid.shape)), prob)
        assert one.interior_sup_vplus == 0.0
        assert one.boundary_sup_vplus == 0.0
        assert one.forcing == 0.0 and one.forcing_zero
        assert one.holds_with(0.0)

    def test_maximum_principle_for_nonnegative_forcing(self):
        # f >= 0 makes the negative part vanish, and the solve stays <= 0
        grid = LogGrid.build(unit_domain(), (25, 25))
        prob = PDEProblem(p=2.0, f=tp_floor_field(0.5, 2.0),
                          dirichlet=zero_field)
        u, rep = solve_dirichlet(prob, grid)
        assert rep.converged
        one, _ = abp_check(u, prob)
        assert one.forcing_zero
        slack = 10.0 * max(grid.h) ** 2
        assert one.interior_sup_vplus <= one.boundary_sup_vplus + slack

    def test_negative_forcing_yields_finite_constant(self):
        grid = LogGrid.build(unit_domain(), (25, 25))
        prob = PDEProblem(p=2.0, f=constant_field(-1.0), dirichlet=zero_field)
        u, rep = solve_dirichlet(prob, grid)
        one, two = abp_check(u, prob)
        assert not one.forcing_zero
        assert one.C_emp is not None and one.C_emp > 0.0
        assert one.holds_with(one.C_emp, slack=1e-12)
        assert two.forcing >= one.forcing

    def test_vacuous_when_maximum_sits_on_boundary(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        A, _ = grid.mesh
        # increasing toward the top face: the positive-part max is boundary
        u = GridFunction(grid, np.exp(A))
        one, _ = abp_check(u, prob)
        assert one.vacuous
        assert one.interior_sup_vplus < one.boundary_sup_vplus

    def test_corrupted_field_fails_reference_constant(self):
        grid = LogGrid.build(unit_domain(), (25, 25))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        A, X = grid.mesh
        bump = 0.5 * np.exp(-60.0 * ((A + 0.5) ** 2 + (X - 0.5) ** 2))
        one, _ = abp_check(GridFunction(grid, bump), prob)
        assert one.forcing_zero
        assert one.interior_sup_vplus > one.boundary_sup_vplus + 10.0 * max(grid.h) ** 2

    @pytest.mark.parametrize("bottom, active", [(5.0, True), (1.0, False), (0.5, False)])
    def test_bottom_face_active_iff_face_max_exceeds_interior(self, bottom, active):
        grid = LogGrid.build(unit_domain(), (9, 9))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        values = np.where(grid.boundary_mask, 0.0, 1.0)
        values[0, 1:-1] = bottom
        one, two = abp_check(GridFunction(grid, values), prob)
        assert one.interior_sup_vplus == 1.0
        assert one.bottom_face_active is active and two.bottom_face_active is active

    def test_bottom_face_inactive_when_bottom_is_boundary(self):
        dom = ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0], t_min=math.exp(-1.0),
                         bottom_is_boundary=True)
        grid = LogGrid.build(dom, (9, 9))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        values = np.where(grid.boundary_mask, 0.0, 1.0)
        values[0, 1:-1] = 5.0
        one, _ = abp_check(GridFunction(grid, values), prob)
        assert one.boundary_sup_vplus == 5.0 and not one.bottom_face_active


class TestForcingSup:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
    @pytest.mark.parametrize("K0,d0", [(2.0, 1.0), (0.1, 0.05), (0.01, 0.01)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_global_sup_equals_ball_sup_oracle(self, n, K0, d0, p):
        # every node lies in its own ball, so the per-ball sup over all balls
        # is the global sup of t^p f, bit for bit
        dom = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                         t_min=math.exp(-1.0), g_params=GConditionParams(K0, d0))
        grid = LogGrid.build(dom, (9, 8, 7)[:n])
        rng = np.random.default_rng(int(100 * K0) + 10 * n + int(p))
        f_vals = rng.standard_normal(grid.shape)
        prob = PDEProblem(p=p, f=lambda t, xs: f_vals, dirichlet=zero_field)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        radius = 2.0 * K0 * np.minimum(boundary_distance_field(grid), d0)
        tpf = prob.log_forcing(grid)
        one, two = abp_check(u, prob)
        assert one.forcing == ball_sup_forcing(grid, np.maximum(-tpf, 0.0), p, radius)
        assert two.forcing == ball_sup_forcing(grid, np.abs(tpf), p, radius)
        rep = hoelder_check(u, prob, 0.5)
        assert rep.forcing == ball_sup_forcing(grid, np.abs(tpf), p, radius)
        # a zero radius keeps only the node itself in each ball
        assert rep.forcing == ball_sup_forcing(grid, np.abs(tpf), p, np.zeros(grid.shape))


class TestHoelder:
    def test_zero_solution_is_vacuous(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        rep = hoelder_check(GridFunction(grid, np.zeros(grid.shape)), prob, 0.25)
        assert rep.vacuous and not rep.inconsistent

    def test_nonzero_field_zero_forcing_flagged(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.ones(grid.shape))
        rep = hoelder_check(u, prob, 0.25)
        assert rep.inconsistent

    def test_solve_ratio_finite_and_stable(self):
        prob = PDEProblem(p=2.0, f=constant_field(-1.0), dirichlet=zero_field)
        ratios = []
        for c in (17, 33):
            grid = LogGrid.build(unit_domain(), (c, c))
            u, _ = solve_dirichlet(prob, grid)
            rep = hoelder_check(u, prob, 0.25)
            assert rep.ratio is not None and math.isfinite(rep.ratio)
            ratios.append(rep.ratio)
        assert abs(ratios[1] / ratios[0] - 1.0) <= 0.2

    def test_sweep_and_alpha1(self):
        prob = PDEProblem(p=2.0, f=constant_field(-1.0), dirichlet=zero_field)
        rhos = (0.1, 0.2, 0.3)
        tables = []
        for c in (17, 33):
            grid = LogGrid.build(unit_domain(), (c, c))
            u, _ = solve_dirichlet(prob, grid)
            tables.append([hoelder_check(u, prob, rho) for rho in rhos])
        alpha1 = empirical_alpha1(tables[0], tables[1])
        assert alpha1 is not None and alpha1 > 0.0


class TestHarnack:
    def test_positive_constant(self):
        grid = LogGrid.build(unit_domain(), (33, 33))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.full(grid.shape, 3.0))
        center = np.array([-0.5, 0.5])
        rep = harnack_ratio(u, prob, center, 0.3)
        assert rep.C_emp == pytest.approx(1.0, abs=1e-14)

    def test_closed_form_for_inverse_power(self):
        # u = t^-1 (a forcing-free solution at p=2, n=3): over the half ball
        # the discrete extrema of e^-a sit at the extreme radial nodes; with
        # the radius a hair over 4 spacings the closed form is e^(+-4h)
        dom = unit_domain(n=3, t_min=math.exp(-1.0))
        grid = LogGrid.build(dom, (33, 17, 17))
        u = exact_solution_values(make_exact_solution(2.0, 3), grid)
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        h = grid.h[0]
        k = 4
        center = np.array([grid.a[16], 0.5, 0.5])
        d = 2.0 * k * h * (1.0 + 1e-9)
        rep = harnack_ratio(u, prob, center, d)
        expected = math.exp(2.0 * k * h)
        assert rep.C_emp == pytest.approx(expected, rel=1e-9)
        assert rep.C_emp == pytest.approx(math.exp(d), rel=0.01)

    def test_scale_invariance(self):
        # u -> c u with f -> c^(p-1) f leaves the empirical constant fixed
        dom = unit_domain(n=2)
        grid = LogGrid.build(dom, (33, 33))
        p = 3.0
        u = exact_solution_values(make_exact_solution(2.0, 3), grid)  # e^-a > 0
        center = np.array([-0.5, 0.5])
        d = 0.25
        for c in (0.5, 2.0, 7.5):
            prob1 = PDEProblem(p=p, f=constant_field(0.3), dirichlet=zero_field)
            prob2 = PDEProblem(p=p, f=constant_field(0.3 * c ** (p - 1.0)),
                               dirichlet=zero_field)
            r1 = harnack_ratio(u, prob1, center, d)
            u_scaled = GridFunction(grid, c * u.values)
            r2 = harnack_ratio(u_scaled, prob2, center, d)
            assert r2.C_emp == pytest.approx(r1.C_emp, rel=1e-10)

    def test_negative_field_rejected(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, -np.ones(grid.shape))
        with pytest.raises(ValueError):
            harnack_ratio(u, prob, np.array([-0.5, 0.5]), 0.2)

    @pytest.mark.parametrize("check", [
        harnack_ratio, lambda u, prob, c, d: weak_harnack_check(u, prob, (0.5, 1.0), c, d)],
        ids=["harnack", "weakharnack"])
    def test_ball_must_fit(self, check):
        # the weak Harnack means and infimum used to run over the part of the
        # ball on the grid, so a ball reaching past the top face read its zeros
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.ones(grid.shape))
        with pytest.raises(ValueError, match="not compactly contained in the grid"):
            check(u, prob, np.array([-0.1, 0.9]), 0.5)

    @pytest.mark.parametrize("d, what", [
        (0.0, "radius must be positive"),
        (math.nan, "radius must be positive"),
        (3.5, r"exceeds the admissible K0 d0 \+ 1"),
    ])
    def test_rejects_bad_ball_radius(self, d, what):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.ones(grid.shape))
        with pytest.raises(ValueError, match=what):
            harnack_ratio(u, prob, np.array([-0.5, 0.5]), d)


class TestConeDataFromTheGrid:
    """The checks read K0 and d0 from the field's domain, here with
    K0 d0 = 0.005 against the default 2."""

    def grid(self):
        dom = ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0], t_min=math.exp(-1.0),
                         g_params=GConditionParams(K0=0.1, d0=0.05))
        return LogGrid.build(dom, (17, 17))

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
    def test_abp_geometry_factor(self, p):
        grid = self.grid()
        prob = PDEProblem(p=p, f=constant_field(-1.0), dirichlet=zero_field)
        one, two = abp_check(GridFunction(grid, np.ones(grid.shape)), prob)
        assert one.geometry_factor == (0.1 * 0.05) ** (p / (p - 1.0))
        assert two.geometry_factor == one.geometry_factor

    def test_harnack_radius_bound(self):
        # d = 1.01 lies under the default bound 3 but over K0 d0 + 1 = 1.005
        grid = self.grid()
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.ones(grid.shape))
        center = np.array([-0.5, 0.5])
        for check in (lambda d: harnack_ratio(u, prob, center, d),
                      lambda d: weak_harnack_check(u, prob, (1.0,), center, d)):
            with pytest.raises(ValueError, match=r"exceeds the admissible K0 d0 \+ 1"):
                check(1.01)
            check(0.2)


class TestWeakHarnack:
    def test_constant_field(self):
        grid = LogGrid.build(unit_domain(), (33, 33))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.full(grid.shape, 2.0))
        rows = weak_harnack_check(u, prob, (0.25, 0.5, 1.0),
                                  np.array([-0.5, 0.5]), 0.2)
        for row in rows:
            assert row.mean == pytest.approx(2.0, rel=1e-12)
            assert row.C_emp_minus == pytest.approx(1.0, rel=1e-12)

    def test_power_mean_monotone_in_p0(self):
        grid = LogGrid.build(unit_domain(), (33, 33))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        rng = np.random.default_rng(0)
        u = GridFunction(grid, 1.0 + 0.5 * rng.random(grid.shape))
        rows = weak_harnack_check(u, prob, (0.2, 0.4, 0.6, 0.8, 1.0),
                                  np.array([-0.5, 0.5]), 0.25)
        means = [r.mean for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        assert means[-1] <= float(np.max(u.values)) + 1e-12

    def test_truncated_field_same_family(self):
        # truncating the field at the level of its ball boundary infimum
        # keeps the inequality family intact
        dom = unit_domain(n=2, t_min=math.exp(-1.0))
        grid = LogGrid.build(dom, (33, 33))
        u = exact_solution_values(make_exact_solution(2.0, 3), grid)  # e^-a > 0
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        center = np.array([-0.5, 0.5])
        rows_full = weak_harnack_check(u, prob, (0.5, 1.0), center, 0.2)
        m = float(np.quantile(u.values, 0.6))
        u_m = GridFunction(grid, np.minimum(u.values, m))
        rows_trunc = weak_harnack_check(u_m, prob, (0.5, 1.0), center, 0.2)
        for rf, rt in zip(rows_full, rows_trunc):
            assert rt.mean <= rf.mean + 1e-12
            assert math.isfinite(rt.C_emp_minus)

    @pytest.mark.parametrize("p0s, d, what", [
        ((0.5, 1.0), 0.0, "radius must be positive"),
        ((0.5, 1.0), -0.2, "radius must be positive"),
        ((0.5, 1.0), math.nan, "radius must be positive"),
        ((0.5, 1.0), 3.5, r"exceeds the admissible K0 d0 \+ 1"),
        ((0.0, 1.0), 0.2, r"\(0, 1\]"),
        ((0.5, 1.5), 0.2, r"\(0, 1\]"),
        ((-0.5,), 0.2, r"\(0, 1\]"),
        ((math.nan,), 0.2, r"\(0, 1\]"),
    ])
    def test_rejects_bad_ball_radius_or_p0(self, p0s, d, what):
        grid = LogGrid.build(unit_domain(), (33, 33))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.full(grid.shape, 2.0))
        with pytest.raises(ValueError, match=what):
            weak_harnack_check(u, prob, p0s, np.array([-0.5, 0.5]), d)


class TestOscillation:
    def test_constant_is_vacuous(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        u = GridFunction(grid, np.full(grid.shape, 5.0))
        rep = oscillation_decay(u, np.array([-0.5, 0.5]),
                                [0.3, 0.15, 0.075])
        assert rep.vacuous and rep.exponent is None

    def test_linear_field_exponent_one(self):
        # u = a over a metric ball: oscillation is twice the radial reach,
        # which scales linearly, so the fitted exponent is 1
        grid = LogGrid.build(unit_domain(t_min=math.exp(-2.0)), (65, 33))
        A, _ = grid.mesh
        u = GridFunction(grid, A.copy())
        h = grid.h[0]
        center = np.array([grid.a[32], 0.5])
        radii = [16.5 * h, 8.5 * h, 4.5 * h]
        rep = oscillation_decay(u, center, radii)
        # brute force: reach floor(r/h) nodes each way
        for (r, osc) in rep.rows:
            assert osc == pytest.approx(2.0 * h * math.floor(r / h), abs=1e-12)
        assert rep.exponent == pytest.approx(1.0, abs=0.1)

    def test_solve_exponent_positive(self):
        grid = LogGrid.build(unit_domain(), (33, 33))
        prob = PDEProblem(p=2.0, f=constant_field(-1.0), dirichlet=zero_field)
        u, _ = solve_dirichlet(prob, grid)
        rep = oscillation_decay(u, np.array([-0.5, 0.5]),
                                [0.3, 0.15, 0.075])
        assert rep.exponent is not None and rep.exponent > 0.0

    def test_needs_three_radii(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        u = GridFunction(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError):
            oscillation_decay(u, np.array([-0.5, 0.5]), [0.3, 0.15])


class TestComparison:
    def test_equal_fields_pass(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=tp_floor_field(0.3, 2.0),
                          dirichlet=zero_field)
        u = GridFunction(grid, np.zeros(grid.shape))
        rep = comparison_check(u, u, prob, tol=1e-8)
        assert rep.violations == 0

    def test_bump_negative_control(self):
        grid = LogGrid.build(unit_domain(), (33, 33))
        prob = PDEProblem(p=2.0, f=tp_floor_field(0.3, 2.0),
                          dirichlet=zero_field)
        A, X = grid.mesh
        bump = np.exp(-60.0 * ((A + 0.5) ** 2 + (X - 0.5) ** 2))
        bump[grid.boundary_mask] = 0.0
        v = GridFunction(grid, np.zeros(grid.shape))
        u = GridFunction(grid, bump)
        tol = 10.0 * max(grid.h) ** 2
        rep = comparison_check(u, v, prob, tol=tol)
        assert rep.violations == int(np.sum(bump[~grid.boundary_mask] > tol))
        assert rep.violations > 0
        assert rep.location is not None

    def test_boundary_violation_rejected(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=tp_floor_field(0.3, 2.0),
                          dirichlet=zero_field)
        u = GridFunction(grid, np.ones(grid.shape))
        v = GridFunction(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError):
            comparison_check(u, v, prob, tol=1e-8)

    def test_boundary_violation_names_nodes_as_plain_int_tuples(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=tp_floor_field(0.3, 2.0),
                          dirichlet=zero_field)
        values = np.zeros(grid.shape)
        values[16, 0] = values[0, 3] = 1.0
        with pytest.raises(ValueError) as exc:
            comparison_check(GridFunction(grid, values), GridFunction(grid, np.zeros(grid.shape)),
                             prob, tol=1e-8)
        assert str(exc.value) == "boundary ordering violated at nodes (0, 3), (16, 0)"

    def test_grids_with_equal_shapes_but_different_axes_rejected(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        other = LogGrid.build(unit_domain(t_min=math.exp(-2.0)), (17, 17))
        prob = PDEProblem(p=2.0, f=tp_floor_field(0.3, 2.0),
                          dirichlet=zero_field)
        with pytest.raises(ValueError, match="share a grid"):
            comparison_check(GridFunction(grid, np.zeros(grid.shape)),
                             GridFunction(other, np.zeros(other.shape)), prob, tol=1e-8)
        twin = LogGrid.build(unit_domain(), (17, 17))
        rep = comparison_check(GridFunction(grid, np.zeros(grid.shape)),
                               GridFunction(twin, np.zeros(twin.shape)), prob, tol=1e-8)
        assert rep.violations == 0

    def test_omega_floor_validated(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        bad = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="positive floor of t\\^p f, got 0$"):
            comparison_check(u, u, bad, tol=1e-8)

    @pytest.mark.parametrize("dip", [0.0, -1e-3])
    def test_floor_dipping_at_one_boundary_node_rejected(self, dip):
        # t^p f = 0.3 except at the corner node (t_min, x = 0)
        grid = LogGrid.build(unit_domain(), (17, 17))
        t_min = grid.t_field[0, 0]

        def f(t, xs):
            t = np.asarray(t, dtype=float)
            corner = (t == t_min) & (np.asarray(xs[0]) == 0.0)
            return np.where(corner, dip, 0.3) * t ** -2.0

        prob = PDEProblem(p=2.0, f=f, dirichlet=zero_field)
        assert np.sum(prob.log_forcing(grid) <= 0.0) == 1
        u = GridFunction(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match=f"got {dip:.6g}$"):
            comparison_check(u, u, prob, tol=1e-8)


class TestDoubling:
    def test_zero_fields(self):
        grid = LogGrid.build(unit_domain(), (13, 13))
        z = GridFunction(grid, np.zeros(grid.shape))
        diags = doubling_diagnostic(z, z, [1.0, 10.0])
        for d in diags:
            assert d.M_alpha == 0.0
            assert d.argmax_pair[0] == d.argmax_pair[1]
            assert d.penalty == 0.0

    def test_constant_gap(self):
        grid = LogGrid.build(unit_domain(), (13, 13))
        z1 = GridFunction(grid, np.full(grid.shape, 0.7))
        z2 = GridFunction(grid, np.zeros(grid.shape))
        diags = doubling_diagnostic(z1, z2, [1.0, 100.0])
        for d in diags:
            assert d.M_alpha == pytest.approx(0.7, abs=1e-14)
            assert d.diagonal_gap == 0.0

    def test_grids_with_equal_shapes_but_different_axes_rejected(self):
        # a 9x9 field on [-1,0]x[0,1] against one on [-2,0]x[0,3]
        grid = LogGrid.build(unit_domain(), (9, 9))
        other = LogGrid.build(ConeDomain(n=2, base_lo=[0.0], base_hi=[3.0],
                                         t_min=math.exp(-2.0)), (9, 9))
        with pytest.raises(ValueError, match="share a grid"):
            doubling_diagnostic(GridFunction(grid, np.zeros(grid.shape)),
                                GridFunction(other, np.zeros(other.shape)), [1.0])

    def test_brute_force_oracle_agreement(self):
        # independent full-pair maximization on a 13^2 grid
        grid = LogGrid.build(unit_domain(), (13, 13))
        rng = np.random.default_rng(1)
        z1 = GridFunction(grid, 0.3 * rng.standard_normal(grid.shape))
        z2 = GridFunction(grid, 0.3 * rng.standard_normal(grid.shape))
        alphas = [1.0, 10.0, 100.0]
        diags = doubling_diagnostic(z1, z2, alphas)
        pts = grid.log_points
        a1 = z1.values.ravel()
        a2 = z2.values.ravel()
        for alpha, diag in zip(alphas, diags):
            best = -math.inf
            for i in range(pts.shape[0]):
                d2 = np.sum((pts[i] - pts) ** 2, axis=1)
                vals = a1[i] - a2 - 0.5 * alpha * d2
                best = max(best, float(np.max(vals)))
            assert diag.M_alpha == pytest.approx(best, abs=1e-13)

    def test_limit_behavior(self):
        grid = LogGrid.build(unit_domain(), (21, 21))
        A, X = grid.mesh
        z1 = GridFunction(grid, 0.4 * np.exp(-6.0 * ((A + 0.4) ** 2 + (X - 0.4) ** 2)))
        z2 = GridFunction(grid, 0.2 * (A + X) ** 2 * 0.1)
        alphas = [1.0, 10.0, 100.0, 1000.0]
        diags = doubling_diagnostic(z1, z2, alphas)
        ms = [d.M_alpha for d in diags]
        assert all(b <= a + 1e-14 for a, b in zip(ms, ms[1:]))
        assert diags[-1].diagonal_gap <= diags[0].diagonal_gap
        assert diags[-1].penalty <= 1e-10
        diag_sup = float(np.max(z1.values - z2.values))
        assert diags[-1].M_alpha == pytest.approx(diag_sup, rel=1e-12)
        assert all(d.M_alpha >= diag_sup - 1e-14 for d in diags)


class TestWeakForm:
    def test_constant_field_zero_residual(self):
        grid = LogGrid.build(unit_domain(), (25, 25))
        prob = PDEProblem(p=3.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.full(grid.shape, 1.5))
        worst, rows = weak_form_residual(u, prob, cosine_bumps(grid, 5, seed=3))
        assert worst <= 1e-14

    def test_exact_solution_residual_small_and_refines(self):
        # support edges on grid nodes keep the kink cells aligned, so the
        # quadrature error refines cleanly at second order
        u_star = make_exact_solution(3.0, 2)
        prob = manufactured_problem(u_star, 3.0)
        worsts = []
        for c in (17, 33):
            grid = LogGrid.build(unit_domain(), (c, c))
            u = exact_solution_values(u_star, grid)
            bumps = [CosineBump(center=np.array([-0.5, 0.5]),
                                widths=np.array([0.25, 0.25]))]
            worst, _ = weak_form_residual(u, prob, bumps)
            worsts.append(worst)
        assert worsts[1] <= worsts[0] / 2.0

    def test_form_equivalence_machine_precision(self):
        grid = LogGrid.build(unit_domain(), (21, 21))
        rng = np.random.default_rng(4)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        prob = PDEProblem(p=2.5, f=constant_field(0.3), dirichlet=zero_field)
        worst, rows = weak_form_residual(u, prob, cosine_bumps(grid, 6, seed=5))
        for row in rows:
            assert row["form_gap"] <= 1e-12

    def test_non_compact_support_rejected(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.zeros(grid.shape))
        bad = CosineBump(center=np.array([-0.5, 0.5]), widths=np.array([2.0, 0.2]))
        with pytest.raises(ValueError):
            weak_form_residual(u, prob, [bad])
