import dataclasses
import gc
import math
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from conepde import calculus, solver
from conepde.analysis import comparison_check
from conepde.calculus import GridFunction, LogGrid
from conepde.geometry import ConeDomain
from conepde.operators import (PDEProblem, constant_field, gradient_powers, operator_terms,
                               separable_exponential_field)
from conepde.solver import (
    SolverConfig,
    _NewtonSystem,
    _assemble_jacobian,
    _jacobian_operator,
    _solve_jacobian,
    _solve_linear,
    convergence_study,
    exact_solution_values,
    log_t_field,
    make_exact_solution,
    manufactured_problem,
    power_of_t_field,
    quadratic_field,
    solve_by_exhaustion,
    solve_dirichlet,
)
from oracles import (banded_linear_solve, coefficient_fields, coo_interior_block,
                     full_jacobian, halving_schedule, ordered_interior_block,
                     pointwise_residual_log, refactorized_solve, scipy_gmres_cycle,
                     stacked_banded_solve)


def unit_domain(n=2, t_min=math.exp(-1.0)):
    return ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                      t_min=t_min)


def zero_field(t, xs):
    return np.zeros_like(np.asarray(t, dtype=float))


# one bad value per field
BAD_SETTINGS = ([({name: v}, name) for name in ("tol", "eps_reg_floor")
                 for v in (math.inf, math.nan, 0.0)]
                + [({"eps_reg_floor": -1.0}, "eps_reg_floor"), ({"max_iter": -1}, "max_iter"),
                   ({"tol": -1.0}, "tol"), ({"eps_reg_floor": -math.inf}, "eps_reg_floor")])


class TestConfig:
    def test_default_floor_is_1e6(self):
        assert SolverConfig().eps_reg_floor == 1e-6

    def test_start_and_schedule_are_gone(self):
        # a solve runs one stage at the floor, so nothing sets a start
        with pytest.raises(TypeError, match="eps_reg_start"):
            SolverConfig(eps_reg_start=0.1)
        assert not hasattr(SolverConfig(), "eps_schedule")

    def test_holds_the_three_solver_keys(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "eps_reg_floor", "tol", "max_iter"]

    @pytest.mark.parametrize("kwargs, names", BAD_SETTINGS)
    def test_rejects_bad_setting_naming_its_fields(self, kwargs, names):
        # an infinite tol used to stop every stage before its first step
        with pytest.raises(ValueError, match=f"^{names}: "):
            SolverConfig(**kwargs)


class TestSolveDirichlet:
    def test_trivial_zero_problem(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = PDEProblem(p=3.0, f=zero_field, dirichlet=zero_field)
        u, rep = solve_dirichlet(prob, grid)
        np.testing.assert_array_equal(u.values, np.zeros(grid.shape))
        assert rep.converged
        # Newton terminates immediately at every stage, which met its target
        assert all(s.iterations == 0 for s in rep.stages)
        assert all(s.stop_reason == "converged" for s in rep.stages)

    def test_boundary_values_exact(self):
        grid = LogGrid.build(unit_domain(n=3), (9, 9, 9))
        u_star = make_exact_solution(2.0, 3)
        prob = manufactured_problem(u_star, 2.0)
        u, rep = solve_dirichlet(prob, grid)
        data = prob.dirichlet_values(grid)
        bmask = grid.boundary_mask
        np.testing.assert_array_equal(u.values[bmask], data[bmask])

    def test_deterministic(self):
        grid = LogGrid.build(unit_domain(), (13, 13))
        u_star = make_exact_solution(3.0, 2)
        prob = manufactured_problem(u_star, 3.0)
        u1, r1 = solve_dirichlet(prob, grid)
        u2, r2 = solve_dirichlet(prob, grid)
        np.testing.assert_array_equal(u1.values, u2.values)
        assert r1.final_residual == r2.final_residual

    def test_residual_certificate(self):
        # the reported residual equals an independent pointwise re-evaluation
        grid = LogGrid.build(unit_domain(), (17, 17))
        u_star = make_exact_solution(3.0, 2)
        prob = manufactured_problem(u_star, 3.0)
        u, rep = solve_dirichlet(prob, grid)
        eps_floor = SolverConfig().eps_reg_floor
        worst = 0.0
        for i in range(1, 16):
            for j in range(1, 16):
                worst = max(worst, abs(pointwise_residual_log(u, (i, j), prob,
                                                              eps_reg=eps_floor)))
        assert worst == pytest.approx(rep.final_residual, abs=1e-13)

    @pytest.mark.parametrize("n, nodes", [(2, 16), (3, 10)])
    def test_problem_takes_its_dimension_from_the_grid(self, n, nodes):
        # one problem, built without n, solves on a 2D and on a 3D grid, and
        # the per-node oracle at the grid's n certifies the residual; the
        # drift (n - p) g_a used to read an n that no code checked
        prob = PDEProblem(p=3.0, f=constant_field(0.3), dirichlet=zero_field)
        grid = LogGrid.build(unit_domain(n=n), (nodes,) * n)
        u, rep = solve_dirichlet(prob, grid)
        assert rep.converged
        eps_floor = SolverConfig().eps_reg_floor
        worst = max(abs(pointwise_residual_log(u, tuple(np.add(node, 1)), prob,
                                               eps_reg=eps_floor))
                    for node in np.ndindex(*(nodes - 2,) * n))
        assert worst == pytest.approx(rep.final_residual, abs=1e-13)

    def test_exact_power_recovery_order(self):
        u_star = make_exact_solution(3.0, 2)
        prob = manufactured_problem(u_star, 3.0)
        errs = []
        for c in (9, 17, 33):
            grid = LogGrid.build(unit_domain(), (c, c))
            u, rep = solve_dirichlet(prob, grid)
            assert rep.converged
            exact = exact_solution_values(u_star, grid)
            err = float(np.max(np.abs(u.values - exact.values)))
            assert err <= 5.0 * max(grid.h) ** 2
            errs.append(err)
        assert math.log2(errs[0] / errs[1]) >= 1.9
        assert math.log2(errs[1] / errs[2]) >= 1.9

    def test_manufactured_quadratic_is_stencil_exact(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        u_star = quadratic_field(2)
        prob = manufactured_problem(u_star, 2.0)
        u, rep = solve_dirichlet(prob, grid)
        exact = exact_solution_values(u_star, grid)
        assert np.max(np.abs(u.values - exact.values)) < 1e-9

    def test_log_solution_at_p_equals_n(self):
        grid = LogGrid.build(unit_domain(), (17, 17))
        u_star = log_t_field()
        prob = manufactured_problem(u_star, 2.0)
        u, rep = solve_dirichlet(prob, grid)
        exact = exact_solution_values(u_star, grid)
        assert np.max(np.abs(u.values - exact.values)) < 1e-9

    def test_nan_forcing_raises(self):
        grid = LogGrid.build(unit_domain(), (9, 9))

        def bad(t, xs):
            return np.full_like(np.asarray(t, dtype=float), np.nan)

        prob = PDEProblem(p=2.0, f=bad, dirichlet=zero_field)
        with pytest.raises(FloatingPointError):
            solve_dirichlet(prob, grid)

    def test_forcing_infinite_only_on_boundary_converges(self):
        # boundary rows are identities, so the forcing there is never read
        grid = LogGrid.build(unit_domain(), (9, 9))

        def inv_x(t, xs):
            return 1.0 / np.asarray(xs[0], dtype=float)

        prob = PDEProblem(p=3.0, f=inv_x, dirichlet=zero_field)
        with np.errstate(divide="ignore"):
            assert np.isinf(inv_x(grid.t_field, grid.mesh[1:])[:, 0]).all()
        u, rep = solve_dirichlet(prob, grid)
        assert rep.converged and np.all(np.isfinite(u.values))

    def test_grid_beyond_peclet_bound_rejected(self):
        # n - p = 1 and h_a = 3 exceed 2(p - 1) = 2; four radial nodes meet it
        grid = LogGrid.build(unit_domain(n=3, t_min=math.exp(-6.0)), (3, 5, 5))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        with pytest.raises(ValueError, match=r"h_a = 3 .* 2\(p-1\) = 2; use at least 4 "):
            solve_dirichlet(prob, grid)
        fine = LogGrid.build(grid.domain, (4, 5, 5))
        assert solve_dirichlet(prob, fine)[1].converged

    def test_peclet_bound_is_read_at_the_target_p(self):
        # h_a = 2.7 meets the bound 2(p-1) = 6 of the p = 4 rung, with
        # |n-p| h_a = 5.4, but not the bound 10 of p = 6, with 10.8
        grid = LogGrid.build(unit_domain(t_min=math.exp(-5.4)), (3, 5))
        solver._check_peclet(grid, 4.0)
        prob = constant_forcing_problem(6.0, 2)
        with pytest.raises(ValueError, match=r"h_a = 2.7 .* 2\(p-1\) = 10; use at least 4 "):
            solve_dirichlet(prob, grid)
        fine = LogGrid.build(grid.domain, (4, 5))
        assert solve_dirichlet(prob, fine)[1].converged

    def test_p_continuation_path(self):
        grid = LogGrid.build(unit_domain(), (13, 13))
        u_star = power_of_t_field((4.0 - 2.0) / (4.0 - 1.0))
        prob = manufactured_problem(u_star, 4.0)
        u, rep = solve_dirichlet(prob, grid)
        assert rep.converged
        # p = 4 is its own first rung: after the p = 2 presolve, one stage at p
        assert [s.p for s in rep.stages] == [4.0]
        exact = exact_solution_values(u_star, grid)
        assert np.max(np.abs(u.values - exact.values)) <= 5.0 * max(grid.h) ** 2

    def test_p5_zero_boundary_constant_forcing_converges(self):
        grid = LogGrid.build(unit_domain(), (41, 41))
        prob = PDEProblem(p=5.0, f=constant_field(0.3), dirichlet=zero_field)
        _, rep = solve_dirichlet(prob, grid)
        assert rep.converged


# case ids name the radial drift stencil the Jacobian differentiates
DRIFT_IDS = ["2-central", "3-central"]


def assembled(grid, fields):
    """The interior block in dissection order that a factorization gathers
    from the stencil operator of the coefficient fields."""
    return _assemble_jacobian(_jacobian_operator(grid, *fields))


def interior_columns(grid, J):
    """(columns, identity): J times the unit vector of every interior node
    of the flattened full grid, one column per node, and those unit
    vectors."""
    unit = np.eye(math.prod(grid.shape))[:, ~grid.boundary_mask.ravel()]
    return np.stack([J @ e for e in unit.T], axis=1), unit


class TestJacobian:
    """The assembled interior block is the exact linearization of the
    residual the Newton solve drives to zero."""

    @staticmethod
    def _state(p, n):
        grid = LogGrid.build(unit_domain(n=n), (7, 6, 5)[:n])
        rng = np.random.default_rng(0)
        A = grid.mesh[0]
        v = np.sin(2.0 * A) + 0.1 * rng.standard_normal(grid.shape)
        for k, X in enumerate(grid.mesh[1:]):
            v = v + np.cos(3.0 * X + k)
        w = np.where(grid.boundary_mask, 0.0, rng.standard_normal(grid.shape))
        return grid, v, w, rng.standard_normal(grid.shape)

    @pytest.mark.parametrize("n", [2, 3], ids=DRIFT_IDS)
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.5])
    def test_taylor_against_residual(self, p, n):
        # central differences of the residual along w, which is zero on the
        # boundary, converge to J w at O(h^2); at p = 2 the residual is
        # linear and they agree to rounding
        grid, v, w, F_log = self._state(p, n)
        eps = 1e-2
        system = _NewtonSystem(grid, p, n - p, F_log, eps)
        fields = coefficient_fields(v, grid, p, eps)
        Jw = _jacobian_operator(grid, *fields) @ w.ravel()
        scale = float(np.max(np.abs(Jw)))
        rel = []
        for h in (1e-3, 1e-4, 1e-5):
            fd = (system.residual(v + h * w)[0]
                  - system.residual(v - h * w)[0]) / (2.0 * h)
            rel.append(float(np.max(np.abs(Jw - fd.ravel()))) / scale)
        assert rel[-1] < 1e-8
        for coarse, fine in zip(rel, rel[1:]):
            # truncation-dominated pairs shrink like h^2; rounding-level ones stay put
            assert fine <= max(coarse / 50.0, 1e-10)

    @given(n=st.sampled_from([2, 3]), p=st.sampled_from([2.0, 2.5, 3.0, 4.0, 6.0]),
           counts=st.lists(st.integers(3, 9), min_size=3, max_size=3),
           eps=st.sampled_from([1e-1, 1e-2, 1e-6]), seed=st.integers(0, 2**32 - 1))
    def test_is_interior_block_of_full_jacobian(self, n, p, counts, eps, seed):
        grid = LogGrid.build(unit_domain(n=n), counts[:n])
        v = np.random.default_rng(seed).standard_normal(grid.shape)
        fields = coefficient_fields(v, grid, p, eps)
        J = assembled(grid, fields)
        order = grid.dissection_order
        block = full_jacobian(grid, *fields)[order][:, order].toarray()
        assert J.format == "csc" and J.shape == block.shape
        assert np.max(np.abs(J.toarray() - block)) <= 1e-14 * np.max(np.abs(block))

    @given(n=st.sampled_from([2, 3]), p=st.sampled_from([2.5, 3.0, 4.0, 6.0]),
           counts=st.lists(st.integers(3, 9), min_size=3, max_size=3),
           eps=st.sampled_from([1e-1, 1e-2, 1e-6]), seed=st.integers(0, 2**32 - 1))
    def test_matches_coo_assembly_bit_for_bit(self, n, p, counts, eps, seed):
        # the kept pattern changes where the arithmetic happens, not what it is
        grid = LogGrid.build(unit_domain(n=n), counts[:n])
        v = np.random.default_rng(seed).standard_normal(grid.shape)
        fields = coefficient_fields(v, grid, p, eps)
        J = assembled(grid, fields)
        ref = coo_interior_block(grid, *fields)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(J, name), getattr(ref, name)), name

    def test_pattern_is_shared_and_read_only(self):
        grid = LogGrid.build(unit_domain(), (9, 8))
        rng = np.random.default_rng(4)
        J1 = assembled(grid, coefficient_fields(rng.standard_normal(grid.shape), grid, 3.0, 1e-2))
        J2 = assembled(grid, coefficient_fields(rng.standard_normal(grid.shape), grid, 4.0, 1e-6))
        pattern = grid.interior_pattern
        for J in (J1, J2):
            assert np.shares_memory(J.indices, pattern.indices)
            assert np.shares_memory(J.indptr, pattern.indptr)
        for arr in (J1.indices, J1.indptr, *pattern):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_pattern_is_freed_with_the_grid(self):
        # the pattern lives on the grid, so nothing else keeps a grid alive
        grid = LogGrid.build(unit_domain(), (9, 9))
        assembled(grid, coefficient_fields(np.ones(grid.shape), grid, 3.0, 1e-2))
        ref = weakref.ref(grid)
        del grid
        gc.collect()
        assert ref() is None

    def test_one_operator_evaluation_per_iterate(self, monkeypatch):
        # a step assembles from the coefficient fields its iterate's residual
        # returned, so a solve takes the derivative fields once per p > 2
        # residual evaluation, through whichever module applies them; the
        # presolve's p = 2 residual applies the second differences and the
        # radial difference alone and takes neither field
        calls = {"gradient_field": 0, "hessian_field": 0, "residual": 0, "linear": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls["linear" if name == "residual" and args[0].p == 2.0 else name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("gradient_field", "hessian_field"):
            original = getattr(calculus, name)
            wrapped = counting(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if ((mod_name == "conepde" or mod_name.startswith("conepde."))
                        and getattr(mod, name, None) is original):
                    monkeypatch.setattr(mod, name, wrapped)
        monkeypatch.setattr(_NewtonSystem, "residual",
                            counting("residual", _NewtonSystem.residual))
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = manufactured_problem(power_of_t_field(0.4), 3.0)
        _, rep = solve_dirichlet(prob, grid)
        assert rep.converged and sum(s.iterations for s in rep.stages) > 0
        assert calls["gradient_field"] == calls["hessian_field"] == calls["residual"]
        assert calls["linear"] > 0


def _raise(*args, **kwargs):
    raise AssertionError("a p = 2 solve must not assemble or factorize a Jacobian")


class TestFastLinearSolve:
    """At p = 2 the Newton system is solved by fast diagonalization; the
    full-grid Jacobian and a sparse direct solve are its oracle."""

    @given(n=st.sampled_from([2, 3]), p=st.sampled_from([2.0, 3.0, 4.0, 6.0]),
           counts=st.lists(st.integers(3, 9), min_size=3, max_size=3),
           widths=st.lists(st.floats(0.1, 4.0), min_size=2, max_size=2),
           peclet=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_solve(self, n, p, counts, widths, peclet, seed):
        # the presolve's system for target p: unit diffusion with drift n - p,
        # on radial steps up to the mesh Peclet bound |n-p| h_a <= 2(p-1)
        h_a = peclet * (2.0 * (p - 1.0) / abs(n - p) if n != p else 2.0)
        dom = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=widths[:n - 1],
                         t_min=math.exp(-h_a * (counts[0] - 1)))
        grid = LogGrid.build(dom, counts[:n])
        res = np.random.default_rng(seed).standard_normal(grid.shape)
        res[grid.boundary_mask] = 0.0
        # the p = 2 Jacobian: A = I, B = n - p and C = 0
        A = np.broadcast_to(np.eye(n).reshape((n, n) + (1,) * n), (n, n) + grid.shape)
        J = full_jacobian(grid, A, np.full(grid.shape, n - p), np.zeros((n,) + grid.shape))
        direct = spla.spsolve(J, -res.ravel()).reshape(grid.shape)
        du = _solve_linear(grid, n - p, -res)
        assert np.max(np.abs(J @ du.ravel() + res.ravel())) <= 1e-12 * np.max(np.abs(res))
        assert np.max(np.abs(du - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [2.7, 3.0, 3.3, 6.0])
    def test_presolve_keeps_the_drift(self, monkeypatch, n, p):
        # the presolve is the first rung's system with p set to 2: its drift
        # stays n - p_1 (p_1 = 4 at p = 6), and its residual is the p = 2
        # residual of operator_terms with that drift coefficient,
        # sum_kl A_kl H_kl + (n - p_1) g_a, bit for bit, negative zeros
        # included
        systems = []
        stage = solver._newton_stage

        def recording(values, system, *args):
            systems.append(system)
            return stage(values, system, *args)

        monkeypatch.setattr(solver, "_newton_stage", recording)
        grid = LogGrid.build(unit_domain(n=n), (9,) * n)
        solve_dirichlet(constant_forcing_problem(p, n), grid, SolverConfig(max_iter=0))
        presolve, *stages = systems
        first = p - 2.0 if p > 4.0 else p
        assert (presolve.p, presolve.drift) == (2.0, n - first)
        assert [(s.p, s.drift) for s in stages] == [(q, n - q) for q in sorted({first, p})]
        v = np.random.default_rng(n).standard_normal(grid.shape)
        u = GridFunction(grid, v)
        g, H = calculus.gradient_field(u), calculus.hessian_field(u)
        A = operator_terms(g, H, 2.0)[1]
        coef = gradient_powers(g, 2.0)[1]
        want = np.einsum("kl...,kl...->...", A, H) + (n - first) * coef * g[0] - presolve.F_log
        want[grid.boundary_mask] = 0.0
        got, lin = presolve.residual(v)
        assert lin is None
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_failing_p2_solve_runs_one_stage(self):
        # a p = 2 solve is one rung, so one that misses tol is one stage; a
        # failed warm stage is followed by the one cold stage
        grid = LogGrid.build(unit_domain(t_min=0.001), (13, 13))
        cfg = SolverConfig(max_iter=0)
        prob = constant_forcing_problem(2.0, 2)
        floor_stage = (2.0, 0, "max_iter")
        _, rep = solve_dirichlet(prob, grid, cfg)
        assert not rep.converged
        assert [(s.p, s.iterations, s.stop_reason) for s in rep.stages] == [floor_stage]
        _, rep = solve_dirichlet(prob, grid, cfg, initial=GridFunction(grid, np.zeros(grid.shape)))
        assert not rep.converged
        assert ([(s.p, s.iterations, s.stop_reason) for s in rep.stages]
                == [floor_stage] * 2)

    def test_p2_solve_neither_assembles_nor_factorizes(self, monkeypatch):
        grid = LogGrid.build(unit_domain(n=3), (17, 17, 17))
        u_star = make_exact_solution(2.0, 3)
        prob = manufactured_problem(u_star, 2.0)
        exact = exact_solution_values(u_star, grid).values
        # the direct solve: one Newton step from the boundary data
        start = np.where(grid.boundary_mask, prob.dirichlet_values(grid), 0.0)
        F_log = prob.log_forcing(grid)
        res = _NewtonSystem(grid, 2.0, 1.0, F_log, 1e-6).residual(start)[0]
        J = full_jacobian(grid, *coefficient_fields(start, grid, 2.0, 1e-6))
        direct = start + spla.spsolve(J, -res.ravel()).reshape(grid.shape)
        err_direct = float(np.max(np.abs(direct - exact)))

        monkeypatch.setattr(solver.spla, "spsolve", _raise)
        monkeypatch.setattr(solver, "_jacobian_operator", _raise)
        monkeypatch.setattr(solver, "_assemble_jacobian", _raise)
        u, rep = solve_dirichlet(prob, grid)
        assert rep.converged
        assert [s.iterations for s in rep.stages] == [1]
        # both solves are exact up to round-off, relative to the field's size
        scale = float(np.max(np.abs(exact)))
        assert np.max(np.abs(u.values - direct)) <= 1e-12 * scale
        err = float(np.max(np.abs(u.values - exact)))
        assert abs(err - err_direct) <= 1e-12 * scale


def radial_rows(grid, drift):
    """The a-axis tridiagonal block of the p = 2 Jacobian at ``drift``
    (lower, diagonal, upper), its diagonal shifted by every base mode's
    eigenvalue as ``_solve_linear`` shifts it (one column per mode)."""
    L = (grid.stencil_matrix(0, calculus.second_diff)
         + drift * grid.stencil_matrix(0, calculus.first_diff))[1:-1, 1:-1]
    shift = np.zeros(())
    for lam, _ in grid.eigenbases[1:]:
        shift = np.add.outer(shift, lam)
    return np.diag(L, -1), np.diag(L)[:, None] + shift.ravel(), np.diag(L, 1)


def tie_drift(grid, rank):
    """(drift, mode): a drift at which the first row of the base mode of
    ``rank``-th least |diagonal| ties, |lower| == |diagonal| exactly: a
    closed-form drift moved by ulps until it does."""
    lower, diag, _ = radial_rows(grid, 0.0)
    mode = np.argsort(np.abs(diag[0]))[rank]
    slope = radial_rows(grid, 1.0)[0][0] - lower[0]
    for target in (abs(diag[0, mode]), -abs(diag[0, mode])):
        drift = (target - lower[0]) / slope
        for k in range(-64, 65):
            tied, shifted, _ = radial_rows(grid, drift + k * np.spacing(drift))
            if abs(tied[0]) == abs(shifted[0, mode]):
                return drift + k * np.spacing(drift), mode
    raise AssertionError("no drift ties the first row")


def coarse_grid(n, counts, t_min, width):
    return LogGrid.build(ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[width] * (n - 1),
                                    t_min=t_min), counts)


class TestBandedElimination:
    """``_solve_linear`` eliminates its tridiagonal systems in numpy as
    LAPACK's dgtsv does; the stacked ``solve_banded`` solve is its oracle,
    bit for bit."""

    # (n, nodes, t_min, base width, drift, rows pivot): |drift| h_a <= 2, at
    # 41 base nodes too, where the back transform's product starts to round
    # by the memory layout of the modes' solutions; drift n - p of a p >= 5
    # presolve with |drift| h_a = 4 and 3 on h_a = 1, within the Peclet
    # bound 2(p-1), over a wide base whose lowest modes' shifted diagonals
    # fall below |lower|; and 1 and 2 interior radial nodes
    CASES = [(2, (9, 7), math.exp(-1.0), 1.0, -1.0, False),
             (2, (9, 41), math.exp(-1.0), 1.0, -1.0, False),
             (3, (7, 5, 6), math.exp(-1.0), 1.0, -1.0, False),
             (2, (4, 13), math.exp(-3.0), 8.0, -4.0, True),
             (3, (4, 7, 7), math.exp(-3.0), 8.0, -3.0, True),
             (2, (3, 7), math.exp(-2.0), 8.0, -4.0, False),
             (3, (3, 4, 5), math.exp(-2.0), 8.0, -3.0, False),
             (2, (4, 6), math.exp(-3.0), 8.0, -4.0, True),
             (3, (4, 5, 4), math.exp(-3.0), 8.0, -3.0, True)]

    @pytest.mark.parametrize("n, counts, t_min, width, drift, pivots", CASES)
    def test_matches_banded_solve_bit_for_bit(self, n, counts, t_min, width, drift, pivots):
        grid = coarse_grid(n, counts, t_min, width)
        lower, diag, _ = radial_rows(grid, drift)
        assert bool(np.any(np.abs(diag[:-1]) < np.abs(lower)[:, None])) == pivots
        for seed in range(3):
            rhs = np.random.default_rng(seed).standard_normal(grid.shape)
            assert (_solve_linear(grid, drift, rhs).tobytes()
                    == banded_linear_solve(grid, drift, rhs).tobytes())

    @pytest.mark.parametrize("n, counts", [(2, (5, 7)), (3, (4, 5, 6))])
    @pytest.mark.parametrize("rank", [0, 1])
    def test_exact_ties_do_not_swap(self, n, counts, rank):
        # dgtsv swaps only where |diagonal| < |lower|; the tie is at the
        # mode of least |diagonal|, so no mode of the row swaps, or at the
        # next one, so the mode of least |diagonal| swaps beside it
        grid = coarse_grid(n, counts, math.exp(-1.0), 1.0)
        drift, mode = tie_drift(grid, rank)
        lower, diag, _ = radial_rows(grid, drift)
        assert abs(lower[0]) == abs(diag[0, mode])
        assert np.sum(np.abs(diag[0]) < abs(lower[0])) == rank
        rhs = np.random.default_rng(rank).standard_normal(grid.shape)
        assert (_solve_linear(grid, drift, rhs).tobytes()
                == banded_linear_solve(grid, drift, rhs).tobytes())

    def test_small_integer_systems(self):
        # integer bands tie and swap in every row pattern; singular draws,
        # which solve_banded refuses, are skipped
        rng = np.random.default_rng(5)
        ties = swaps = 0
        for _ in range(300):
            m, count = rng.integers(1, 7), rng.integers(1, 6)
            lower, upper = rng.integers(-3, 4, (2, m - 1)).astype(float)
            diag = rng.choice([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0], (m, count))
            rhs = rng.standard_normal((m, count))
            try:
                want = stacked_banded_solve(lower, diag, upper, rhs)
            except np.linalg.LinAlgError:
                continue
            assert solver._tridiagonal_solve(lower, diag, upper, rhs).tobytes() == want.tobytes()
            ties += int(np.sum(np.abs(diag[:-1]) == np.abs(lower)[:, None]))
            swaps += int(np.sum(np.abs(diag[:-1]) < np.abs(lower)[:, None]))
        assert ties > 0 and swaps > 0


def _direct_solve(J, rhs, *system_and_preconditioner):
    # a sparse direct solve of the full-grid system from ``full_jacobian``
    return spla.spsolve(J, rhs.ravel()).reshape(rhs.shape)


def kept_factor(grid, lu=None):
    """A p = 3, n = 2 Newton system on ``grid`` whose kept factor is ``lu``."""
    return _NewtonSystem(grid, 3.0, -1.0, np.zeros(grid.shape), 1e-2, lu=lu)


class TestOrderedJacobianSolve:
    """At p != 2 the interior block of the Jacobian is factorized in
    nested-dissection order; the full-grid Jacobian and a sparse direct
    solve are its oracle."""

    @given(n=st.sampled_from([2, 3]), p=st.sampled_from([2.5, 3.0, 4.0, 6.0]),
           counts=st.lists(st.integers(3, 9), min_size=3, max_size=3),
           widths=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=2),
           eps=st.sampled_from([1e-1, 1e-2, 1e-6]), seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_solve(self, n, p, counts, widths, eps, seed):
        # a smooth iterate: a linear field with |gradient| >= 0.5 plus a
        # wave whose gradient stays below 0.25, so no critical point
        dom = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=widths[:n - 1],
                         t_min=math.exp(-1.0))
        grid = LogGrid.build(dom, counts[:n])
        rng = np.random.default_rng(seed)
        slope = rng.standard_normal(n)
        slope *= rng.uniform(0.5, 2.0) / np.linalg.norm(slope)
        freq = rng.uniform(0.0, 1.0, n)
        v = sum(s * m for s, m in zip(slope, grid.mesh))
        v = v + 0.25 * np.sin(sum(f * m for f, m in zip(freq, grid.mesh))) / math.sqrt(n)
        res = rng.standard_normal(grid.shape)
        res[grid.boundary_mask] = 0.0
        # a warm system factorizes at its first step
        system = _NewtonSystem(grid, p, n - p, np.zeros(grid.shape), eps, warm=True)
        lin = system.residual(v)[1]
        fields = coefficient_fields(v, grid, p, eps)
        direct = _direct_solve(full_jacobian(grid, *fields), -res)
        J = _jacobian_operator(grid, *fields)
        du = system.step(lin, -res)
        assert system.factorizations == 1 and system.krylov_iterations == 0
        assert np.all(du[grid.boundary_mask] == 0.0)
        assert np.max(np.abs(du - direct)) <= 1e-12 * np.max(np.abs(direct))
        # the kept factor of J preconditions GMRES on J itself: no new factor,
        # and the tolerance holds on the true residual
        du = system.step(lin, -res)
        assert system.factorizations == 1 and system.krylov_iterations >= 1
        assert (np.linalg.norm(J @ du.ravel() + res.ravel())
                <= solver.KRYLOV_RTOL * np.linalg.norm(res))

    def test_singular_factor_raises(self):
        # an all-zero interior block, with no factor and with a kept one:
        # GMRES on the zero operator fails and the refactorization is singular
        grid = LogGrid.build(unit_domain(), (5, 6))
        m = grid.dissection_order.size
        rhs = np.where(grid.boundary_mask, 0.0, 1.0)
        zero = _jacobian_operator(grid, np.zeros((2, 2) + grid.shape), np.zeros(grid.shape),
                                  np.zeros((2,) + grid.shape))
        for stale in (None, spla.splu(sp.identity(m, format="csc"))):
            with pytest.raises(RuntimeError):
                _solve_jacobian(zero, rhs, kept_factor(grid, stale))

    def test_wrong_stale_factor_refactorizes(self):
        # a kept factor of an unrelated diagonal matrix leaves GMRES far from
        # its tolerance after one cycle; the step then factorizes J itself
        grid = LogGrid.build(unit_domain(), (17, 17))
        rng = np.random.default_rng(3)
        v = 0.8 * grid.mesh[0] + 0.1 * np.sin(3.0 * grid.mesh[1])
        res = rng.standard_normal(grid.shape)
        res[grid.boundary_mask] = 0.0
        m = grid.dissection_order.size
        stale = spla.splu(sp.diags(10.0 ** rng.uniform(-3, 3, m)).tocsc())
        factor = kept_factor(grid, stale)
        fields = coefficient_fields(v, grid, 3.0, 1e-2)
        du = _solve_jacobian(_jacobian_operator(grid, *fields), -res, factor)
        assert factor.krylov_iterations == solver.KRYLOV_RESTART
        assert factor.factorizations == 1 and factor.lu is not stale
        direct = _direct_solve(full_jacobian(grid, *fields), -res)
        assert np.max(np.abs(du - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_kept_factor_cycle_matches_scipy_gmres(self):
        # the flexible GMRES cycle on a kept factor is scipy's right-
        # preconditioned gmres in exact arithmetic: the same iteration count
        # and du within 1e-9 of it relative to max |du| (the cycle only
        # meets 1e-6 on the residual, and the two orthogonalize
        # differently); it keeps M^-1 v_j per iteration, so a converged step
        # solves with the factor exactly krylov_iterations times
        class CountingLU:
            def __init__(self, lu):
                self.lu, self.calls = lu, 0

            def solve(self, y):
                self.calls += 1
                return self.lu.solve(y)

        grid = LogGrid.build(unit_domain(), (17, 17))
        rng = np.random.default_rng(5)
        v = 0.8 * grid.mesh[0] + 0.1 * np.sin(3.0 * grid.mesh[1])
        res = rng.standard_normal(grid.shape)
        res[grid.boundary_mask] = 0.0
        J = _jacobian_operator(grid, *coefficient_fields(v, grid, 3.0, 1e-2))
        # the factor of a nearby iterate's Jacobian, as a Newton solve keeps it
        # in dissection order
        nearby = coefficient_fields(v + 0.05 * grid.mesh[1] ** 2, grid, 3.0, 1e-2)
        lu = spla.splu(ordered_interior_block(grid, *nearby), permc_spec="NATURAL")
        counting = CountingLU(lu)
        factor = kept_factor(grid, counting)
        du = _solve_jacobian(J, -res, factor)
        assert factor.factorizations == 0 and factor.lu is counting
        assert factor.krylov_iterations >= 2
        assert counting.calls == factor.krylov_iterations
        order = grid.dissection_order

        def factor_solve(y):
            x = np.zeros(y.size)
            x[order] = lu.solve(y[order])
            return x

        want, iterations, info = scipy_gmres_cycle(J, -res.ravel(), factor_solve)
        assert info == 0 and iterations == factor.krylov_iterations
        assert np.max(np.abs(du.ravel() - want)) <= 1e-9 * np.max(np.abs(want))

    def test_nonlinear_solve_never_calls_spsolve(self, monkeypatch):
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = manufactured_problem(power_of_t_field(0.4), 3.0)
        # the same solve with every p != 2 Newton step a full-grid spsolve
        with monkeypatch.context() as m:
            m.setattr(solver, "_jacobian_operator", full_jacobian)
            m.setattr(solver, "_solve_jacobian", _direct_solve)
            u_direct, rep_direct = solve_dirichlet(prob, grid)

        def no_spsolve(*args, **kwargs):
            raise AssertionError("a p != 2 Newton step must not call spsolve")

        monkeypatch.setattr(solver.spla, "spsolve", no_spsolve)
        u, rep = solve_dirichlet(prob, grid)
        assert rep.converged and rep_direct.converged
        assert ([s.iterations for s in rep.stages]
                == [s.iterations for s in rep_direct.stages])
        scale = float(np.max(np.abs(u_direct.values)))
        assert np.max(np.abs(u.values - u_direct.values)) <= 1e-12 * scale


def constant_coefficients(grid, c, b):
    """The constant-coefficient Jacobian sum_k c_k D2_k + b D1_a twice: as
    the linearization point (A, B, g, H) of a step, A = diag(c),
    B = b and g = H = 0, where ``gradient_coefficient`` adds nothing, and as
    fields (A, B, C) to assemble, with b split between B and C_0."""
    n, shape = grid.n, grid.shape
    A = np.zeros((n, n) + shape)
    for k, ck in enumerate(c):
        A[k, k] = ck
    C = np.zeros((n,) + shape)
    C[0] = 0.75 * b
    lin = (A, np.full(shape, float(b)), np.zeros((n,) + shape), np.zeros((n, n) + shape))
    return lin, (A, np.full(shape, 0.25 * b), C)


def zero_data_problem(p, f=0.5):
    return PDEProblem(p=p, f=lambda t, xs: np.full_like(np.asarray(t), f),
                      dirichlet=lambda t, xs: np.zeros_like(np.asarray(t)))


class TestStencilOperator:
    """A p != 2 step applies its Jacobian as a stencil operator on the
    flattened full grid in natural order, and only a factorization gathers
    its products into the interior block in dissection order; the full-grid
    Jacobian, the assembly from the coefficient fields in dissection order
    and the step that factorizes every Jacobian afresh are its oracles."""

    @given(n=st.sampled_from([2, 3]), counts=st.lists(st.integers(3, 9), min_size=3, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_full_jacobian_and_the_ordered_assembly(self, n, counts, seed):
        grid = LogGrid.build(unit_domain(n=n), counts[:n])
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n) + grid.shape)
        B = rng.standard_normal(grid.shape)
        C = rng.standard_normal((n,) + grid.shape)
        v = rng.standard_normal(math.prod(grid.shape))
        J = _jacobian_operator(grid, A, B, C)
        Jv, interior = J @ v, ~grid.boundary_mask.ravel()
        full = full_jacobian(grid, A, B, C)
        want = (full @ v)[interior]
        assert np.all(Jv[~interior] == 0.0)
        # relative to the rows' sums of |J_ij v_j|: on a single interior row
        # (3^3 nodes) the terms can cancel to a small fraction of themselves
        scale = np.max((abs(full) @ np.abs(v))[interior])
        assert np.max(np.abs(Jv[interior] - want)) <= 1e-14 * scale
        block, ref = _assemble_jacobian(J), ordered_interior_block(grid, A, B, C)
        for name in ("indptr", "indices", "data"):
            assert getattr(block, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("n, nodes, prob", [
        (2, 17, manufactured_problem(power_of_t_field(0.5), 3.0)),
        (3, 9, zero_data_problem(4.0))], ids=["p3-17^2-manufactured", "p4-9^3-zero-data"])
    def test_cold_steps_build_no_csc(self, monkeypatch, n, nodes, prob):
        # every step of these cold solves meets its fast-diagonalization
        # cycle, so none gathers the interior block or numbers the grid in
        # dissection order; the fields match the solve that factorizes
        # every Jacobian
        def no_csc(*args):
            raise AssertionError("a cold step must not build the interior block")

        with monkeypatch.context() as m:
            m.setattr(solver, "_solve_jacobian", refactorized_solve)
            u_fresh, rep_fresh = solve_dirichlet(prob, LogGrid.build(unit_domain(n=n),
                                                                     (nodes,) * n))
        monkeypatch.setattr(solver, "_assemble_jacobian", no_csc)
        grid = LogGrid.build(unit_domain(n=n), (nodes,) * n)
        u, rep = solve_dirichlet(prob, grid)
        assert rep.converged and rep_fresh.converged
        assert sum(s.factorizations for s in rep.stages) == 0
        assert sum(s.krylov_iterations for s in rep.stages) > 0
        assert "dissection_order" not in vars(grid) and "interior_pattern" not in vars(grid)
        scale = float(np.max(np.abs(u_fresh.values)))
        assert np.max(np.abs(u.values - u_fresh.values)) <= 1e-10 * scale


class TestFastDiagonalization:
    """A cold system's step preconditions GMRES by the exact inverse of the
    Jacobian's constant-coefficient mean; the assembled block is its
    oracle."""

    @pytest.mark.parametrize("counts, c", [((9, 11), (1.3, 0.7)),
                                           ((7, 8, 9), (1.3, 0.7, 2.1))])
    @pytest.mark.parametrize("drift", [-5.0, 5.0])
    def test_inverts_the_constant_coefficient_block(self, counts, c, drift):
        grid = LogGrid.build(unit_domain(n=len(counts)), counts)
        fields = constant_coefficients(grid, c, drift)[1]
        columns, unit = interior_columns(grid, _jacobian_operator(grid, *fields))
        solve = solver._fd_preconditioner(grid, *fields)
        inverse_times_J = np.stack([solve(col) for col in columns.T], axis=1)
        assert np.max(np.abs(inverse_times_J - unit)) <= 1e-12

    @pytest.mark.parametrize("counts, c", [((9, 11), (1.3, 0.7)),
                                           ((7, 8, 9), (1.3, 0.7, 2.1))])
    @pytest.mark.parametrize("drift", [-5.0, 5.0])
    def test_inverts_a_row_scaled_constant_coefficient_block(self, counts, c, drift):
        # every coefficient field is one varying positive field times
        # constants, so the Jacobian is diag(s) M with M constant and the
        # row-scaled preconditioner is its exact inverse
        grid = LogGrid.build(unit_domain(n=len(counts)), counts)
        field = np.exp(np.random.default_rng(3).uniform(-2.0, 2.0, grid.shape))
        A, B, C = constant_coefficients(grid, c, drift)[1]
        fields = (A * field, B * field, C * field)
        columns, unit = interior_columns(grid, _jacobian_operator(grid, *fields))
        solve = solver._fd_preconditioner(grid, *fields)
        inverse_times_J = np.stack([solve(col) for col in columns.T], axis=1)
        assert np.max(np.abs(inverse_times_J - unit)) <= 1e-12

    @pytest.mark.parametrize("counts, peclet", [((9, 11), 2.5), ((9, 11), 4.0), ((41, 9), 1.98)])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_no_preconditioner_where_the_a_block_loses_its_sign(self, counts, peclet, sign):
        # |b| h_a > 2 c_0 makes the sub- or the superdiagonal of the a-block
        # negative, sub * sup < 0; just below it, on 39 interior radial
        # nodes, the similarity that symmetrizes the block has condition
        # (sup / sub)^19 > 1e43: either way the cold step factorizes
        grid = LogGrid.build(unit_domain(), counts)
        lin, fields = constant_coefficients(grid, (1.3, 0.7), sign * peclet * 1.3 / grid.h[0])
        assert solver._fd_preconditioner(grid, *fields) is None
        system = _NewtonSystem(grid, 3.0, -1.0, np.zeros(grid.shape), 1e-2)
        rhs = np.where(grid.boundary_mask, 0.0, 1.0)
        du = system.step(lin, rhs)
        assert (system.factorizations, system.krylov_iterations) == (1, 0)
        J = _jacobian_operator(grid, *fields)
        assert np.allclose(J @ du.ravel(), rhs.ravel(), rtol=0, atol=1e-12)

    def test_zero_rhs_gives_a_zero_step(self):
        grid = LogGrid.build(unit_domain(), (9, 11))
        lin = constant_coefficients(grid, (1.3, 0.7), 5.0)[0]
        system = _NewtonSystem(grid, 3.0, -1.0, np.zeros(grid.shape), 1e-2)
        with np.errstate(all="raise"):
            du = system.step(lin, np.zeros(grid.shape))
        assert np.all(du == 0.0)
        assert (system.factorizations, system.krylov_iterations) == (0, 0)

    def test_constant_coefficient_step_takes_one_iteration(self):
        # the preconditioner is the Jacobian's exact inverse, so the cycle
        # meets its tolerance in one iteration and nothing is factorized
        grid = LogGrid.build(unit_domain(n=3), (7, 8, 9))
        lin, fields = constant_coefficients(grid, (1.3, 0.7, 2.1), -5.0)
        system = _NewtonSystem(grid, 3.0, -2.0, np.zeros(grid.shape), 1e-2)
        rhs = np.where(grid.boundary_mask, 0.0,
                       np.random.default_rng(1).standard_normal(grid.shape))
        du = system.step(lin, rhs)
        assert (system.factorizations, system.krylov_iterations) == (0, 1)
        J = _jacobian_operator(grid, *fields)
        b = rhs.ravel()
        assert np.linalg.norm(J @ du.ravel() - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("n, nodes, p", [(2, 33, 3.0), (2, 33, 4.0), (3, 13, 3.0)])
    def test_cold_manufactured_solve_factorizes_nothing(self, n, nodes, p):
        grid = LogGrid.build(unit_domain(n=n), (nodes,) * n)
        _, rep = solve_dirichlet(manufactured_problem(power_of_t_field(0.5), p), grid)
        assert rep.converged
        assert sum(s.factorizations for s in rep.stages) == 0
        assert sum(s.krylov_iterations for s in rep.stages) > 0

    def test_cold_zero_data_solve_in_3d_factorizes_nothing(self):
        # |grad u|^(p-2) varies by orders of magnitude across the base, which
        # the row scaling takes out of the constant-coefficient fit
        grid = LogGrid.build(unit_domain(n=3), (9, 9, 9))
        _, rep = solve_dirichlet(zero_data_problem(4.0), grid)
        assert rep.converged
        assert sum(s.factorizations for s in rep.stages) == 0
        assert sum(s.krylov_iterations for s in rep.stages) > 0

    def test_one_cycle_misses_where_its_iterations_run_out(self):
        # a diagonal system whose spread one 5-iteration or 30-iteration
        # cycle cannot resolve returns no iterate; the cycle is not
        # restarted, and one of up to 50 iterations meets the tolerance
        J = np.diag(np.linspace(1.0, 50.0, 50))
        b = np.random.default_rng(2).standard_normal(50)
        for restart in (5, 30):
            x, iterations = solver._fgmres(J, b, lambda v: v.copy(), restart)
            assert x is None and iterations == restart
        x, iterations = solver._fgmres(J, b, lambda v: v.copy(), 50)
        assert x is not None and 30 < iterations <= 50
        assert np.linalg.norm(J @ x - b) <= solver.KRYLOV_RTOL * np.linalg.norm(b)

    def test_warm_stage_factorizes_at_its_first_step(self, monkeypatch):
        # a warm system takes no fast-diagonalization cycle
        def no_fd(*fields):
            raise AssertionError("a warm stage must not build the preconditioner")

        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = manufactured_problem(power_of_t_field(0.5), 3.0)
        u, _ = solve_dirichlet(prob, grid)
        monkeypatch.setattr(solver, "_fd_preconditioner", no_fd)
        _, rep = solve_dirichlet(prob, grid, initial=GridFunction(grid, 0.9 * u.values))
        assert rep.converged and len(rep.stages) == 1
        assert rep.stages[0].factorizations >= 1


class TestReusedFactor:
    """A solve keeps one ``splu`` factor and refactorizes only where GMRES
    on it stalls; factorizing every Jacobian afresh is its oracle."""

    @pytest.mark.parametrize("n, nodes, p", [(2, 33, 3.0), (2, 33, 4.0), (3, 13, 3.0)])
    def test_matches_refactorizing_every_step(self, monkeypatch, n, nodes, p):
        grid = LogGrid.build(unit_domain(n=n), (nodes,) * n)
        prob = manufactured_problem(power_of_t_field(0.5), p)
        with monkeypatch.context() as m:
            m.setattr(solver, "_solve_jacobian", refactorized_solve)
            u_fresh, rep_fresh = solve_dirichlet(prob, grid)
        u, rep = solve_dirichlet(prob, grid)
        assert rep.converged and rep_fresh.converged
        assert ([s.iterations for s in rep.stages]
                == [s.iterations for s in rep_fresh.stages])
        assert ([s.factorizations for s in rep_fresh.stages]
                == [s.iterations for s in rep_fresh.stages])
        scale = float(np.max(np.abs(u_fresh.values)))
        assert np.max(np.abs(u.values - u_fresh.values)) <= 1e-12 * scale

    def test_factorizes_in_fewer_than_half_the_steps(self, monkeypatch):
        # with no fast-diagonalization preconditioner every cold step is on
        # the factor path, as a forced miss of its cycle would put it
        monkeypatch.setattr(solver, "_fd_preconditioner", lambda *fields: None)
        grid = LogGrid.build(unit_domain(), (49, 49))
        prob = manufactured_problem(power_of_t_field(0.5), 4.0)
        _, rep = solve_dirichlet(prob, grid)
        steps = sum(s.iterations for s in rep.stages)
        factorizations = sum(s.factorizations for s in rep.stages)
        assert rep.converged and rep.stages[0].factorizations >= 1
        assert 2 * factorizations < steps
        assert sum(s.krylov_iterations for s in rep.stages) > 0

    def test_one_factor_is_alive_at_a_time(self, monkeypatch):
        # a refactorization drops the factor GMRES missed before SuperLU
        # builds the next, so splu never starts while an earlier factor is
        # still reachable; each factor is wrapped in a weakref-able proxy.
        # With no fast-diagonalization preconditioner every cold step is on
        # the factor path, where this solve refactorizes
        class Factor:
            def __init__(self, lu):
                self.solve = lu.solve

        factors, alive = [], []
        splu = spla.splu

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in factors))
            factor = Factor(splu(*args, **kwargs))
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(solver.spla, "splu", tracked)
        monkeypatch.setattr(solver, "_fd_preconditioner", lambda *fields: None)
        grid = LogGrid.build(unit_domain(), (17, 17))
        _, rep = solve_dirichlet(manufactured_problem(power_of_t_field(-0.9), 4.0), grid)
        assert rep.converged and sum(s.factorizations for s in rep.stages) == len(factors)
        assert len(factors) >= 2 and alive == [0] * len(factors)

    def test_first_step_binds_scipy_and_keeps_a_stand_in(self, monkeypatch):
        # the first factorization binds solver.sp and solver.spla; a
        # stand-in already set on spla (the benchmark tracer's proxy) gets
        # the calls.  A cold solve whose cycles all meet their tolerance
        # binds neither and never calls it, and a warm one factorizes at its
        # first step
        real, calls = solver.spla, []

        class StandIn:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(real, name)

        monkeypatch.delattr(solver, "sp")
        monkeypatch.setattr(solver, "spla", StandIn())
        grid = LogGrid.build(unit_domain(), (9, 9))
        prob = manufactured_problem(power_of_t_field(-0.9), 3.0)
        u, rep = solve_dirichlet(prob, grid)
        assert rep.converged and calls == []
        assert sum(s.factorizations for s in rep.stages) == 0
        assert "sp" not in vars(solver)
        _, rep = solve_dirichlet(prob, grid, initial=GridFunction(grid, 0.5 * u.values))
        assert rep.converged and rep.stages[0].factorizations >= 1 and "splu" in calls
        assert vars(solver)["sp"] is sp

    def test_p2_solve_counts_no_linear_work(self):
        grid = LogGrid.build(unit_domain(), (9, 9))
        prob = manufactured_problem(make_exact_solution(2.0, 2), 2.0)
        _, rep = solve_dirichlet(prob, grid)
        assert [(s.factorizations, s.krylov_iterations) for s in rep.stages] == [(0, 0)]


def record_stage_targets(monkeypatch):
    """Patch ``solver._newton_stage`` to log (p, eps_reg, target) of the
    system of every call."""
    calls = []
    stage = solver._newton_stage

    def recording(values, system, max_iter, target):
        calls.append((system.p, system.eps_reg, target))
        return stage(values, system, max_iter, target)

    monkeypatch.setattr(solver, "_newton_stage", recording)
    return calls


def constant_forcing_problem(p, n, c=0.3):
    return PDEProblem(p=p, f=constant_field(c), dirichlet=zero_field)


def t_power_forcing_problem(p, c=0.3):
    """Zero Dirichlet data and t^p f = c, the family of the verify-2d
    benchmark problem (p = 3)."""
    return PDEProblem(p=p, f=separable_exponential_field(c, -p, []), dirichlet=zero_field)


class TestFloorStage:
    """A p > 2 solve runs the p = 2 presolve and one stage at the floor eps
    per rung of its ladder in p, each to ``cfg.tol``.  The halving eps
    continuation is the oracle."""

    # measured on these cases: at most 0.41 tol (n = 3, p = 6, u* = t^0.5)
    FIELD_GAP_TOLS = 10.0

    @pytest.mark.parametrize("n, nodes", [(2, 13), (3, 9)])
    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("kind", ["t^0.5", "f=0.3"])
    def test_matches_the_halving_schedule(self, n, nodes, p, kind):
        grid = LogGrid.build(unit_domain(n=n), (nodes,) * n)
        prob = (manufactured_problem(power_of_t_field(0.5), p) if kind == "t^0.5"
                else constant_forcing_problem(p, n))
        cfg = SolverConfig()
        u, rep = solve_dirichlet(prob, grid, cfg)
        ref, rep_ref = halving_schedule(prob, grid, cfg)
        assert rep.converged and rep_ref.converged
        assert [s.p for s in rep.stages] == ([4.0, 6.0] if p == 6.0 else [p])
        assert len(rep_ref.stages) > 10
        assert np.max(np.abs(u.values - ref.values)) <= self.FIELD_GAP_TOLS * cfg.tol
        assert (sum(s.iterations for s in rep.stages)
                < sum(s.iterations for s in rep_ref.stages))

    @pytest.mark.parametrize("p, ladder", [(2.0, [2.0]), (3.0, [3.0]), (4.0, [4.0]),
                                           (4.5, [2.5, 4.5]), (5.0, [3.0, 5.0]),
                                           (6.0, [4.0, 6.0]), (7.0, [3.0, 5.0, 7.0])])
    def test_stages_are_the_rungs_of_the_ladder(self, monkeypatch, p, ladder):
        # the rungs p, p - 2, ... above 2 in ascending order, one stage each,
        # after the presolve of a p > 2 solve; every one at the floor eps
        calls = record_stage_targets(monkeypatch)
        grid = LogGrid.build(unit_domain(), (13, 13))
        cfg = SolverConfig(eps_reg_floor=1e-5)
        _, rep = solve_dirichlet(constant_forcing_problem(p, 2), grid, cfg)
        assert [s.p for s in rep.stages] == ladder
        presolve = [(2.0, 1e-5, cfg.tol)] if p > 2.0 else []
        assert calls == presolve + [(q, 1e-5, cfg.tol) for q in ladder]

    def test_failed_rung_hands_its_field_to_the_next(self, monkeypatch):
        # three steps are too few for the p = 4 rung: it misses tol, is not
        # retried, and the p = 6 rung starts from the field it left, as it
        # starts from the presolve's
        stage = solver._newton_stage
        runs = []

        def recording(values, system, *args):
            out, record = stage(values, system, *args)
            runs.append((system.p, values, out))
            return out, record

        monkeypatch.setattr(solver, "_newton_stage", recording)
        grid = LogGrid.build(unit_domain(), (13, 13))
        cfg = SolverConfig(max_iter=3)
        _, rep = solve_dirichlet(constant_forcing_problem(6.0, 2), grid, cfg)
        assert [(s.p, s.iterations, s.stop_reason) for s in rep.stages] == [
            (4.0, 3, "max_iter"), (6.0, 3, "max_iter")]
        assert rep.stages[0].residual_norm > cfg.tol
        assert [q for q, *_ in runs] == [2.0, 4.0, 6.0]
        (_, _, presolved), (_, start4, left4), (_, start6, _) = runs
        assert start4 is presolved and start6 is left4

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_one_stage_per_rung_however_few_the_steps(self, max_iter):
        # with too few steps for every rung, a p = 6 solve still stops after
        # its two rungs, at the floor eps, and the report says it failed
        grid = LogGrid.build(unit_domain(), (13, 13))
        cfg = SolverConfig(max_iter=max_iter)
        _, rep = solve_dirichlet(constant_forcing_problem(6.0, 2), grid, cfg)
        assert [(s.p, s.iterations, s.stop_reason) for s in rep.stages] == [
            (4.0, max_iter, "max_iter"), (6.0, max_iter, "max_iter")]
        assert not rep.converged
        assert rep.final_residual == rep.stages[-1].residual_norm > cfg.tol

    @pytest.mark.parametrize("p", [4.5, 6.0, 7.0])
    def test_each_rung_reads_its_own_forcing_and_drift(self, monkeypatch, p):
        # rung q is a cold system with forcing t^q f and drift n - q at the
        # floor eps; the presolve takes the first rung's forcing and drift
        systems = []
        stage = solver._newton_stage

        def recording(values, system, *args):
            systems.append(system)
            return stage(values, system, *args)

        monkeypatch.setattr(solver, "_newton_stage", recording)
        grid = LogGrid.build(unit_domain(), (9, 9))
        prob = constant_forcing_problem(p, 2)
        cfg = SolverConfig(max_iter=0)
        solve_dirichlet(prob, grid, cfg)
        presolve, *rungs = systems
        for rung in rungs:
            want = dataclasses.replace(prob, p=rung.p).log_forcing(grid, interior_only=True)
            assert np.array_equal(rung.F_log, want)
            assert (rung.drift, rung.eps_reg, rung.warm) == (2.0 - rung.p, cfg.eps_reg_floor,
                                                             False)
        assert not np.array_equal(rungs[0].F_log, rungs[-1].F_log)
        assert (presolve.p, presolve.drift) == (2.0, rungs[0].drift)
        assert np.array_equal(presolve.F_log, rungs[0].F_log)

    def test_p6_steps_do_not_move_with_the_presolve_round_off(self, monkeypatch):
        # a presolve moved by one ulp at 20 interior nodes leaves the p = 6
        # solve's Newton steps as they are (from the p = 2 presolve straight
        # to p = 6 they were 52, and 51, 43 and 268 from three such starts)
        stage = solver._newton_stage
        grid = LogGrid.build(unit_domain(), (41, 41))
        interior = np.flatnonzero(~grid.boundary_mask.ravel())
        steps = []
        for seed in (None, 1, 2, 3):
            def perturbed(values, system, *args, seed=seed):
                values, record = stage(values, system, *args)
                if system.p == 2.0 and seed is not None:
                    nodes = np.random.default_rng(seed).choice(interior, 20, replace=False)
                    values = values.copy()
                    values.flat[nodes] = np.nextafter(values.flat[nodes], np.inf)
                return values, record

            monkeypatch.setattr(solver, "_newton_stage", perturbed)
            _, rep = solve_dirichlet(constant_forcing_problem(6.0, 2, c=1.0), grid)
            assert rep.converged
            steps.append(sum(s.iterations for s in rep.stages))
        assert len(set(steps)) == 1, steps

    @pytest.mark.parametrize("tol", [1.0, 4.0])
    def test_tol_at_least_one_is_every_target(self, monkeypatch, tol):
        # the presolve and the floor stage both stop at tol, however loose
        calls = record_stage_targets(monkeypatch)
        grid = LogGrid.build(unit_domain(), (13, 13))
        cfg = SolverConfig(tol=tol)
        _, rep = solve_dirichlet(constant_forcing_problem(3.0, 2), grid, cfg)
        assert rep.converged
        assert calls == [(2.0, cfg.eps_reg_floor, tol), (3.0, cfg.eps_reg_floor, tol)]

    def test_set_floor_is_the_one_stage(self, monkeypatch):
        # a floor above the default is the eps of the presolve and of the
        # one stage, which converges there
        calls = record_stage_targets(monkeypatch)
        grid = LogGrid.build(unit_domain(), (13, 13))
        cfg = SolverConfig(eps_reg_floor=1e-3)
        _, rep = solve_dirichlet(constant_forcing_problem(4.0, 2), grid, cfg)
        assert rep.converged
        assert calls == [(2.0, 1e-3, cfg.tol), (4.0, 1e-3, cfg.tol)]
        assert [(s.p, s.stop_reason) for s in rep.stages] == [(4.0, "converged")]

    def test_failed_p2_stage_does_not_climb(self):
        # a p = 2 solve is one rung: with no Newton step allowed its one
        # stage fails and the report says so
        grid = LogGrid.build(unit_domain(), (13, 13))
        cfg = SolverConfig(max_iter=0)
        _, rep = solve_dirichlet(constant_forcing_problem(2.0, 2), grid, cfg)
        assert [(s.p, s.iterations, s.stop_reason) for s in rep.stages] == [
            (2.0, 0, "max_iter")]
        assert not rep.converged
        assert rep.final_residual == rep.stages[0].residual_norm > cfg.tol

    def test_p2_solve_runs_its_one_stage_to_tol(self, monkeypatch):
        calls = record_stage_targets(monkeypatch)
        grid = LogGrid.build(unit_domain(), (13, 13))
        cfg = SolverConfig()
        solve_dirichlet(constant_forcing_problem(2.0, 2), grid, cfg)
        assert calls == [(2.0, cfg.eps_reg_floor, cfg.tol)]

    def test_line_search_accepts_a_trial_within_the_target(self, monkeypatch):
        # a Newton step scaled by 1e-6 lowers the residual by about 1e-6 of
        # itself, far less than the sufficient decrease asks; a target just
        # below the start residual still accepts it, in one step
        stage, step = solver._newton_stage, solver._solve_jacobian
        monkeypatch.setattr(solver, "_solve_jacobian",
                            lambda J, rhs, *rest: 1e-6 * step(J, rhs, *rest))
        grid = LogGrid.build(unit_domain(), (13, 13))
        prob = constant_forcing_problem(3.0, 2)
        F_log = prob.log_forcing(grid, interior_only=True)
        values = np.zeros(grid.shape)
        res = _NewtonSystem(grid, 3.0, -1.0, F_log, 1e-2).residual(values)[0]
        norm = float(np.max(np.abs(res)))
        max_iter = SolverConfig().max_iter
        _, rec = stage(values, _NewtonSystem(grid, 3.0, -1.0, F_log, 1e-2), max_iter,
                       (1.0 - 1e-7) * norm)
        assert (rec.iterations, rec.stop_reason) == (1, "converged")
        _, rec = stage(values, _NewtonSystem(grid, 3.0, -1.0, F_log, 1e-2), max_iter,
                       (1.0 - 1e-5) * norm)
        assert (rec.iterations, rec.stop_reason) == (1, "line_search")


def raised_forcing(prob, margin=0.5):
    """``prob`` with its forcing raised by margin t^-p, as the shifted pair
    of ``verify comparison`` and ``verify doubling`` raises it."""
    def f_high(t, xs):
        return prob.f(t, xs) + margin * np.asarray(t, dtype=float) ** (-prob.p)
    return PDEProblem(p=prob.p, f=f_high, dirichlet=prob.dirichlet)


class TestWarmStart:
    """An ``initial`` field runs one Newton stage at p and the floor eps
    from it, and a solve without one, the cold solve, is its oracle."""

    # measured on these cases: at most 0.06 tol
    FIELD_GAP_TOLS = 10.0

    @pytest.mark.parametrize("n, nodes", [(2, 13), (3, 10)])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_shifted_solve_matches_the_cold_one(self, n, nodes, p):
        grid = LogGrid.build(unit_domain(n=n), (nodes,) * n)
        # t^p f = 0.3, the family of the verify-2d benchmark problem
        prob = PDEProblem(p=p, f=separable_exponential_field(0.3, -p, []),
                          dirichlet=zero_field)
        cfg = SolverConfig()
        v, rep_v = solve_dirichlet(prob, grid, cfg)
        cold, rep_cold = solve_dirichlet(raised_forcing(prob), grid, cfg)
        warm, rep = solve_dirichlet(raised_forcing(prob), grid, cfg, initial=v)
        assert rep_v.converged and rep_cold.converged and rep.converged
        # one converged stage at p, and no presolve or ladder
        assert [(s.p, s.stop_reason) for s in rep.stages] == [(p, "converged")]
        assert rep.final_residual == rep.stages[0].residual_norm <= cfg.tol
        assert np.max(np.abs(warm.values - cold.values)) <= self.FIELD_GAP_TOLS * cfg.tol

    def test_warm_stage_is_the_only_stage(self, monkeypatch):
        # a start at the solution runs one floor stage to tol, with no presolve
        grid = LogGrid.build(unit_domain(), (13, 13))
        prob = constant_forcing_problem(3.0, 2)
        cfg = SolverConfig()
        u, _ = solve_dirichlet(prob, grid, cfg)
        calls = record_stage_targets(monkeypatch)
        _, rep = solve_dirichlet(prob, grid, cfg, initial=u)
        assert calls == [(3.0, cfg.eps_reg_floor, cfg.tol)]
        assert rep.converged and len(rep.stages) == 1

    def test_boundary_is_reset_to_the_dirichlet_data(self):
        grid = LogGrid.build(unit_domain(), (13, 13))
        u_star = power_of_t_field(0.5)
        prob = manufactured_problem(u_star, 3.0)
        exact = exact_solution_values(u_star, grid).values
        # the exact field with its boundary values moved away from the data
        start = GridFunction(grid, np.where(grid.boundary_mask, exact + 0.5, exact))
        u, rep = solve_dirichlet(prob, grid, initial=start)
        assert rep.converged and len(rep.stages) == 1
        bmask = grid.boundary_mask
        np.testing.assert_array_equal(u.values[bmask], prob.dirichlet_values(grid)[bmask])
        assert np.max(np.abs(u.values - solve_dirichlet(prob, grid)[0].values)) <= (
            self.FIELD_GAP_TOLS * SolverConfig().tol)

    def test_failed_warm_stage_falls_back_to_the_cold_solve(self):
        # from a random start the floor stage takes 14 Newton steps, more
        # than the 8 allowed, where the cold solve takes 5; the solve then
        # runs exactly the cold solve, whose stages follow the failed one
        grid = LogGrid.build(unit_domain(), (13, 13))
        prob = constant_forcing_problem(3.0, 2)
        cfg = SolverConfig(max_iter=8)
        start = GridFunction(grid, np.random.default_rng(0).standard_normal(grid.shape))
        u, rep = solve_dirichlet(prob, grid, cfg, initial=start)
        cold, rep_cold = solve_dirichlet(prob, grid, cfg)
        warm, *rest = rep.stages
        assert (warm.p, warm.stop_reason) == (3.0, "max_iter")
        assert warm.iterations > 0 and warm.residual_norm > cfg.tol
        assert rest == rep_cold.stages
        assert (rep.converged, rep.final_residual) == (True, rep_cold.final_residual)
        np.testing.assert_array_equal(u.values, cold.values)

    def test_p4_shifted_subsolutions_agree(self):
        # the pair of ``verify comparison`` on the zero-data problem
        # t^p f = 0.3 at p = 4, 17^2: the warm and the cold subsolution are
        # one field (with a coefficient blind to spikes they were two, min u
        # -0.2461 and -0.3309, a gap of 0.091)
        grid = LogGrid.build(unit_domain(), (17, 17))
        prob = t_power_forcing_problem(4.0)
        cfg = SolverConfig()
        v, rep_v = solve_dirichlet(prob, grid, cfg)
        warm, rep_w = solve_dirichlet(raised_forcing(prob), grid, cfg, initial=v)
        cold, rep_c = solve_dirichlet(raised_forcing(prob), grid, cfg)
        assert rep_v.converged and rep_w.converged and rep_c.converged
        assert np.max(np.abs(warm.values - cold.values)) <= self.FIELD_GAP_TOLS * cfg.tol

    def test_initial_on_other_nodes_is_rejected(self):
        grid = LogGrid.build(unit_domain(), (13, 13))
        other = LogGrid.build(unit_domain(), (13, 11))
        with pytest.raises(ValueError, match=r"\(13, 11\) does not have the nodes .* \(13, 13\)"):
            solve_dirichlet(constant_forcing_problem(3.0, 2), grid,
                            initial=GridFunction(other, np.zeros(other.shape)))


class TestOneSolution:
    """The coefficient reads u at its own node through the second
    differences, so no node decouples where the central gradient vanishes:
    zero-data problems have one discrete solution, which refines."""

    def test_verify_2d_problem_has_one_field_at_81(self):
        # from the default start and by Newton from the cubic prolongation of
        # the 41^2 solution; the two used to be min u -0.1028 and -0.1227
        prob = t_power_forcing_problem(3.0)
        coarse, grid = (LogGrid.build(unit_domain(), (m, m)) for m in (41, 81))
        cfg = SolverConfig()
        u_coarse, rep_coarse = solve_dirichlet(prob, coarse, cfg)
        cubic = RegularGridInterpolator(coarse.axes, u_coarse.values, method="cubic")
        start = GridFunction(grid, cubic(grid.log_points).reshape(grid.shape))
        u_warm, rep_warm = solve_dirichlet(prob, grid, cfg, initial=start)
        u, rep = solve_dirichlet(prob, grid, cfg)
        assert rep_coarse.converged and rep.converged
        assert rep_warm.converged and len(rep_warm.stages) == 1
        assert np.max(np.abs(u_warm.values - u.values)) <= 10.0 * cfg.tol
        assert round(float(u.values.min()), 4) == -0.1023

    def test_3d_centre_node_converges(self):
        # an odd node count puts a node at the symmetric centre, where the
        # 13^3 solve used to end in a spike (min u -770.7, not converged);
        # measured min u: 12^3 -0.0862, 13^3 -0.0898, 14^3 -0.0875.  Only
        # 13^3 samples the centre, where u is least, so its min may lie
        # below both even grids' by a sampling gap, bounded here by 5% of
        # their |min u|
        prob = t_power_forcing_problem(3.0)
        mins = []
        for m in (12, 13, 14):
            u, rep = solve_dirichlet(prob, LogGrid.build(unit_domain(n=3), (m,) * 3))
            assert rep.converged
            mins.append(float(u.values.min()))
        even = (mins[0], mins[2])
        slack = 0.05 * max(abs(v) for v in even)
        assert min(even) - slack <= mins[1] <= max(even) + slack

    def test_zero_data_p4_refines(self):
        # f = 0.3 at p = 4: the 41^2 and 81^2 fields at their common nodes,
        # relative to max |u| at 81^2; measured 1.25e-3 (0.13 while both
        # were spike fields, min u -0.3238 and -0.3732 against -0.0969)
        prob = constant_forcing_problem(4.0, 2)
        fields = [solve_dirichlet(prob, LogGrid.build(unit_domain(), (m, m)))[0].values
                  for m in (41, 81)]
        gap = np.max(np.abs(fields[1][::2, ::2] - fields[0])) / np.max(np.abs(fields[1]))
        assert gap <= 2e-3


class TestStopReason:
    def test_failed_line_search(self, monkeypatch):
        # a zero Newton direction never lowers the residual
        monkeypatch.setattr(solver, "_solve_jacobian",
                            lambda J, rhs, *rest: np.zeros(rhs.shape))
        grid = LogGrid.build(unit_domain(), (13, 13))
        _, rep = solve_dirichlet(constant_forcing_problem(3.0, 2), grid)
        assert not rep.converged
        assert {s.stop_reason for s in rep.stages} == {"line_search"}
        assert all(s.iterations == 1 for s in rep.stages)

    def test_max_iter(self):
        grid = LogGrid.build(unit_domain(), (13, 13))
        _, rep = solve_dirichlet(constant_forcing_problem(2.0, 2), grid,
                                 SolverConfig(max_iter=0))
        assert not rep.converged
        assert {(s.iterations, s.stop_reason) for s in rep.stages} == {(0, "max_iter")}


class StubSystem:
    """A Newton system with no PDE behind it: the residual is values - root,
    its linearization point is the values, and a step is ``scale`` times
    the exact Newton step, costing one factorization and ``krylov`` GMRES
    iterations.  It logs the linearization point every step reads."""

    p = 3.5

    def __init__(self, root, scale=1.0, krylov=0):
        self.root, self.scale, self.krylov = np.asarray(root, dtype=float), scale, krylov
        # counts from earlier stages of a solve, which a record must not include
        self.factorizations, self.krylov_iterations = 7, 11
        self.steps_at = []

    def residual(self, values):
        return values - self.root, values.tolist()

    def step(self, lin, rhs):
        self.steps_at.append(lin)
        self.factorizations += 1
        self.krylov_iterations += self.krylov
        return self.scale * rhs


class TestNewtonStageOnStubSystem:
    """``_newton_stage`` sees only a residual, a step, an exponent and two
    counters, so it runs on a system that is no discretization at all."""

    def test_converged(self):
        system = StubSystem([1.0, -2.0, 0.5], krylov=3)
        values, rec = solver._newton_stage(np.zeros(3), system, 10, 1e-12)
        np.testing.assert_array_equal(values, system.root)
        assert (rec.p, rec.iterations, rec.residual_norm) == (3.5, 1, 0.0)
        assert rec.stop_reason == "converged"
        assert (rec.factorizations, rec.krylov_iterations) == (1, 3)

    def test_met_target_takes_no_step(self):
        system = StubSystem([1e-3])
        values, rec = solver._newton_stage(np.zeros(1), system, 10, 1e-2)
        assert (rec.iterations, rec.stop_reason, rec.residual_norm) == (0, "converged", 1e-3)
        assert (rec.factorizations, rec.krylov_iterations) == (0, 0)
        assert system.steps_at == []

    def test_max_iter(self):
        # half steps are accepted in full and halve the residual each time
        system = StubSystem([4.0, -8.0], scale=0.5, krylov=2)
        values, rec = solver._newton_stage(np.zeros(2), system, 3, 1e-9)
        np.testing.assert_array_equal(values, [3.5, -7.0])
        assert (rec.iterations, rec.stop_reason, rec.residual_norm) == (3, "max_iter", 1.0)
        assert (rec.factorizations, rec.krylov_iterations) == (3, 6)
        # each step reads the linearization of the iterate it starts from
        assert system.steps_at == [[0.0, 0.0], [2.0, -4.0], [3.0, -6.0]]

    def test_line_search(self):
        # a step away from the root raises the residual at every length
        system = StubSystem([1.0, 2.0], scale=-1.0, krylov=5)
        start = np.zeros(2)
        values, rec = solver._newton_stage(start, system, 10, 1e-9)
        assert values is start
        assert (rec.iterations, rec.stop_reason, rec.residual_norm) == (1, "line_search", 2.0)
        assert (rec.factorizations, rec.krylov_iterations) == (1, 5)


class TestDiscreteComparison:
    def test_linear_case_is_exact(self):
        # p = 2 assembles an M-matrix; ordering holds to solver tolerance
        grid = LogGrid.build(unit_domain(), (17, 17))
        cfg = SolverConfig()

        def f_low(t, xs):
            return 0.2 * np.asarray(t, dtype=float) ** -2.0

        def f_high(t, xs):
            return 0.7 * np.asarray(t, dtype=float) ** -2.0

        pl = PDEProblem(p=2.0, f=f_low, dirichlet=zero_field)
        ph = PDEProblem(p=2.0, f=f_high, dirichlet=zero_field)
        u_low, _ = solve_dirichlet(pl, grid, cfg)
        u_high, _ = solve_dirichlet(ph, grid, cfg)
        # larger forcing pushes the solution down for this operator
        assert np.all(u_high.values <= u_low.values + 10 * cfg.tol)

    def test_nonlinear_case_within_discretization_slack(self):
        grid = LogGrid.build(unit_domain(), (17, 17))

        def f_low(t, xs):
            return 0.2 * np.asarray(t, dtype=float) ** -3.0

        def f_high(t, xs):
            return 0.7 * np.asarray(t, dtype=float) ** -3.0

        pl = PDEProblem(p=3.0, f=f_low, dirichlet=zero_field)
        ph = PDEProblem(p=3.0, f=f_high, dirichlet=zero_field)
        u_low, _ = solve_dirichlet(pl, grid)
        u_high, _ = solve_dirichlet(ph, grid)
        assert np.all(u_high.values <= u_low.values + 10 * max(grid.h) ** 2)


    @settings(max_examples=8)
    @given(c=st.floats(0.05, 1.0), margin=st.floats(0.05, 1.0),
           counts=st.lists(st.integers(9, 17), min_size=2, max_size=2))
    def test_shifted_pair_is_ordered(self, c, margin, counts):
        # the pair of ``verify comparison`` at p = 2: the solve of t^p f = c,
        # then the forcing raised by margin t^-p solved from it as a warm
        # start; the linear scheme is exact, so no slack is needed
        grid = LogGrid.build(unit_domain(), counts)
        prob = PDEProblem(p=2.0, f=lambda t, xs: c * np.asarray(t, dtype=float) ** -2.0,
                          dirichlet=zero_field)
        v_super, rep_super = solve_dirichlet(prob, grid)
        u_sub, rep_sub = solve_dirichlet(raised_forcing(prob, margin), grid, initial=v_super)
        assert rep_super.converged and rep_sub.converged
        assert comparison_check(u_sub, v_super, prob, tol=0.0).violations == 0


class TestExhaustionSolve:
    def test_zero_forcing_gives_zero_everywhere(self):
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        report = solve_by_exhaustion(prob, unit_domain(t_min=1e-3), j_max=3,
                                     grid_density=12.0)
        for _, u_j in report.members:
            np.testing.assert_array_equal(u_j.values, np.zeros(u_j.grid.shape))
        assert all(g == 0.0 for _, g in report.diffs)

    def test_requires_two_stages(self):
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        with pytest.raises(ValueError):
            solve_by_exhaustion(prob, unit_domain(), j_max=1, grid_density=8.0)


class TestConvergenceStudy:
    def test_linear_exact_solution_floors(self):
        # stencils are exact on the radial-coordinate field
        u_star = log_t_field()
        prob = manufactured_problem(u_star, 2.0)
        grids = [LogGrid.build(unit_domain(), (c, c)) for c in (9, 17)]
        rows = convergence_study(prob, u_star, grids)
        assert all(r.max_error < 1e-9 for r in rows)

    def test_no_order_from_roundoff_errors(self):
        # at p = n = 2 the scheme reproduces ln t, so both errors are
        # round-off and their ratio is no order
        u_star = make_exact_solution(2.0, 2)
        prob = manufactured_problem(u_star, 2.0)
        grids = [LogGrid.build(unit_domain(), (c, c)) for c in (13, 25)]
        rows = convergence_study(prob, u_star, grids)
        assert all(r.max_error < 1e-13 for r in rows)
        assert [r.order for r in rows] == [None, None]

    def test_order_two_for_power_solution(self):
        u_star = make_exact_solution(2.0, 3)
        prob = manufactured_problem(u_star, 2.0)
        grids = [LogGrid.build(unit_domain(n=3), (c, c, c)) for c in (9, 17, 33)]
        rows = convergence_study(prob, u_star, grids)
        assert rows[0].order is None
        for row in rows[1:]:
            assert row.order is not None and row.order >= 1.9
