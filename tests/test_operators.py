import math

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

import oracles
from conepde.calculus import (GridFunction, LogGrid, gradient_field, hessian_field,
                              read_gridfunction, write_gridfunction)
from conepde.geometry import ConeDomain
from conepde.operators import (
    INCONSISTENT,
    SOLUTION_CONSISTENT,
    SUB_CONSISTENT,
    SUPER_CONSISTENT,
    PDEProblem,
    PucciParams,
    TransformParams,
    classify_point,
    constant_field,
    gridfunction_field,
    log_polynomial_field,
    operator_terms,
    psi,
    psi_inverse,
    pucci_minus,
    pucci_plus,
    q_matrix,
    residual_log_field,
    separable_exponential_field,
    transformed_residual,
    transformed_residual_from_derivs,
)
from conepde.solver import (
    exact_solution_values,
    log_t_field,
    make_exact_solution,
    manufactured_problem,
    power_of_t_field,
    quadratic_field,
)


def unit_grid(counts=(17, 17), n=2, t_min=math.exp(-1.0)):
    dom = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                     t_min=t_min)
    return LogGrid.build(dom, counts)


def zero_field(t, xs):
    return np.zeros_like(np.asarray(t, dtype=float))


def strong_residual(u, prob, eps_reg=0.0, extremal=None):
    """The strong-form residual field: t^-p times the log-chart one."""
    return u.grid.t_field ** -prob.p * residual_log_field(u, prob, eps_reg, extremal)


class TestQMatrix:
    def test_aligned_direction(self):
        Q = q_matrix(np.array([1.0, 0.0, 0.0]), 3.0)
        np.testing.assert_allclose(Q, np.diag([2.0, 1.0, 1.0]), atol=1e-15)

    def test_p2_is_identity(self):
        Q = q_matrix(np.array([0.3, -0.7]), 2.0)
        np.testing.assert_allclose(Q, np.eye(2), atol=1e-15)

    def test_eigenvalue_multiset(self):
        # eigenvalues are p-1 once and 1 with multiplicity n-1
        rng = np.random.default_rng(0)
        for n, p in ((2, 2.5), (3, 3.0), (4, 5.5)):
            for _ in range(25):
                g = rng.standard_normal(n)
                eigs = np.sort(np.linalg.eigvalsh(q_matrix(g, p)))
                expected = np.sort(np.concatenate(([p - 1.0], np.ones(n - 1))))
                np.testing.assert_allclose(eigs, expected, atol=1e-12)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            q_matrix(np.zeros(2), 3.0)


def brute_force_extremal(X, params, rng, extra_samples=200):
    """Independent oracle: sup/inf of tr(AX) over A = R diag(c) R^T with R
    the eigenbasis of X and c in [lam, Lam]^n (corners plus random interior)."""
    evals, evecs = np.linalg.eigh(X)
    n = X.shape[0]
    corners = np.array(np.meshgrid(*[[params.lam, params.Lam]] * n)).reshape(n, -1).T
    interior = params.lam + (params.Lam - params.lam) * rng.random((extra_samples, n))
    cs = np.vstack([corners, interior])
    traces = cs @ evals
    return float(np.max(traces)), float(np.min(traces))


class TestPucci:
    def test_identity_matrix(self):
        p, n = 3.0, 3
        params = PucciParams.from_p(p)
        assert pucci_plus(np.eye(n), params) == pytest.approx((p - 1) * n)

    def test_mixed_signature(self):
        p = 3.5
        params = PucciParams.from_p(p)
        assert pucci_minus(np.diag([1.0, -1.0]), params) == pytest.approx(2.0 - p)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        params = PucciParams(lam=1.0, Lam=2.5)
        for n in (2, 3):
            for _ in range(50):
                B = rng.standard_normal((n, n))
                X = 0.5 * (B + B.T)
                sup, inf = brute_force_extremal(X, params, rng)
                assert pucci_plus(X, params) == pytest.approx(sup, abs=1e-10)
                assert pucci_minus(X, params) == pytest.approx(inf, abs=1e-10)

    def test_algebraic_properties(self):
        rng = np.random.default_rng(2)
        params = PucciParams(lam=0.7, Lam=3.0)
        for _ in range(100):
            B1 = rng.standard_normal((3, 3))
            B2 = rng.standard_normal((3, 3))
            X = 0.5 * (B1 + B1.T)
            Y = 0.5 * (B2 + B2.T)
            c = rng.uniform(0, 2)
            assert pucci_minus(X, params) == pytest.approx(-pucci_plus(-X, params), abs=1e-10)
            assert pucci_plus(X + Y, params) <= (
                pucci_plus(X, params) + pucci_plus(Y, params) + 1e-10)
            assert pucci_plus(c * X, params) == pytest.approx(
                c * pucci_plus(X, params), abs=1e-10)

    def test_bracketing_over_directions(self):
        # for any admissible direction matrix the trace sits inside [M-, M+]
        rng = np.random.default_rng(3)
        p = 3.2
        params = PucciParams.from_p(p)
        for _ in range(1000):
            n = int(rng.integers(2, 4))
            g = rng.standard_normal(n)
            while np.linalg.norm(g) < 1e-8:
                g = rng.standard_normal(n)
            B = rng.standard_normal((n, n))
            X = 0.5 * (B + B.T)
            Q = q_matrix(g, p)
            val = float(np.trace(Q @ X))
            assert pucci_minus(X, params) - 1e-10 <= val <= pucci_plus(X, params) + 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            pucci_plus(np.array([[0.0, 1.0], [0.0, 0.0]]), PucciParams(1.0, 2.0))


class TestLogForcing:
    @pytest.mark.parametrize("interior_only", [False, True])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
    def test_equals_forcing_times_exp_pa(self, p, interior_only):
        grid = unit_grid((9, 7))
        rng = np.random.default_rng(int(10 * p))
        f_vals = rng.standard_normal(grid.shape)
        prob = PDEProblem(p=p, f=lambda t, xs: f_vals, dirichlet=zero_field)
        expected = prob.forcing_values(grid, interior_only) * np.exp(grid.mesh[0] * p)
        assert np.array_equal(prob.log_forcing(grid, interior_only), expected)

    @pytest.mark.parametrize("interior_only", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_forcing_raises(self, bad, interior_only):
        grid = unit_grid((9, 7))
        f_vals = np.ones(grid.shape)
        f_vals[4, 3] = bad  # an interior node
        prob = PDEProblem(p=3.0, f=lambda t, xs: f_vals, dirichlet=zero_field)
        with pytest.raises(FloatingPointError, match="not finite at 1 "):
            prob.log_forcing(grid, interior_only)

    # at u = 0 the operator vanishes, so the log-chart residual is -t^p f:
    # log_forcing negated, bit for bit
    @pytest.mark.parametrize("n, p, f", [
        (2, 3.0, separable_exponential_field(0.37, -2.3, [0.7])),
        (3, 4.0, separable_exponential_field(-1.1, 0.6, [0.9, -1.7])),
    ])
    def test_zero_field_residual_is_minus_log_forcing(self, n, p, f):
        grid = unit_grid((17, 17) if n == 2 else (9, 9, 9), n=n)
        prob = PDEProblem(p=p, f=f, dirichlet=zero_field)
        u0 = GridFunction(grid, np.zeros(grid.shape))
        assert np.array_equal(residual_log_field(u0, prob), -prob.log_forcing(grid))


    @pytest.mark.parametrize("counts, t_min", [((97, 97), math.exp(-1.0)),
                                               ((13, 9, 11), 0.01)])
    def test_stored_field_reads_back_at_its_own_nodes(self, tmp_path, counts, t_min):
        # a gridfile: forcing sampled at the nodes it was stored on returns
        # its stored values bit for bit; a = ln(e^a) used to miss the nodes
        # by an ulp, and the interpolation then moved up to half the values
        grid = unit_grid(counts, n=len(counts), t_min=t_min)
        values = np.random.default_rng(7).standard_normal(grid.shape) * np.exp(3.0 * grid.mesh[0])
        path = str(tmp_path / "forcing.gf")
        write_gridfunction(path, GridFunction(grid, values))
        stored = read_gridfunction(path)
        prob = PDEProblem(p=4.0, f=gridfunction_field(stored), dirichlet=zero_field)
        for sampled_on in (grid, stored.grid):
            assert np.array_equal(prob.forcing_values(sampled_on), values)

    def test_stored_nodes_read_their_own_bits(self):
        # a node is read by index: -0.0 stays -0.0, and a node next to an
        # inf does not read 0 * inf = NaN, as multilinear weights 1 and 0 give
        grid = unit_grid((9, 7))
        values = np.random.default_rng(3).standard_normal(grid.shape)
        values[3, 2] = -0.0
        values[5, 4] = np.inf
        sampler = gridfunction_field(GridFunction(grid, values, check_finite=False))
        assert sampler(grid.t_field, grid.mesh[1:]).tobytes() == values.tobytes()

    @pytest.mark.parametrize("stored, sampled", [((9, 9), (13, 11)), ((7, 6, 5), (9, 8, 7))])
    def test_off_node_samples_match_linear_interpolation(self, stored, sampled):
        # off the stored nodes the sampler is scipy's multilinear
        # interpolation; the sampled radial axis reaches below the stored
        # one, where it extrapolates, and its nodes that a stored axis shares
        # (a = 0, x = 0, 1/2, 1) are the same floats on both grids
        n = len(stored)
        u = GridFunction(unit_grid(stored, n=n),
                         np.random.default_rng(n).standard_normal(stored))
        grid = unit_grid(sampled, n=n, t_min=math.exp(-1.3))
        t, xs = grid.t_field, grid.mesh[1:]
        interp = RegularGridInterpolator(u.grid.axes, u.values, method="linear",
                                         bounds_error=False, fill_value=None)
        want = interp(np.stack([np.log(t), *xs], axis=-1))
        assert gridfunction_field(u)(t, xs).tobytes() == want.tobytes()


def bits(x):
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


class TestAnalyticFields:
    # the last two have kappa**2 != kappa * kappa in float64
    KAPPAS = (0.41, -0.9, 0.5, -1.0 / 3.0, 2.0, 0.4152256900906529, -0.907859462985334)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_solution_kinds_match_references(self, n):
        # t^kappa, ln t and the quadratic from the two families agree with
        # the kind-by-kind closures: values bit for bit, derivatives equal
        # entry for entry (a zero entry may carry the other sign)
        grid = unit_grid((9,) * n, n=n)
        A, XS = grid.mesh[0], grid.mesh[1:]
        cases = [(power_of_t_field(k), oracles.tpower_field(k, n)) for k in self.KAPPAS]
        cases += [(log_t_field(), oracles.logt_field(n)),
                  (quadratic_field(n), oracles.quadratic_field(n)),
                  (quadratic_field(n, -0.3, 1.7), oracles.quadratic_field(n, -0.3, 1.7))]
        for field, (value, grad, hess) in cases:
            assert bits(field.value(A, XS)) == bits(value(A, XS))
            assert bits(field(grid.t_field, XS)) == bits(value(np.log(grid.t_field), XS))
            np.testing.assert_array_equal(field.grad(A, XS), grad(A, XS))
            np.testing.assert_array_equal(field.hess(A, XS), hess(A, XS))

    def test_samplers_match_references(self):
        # constant, zero and poly are bit for bit the value-only samplers;
        # c e^(q ln t + k.x) rounds differently from c t^q e^(k.x)
        grid = unit_grid((9, 9, 9), n=3)
        t, XS = grid.t_field, grid.mesh[1:]
        terms = [(0.5, 0.0, 2.0), (1.0, 1.0), (-0.7, 2.0, 1.0, 3.0), (0.3, 3.0, 0.0, 1.0)]
        for field, ref in ((constant_field(2.5), oracles.poly_sampler([(2.5, 0.0)])),
                           (constant_field(0.0), lambda t, xs: np.zeros_like(t)),
                           (log_polynomial_field(terms), oracles.poly_sampler(terms))):
            assert bits(field(t, XS)) == bits(ref(t, XS))
        for c, q, ks in ((1.0, 0.5, [0.7]), (0.37, -2.3, [0.7, -1.1]), (-2.0, 1.5, [])):
            got = separable_exponential_field(c, q, ks)(t, XS)
            np.testing.assert_allclose(got, oracles.exp_sampler(c, q, ks)(t, XS),
                                       rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("field", [
        separable_exponential_field(0.8, 0.5, [0.7, -0.4]),
        log_polynomial_field([(0.5, 0.0, 2.0), (1.0, 1.0), (-0.7, 2.0, 1.0, 1.0),
                              (0.3, 3.0, 0.0, 2.0), (1.2, 1.0, 3.0)]),
    ])
    def test_x_dependent_derivatives_match_central_differences(self, field):
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(20):
            z = np.array([rng.uniform(-1.0, -0.1), rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0)])

            def at(fn, w):
                return fn(np.asarray(w[0]), tuple(np.asarray(x) for x in w[1:]))

            g, H = at(field.grad, z), at(field.hess, z)
            assert g.shape == (3,) and H.shape == (3, 3)
            for k in range(3):
                e = h * np.eye(3)[k]
                dv = (at(field.value, z + e) - at(field.value, z - e)) / (2.0 * h)
                dg = (at(field.grad, z + e) - at(field.grad, z - e)) / (2.0 * h)
                assert dv == pytest.approx(g[k], rel=1e-8, abs=1e-8)
                np.testing.assert_allclose(dg, H[:, k], rtol=1e-8, atol=1e-8)

    def test_poly_constant_in_a_has_finite_derivatives_at_a_zero(self):
        # a term without a drops out of the a-derivatives: no 0 * a^-1 at a = 0
        field = log_polynomial_field([(2.0, 0.0, 1.0), (1.0, 1.0), (0.5, 2.0)])
        a, xs = np.array([0.0, -0.5]), (np.array([0.3, 0.3]),)
        np.testing.assert_array_equal(field.grad(a, xs), [[1.0, 0.5], [2.0, 2.0]])
        np.testing.assert_array_equal(field.hess(a, xs), [[[1.0, 1.0], [0.0, 0.0]],
                                                          [[0.0, 0.0], [0.0, 0.0]]])


class TestResiduals:
    def test_constant_field_no_forcing(self):
        grid = unit_grid()
        prob = PDEProblem(p=3.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.full(grid.shape, 4.0))
        assert strong_residual(u, prob)[8, 8] == pytest.approx(0.0, abs=1e-14)
        assert residual_log_field(u, prob)[8, 8] == pytest.approx(0.0, abs=1e-14)

    def test_constant_field_returns_minus_f(self):
        grid = unit_grid()
        prob = PDEProblem(p=3.0, f=constant_field(2.5), dirichlet=zero_field)
        u = GridFunction(grid, np.full(grid.shape, 1.0))
        assert strong_residual(u, prob)[5, 5] == pytest.approx(-2.5, abs=1e-14)

    def test_exact_power_solution(self):
        # t^((p-n)/(p-1)) is forcing-free: residual O(h^2) + O(eps^(p-2))
        for p, n in ((2.0, 3), (3.0, 2)):
            grid = unit_grid((25,) * n, n=n)
            u = exact_solution_values(make_exact_solution(p, n), grid)
            prob = PDEProblem(p=p, f=zero_field, dirichlet=zero_field)
            r1 = abs(strong_residual(u, prob)[(12,) * n])
            assert r1 < 5e-3
            # refined grid shrinks the residual by about 4
            grid2 = unit_grid((49,) * n, n=n)
            u2 = exact_solution_values(make_exact_solution(p, n), grid2)
            r2 = abs(strong_residual(u2, prob)[(24,) * n])
            if r1 > 1e-12:
                assert r2 < r1 / 2.0

    def test_log_solution_at_p_equals_n(self):
        grid = unit_grid()
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        A, _ = grid.mesh
        u = GridFunction(grid, A.copy())
        assert strong_residual(u, prob)[8, 8] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_gradient_returns_minus_f(self):
        # zero gradient, nonzero Hessian, p > 2, no smoothing: the degenerate
        # product of the continuous operator vanishes and only the forcing
        # survives; on the grid the second differences set the magnitude,
        # |g|_d = h_x |D2_x u| / 2 = h_x, so the node still reads u
        grid = unit_grid((17, 33))
        A, X = grid.mesh
        u = GridFunction(grid, (X - 0.5) ** 2)
        prob = PDEProblem(p=3.0, f=constant_field(1.3), dirichlet=zero_field)
        node = (8, 16)  # x = 0.5: the critical line of the paraboloid
        g, H = gradient_field(u), hessian_field(u)
        assert g[1][node] == pytest.approx(0.0, abs=1e-15)
        assert operator_terms(g, H, 3.0)[0][node] == 0.0
        t = grid.t_field[node]
        assert strong_residual(u, prob, eps_reg=0.0)[node] == pytest.approx(
            t ** -3.0 * grid.h[1] * 2.0 - 1.3, rel=1e-12)

    def test_singular_exponent_range_rejected(self):
        with pytest.raises(ValueError):
            PDEProblem(p=1.5, f=zero_field, dirichlet=zero_field)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(ValueError, match="finite and at least 2"):
            PDEProblem(p=p, f=zero_field, dirichlet=zero_field)

    def test_manufactured_quadratic_forcing(self):
        # flattened field a^2 + x^2 at p = n = 2 needs forcing 4 e^(-2a)
        grid = unit_grid((17, 17))
        u_star = quadratic_field(2)
        prob = manufactured_problem(u_star, 2.0)
        A, X = grid.mesh
        f = prob.forcing_values(grid)
        np.testing.assert_allclose(f, 4.0 * np.exp(-2.0 * A), rtol=1e-12)
        u = exact_solution_values(u_star, grid)
        assert residual_log_field(u, prob)[8, 8] == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize("n", [2, 3])
    def test_manufactured_forcing_takes_the_dimension_of_its_points(self, n):
        # one manufactured problem serves every dimension: sampled on an
        # n-D grid, t^p f is the operator of u* at that n, bit for bit
        p = 3.0
        u_star = separable_exponential_field(0.8, 0.4, [0.6, -0.3])
        prob = manufactured_problem(u_star, p)
        grid = unit_grid((9,) * n, n=n)
        a, XS = np.log(grid.t_field), grid.mesh[1:]
        g, H = u_star.grad(a, XS), u_star.hess(a, XS)
        want = operator_terms(g, H, p)[0] * grid.t_field ** -p
        np.testing.assert_array_equal(prob.forcing_values(grid), want)

    def test_constant_forcing_log_residual(self):
        grid = unit_grid()
        prob = PDEProblem(p=2.0, f=constant_field(1.0), dirichlet=zero_field)
        u = GridFunction(grid, np.full(grid.shape, 2.0))
        node = (7, 7)
        a = grid.a[node[0]]
        assert residual_log_field(u, prob)[node] == pytest.approx(-math.exp(2 * a), abs=1e-13)

    def test_pucci_ordering(self):
        grid = unit_grid((13, 13))
        rng = np.random.default_rng(5)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        prob = PDEProblem(p=3.0, f=constant_field(0.2), dirichlet=zero_field)
        lower, mid, upper = (strong_residual(u, prob, 1e-6, extremal)
                             for extremal in ("lower", None, "upper"))
        for node in [(4, 4), (6, 9), (10, 3)]:
            assert lower[node] - 1e-12 <= mid[node] <= upper[node] + 1e-12

    def test_p2_collapses_pucci(self):
        grid = unit_grid((13, 13))
        rng = np.random.default_rng(6)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        prob = PDEProblem(p=2.0, f=constant_field(0.4), dirichlet=zero_field)
        mid = strong_residual(u, prob)[5, 5]
        for extremal in ("lower", "upper"):
            assert strong_residual(u, prob, 0.0, extremal)[5, 5] == pytest.approx(mid, abs=1e-12)

    def test_degenerate_ellipticity_monotone_in_hessian(self):
        # increasing the Hessian (as a form) never lowers the residual
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = 2
            g = rng.standard_normal(n)
            B = rng.standard_normal((n, n))
            X = 0.5 * (B + B.T)
            C = rng.standard_normal((n, n))
            Y = X + C @ C.T  # Y >= X
            lo = 0.6 ** -3.0 * operator_terms(g, X, 3.0, eps_reg=1e-8)[0]
            hi = 0.6 ** -3.0 * operator_terms(g, Y, 3.0, eps_reg=1e-8)[0]
            assert hi >= lo - 1e-10


class TestClassify:
    def test_exact_solution_is_solution_consistent(self):
        p, n = 3.0, 2
        grid = unit_grid((33, 33))
        u = exact_solution_values(make_exact_solution(p, n), grid)
        prob = PDEProblem(p=p, f=zero_field, dirichlet=zero_field)
        tol = 10 * grid.h[0] ** 2
        labels = classify_point(u, prob, 1e-6, tol)
        for node in [(8, 8), (16, 16), (24, 10)]:
            assert labels[node] == SOLUTION_CONSISTENT

    def test_bump_breaks_consistency(self):
        # the extremal residuals always bracket each other, so a perturbed
        # field loses solution-consistency rather than reaching the (vacuous)
        # doubly-failing label; the bump support must contain such nodes
        p, n = 3.0, 2
        grid = unit_grid((33, 33))
        u = exact_solution_values(make_exact_solution(p, n), grid)
        A, X = grid.mesh
        bump = 0.1 * np.exp(-80.0 * ((A + 0.5) ** 2 + (X - 0.5) ** 2))
        u_bumped = GridFunction(grid, u.values + bump)
        prob = PDEProblem(p=p, f=zero_field, dirichlet=zero_field)
        tol = 10 * grid.h[0] ** 2
        labels = set(classify_point(u_bumped, prob, 1e-6, tol)[12:21, 12:21].ravel())
        assert labels - {SOLUTION_CONSISTENT}
        assert INCONSISTENT not in labels  # unreachable: lower <= upper

    def test_zero_everything(self):
        grid = unit_grid()
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        u = GridFunction(grid, np.zeros(grid.shape))
        assert classify_point(u, prob, 0.0, 1e-12)[8, 8] == SOLUTION_CONSISTENT

    @pytest.mark.parametrize("p, n", [(2.0, 2), (3.0, 2), (4.5, 2), (3.0, 3)])
    def test_labels_match_pointwise_pucci_oracle(self, p, n):
        # every node, faces included, against the per-node Pucci residuals;
        # nodes whose oracle value sits within round-off of +-tol are skipped
        grid = unit_grid((9,) * n, n=n)
        u = GridFunction(grid, np.random.default_rng(12).standard_normal(grid.shape))
        prob = PDEProblem(p=p, f=constant_field(0.3), dirichlet=zero_field)
        tol = 5.0
        labels = classify_point(u, prob, 1e-3, tol)
        assert labels.shape == grid.shape
        checked = 0
        for node in np.ndindex(grid.shape):
            scale = grid.t_field[node] ** -p
            lower, upper = (scale * oracles.pointwise_residual_log(u, node, prob, 1e-3, ext)
                            for ext in ("lower", "upper"))
            if min(abs(lower - tol), abs(upper + tol)) < 1e-8 * (1.0 + abs(lower) + abs(upper)):
                continue
            lower_ok, upper_ok = lower <= tol, upper >= -tol
            want = {(True, True): SOLUTION_CONSISTENT, (True, False): SUPER_CONSISTENT,
                    (False, True): SUB_CONSISTENT, (False, False): INCONSISTENT}
            assert labels[node] == want[lower_ok, upper_ok]
            checked += 1
        assert checked > 0.9 * labels.size


class TestPsiTransform:
    def test_psi_zero(self):
        params = TransformParams.from_bound(1.5)
        assert psi(0.0, params) == pytest.approx(0.0)

    def test_psi_at_ln2(self):
        # K (1 - 1/2) = M
        M = 2.3
        params = TransformParams.from_bound(M)
        assert psi(math.log(2.0), params) == pytest.approx(M, rel=1e-14)

    def test_round_trip_sweep(self):
        # sweep covers the attainable substituted range (-inf, ln 2] at desk
        # scale; large positive s loses absolute precision as psi saturates
        params = TransformParams.from_bound(0.8)
        s = np.linspace(-4.0, 2.0, 2001)
        back = psi_inverse(psi(s, params), params)
        assert np.max(np.abs(back - s)) < 1e-14

    def test_inverse_domain_guard(self):
        params = TransformParams.from_bound(1.0)
        with pytest.raises(ValueError):
            psi_inverse(params.K, params)

    def test_transformed_zero_field(self):
        grid = unit_grid()
        prob = PDEProblem(p=3.0, f=zero_field, dirichlet=zero_field)
        params = TransformParams.from_bound(1.0)
        z = GridFunction(grid, np.zeros(grid.shape))
        assert transformed_residual(z, prob, params)[8, 8] == pytest.approx(0.0, abs=1e-14)

    def test_constants_become_strict_supersolutions(self):
        # z = c with forcing floor t^p f = w gives exactly -w e^(c(p-1)) / K^(p-1)
        grid = unit_grid()
        p, w, c = 3.0, 0.4, 0.25
        prob = PDEProblem(p=p,
                          f=lambda t, xs: w * np.asarray(t, dtype=float) ** (-p),
                          dirichlet=zero_field)
        params = TransformParams.from_bound(2.0)
        z = GridFunction(grid, np.full(grid.shape, c))
        expected = -w * math.exp(c * (p - 1.0)) / params.K ** (p - 1.0)
        got = transformed_residual(z, prob, params)[8, 8]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < 0.0

    @pytest.mark.parametrize("p, n", [(3.0, 2), (2.5, 3)])
    def test_transformed_residual_matches_pointwise_oracle(self, p, n):
        # every node: the forcing-free per-node residual of z, less
        # (p-1) |g|_d^p and t^p f e^(z(p-1)) / K^(p-1), |g|_d with z's
        # second differences blended in
        grid = unit_grid((7,) * n, n=n)
        rng = np.random.default_rng(13)
        z = GridFunction(grid, 0.3 * rng.standard_normal(grid.shape))
        prob = PDEProblem(p=p, f=constant_field(0.7), dirichlet=zero_field)
        free = PDEProblem(p=p, f=zero_field, dirichlet=zero_field)
        params = TransformParams.from_bound(1.4)
        eps_reg = 1e-3
        got = transformed_residual(z, prob, params, eps_reg)
        assert got.shape == grid.shape
        for node in np.ndindex(grid.shape):
            s2 = oracles.pointwise_magnitude2(oracles.pointwise_gradient(z, node),
                                              oracles.pointwise_hessian(z, node), grid.h,
                                              eps_reg)
            want = (oracles.pointwise_residual_log(z, node, free, eps_reg)
                    - (p - 1.0) * s2 ** (p / 2.0)
                    - 0.7 * grid.t_field[node] ** p * math.exp(z.values[node] * (p - 1.0))
                    / params.K ** (p - 1.0))
            assert got[node] == pytest.approx(want, rel=1e-11, abs=1e-9)

    def test_chain_rule_identity_analytic(self):
        # strong residual of psi(z) = psi'(z)^(p-1) t^-p transformed_residual(z)
        # on explicit derivatives; the substitution is exact there
        rng = np.random.default_rng(8)
        p, n = 3.0, 2
        params = TransformParams.from_bound(1.2)
        for _ in range(200):
            a = rng.uniform(-1.0, -0.1)
            t = math.exp(a)
            zval = rng.uniform(-0.5, 0.5)
            gz = rng.standard_normal(n)
            Bz = rng.standard_normal((n, n))
            Hz = 0.5 * (Bz + Bz.T)
            fval = rng.uniform(0.2, 2.0)
            dpsi = params.K * math.exp(-zval)
            gv = dpsi * gz
            Hv = dpsi * Hz - dpsi * np.outer(gz, gz)
            lhs = t ** -p * operator_terms(gv, Hv, p)[0] - fval
            rhs = (dpsi ** (p - 1.0) / t ** p) * transformed_residual_from_derivs(
                zval, gz, Hz, p, fval * t ** p, params.K)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    def test_chain_rule_identity_on_grid(self):
        # same identity through stencils: O(h^2) plus regularization slack
        p, n = 3.0, 2
        params = TransformParams.from_bound(1.2)
        prob = PDEProblem(p=p, f=constant_field(0.5), dirichlet=zero_field)
        errs = []
        for c in (17, 33):
            grid = unit_grid((c, c))
            A, X = grid.mesh
            zvals = 0.25 * np.sin(2 * A) * np.cos(X) + 0.1 * A
            z = GridFunction(grid, zvals)
            v = GridFunction(grid, np.asarray(psi(zvals, params)))
            strong_v = strong_residual(v, prob, eps_reg=0.0)
            transformed = transformed_residual(z, prob, params, eps_reg=0.0)
            worst = 0.0
            for node in [(i, j) for i in range(2, c - 2, 3) for j in range(2, c - 2, 3)]:
                t = math.exp(grid.a[node[0]])
                dpsi = params.K * math.exp(-zvals[node])
                rhs = (dpsi ** (p - 1.0) / t ** p) * transformed[node]
                worst = max(worst, abs(strong_v[node] - rhs))
            errs.append(worst)
        assert errs[1] <= errs[0] / 2.0
        assert errs[0] < 1.0
