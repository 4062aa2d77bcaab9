import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conepde import calculus
from conepde.calculus import (
    GridFunction,
    LogGrid,
    first_diff,
    gradient_field,
    hessian_field,
    hoelder_norm,
    quadrature_weights,
    read_gridfunction,
    second_diff,
    write_gridfunction,
)
from conepde.geometry import ConeDomain
from conepde.operators import (
    PDEProblem,
    constant_field,
    residual_log_field,
    separable_exponential_field,
)
from conepde import solver
from conepde.solver import solve_dirichlet
import oracles
from oracles import pointwise_gradient, pointwise_hessian, pointwise_residual_log


def unit_grid(counts=(17, 17), t_min=math.exp(-1.0), n=2):
    dom = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                     t_min=t_min)
    return LogGrid.build(dom, counts)


class TestStencils:
    def test_gradient_of_constant(self):
        grid = unit_grid()
        u = GridFunction(grid, np.full(grid.shape, 3.7))
        np.testing.assert_array_equal(gradient_field(u)[:, 5, 5], np.zeros(2))

    def test_gradient_exact_on_linear(self):
        grid = unit_grid()
        A, X = grid.mesh
        u = GridFunction(grid, A.copy())
        g = gradient_field(u)[:, 8, 8]
        assert g[0] == pytest.approx(1.0, abs=1e-13)
        assert g[1] == pytest.approx(0.0, abs=1e-13)

    def test_gradient_exact_on_quadratic(self):
        # central differences are exact on quadratics: d/da a^2 at a=-0.5 is -1
        grid = unit_grid()
        A, X = grid.mesh
        u = GridFunction(grid, A**2)
        # node (8, 8): a = -0.5 on the 17-node grid over [-1, 0]
        assert grid.a[8] == pytest.approx(-0.5)
        assert gradient_field(u)[0, 8, 8] == pytest.approx(-1.0, abs=1e-12)

    def test_hessian_of_constant(self):
        grid = unit_grid()
        u = GridFunction(grid, np.full(grid.shape, -2.0))
        np.testing.assert_allclose(hessian_field(u)[:, :, 4, 9], np.zeros((2, 2)), atol=1e-12)

    def test_hessian_exact_on_quadratic(self):
        grid = unit_grid()
        A, X = grid.mesh
        u = GridFunction(grid, A**2)
        H = hessian_field(u)[:, :, 8, 8]
        np.testing.assert_allclose(H, np.diag([2.0, 0.0]), atol=1e-11)

    def test_cross_term_exact_on_bilinear(self):
        grid = unit_grid()
        A, X = grid.mesh
        u = GridFunction(grid, A * X)
        H = hessian_field(u)[:, :, 8, 8]
        assert H[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert H[1, 0] == H[0, 1]

    def test_pointwise_matches_field_versions(self):
        grid = unit_grid((9, 11))
        rng = np.random.default_rng(0)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        g_field = gradient_field(u)
        h_field = hessian_field(u)
        for node in [(0, 0), (0, 5), (4, 0), (4, 5), (8, 10), (8, 3), (1, 1)]:
            np.testing.assert_allclose(pointwise_gradient(u, node),
                                       g_field[(slice(None),) + node], rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(pointwise_hessian(u, node),
                                       h_field[(slice(None), slice(None)) + node],
                                       rtol=1e-12, atol=1e-12)

    @given(n=st.sampled_from([2, 3]), counts=st.lists(st.integers(3, 7), min_size=3, max_size=3),
           lengths=st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3),
           p=st.sampled_from([2.0, 2.5, 3.0, 4.5]), seed=st.integers(0, 2**32 - 1),
           extremal=st.sampled_from([None, "upper", "lower"]))
    def test_field_kernel_matches_pointwise_oracle(self, n, counts, lengths, p, seed,
                                                   extremal):
        # every node, faces included; a 3-node axis takes second_diff's fallback
        dom = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=lengths[1:n],
                         t_min=math.exp(-lengths[0]))
        grid = LogGrid.build(dom, counts[:n])
        u = GridFunction(grid, np.random.default_rng(seed).standard_normal(grid.shape))
        prob = PDEProblem(p=p, f=constant_field(0.3), dirichlet=constant_field(0.0))
        g, H = gradient_field(u), hessian_field(u)
        res = residual_log_field(u, prob, eps_reg=1e-3, extremal=extremal)
        scale = 1.0 / min(grid.h) ** 2
        for node in np.ndindex(grid.shape):
            np.testing.assert_allclose(g[(slice(None),) + node], pointwise_gradient(u, node),
                                       rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(H[(slice(None), slice(None)) + node],
                                       pointwise_hessian(u, node), rtol=0, atol=1e-13 * scale)
            oracle = pointwise_residual_log(u, node, prob, eps_reg=1e-3, extremal=extremal)
            assert res[node] == pytest.approx(oracle, rel=1e-11, abs=1e-12 * scale ** (p / 2))

    @pytest.mark.parametrize("m", [3, 4, 9, 29])
    def test_eigenbases_diagonalize_interior_stencils(self, m):
        # orthonormal eigenvectors of each axis's interior second-difference
        # block, with the DST-I eigenvalues -4 sin^2(j pi / (2 (m - 1))) / h^2
        grid = unit_grid((m + 1, m, m + 2), n=3)
        for k, (lam, V) in enumerate(grid.eigenbases):
            h, size = grid.h[k], grid.shape[k]
            block = grid.stencil_matrix(k, second_diff)[1:-1, 1:-1]
            np.testing.assert_allclose(V @ np.diag(lam) @ V.T, block, rtol=0,
                                       atol=1e-13 / h**2)
            np.testing.assert_allclose(V.T @ V, np.eye(size - 2), rtol=0, atol=1e-13)
            j = np.arange(1, size - 1)
            dst = -4.0 * np.sin(j * np.pi / (2.0 * (size - 1))) ** 2 / h**2
            np.testing.assert_allclose(lam, np.sort(dst), rtol=1e-13)

    @given(n=st.sampled_from([2, 3]),
           counts=st.lists(st.integers(3, 9), min_size=3, max_size=3))
    def test_dissection_order_permutes_interior_nodes(self, n, counts):
        grid = unit_grid(tuple(counts[:n]), n=n)
        order = grid.dissection_order
        assert order.dtype.kind == "i"
        np.testing.assert_array_equal(np.sort(order), np.flatnonzero(~grid.boundary_mask))

    @given(n=st.sampled_from([2, 3]),
           counts=st.lists(st.integers(3, 40), min_size=3, max_size=3))
    @example(n=2, counts=[97, 97, 3])
    @example(n=2, counts=[81, 81, 3])
    @example(n=3, counts=[29, 29, 29])
    def test_dissection_order_matches_recursion(self, n, counts):
        grid = unit_grid(tuple(counts[:n]), n=n)
        np.testing.assert_array_equal(grid.dissection_order,
                                      oracles.recursive_dissection_order(grid))

    def test_second_order_convergence_incl_boundary(self):
        # smooth analytic field: observed order under halving >= 1.9
        def field(A, X):
            return np.sin(2.0 * A) * np.exp(0.5 * X) + np.cos(A + X)

        def grad_a(A, X):
            return 2.0 * np.cos(2.0 * A) * np.exp(0.5 * X) - np.sin(A + X)

        def hess_ax(A, X):
            return np.cos(2.0 * A) * np.exp(0.5 * X) - np.cos(A + X)

        errs_g, errs_h = [], []
        for c in (17, 33, 65):
            grid = unit_grid((c, c))
            A, X = grid.mesh
            u = GridFunction(grid, field(A, X))
            g = gradient_field(u)
            H = hessian_field(u)
            errs_g.append(np.max(np.abs(g[0] - grad_a(A, X))))
            errs_h.append(np.max(np.abs(H[0, 1] - hess_ax(A, X))))
        for errs in (errs_g, errs_h):
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
            assert min(orders) >= 1.9


def _face_masks(shape, bottom_is_boundary):
    """(boundary, artificial bottom, analytic boundary) masks, node by node
    from the faces each node lies on."""
    masks = [np.zeros(shape, dtype=bool) for _ in range(3)]
    for node in itertools.product(*map(range, shape)):
        lateral = any(i in (0, m - 1) for i, m in zip(node[1:], shape[1:]))
        bottom, top = node[0] == 0, node[0] == shape[0] - 1
        masks[0][node] = bottom or top or lateral
        masks[1][node] = bottom and not bottom_is_boundary
        masks[2][node] = top or lateral or (bottom and bottom_is_boundary)
    return masks


class TestMatrixFreeStencils:
    # non-square grids with 3- and 4-node axes, where second_diff's face
    # rows span the whole axis
    GRIDS = [(3, 4), (4, 3), (9, 6), (3, 4, 5), (5, 3, 4), (4, 7, 6)]

    @staticmethod
    def fields(grid):
        rng = np.random.default_rng(math.prod(grid.shape))
        # signed zeros check that every node sums from +0, as a CSR product does
        signed = rng.choice([-0.0, 0.0, 0.0, 1.0, -3.0], size=grid.shape)
        return rng.standard_normal(grid.shape), signed

    @pytest.mark.parametrize("counts", GRIDS)
    def test_fields_match_the_sparse_operators(self, counts):
        grid = unit_grid(counts, n=len(counts))
        first, hessian = oracles.sparse_difference_ops(grid)
        eps = np.finfo(float).eps
        for values in self.fields(grid):
            u, v = GridFunction(grid, values), values.ravel()
            g, H = gradient_field(u), hessian_field(u)
            for k, D in enumerate(first):
                assert g[k].tobytes() == (D @ v).tobytes()
            for (k, l), D in hessian.items():
                ref = (D @ v).reshape(grid.shape)
                if k == l:
                    assert H[k, k].tobytes() == ref.tobytes()
                else:
                    assert np.max(np.abs(H[k, l] - ref)) <= 8 * eps * np.max(np.abs(ref))
                    assert H[l, k].tobytes() == H[k, l].tobytes()

    @pytest.mark.parametrize("counts", GRIDS)
    def test_hessian_from_the_gradient_is_bit_equal(self, counts):
        # a residual hands its gradient field to hessian_field, whose mixed
        # entries then read its components instead of forming them again
        grid = unit_grid(counts, n=len(counts))
        for values in self.fields(grid):
            u = GridFunction(grid, values)
            assert hessian_field(u, gradient_field(u)).tobytes() == hessian_field(u).tobytes()

    @pytest.mark.parametrize("counts", GRIDS)
    def test_p2_residual_matches_the_sparse_operators(self, counts):
        grid = unit_grid(counts, n=len(counts))
        first, hessian = oracles.sparse_difference_ops(grid)
        drift = grid.n - 2.0 + 0.3
        system = solver._NewtonSystem(grid, 2.0, drift, np.zeros(grid.shape), 1e-6)
        for values in self.fields(grid):
            v = values.ravel()
            ref = sum(hessian[(k, k)] @ v for k in range(grid.n)) + drift * (first[0] @ v)
            ref = ref.reshape(grid.shape)
            ref[grid.boundary_mask] = 0.0
            assert system.residual(values)[0].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("counts", GRIDS + [(29, 29, 29)])
    def test_interior_pattern_matches_the_sparse_operators(self, counts):
        grid = unit_grid(counts, n=len(counts))
        pattern, ref = grid.interior_pattern, oracles.sparse_interior_pattern(grid)
        for name, arr in zip(pattern._fields, ref):
            assert np.array_equal(getattr(pattern, name), arr), name
        assert pattern.weights.tobytes() == ref[0].tobytes()


class TestFaceMasks:
    @staticmethod
    def _grid(counts, bottom_is_boundary):
        n = len(counts)
        dom = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                         t_min=math.exp(-1.0), bottom_is_boundary=bottom_is_boundary)
        return LogGrid.build(dom, counts)

    @pytest.mark.parametrize("bottom_is_boundary", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_masks_match_per_face_definition(self, n, bottom_is_boundary):
        for counts in itertools.product(range(3, 7), repeat=n):
            grid = self._grid(counts, bottom_is_boundary)
            boundary, bottom, analytic = _face_masks(grid.shape, bottom_is_boundary)
            np.testing.assert_array_equal(grid.boundary_mask, boundary)
            np.testing.assert_array_equal(grid.artificial_bottom_mask, bottom)
            np.testing.assert_array_equal(grid.analytic_boundary_mask, analytic)

    @pytest.mark.parametrize("counts, edges", [
        ((4, 5), [(0, 0), (0, 4)]),
        ((3, 4, 5), [(0, 0, 2), (0, 3, 2), (0, 1, 0), (0, 2, 4), (0, 0, 0), (0, 3, 4)]),
    ])
    def test_artificial_bottom_edges_stay_analytic(self, counts, edges):
        # where the artificial bottom meets a lateral face the node lies on
        # the analytic boundary too; only the bottom's interior leaves it
        grid = self._grid(counts, bottom_is_boundary=False)
        for node in edges:
            assert grid.artificial_bottom_mask[node] and grid.analytic_boundary_mask[node]
        inner_bottom = (0,) + (slice(1, -1),) * (len(counts) - 1)
        assert not np.any(grid.analytic_boundary_mask[inner_bottom])


def integrate(grid, values):
    """Trapezoidal integral of the node values against dt/t dx."""
    return float(np.sum(quadrature_weights(grid) * values))


class TestConeIntegral:
    def test_unit_box(self):
        grid = unit_grid()
        assert integrate(grid, np.ones(grid.shape)) == pytest.approx(1.0, abs=1e-13)

    def test_zero(self):
        grid = unit_grid()
        assert integrate(grid, np.zeros(grid.shape)) == 0.0

    def test_exponential_against_quadrature(self):
        # int e^a da dx over [-1,0]x[0,1] -> 1 - 1/e as h -> 0, order 2
        exact = 1.0 - math.exp(-1.0)
        errs = []
        for c in (9, 17, 33):
            grid = unit_grid((c, c))
            A, _ = grid.mesh
            errs.append(abs(integrate(grid, np.exp(A)) - exact))
        assert errs[-1] < 1e-4
        assert math.log2(errs[0] / errs[1]) > 1.9

    def test_linear_and_monotone(self):
        grid = unit_grid((9, 9))
        rng = np.random.default_rng(1)
        f = rng.random(grid.shape)
        g = rng.random(grid.shape)
        lhs = integrate(grid, 2.0 * f - 3.0 * g)
        assert lhs == pytest.approx(2 * integrate(grid, f) - 3 * integrate(grid, g),
                                    abs=1e-12)
        assert integrate(grid, np.abs(f)) >= 0.0


@st.composite
def hoelder_cases(draw):
    """A field on a random 2D or 3D grid (3-11 nodes per axis, random base
    box); in half the cases it has many exact ties or is constant."""
    n = draw(st.sampled_from([2, 3]))
    counts = tuple(draw(st.integers(3, 11)) for _ in range(n))
    lo = [draw(st.sampled_from([-1.0, 0.0, 0.5])) for _ in range(n - 1)]
    hi = [x + draw(st.sampled_from([0.5, 1.0, 3.0])) for x in lo]
    dom = ConeDomain(n=n, base_lo=lo, base_hi=hi,
                     t_min=math.exp(-draw(st.sampled_from([0.5, 1.0, 2.0]))))
    grid = LogGrid.build(dom, counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.01, 0.3, 5.0]))
    u = scale * rng.standard_normal(grid.shape)
    kind = draw(st.sampled_from(["plain", "plain", "ties", "constant"]))
    if kind == "ties":
        u = np.round(u / scale * 2.0) * scale
    elif kind == "constant":
        u = np.full(grid.shape, u.flat[0])
    return GridFunction(grid, u)


@st.composite
def pruning_cases(draw):
    """A field on a 2D grid of 12-40 nodes per axis or a 3D grid of 7-14,
    no count a multiple of the cell side and the steps unequal across axes,
    so that the padded cells and the grid-step floor of the cell bounds both
    matter; the field is smooth, rough, a step or full of ties."""
    n = draw(st.sampled_from([2, 3]))
    side = calculus._cell_side(n)
    lo, hi = (12, 40) if n == 2 else (7, 14)
    counts = tuple(draw(st.integers(lo, hi).filter(lambda m: m % side)) for _ in range(n))
    widths = [draw(st.sampled_from([0.3, 1.0, 2.5])) for _ in range(n - 1)]
    dom = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=widths,
                     t_min=math.exp(-draw(st.sampled_from([0.5, 1.0, 2.0]))))
    grid = LogGrid.build(dom, counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wave = sum(w * m for w, m in zip(rng.uniform(-3.0, 3.0, n), grid.mesh))
    noise = rng.standard_normal(grid.shape)
    kind = draw(st.sampled_from(["smooth", "rough", "step", "ties"]))
    u = {"smooth": np.sin(wave) + 0.01 * noise,
         "rough": noise,
         "step": (wave > np.median(wave)) + 0.05 * wave,
         "ties": np.round(2.0 * noise) / 2.0}[kind]
    return GridFunction(grid, u)


def cell_bounds(u, rho):
    """The bound matrix of the cell pairs of ``u`` and the cells' boxes."""
    cell_v, _, boxes = calculus._cells(u.values, u.grid.axes)
    h2 = min(float(np.min(np.diff(c) ** 2)) for c in u.grid.axes)
    bound = calculus._cell_bounds(cell_v.max(axis=1), cell_v.min(axis=1),
                                  [box[:, 0] for box in boxes], [box[:, -1] for box in boxes],
                                  h2, rho)
    return bound, boxes


@pytest.fixture(scope="module")
def verify_solution():
    """The p = 3 solve on 81^2 over [-1, 0] x [0, 1] with t^p f = 0.3 and
    zero Dirichlet data, the field that ``verify hoelder`` checks."""
    prob = PDEProblem(p=3.0, f=separable_exponential_field(0.3, -3.0, ()),
                      dirichlet=constant_field(0.0))
    u, report = solve_dirichlet(prob, unit_grid((81, 81)))
    assert report.converged
    return u


class TestHoelderNorm:
    def test_zero(self):
        grid = unit_grid((9, 9))
        assert hoelder_norm(GridFunction(grid, np.zeros(grid.shape)), 0.5) == 0.0

    def test_constant(self):
        grid = unit_grid((9, 9))
        assert hoelder_norm(GridFunction(grid, np.full(grid.shape, -1.5)), 0.5) == pytest.approx(1.5)

    def test_linear_radial_field_brute_force(self):
        # u = a on [-1,0]x[0,1]: sup|u| = 1; the rho = 1 seminorm is the
        # Lipschitz constant 1, attained on pairs with equal base coordinate
        grid = unit_grid((17, 17))
        A, _ = grid.mesh
        u = GridFunction(grid, A.copy())
        # independent brute force over every pair
        pts = grid.log_points
        vals = u.values.ravel()
        best = 0.0
        for i in range(len(vals)):
            d = np.linalg.norm(pts - pts[i], axis=1)
            mask = d > 0
            best = max(best, np.max(np.abs(vals - vals[i])[mask] / d[mask]))
        assert best == pytest.approx(1.0, abs=1e-12)
        assert hoelder_norm(u, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_nonincreasing_in_rho_for_wide_domains(self):
        # attaining pairs sit at distance 2 >= 1, so the norm decreases in rho
        dom = ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0], t_min=math.exp(-2.0))
        grid = LogGrid.build(dom, (17, 9))
        A, _ = grid.mesh
        u = GridFunction(grid, A.copy())
        norms = [hoelder_norm(u, rho) for rho in (0.25, 0.5, 0.75, 1.0)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_exact_and_deterministic_above_5000_nodes(self):
        # 5041 nodes: a stride-2 subsample would drop every nearest-neighbour
        # pair, which carries the rho = 1 seminorm of a rough field
        grid = unit_grid((71, 71))
        rng = np.random.default_rng(5)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        v1 = hoelder_norm(u, 1.0)
        assert v1 == oracles.hoelder_norm(u, 1.0)
        assert hoelder_norm(u, 1.0) == v1

    @given(case=hoelder_cases(), rho=st.floats(0.0, 1.0, exclude_min=True))
    def test_matches_all_pairs_oracle(self, case, rho):
        assert hoelder_norm(case, rho) == oracles.hoelder_norm(case, rho)

    @pytest.mark.parametrize("counts", [(7, 9), (5, 6, 9)])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_steepest_pair_at_zero_leading_offset(self, counts, rho):
        # u varies only along the last axis and jumps most between its nodes
        # 4 and 5, so the maximizing pairs join those two nodes within one
        # leading index
        grid = unit_grid(counts, n=len(counts))
        x = grid.axes[-1]
        profile = 0.1 * x + (np.arange(x.size) >= 5)
        u = GridFunction(grid, np.broadcast_to(profile, grid.shape).copy())
        semi = (profile[5] - profile[4]) / (x[5] - x[4]) ** rho
        assert hoelder_norm(u, rho) == oracles.hoelder_norm(u, rho)
        assert hoelder_norm(u, rho) == pytest.approx(profile[-1] + semi, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_steepest_pair_at_positive_leading_offset(self, n, rho):
        # +1 at z and -1 at w = z + (1, -1, ...): the offset is positive on
        # the leading axis and negative along the others, and this diagonal
        # pair beats every pair of a spike with a zero neighbour
        grid = unit_grid((9,) * n, n=n)
        z, w = (3,) * n, (4,) + (2,) * (n - 1)
        values = np.zeros(grid.shape)
        values[z], values[w] = 1.0, -1.0
        u = GridFunction(grid, values)
        d = math.sqrt(sum((ax[i] - ax[j]) ** 2 for ax, i, j in zip(grid.axes, z, w)))
        assert hoelder_norm(u, rho) == oracles.hoelder_norm(u, rho)
        assert hoelder_norm(u, rho) == pytest.approx(1.0 + 2.0 / d ** rho, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_matches_oracle_on_13_cubed(self, rho):
        grid = unit_grid((13, 13, 13), n=3)
        rng = np.random.default_rng(13)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        assert hoelder_norm(u, rho) == oracles.hoelder_norm(u, rho)


    @given(case=pruning_cases(), rho=st.floats(0.0, 1.0, exclude_min=True))
    def test_matches_oracle_where_cells_are_pruned(self, case, rho):
        assert hoelder_norm(case, rho) == oracles.hoelder_norm(case, rho)

    @pytest.mark.parametrize("n, m", [(2, 33), (3, 17)])
    def test_far_plateaus_at_small_rho(self, n, m):
        # +1 on a corner block, -1 on the opposite one and 0 between: at
        # rho = 0.05 the distance barely counts, so the steepest pair joins
        # the inner corners of the two plateaus across the grid, and the
        # search must not drop the far cell pair holding it
        grid = unit_grid((m,) * n, n=n)
        values = np.zeros(grid.shape)
        values[(slice(0, 3),) * n] = 1.0
        values[(slice(m - 3, m),) * n] = -1.0
        u = GridFunction(grid, values)
        d = math.sqrt(sum((ax[m - 3] - ax[2]) ** 2 for ax in grid.axes))
        assert hoelder_norm(u, 0.05) == oracles.hoelder_norm(u, 0.05)
        assert hoelder_norm(u, 0.05) == pytest.approx(1.0 + 2.0 / d ** 0.05, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("axis", [0, -1])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_steepest_pair_straddles_a_cell_boundary(self, n, axis, rho):
        # a gentle ramp with a unit jump between the last node of the first
        # cell along one axis and the first node of the second
        side = calculus._cell_side(n)
        grid = unit_grid((3 * side + 2,) * n, n=n)
        c = grid.axes[axis]
        profile = 0.1 * c + (np.arange(c.size) >= side)
        shape = [1] * n
        shape[axis] = -1
        u = GridFunction(grid, np.broadcast_to(profile.reshape(shape), grid.shape).copy())
        semi = (profile[side] - profile[side - 1]) / (c[side] - c[side - 1]) ** rho
        assert hoelder_norm(u, rho) == oracles.hoelder_norm(u, rho)
        assert hoelder_norm(u, rho) == pytest.approx(profile[-1] + semi, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_matches_oracle_on_the_verify_solution(self, verify_solution, rho):
        u = verify_solution
        assert hoelder_norm(u, rho) == oracles.hoelder_norm(u, rho)
        # the search forms a small share of the all-pairs quotients: 0.4%
        # at rho = 0.5 and 3.0% at rho = 1 (5.0% and 8.2% with one level of
        # cells of 5 x 5 nodes)
        _, pairs = calculus._hoelder_search(u.values, u.grid.axes, rho)
        N = u.values.size
        assert pairs < 0.04 * N * (N - 1) / 2

    @given(case=pruning_cases(), rho=st.floats(0.0, 1.0, exclude_min=True),
           data=st.data())
    def test_cell_bound_covers_every_quotient(self, case, rho, data):
        # a cell pair's bound is at least every quotient of its real node
        # pairs; the cells are rebuilt here from their index ranges
        grid = case.grid
        bound, boxes = cell_bounds(case, rho)
        counts = [box.shape[0] for box in boxes]
        sides = [box.shape[1] for box in boxes]
        first = tuple(data.draw(st.integers(0, M - 1)) for M in counts)
        step = tuple(data.draw(st.integers(-1, 1)) for _ in counts)
        adjacent = tuple(min(max(c + s, 0), M - 1) for c, s, M in zip(first, step, counts))
        far = tuple(data.draw(st.integers(0, M - 1)) for M in counts)

        def nodes(cell):
            idx = np.ix_(*(np.arange(c * s, min((c + 1) * s, m))
                           for c, s, m in zip(cell, sides, grid.shape)))
            return (case.values[idx].ravel(),
                    np.stack([mesh[idx].ravel() for mesh in grid.mesh], axis=1))

        for other in (first, adjacent, far):
            (vi, pi), (vj, pj) = nodes(first), nodes(other)
            d2 = np.sum((pi[:, None, :] - pj[None, :, :]) ** 2, axis=2)
            dv = np.abs(vi[:, None] - vj[None, :])
            q = dv[d2 > 0] / np.sqrt(d2[d2 > 0]) ** rho
            i, j = np.ravel_multi_index(first, counts), np.ravel_multi_index(other, counts)
            assert q.size == 0 or q.max() <= bound[i, j]

    @given(case=pruning_cases(), rho=st.floats(0.0, 1.0, exclude_min=True))
    def test_group_bound_covers_every_cell_bound(self, case, rho):
        # every cell is a member of one group, and a group pair's bound is
        # at least the bound of every pair of its member cells, so the search
        # never prunes a group pair that holds a cell pair it would evaluate
        cells, boxes = cell_bounds(case, rho)
        C = cells.shape[0]
        members, lo, hi = calculus._groups(boxes)
        real = members < C
        assert np.array_equal(np.sort(members[real]), np.arange(C))
        cell_v = calculus._cells(case.values, case.grid.axes)[0]
        top = [cell_v[m[r]].max() for m, r in zip(members, real)]
        bottom = [cell_v[m[r]].min() for m, r in zip(members, real)]
        h2 = min(float(np.min(np.diff(c) ** 2)) for c in case.grid.axes)
        groups = calculus._cell_bounds(np.array(top), np.array(bottom), [c[:, 0] for c in lo],
                                       [c[:, -1] for c in hi], h2, rho)
        # the empty cell C, padding the last groups, bounds nothing
        cells = np.pad(cells, (0, 1), constant_values=-np.inf)
        inner = cells[members[:, None, :, None], members[None, :, None, :]]
        assert np.all(groups[:, :, None, None] >= inner)


class TestSummationByParts:
    def test_radial_sbp_with_compact_test(self):
        # int (D_a u) v + int u (D_a v) -> 0 at second order for compactly
        # supported v
        # central differences against uniform interior weights telescope, so
        # the discrete identity holds to rounding, well inside the O(h^2)
        # budget the weak-form machinery relies on
        def bump(q, center, width):
            s = (q - center) / width
            return np.where(np.abs(s) < 1.0, np.cos(0.5 * math.pi * s) ** 4, 0.0)

        for c in (17, 33, 65):
            grid = unit_grid((c, c))
            A, X = grid.mesh
            u = np.exp(A) * np.cos(X)
            v = bump(A, -0.5, 0.35) * bump(X, 0.5, 0.35)
            h = grid.h[0]
            du = first_diff(u, 0, h)
            dv = first_diff(v, 0, h)
            total = integrate(grid, du * v) + integrate(grid, u * dv)
            assert abs(total) < 1e-14


# signed zeros, the smallest and largest subnormals, the smallest normal
# and the largest finite magnitudes
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, -5e-324)


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        grid = unit_grid((9, 11), t_min=0.217)
        rng = np.random.default_rng(8)
        u = GridFunction(grid, rng.standard_normal(grid.shape) * 1e3)
        path = os.path.join(tmp_path, "u.gf")
        write_gridfunction(path, u)
        v = read_gridfunction(path)
        np.testing.assert_array_equal(u.values, v.values)
        np.testing.assert_array_equal(u.grid.a, v.grid.a)
        for xs_u, xs_v in zip(u.grid.xs, v.grid.xs):
            np.testing.assert_array_equal(xs_u, xs_v)

    @given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from(EDGE_FLOATS)),
                           min_size=6, max_size=6))
    @example(values=list(EDGE_FLOATS[:6]))
    @example(values=list(EDGE_FLOATS[2:]))
    def test_round_trip_bit_exact_on_any_finite_field(self, tmp_path_factory, values):
        # each drawn value sits next to its neighbour one ulp toward zero,
        # so adjacent values differ in the 17th significant digit
        near = np.nextafter(np.array(values), 0.0)
        field = np.stack([values, near], axis=1).reshape(3, 4)
        u = GridFunction(unit_grid((3, 4)), field)
        path = os.path.join(tmp_path_factory.mktemp("gf"), "u.gf")
        write_gridfunction(path, u)
        back = read_gridfunction(path).values
        np.testing.assert_array_equal(back.view(np.int64), field.view(np.int64))

    @given(values=st.lists(st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
                           min_size=12, max_size=12),
           counts=st.sampled_from([(3, 4), (4, 3)]))
    @example(values=list(EDGE_FLOATS) + [math.nan, math.inf, -math.inf, 0.1], counts=(3, 4))
    def test_bytes_match_per_value_writer(self, tmp_path_factory, values, counts):
        # the one format over the value list writes what formatting each
        # numpy value on its own wrote, non-finite values included
        u = GridFunction(unit_grid(counts),
                         np.array(values).reshape(counts), check_finite=False)
        tmp = tmp_path_factory.mktemp("gf")
        write_gridfunction(os.path.join(tmp, "new.gf"), u)
        oracles.write_gridfunction_per_value(os.path.join(tmp, "old.gf"), u)
        with open(os.path.join(tmp, "new.gf"), "rb") as f1, \
                open(os.path.join(tmp, "old.gf"), "rb") as f2:
            assert f1.read() == f2.read()

    # (text, value lines it replaces): "0 0" stands for two lines, so the
    # value count would match if it were read as two values
    @pytest.mark.parametrize("bad, span", [("abc", 1), ("1,5", 1), ("0x10", 1),
                                           ("--1", 1), ("0 0", 2)])
    def test_malformed_value_line_raises(self, tmp_path, bad, span):
        path = os.path.join(tmp_path, "u.gf")
        write_gridfunction(path, GridFunction(unit_grid((3, 3)), np.zeros((3, 3))))
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[5:5 + span] = [bad]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_gridfunction(path)

    # (header, value lines, the rejection) of a file near the valid 3x3 one
    # with the header n, counts, a_min, t_min, base_lo, base_hi, a_max
    @pytest.mark.parametrize("header, values, message", [
        ("2,x,3,-1,0.36787944117144233,0,1,0", ["0"] * 9,
         "grid-function header field a_count does not parse: 'x'"),
        ("1,3,-1,0.36787944117144233,0", ["0"] * 3,
         "grid-function header field n must be >= 2, got 1"),
        ("2,3,3,-1,0.36787944117144233,0,1,0,0", ["0"] * 9,
         "grid-function header has 9 fields, at most 8 for n = 2"),
        ("2,3,3,-1,0.36787944117144233,0,1,0", ["0"] * 8,
         "value count does not match the header grid shape"),
        ("2,2,3,-1,0.36787944117144233,0,1,0", ["0"] * 6, "need at least 3 nodes per axis"),
        ("2,3,3,-1,0.36787944117144233,0,1,0", ["0"] * 4 + ["nan"] + ["0"] * 4,
         "grid function values must be finite"),
    ])
    def test_rejected_file_names_its_path(self, tmp_path, header, values, message):
        path = os.path.join(tmp_path, "u.gf")
        with open(path, "w") as fh:
            fh.write("\n".join([header, *values]) + "\n")
        with pytest.raises(ValueError) as info:
            read_gridfunction(path)
        assert str(info.value) == f"{path}: {message}"

    def test_rewrite_is_byte_identical(self, tmp_path):
        grid = unit_grid((7, 7))
        rng = np.random.default_rng(9)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        p1 = os.path.join(tmp_path, "a.gf")
        p2 = os.path.join(tmp_path, "b.gf")
        write_gridfunction(p1, u)
        write_gridfunction(p2, read_gridfunction(p1))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_truncated_top_face_round_trip(self, tmp_path):
        dom = ConeDomain(n=2, base_lo=[0.25], base_hi=[0.75], t_min=0.1,
                         t_max=0.9, bottom_is_boundary=True)
        grid = LogGrid.build(dom, (9, 9))
        u = GridFunction(grid, np.ones(grid.shape))
        path = os.path.join(tmp_path, "c.gf")
        write_gridfunction(path, u)
        v = read_gridfunction(path)
        np.testing.assert_array_equal(u.grid.a, v.grid.a)
