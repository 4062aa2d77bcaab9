import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.ndimage import binary_erosion

from conepde.analysis import doubling_diagnostic
from conepde.calculus import GridFunction, LogGrid, gradient_field
from conepde.geometry import ConeDomain
from conepde.operators import PDEProblem
from conepde.regularization import (
    EnvelopeParams,
    _ball_max,
    _boundary_margin,
    _box_interior,
    _min_plus,
    convolution_supersolution_check,
    inf_convolution,
    semiconvexity_check,
    support_radius,
    upper_envelope,
)
from conepde.solver import exact_solution_values, make_exact_solution, manufactured_problem

import oracles


def unit_grid(counts=(33, 33), t_min=math.exp(-1.0)):
    dom = ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0], t_min=t_min)
    return LogGrid.build(dom, counts)


def zero_field(t, xs):
    return np.zeros_like(np.asarray(t, dtype=float))


class TestInfConvolution:
    def test_constant_is_fixed(self):
        grid = unit_grid((17, 17))
        u = GridFunction(grid, np.full(grid.shape, 1.25))
        out = inf_convolution(u, 0.05)
        np.testing.assert_allclose(out.values, 1.25, atol=1e-15)

    def test_one_dimensional_kink(self):
        # u = |x - 1/2|: away from the kink by at least eps the convolution
        # is |x - 1/2| - eps/2 (the continuum minimizer lands on a node when
        # eps is a multiple of the spacing)
        grid = unit_grid((17, 33))
        A, X = grid.mesh
        u = GridFunction(grid, np.abs(X - 0.5))
        eps = 4 * grid.h[1]
        out = inf_convolution(u, eps)
        far = np.abs(X - 0.5) >= eps
        np.testing.assert_allclose(out.values[far],
                                   (np.abs(X - 0.5) - eps / 2.0)[far], atol=1e-13)

    def test_below_and_monotone_in_eps(self):
        grid = unit_grid((21, 21))
        rng = np.random.default_rng(0)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        u1 = inf_convolution(u, 0.05)
        u2 = inf_convolution(u, 0.1)
        assert np.all(u1.values <= u.values)
        assert np.all(u2.values <= u1.values)

    def test_window_equivalence_is_exact(self):
        # restricting the search to the support radius changes nothing
        grid = unit_grid((21, 21))
        rng = np.random.default_rng(1)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        eps = 0.07
        windowed = oracles.inf_convolution(u, eps)
        full = oracles.inf_convolution(u, eps, window=1e9)
        np.testing.assert_array_equal(windowed, full)
        # and the package, which searches all nodes, matches it up to rounding
        np.testing.assert_allclose(inf_convolution(u, eps).values, full, rtol=0.0,
                                   atol=1e-15 * max(1.0, float(np.max(np.abs(u.values)))))

    def test_translation_compatibility(self):
        grid = unit_grid((17, 17))
        rng = np.random.default_rng(2)
        base = rng.standard_normal(grid.shape)
        out0 = inf_convolution(GridFunction(grid, base), 0.05)
        out1 = inf_convolution(GridFunction(grid, base + 3.25), 0.05)
        np.testing.assert_allclose(out1.values, out0.values + 3.25, atol=1e-12)

    def test_pointwise_convergence_bound(self):
        # |u_eps - u| <= Lip(u) r(eps) = 2 sqrt(sup|u| eps) Lip(u)
        grid = unit_grid((33, 33))
        A, X = grid.mesh
        u = GridFunction(grid, 0.5 * np.abs(A + 0.4) + 0.3 * X)
        lip = 0.5 + 0.3  # generous Lipschitz bound in the flat chart
        for eps in (0.1, 0.05, 0.01):
            out = inf_convolution(u, eps)
            gap = np.max(np.abs(out.values - u.values))
            assert gap <= 2.0 * math.sqrt(np.max(np.abs(u.values)) * eps) * lip + 1e-12

    def test_lipschitz_constant_bounded(self):
        grid = unit_grid((33, 33))
        rng = np.random.default_rng(3)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        eps = 0.2
        out = inf_convolution(u, eps)
        g = gradient_field(out)
        interior = ~grid.boundary_mask
        lip = float(np.max(np.sqrt(np.sum(g * g, axis=0))[interior]))
        bound = support_radius(u, eps) / eps + 4.0 * max(grid.h)
        assert lip <= bound


class TestUpperEnvelope:
    def test_constant_gains_eps(self):
        grid = unit_grid((25, 25))
        u = GridFunction(grid, np.full(grid.shape, 2.0))
        env = upper_envelope(u, 0.12)
        assert np.any(env.mask)
        np.testing.assert_allclose(env.field.values[env.mask], 2.0 + 0.12, atol=1e-14)

    def test_sandwich(self):
        # u_eps <= u <= u^eps - eps on the envelope mask
        grid = unit_grid((25, 25))
        rng = np.random.default_rng(5)
        u = GridFunction(grid, 0.3 * rng.standard_normal(grid.shape))
        eps = 0.1
        low = inf_convolution(u, eps)
        env = upper_envelope(u, eps)
        m = env.mask
        assert np.all(low.values[m] <= u.values[m] + 1e-14)
        assert np.all(u.values[m] + eps <= env.field.values[m] + 1e-12)

    def test_monotone_in_eps_on_common_mask(self):
        grid = unit_grid((25, 25))
        rng = np.random.default_rng(6)
        u = GridFunction(grid, 0.2 * rng.standard_normal(grid.shape))
        e_small = upper_envelope(u, 0.06)
        e_big = upper_envelope(u, 0.12)
        m = e_small.mask & e_big.mask
        assert np.any(m)
        assert np.all(e_big.field.values[m] >= e_small.field.values[m] - 1e-14)

    def test_argmax_moves_uphill(self):
        # for a smooth field with gradient g the attaining node sits near
        # z + eps g / sqrt(1 + |g|^2); first-order optimality puts the source
        # on the gradient side of z
        grid = unit_grid((33, 33))
        A, X = grid.mesh
        gvec = np.array([0.5, -0.25])
        u = GridFunction(grid, gvec[0] * A + gvec[1] * X)
        eps = 0.12
        env = upper_envelope(u, eps)
        node = (16, 16)
        assert env.mask[node]
        pts = grid.log_points.reshape(grid.shape + (2,))
        z0 = pts[node]
        d2 = np.sum((pts - z0) ** 2, axis=-1)
        cand = np.where(d2 <= eps**2,
                        u.values + np.sqrt(np.maximum(eps**2 - d2, 0.0)), -np.inf)
        w0 = pts[np.unravel_index(np.argmax(cand), grid.shape)]
        predicted = z0 + eps * gvec / math.sqrt(1.0 + float(gvec @ gvec))
        assert np.linalg.norm(w0 - predicted) <= 1.5 * max(grid.h)
        # and the envelope value matches the recorded offset
        assert env.offsets[node] == pytest.approx(np.linalg.norm(w0 - z0), abs=1e-12)

    def test_mask_excludes_near_boundary(self):
        grid = unit_grid((25, 25))
        u = GridFunction(grid, np.zeros(grid.shape))
        env = upper_envelope(u, 0.2)
        d = oracles.boundary_distance_field(grid)
        assert not np.any(env.mask & (d <= 0.2))


class TestSemiconvexity:
    def test_constant_passes(self):
        grid = unit_grid((25, 25))
        u = GridFunction(grid, np.full(grid.shape, 1.0))
        env = upper_envelope(u, 0.15)
        params = EnvelopeParams(eps=0.15, delta=0.05, gamma_env=0.02)
        min_eig, bound, ok = semiconvexity_check(env, params)
        assert ok
        assert min_eig == pytest.approx(0.0, abs=1e-10)
        assert bound < 0.0

    def test_concave_bump_passes_with_margin(self):
        grid = unit_grid((33, 33))
        A, X = grid.mesh
        u = GridFunction(grid, -0.5 * ((A + 0.5) ** 2 + (X - 0.5) ** 2))
        eps = 0.15
        env = upper_envelope(u, eps)
        delta = max(1.05 * env.max_offset, 0.02)
        gamma = 0.32 * (eps - delta)
        params = EnvelopeParams(eps=eps, delta=delta, gamma_env=gamma)
        min_eig, bound, ok = semiconvexity_check(env, params,
                                                 slack=10.0 * max(grid.h))
        assert ok
        assert min_eig >= bound - 10.0 * max(grid.h)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 7), (9, 6), (3, 4, 5), (6, 5, 7)])
    @pytest.mark.parametrize("fill", [0.6, 0.9, 1.0])
    def test_box_interior_is_binary_erosion(self, shape, fill):
        # the mask reaches the faces, where the box leaves the grid
        for seed in range(4):
            mask = np.random.default_rng(seed).random(shape) < fill
            want = binary_erosion(mask, structure=np.ones((3,) * mask.ndim), border_value=0)
            assert np.array_equal(_box_interior(mask), want)

    def test_bound_tightens_with_delta(self):
        p1 = EnvelopeParams(eps=0.2, delta=0.05, gamma_env=0.01)
        p2 = EnvelopeParams(eps=0.2, delta=0.10, gamma_env=0.01)
        assert p2.hessian_bound < p1.hessian_bound < 0.0

    def test_eps_mismatch_rejected(self):
        grid = unit_grid((17, 17))
        env = upper_envelope(GridFunction(grid, np.zeros(grid.shape)), 0.1)
        with pytest.raises(ValueError):
            semiconvexity_check(env, EnvelopeParams(eps=0.2, delta=0.05,
                                                    gamma_env=0.01))

    def test_params_validated(self):
        with pytest.raises(ValueError):
            EnvelopeParams(eps=0.1, delta=0.2, gamma_env=0.01)
        with pytest.raises(ValueError):
            EnvelopeParams(eps=0.1, delta=0.05, gamma_env=0.05)


class TestSupersolutionCheck:
    def test_exact_solution_clean(self):
        grid = unit_grid((33, 33))
        u_star = make_exact_solution(3.0, 2)
        u = exact_solution_values(u_star, grid)
        prob = manufactured_problem(u_star, 3.0)
        out = convolution_supersolution_check(u, prob, eps=0.01,
                                              tol=10.0 * max(grid.h) ** 2)
        assert out["violations"] == 0

    def test_constant_with_nonnegative_forcing(self):
        grid = unit_grid((25, 25))
        prob = PDEProblem(p=3.0,
                          f=lambda t, xs: np.full_like(np.asarray(t, dtype=float), 0.5),
                          dirichlet=zero_field)
        u = GridFunction(grid, np.full(grid.shape, 0.3))
        out = convolution_supersolution_check(u, prob, eps=0.005,
                                              tol=10.0 * max(grid.h) ** 2)
        assert out["violations"] == 0

    def test_strict_subsolution_violates(self):
        # a steep downward paraboloid is a strict subsolution of the zero
        # forcing problem; violations are recorded, not asserted away
        grid = unit_grid((33, 33))
        A, X = grid.mesh
        u = GridFunction(grid, 2.0 * ((A + 0.5) ** 2 + (X - 0.5) ** 2))
        prob = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        out = convolution_supersolution_check(u, prob, eps=0.002,
                                              tol=10.0 * max(grid.h) ** 2)
        assert out["violations"] > 0


@st.composite
def kernel_cases(draw):
    """A random 2D or 3D grid (5-11 nodes per axis, random base box), two
    fields, in half the cases with deliberate ties."""
    n = draw(st.sampled_from([2, 3]))
    counts = tuple(draw(st.integers(5, 11)) for _ in range(n))
    lo = [draw(st.sampled_from([-1.0, 0.0, 0.5])) for _ in range(n - 1)]
    hi = [x + draw(st.sampled_from([0.5, 1.0, 3.0])) for x in lo]
    dom = ConeDomain(n=n, base_lo=lo, base_hi=hi,
                     t_min=math.exp(-draw(st.sampled_from([0.5, 1.0, 2.0]))))
    grid = LogGrid.build(dom, counts)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.01, 0.3, 5.0]))
    u, v = scale * rng.standard_normal((2,) + grid.shape)
    if draw(st.booleans()):  # few distinct values: many exact ties
        u, v = np.round(u / scale * 2.0) * scale, np.round(v / scale * 2.0) * scale
    return grid, GridFunction(grid, u), GridFunction(grid, v)


@given(case=kernel_cases(), eps=st.sampled_from([0.01, 0.05, 0.2, 0.7]))
def test_kernels_match_all_pairs_oracles(case, eps):
    grid, u, v = case
    # upper envelope: field, offsets and mask bit for bit
    env = upper_envelope(u, eps)
    field, offsets = oracles.ball_max(grid, u.values, eps, cap=True)
    mask = _boundary_margin(u) > eps
    np.testing.assert_array_equal(env.mask, mask)
    np.testing.assert_array_equal(env.field.values, np.where(mask, field, np.nan))
    np.testing.assert_array_equal(env.offsets, np.where(mask, offsets, np.nan))
    # windowed forcing maximum, at the support radius the supersolution check uses
    r = support_radius(u, eps)
    np.testing.assert_array_equal(_ball_max(v.values, grid.axes, r)[0],
                                  oracles.ball_max(grid, v.values, r)[0])
    # infimal convolution: below u exactly, and the all-pairs value up to rounding
    low = inf_convolution(u, eps).values
    assert np.all(low <= u.values)
    np.testing.assert_allclose(low, oracles.inf_convolution(u, eps), rtol=0,
                               atol=1e-15 * max(1.0, float(np.max(np.abs(u.values)))))
    # doubling: the maximum and the lexicographically first maximizing pair
    alpha = 1.0 / eps
    diag, = doubling_diagnostic(v, u, [alpha])
    M, (zi, wi) = oracles.doubling(v, u, alpha)
    assert diag.M_alpha == M
    assert diag.argmax_pair == (np.unravel_index(zi, grid.shape),
                                np.unravel_index(wi, grid.shape))


@st.composite
def min_plus_cases(draw):
    """Values on a 2D or 3D tensor grid of 1-12 nodes per axis whose steps
    differ across axes, and eps from 1e-6 to 1e3.  The values are noise, a
    plateau field of a few levels or one constant, where many partners tie,
    at an offset up to 1e8, where a small penalty vanishes into the last
    bit of the candidate and ties partners that a bare comparison of the
    penalty with the value range would tell apart."""
    n = draw(st.sampled_from([2, 3]))
    axes = [draw(st.sampled_from([-1.0, 0.0, 2.5])) + draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0]))
            * np.arange(draw(st.integers(1, 12))) for _ in range(n)]
    shape = tuple(c.size for c in axes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "plateaus", "constant"]))
    values = {"noise": rng.standard_normal(shape),
              "plateaus": rng.integers(0, 3, shape) * draw(st.sampled_from([1e-9, 0.1, 2.0])),
              "constant": np.full(shape, 0.5)}[kind]
    offset = draw(st.sampled_from([0.0, -3.0, 1e8]))
    eps = 10.0 ** draw(st.floats(-6.0, 3.0))
    return values + offset, axes, eps


@given(case=min_plus_cases())
# a constant 1e8 with eps = 500: a 1e-3 step costs 1e-9, under half an ulp
# of 1e8, so every partner along axis 0 ties with the node's own candidate
# and the dense scan keeps the first; a window from the value range (0)
# alone would keep the node itself
@example(case=(np.full((4, 3), 1e8), [np.arange(4) * 1e-3, np.arange(3) * 0.05], 500.0))
def test_windowed_min_plus_matches_the_dense_scan(case):
    # the values and the lex-first partners bit for bit
    values, axes, eps = case
    f, w = _min_plus(values, axes, eps)
    f_dense, w_dense = oracles.min_plus(values, axes, eps)
    assert f.tobytes() == f_dense.tobytes()
    for k, (got, want) in enumerate(zip(w, w_dense)):
        np.testing.assert_array_equal(got, want, err_msg=f"axis {k}")


@given(case=kernel_cases(),
       eps=st.lists(st.sampled_from([0.005, 0.01, 0.05, 0.2, 0.7, 3.0]),
                    min_size=2, max_size=2, unique=True))
def test_regularizations_bound_the_field(case, eps):
    # on random 2D and 3D grids and fields: the infimal
    # convolution is <= u and non-increasing in eps, and the upper envelope
    # is >= u + eps on its mask
    grid, u, _ = case
    small, large = sorted(eps)
    low_small = inf_convolution(u, small).values
    low_large = inf_convolution(u, large).values
    assert np.all(low_small <= u.values)
    assert np.all(low_large <= low_small)
    for e in (small, large):
        env = upper_envelope(u, e)
        assert np.all(env.field.values[env.mask] >= u.values[env.mask] + e)
