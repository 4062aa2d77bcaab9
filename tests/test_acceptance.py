"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Empirical constants are never asserted
absolutely: refinement stability (20 percent) is the yardstick, and frozen
reference constants carry that same 20 percent headroom.
"""

import math
import os

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
    weak_form_residual,
    weak_harnack_check,
)
from conepde.calculus import GridFunction, LogGrid, read_gridfunction
from conepde.cli import run as cli_run
from conepde.geometry import ConeDomain
from conepde.operators import (
    SOLUTION_CONSISTENT,
    PDEProblem,
    PucciParams,
    TransformParams,
    classify_point,
    constant_field,
    operator_terms,
    psi,
    psi_inverse,
    pucci_minus,
    pucci_plus,
    q_matrix,
    residual_log_field,
    transformed_residual,
    transformed_residual_from_derivs,
)
from conepde.regularization import (
    EnvelopeParams,
    convolution_supersolution_check,
    inf_convolution,
    semiconvexity_check,
    upper_envelope,
)
from conepde.solver import (
    exact_solution_values,
    log_t_field,
    make_exact_solution,
    manufactured_problem,
    quadratic_field,
    solve_by_exhaustion,
    solve_dirichlet,
)

import oracles

# exactness floor: errors at the solver-tolerance level count as exact
# recovery and are exempt from the order fit (the manufactured quadratic is
# reproduced by the stencils identically)
EXACT_FLOOR = 1e-7


def unit_domain(n=2, t_min=math.exp(-1.0)):
    return ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                      t_min=t_min)


def zero_field(t, xs):
    return np.zeros_like(np.asarray(t, dtype=float))


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:>2}: {label}  {detail}")
    assert ok, f"criterion {num}: {label}  {detail}"


class TestAcceptance:
    def test_01_exact_solution_recovery(self):
        cases = [
            (2.0, 3, make_exact_solution(2.0, 3)),
            (3.0, 2, make_exact_solution(3.0, 2)),
            (2.0, 2, quadratic_field(2)),
        ]
        all_ok = True
        details = []
        for p, n, u_star in cases:
            prob = manufactured_problem(u_star, p)
            errs, hs = [], []
            for c in (9, 17, 33):
                grid = LogGrid.build(unit_domain(n=n), (c,) * n)
                u, rep = solve_dirichlet(prob, grid)
                exact = exact_solution_values(u_star, grid)
                err = float(np.max(np.abs(u.values - exact.values)))
                hs.append(max(grid.h))
                errs.append(err)
                if not (rep.converged and err <= 5.0 * max(grid.h) ** 2):
                    all_ok = False
            for e0, e1 in zip(errs, errs[1:]):
                if e0 <= EXACT_FLOOR and e1 <= EXACT_FLOOR:
                    continue  # reproduced to the solver floor: exact recovery
                if math.log2(e0 / e1) < 1.9:
                    all_ok = False
            details.append(f"(p={p},n={n}): errs {['%.2e' % e for e in errs]}")
        report(1, "exact-solution recovery at order >= 1.9", all_ok,
               "; ".join(details))

    def test_02_pucci_oracle_equivalence(self):
        rng = np.random.default_rng(42)
        params = PucciParams.from_p(3.0)
        ok = True
        worst = 0.0
        for k in range(100):
            n = 2 if k < 50 else 3
            B = rng.standard_normal((n, n))
            X = 0.5 * (B + B.T)
            evals = np.linalg.eigvalsh(X)
            corners = np.array(np.meshgrid(
                *[[params.lam, params.Lam]] * n)).reshape(n, -1).T
            interior = params.lam + (params.Lam - params.lam) * rng.random((100, n))
            traces = np.vstack([corners, interior]) @ evals
            gap = max(abs(pucci_plus(X, params) - float(np.max(traces))),
                      abs(pucci_minus(X, params) - float(np.min(traces))))
            worst = max(worst, gap)
            ok = ok and gap <= 1e-10
        bracket_ok = True
        for _ in range(1000):
            n = int(rng.integers(2, 4))
            g = rng.standard_normal(n)
            while np.linalg.norm(g) < 1e-8:
                g = rng.standard_normal(n)
            B = rng.standard_normal((n, n))
            X = 0.5 * (B + B.T)
            val = float(np.trace(q_matrix(g, 3.0) @ X))
            bracket_ok = bracket_ok and (
                pucci_minus(X, params) - 1e-10 <= val <= pucci_plus(X, params) + 1e-10)
        report(2, "extremal-operator oracle equivalence and bracketing",
               ok and bracket_ok, f"worst oracle gap {worst:.2e}")

    def test_03_comparison_principle(self):
        rng = np.random.default_rng(2024)
        floor = 0.1  # the least t^p f of the lower forcing
        violations_total = 0
        pairs_ok = True
        for k in range(50):
            p = float(rng.choice([2.0, 2.5, 3.0]))
            n = 3 if k % 10 == 0 else 2
            counts = (9,) * n if n == 3 else (17, 17)
            grid = LogGrid.build(unit_domain(n=n), counts)
            amp = float(rng.uniform(0.0, 0.5))
            freq = float(rng.uniform(1.0, 3.0))
            margin = float(rng.uniform(0.2, 0.8))

            def f_low(t, xs, amp=amp, freq=freq, p=p):
                base = floor + amp * (1.0 + np.sin(freq * np.log(np.asarray(t, dtype=float))))
                return base * np.asarray(t, dtype=float) ** (-p)

            def f_high(t, xs, margin=margin, p=p):
                return f_low(t, xs) + margin * np.asarray(t, dtype=float) ** (-p)

            # shared smooth boundary data
            ca, cx = rng.uniform(-0.3, 0.3, 2)

            def data(t, xs, ca=ca, cx=cx):
                out = ca * np.log(np.asarray(t, dtype=float))
                for x in xs:
                    out = out + cx * np.asarray(x, dtype=float) ** 2
                return out

            prob_low = PDEProblem(p=p, f=f_low, dirichlet=data)
            prob_high = PDEProblem(p=p, f=f_high, dirichlet=data)
            u_high, r1 = solve_dirichlet(prob_high, grid)
            u_low, r2 = solve_dirichlet(prob_low, grid)
            if not (r1.converged and r2.converged):
                pairs_ok = False
                continue
            rep = comparison_check(u_high, u_low, prob_low,
                                   tol=10.0 * max(grid.h) ** 2)
            violations_total += rep.violations
        # negative control: an interior bump must be counted
        grid = LogGrid.build(unit_domain(), (17, 17))
        A, X = grid.mesh
        bump = np.exp(-40.0 * ((A + 0.5) ** 2 + (X - 0.5) ** 2))
        bump[grid.boundary_mask] = 0.0
        prob = PDEProblem(p=2.0,
                          f=lambda t, xs: floor * np.asarray(t, dtype=float) ** -2.0,
                          dirichlet=zero_field)
        neg = comparison_check(GridFunction(grid, bump),
                               GridFunction(grid, np.zeros(grid.shape)), prob,
                               tol=10.0 * max(grid.h) ** 2)
        ok = pairs_ok and violations_total == 0 and neg.violations > 0
        report(3, "comparison principle on 50 randomized pairs", ok,
               f"violations {violations_total}, negative control {neg.violations}")

    def test_04_abp_stability(self):
        prob = PDEProblem(p=2.0, f=constant_field(-1.0), dirichlet=zero_field)
        cs, reports = (17, 33, 65), []
        for c in cs:
            grid = LogGrid.build(unit_domain(), (c, c))
            u, _ = solve_dirichlet(prob, grid)
            one, _ = abp_check(u, prob)
            reports.append(one)
        cemps = [r.C_emp for r in reports]
        spread = (max(cemps) - min(cemps)) / max(cemps)
        c_ref = 1.2 * cemps[0]  # frozen from the coarsest grid, 20% headroom
        holds = all(r.holds_with(c_ref) for r in reports)
        # nonnegative forcing branch: discrete maximum principle
        prob_pos = PDEProblem(p=2.0,
                              f=lambda t, xs: 0.5 * np.asarray(t, dtype=float) ** -2.0,
                              dirichlet=zero_field)
        grid = LogGrid.build(unit_domain(), (33, 33))
        u_pos, _ = solve_dirichlet(prob_pos, grid)
        one_pos, _ = abp_check(u_pos, prob_pos)
        max_principle = (one_pos.forcing_zero and
                         one_pos.interior_sup_vplus
                         <= one_pos.boundary_sup_vplus + 10.0 * max(grid.h) ** 2)
        ok = spread <= 0.2 and holds and max_principle
        report(4, "interior-bound constant stable and reference holds", ok,
               f"C_emp {['%.3f' % c for c in cemps]}, spread {spread:.3f}")

    def test_05_hoelder_estimate(self):
        prob = PDEProblem(p=2.0, f=constant_field(-1.0), dirichlet=zero_field)
        ratios, tables = [], []
        for c in (17, 33, 65):
            grid = LogGrid.build(unit_domain(), (c, c))
            u, _ = solve_dirichlet(prob, grid)
            rep = hoelder_check(u, prob, 0.25)
            ratios.append(rep.ratio)
            tables.append([hoelder_check(u, prob, rho) for rho in (0.1, 0.2, 0.3)])
        finite = all(r is not None and math.isfinite(r) for r in ratios)
        spread = (max(ratios) - min(ratios)) / max(ratios)
        alpha1 = empirical_alpha1(tables[0], tables[-1])
        ok = finite and spread <= 0.2 and alpha1 is not None and alpha1 > 0.0
        report(5, "weighted Hoelder ratio stable with positive exponent range",
               ok, f"ratios {['%.3f' % r for r in ratios]}, alpha1 {alpha1}")

    def test_06_harnack(self):
        # closed form: u = t^-1 at p=2, n=3; radius a hair above 4 spacings
        dom3 = unit_domain(n=3)
        grid3 = LogGrid.build(dom3, (33, 17, 17))
        u3 = exact_solution_values(make_exact_solution(2.0, 3), grid3)
        prob3 = PDEProblem(p=2.0, f=zero_field, dirichlet=zero_field)
        h = grid3.h[0]
        k = 4
        center = np.array([grid3.a[16], 0.5, 0.5])
        rep = harnack_ratio(u3, prob3, center, 2.0 * k * h * (1 + 1e-9))
        closed = rep.C_emp == pytest.approx(math.exp(2.0 * k * h), rel=1e-9)
        closed = closed and abs(rep.C_emp / math.exp(2.0 * k * h * (1 + 1e-9)) - 1.0) <= 0.01

        # batch: 20 random balls on a nonnegative solve at (p, n) = (2, 2)
        prob = PDEProblem(p=2.0, f=constant_field(-1.0), dirichlet=zero_field)
        grid = LogGrid.build(unit_domain(), (33, 33))
        u, _ = solve_dirichlet(prob, grid)
        assert float(np.min(u.values)) >= -1e-12
        rng = np.random.default_rng(7)
        cemps = []
        for _ in range(20):
            while True:
                a0 = rng.uniform(-0.9, -0.1)
                x0 = rng.uniform(0.1, 0.9)
                d = rng.uniform(0.06, 0.25)
                c = np.array([a0, x0])
                if (a0 - d > grid.a[0] and a0 + d < 0.0
                        and x0 - d > 0.0 and x0 + d < 1.0):
                    break
            cemps.append(harnack_ratio(u, prob, c, d).C_emp)
        # a single modest constant covers the whole batch; 10 is frozen with
        # wide margin over the observed maximum near 1.3
        batch_bound = max(cemps)
        batch_ok = math.isfinite(batch_bound) and batch_bound <= 10.0

        # weak Harnack: at least one p0 with a refinement-stable constant
        stable_p0 = None
        rows_pair = []
        for c in (33, 65):
            grid_w = LogGrid.build(unit_domain(), (c, c))
            u_w, _ = solve_dirichlet(prob, grid_w)
            shift = GridFunction(grid_w, u_w.values + 0.05)  # strictly positive
            rows_pair.append(weak_harnack_check(shift, prob, (0.25, 0.5, 0.75, 1.0),
                                                np.array([-0.5, 0.5]), 0.2))
        for r0, r1 in zip(*rows_pair):
            if (math.isfinite(r0.C_emp_minus) and math.isfinite(r1.C_emp_minus)
                    and abs(r1.C_emp_minus / r0.C_emp_minus - 1.0) <= 0.2):
                stable_p0 = r0.p0
        ok = closed and batch_ok and stable_p0 is not None
        report(6, "Harnack closed form, bounded batch, stable weak variant",
               ok, f"closed C {rep.C_emp:.4f}, batch max {batch_bound:.2f}, "
                   f"stable p0 {stable_p0}")

    def test_07_convolutions(self):
        grid = LogGrid.build(unit_domain(), (33, 33))
        A, X = grid.mesh
        rng = np.random.default_rng(11)
        u = GridFunction(grid, 0.4 * np.sin(3 * A) * np.cos(2 * X) + 0.2 * A)
        eps = 0.1
        low = inf_convolution(u, eps)
        env = upper_envelope(u, eps)
        m = env.mask
        sandwich = (np.all(low.values <= u.values + 1e-14)
                    and np.all(u.values[m] + eps <= env.field.values[m] + 1e-12))
        low2 = inf_convolution(u, 0.05)
        mono = np.all(low2.values >= low.values)
        # the support-radius window is lossless, and the package's unwindowed
        # minimum matches the all-pairs one up to rounding
        full = oracles.inf_convolution(u, eps, window=1e9)
        window = (np.array_equal(oracles.inf_convolution(u, eps), full)
                  and np.allclose(low.values, full, rtol=0.0,
                                  atol=1e-15 * max(1.0, float(np.max(np.abs(u.values))))))
        # pointwise convergence bound on a Lipschitz field
        ul = GridFunction(grid, 0.5 * np.abs(A + 0.4) + 0.3 * X)
        lip = 0.8
        conv_ok = True
        for e in (0.1, 0.05, 0.01):
            gap = float(np.max(np.abs(inf_convolution(ul, e).values - ul.values)))
            conv_ok = conv_ok and gap <= 2.0 * math.sqrt(
                float(np.max(np.abs(ul.values))) * e) * lip + 1e-12

        ub = GridFunction(grid, -0.5 * ((A + 0.5) ** 2 + (X - 0.5) ** 2))
        eps2 = 0.15
        env2 = upper_envelope(ub, eps2)
        delta = max(1.05 * env2.max_offset, 0.02)
        params = EnvelopeParams(eps=eps2, delta=delta, gamma_env=0.3 * (eps2 - delta))
        min_eig, bound, semiconvex = semiconvexity_check(
            env2, params, slack=10.0 * max(grid.h))

        u_star = make_exact_solution(3.0, 2)
        prob = manufactured_problem(u_star, 3.0)
        uex = exact_solution_values(u_star, grid)
        lemma = convolution_supersolution_check(uex, prob, eps=0.01,
                                                tol=10.0 * max(grid.h) ** 2)
        ok = (sandwich and mono and window and conv_ok and semiconvex
              and lemma["violations"] == 0)
        report(7, "convolution order, windows, semiconvexity, supersolution",
               ok, f"min eig {min_eig:.3f} >= {bound:.3f} - slack; "
                   f"lemma violations {lemma['violations']}")

    def test_08_psi_transform_consistency(self):
        rng = np.random.default_rng(5)
        p, n = 3.0, 2
        params = TransformParams.from_bound(1.2)
        worst_analytic = 0.0
        for _ in range(300):
            t = math.exp(rng.uniform(-1.0, -0.05))
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
            worst_analytic = max(worst_analytic,
                                 abs(lhs - rhs) / max(1.0, abs(lhs)))
        analytic_ok = worst_analytic <= 1e-8

        prob = PDEProblem(p=p, f=constant_field(0.5), dirichlet=zero_field)
        grid_errs = []
        for c in (17, 33):
            grid = LogGrid.build(unit_domain(), (c, c))
            A, X = grid.mesh
            zvals = 0.25 * np.sin(2 * A) * np.cos(X) + 0.1 * A
            z = GridFunction(grid, zvals)
            v = GridFunction(grid, np.asarray(psi(zvals, params)))
            strong_v = grid.t_field ** -p * residual_log_field(v, prob)
            transformed = transformed_residual(z, prob, params)
            worst = 0.0
            for i in range(1, c - 1, 2):
                for j in range(1, c - 1, 2):
                    t = math.exp(grid.a[i])
                    dpsi = params.K * math.exp(-zvals[i, j])
                    lhs = strong_v[i, j]
                    rhs = (dpsi ** (p - 1.0) / t ** p) * transformed[i, j]
                    worst = max(worst, abs(lhs - rhs))
            grid_errs.append(worst)
        # pinned grid constant: the measured h^2-normalized defect stays
        # below 30 on desk grids; 50 gives headroom without hiding regressions
        grid_ok = all(err <= 50.0 * (1.0 / (c - 1)) ** 2
                      for err, c in zip(grid_errs, (17, 33)))
        grid_ok = grid_ok and grid_errs[1] <= grid_errs[0] / 2.0

        s = np.linspace(-4.0, 2.0, 4001)
        round_trip = float(np.max(np.abs(psi_inverse(psi(s, params), params) - s)))
        ok = analytic_ok and grid_ok and round_trip <= 1e-14
        report(8, "substitution chain rule and round trip", ok,
               f"analytic {worst_analytic:.2e}, grid {grid_errs[1]:.2e}, "
               f"round trip {round_trip:.2e}")

    def test_09_doubling_diagnostic(self):
        grid = LogGrid.build(unit_domain(), (20, 20))
        A, X = grid.mesh
        z1 = GridFunction(grid, 0.30 * np.exp(-8.0 * ((A + 0.3) ** 2 + (X - 0.3) ** 2)))
        z2 = GridFunction(grid, -0.25 * np.exp(-8.0 * ((A + 0.7) ** 2 + (X - 0.7) ** 2)))
        alphas = [1.0, 10.0, 100.0, 1000.0]
        diags = doubling_diagnostic(z1, z2, alphas)
        ms = [d.M_alpha for d in diags]
        gaps = [d.diagonal_gap for d in diags]
        pens = [d.penalty for d in diags]
        nonincreasing = all(b <= a + 1e-14 for a, b in zip(ms, ms[1:]))
        collapse = gaps[-1] <= 1e-12 and pens[-1] <= 1e-12 and gaps[0] > 0.0
        diag_sup = float(np.max(z1.values - z2.values))
        # 1/alpha extrapolation from the last two sweep points
        beta = (ms[-2] - ms[-1]) / (1.0 / alphas[-2] - 1.0 / alphas[-1])
        m_inf = ms[-1] - beta / alphas[-1]
        extrap = abs(m_inf - diag_sup) <= 0.02 * max(abs(diag_sup), 1e-12)
        # independent full-pair oracle
        pts = grid.log_points
        a1, a2 = z1.values.ravel(), z2.values.ravel()
        oracle_ok = True
        for alpha, diag in zip(alphas, diags):
            best = -math.inf
            for i in range(pts.shape[0]):
                d2 = np.sum((pts[i] - pts) ** 2, axis=1)
                best = max(best, float(np.max(a1[i] - a2 - 0.5 * alpha * d2)))
            oracle_ok = oracle_ok and diag.M_alpha == pytest.approx(best, abs=1e-13)
        ok = nonincreasing and collapse and extrap and oracle_ok
        report(9, "pair-maximization limit behavior and oracle agreement", ok,
               f"M {['%.4f' % m for m in ms]}, diag sup {diag_sup:.4f}")

    def test_10_viscosity_implies_weak(self):
        u_star = make_exact_solution(3.0, 2)
        prob = manufactured_problem(u_star, 3.0)
        coarse = LogGrid.build(unit_domain(), (17, 17))
        bumps = cosine_bumps(coarse, 10, seed=9)
        worsts, gaps = [], []
        for c in (17, 33, 65):
            grid = LogGrid.build(unit_domain(), (c, c))
            u, rep = solve_dirichlet(prob, grid)
            worst, rows = weak_form_residual(u, prob, bumps)
            worsts.append(worst)
            gaps.append(max(r["form_gap"] for r in rows))
        orders = [math.log2(worsts[i] / worsts[i + 1]) for i in range(2)]
        ok = min(orders) >= 1.0 and max(gaps) <= 1e-12
        report(10, "weak-form residual refines at order >= 1 with form "
                   "equivalence", ok,
               f"residuals {['%.2e' % w for w in worsts]}, orders "
               f"{['%.2f' % o for o in orders]}, form gap {max(gaps):.1e}")

    def test_11_exhaustion_existence(self):
        dom = unit_domain(t_min=0.2)
        prob = PDEProblem(p=2.0, f=constant_field(-1.0), dirichlet=zero_field)
        rep = solve_by_exhaustion(prob, dom, j_max=6, grid_density=32.0)
        gaps = [g for _, g in rep.diffs]
        monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))
        # the finest member is solution-consistent on the core covered by the
        # first member
        dom1, _ = rep.members[0]
        dom6, u6 = rep.members[-1]
        grid6 = u6.grid
        tol = 10.0 * max(grid6.h) ** 2
        labels = classify_point(u6, prob, 1e-6, tol)
        consistent = True
        checked = 0
        for i in range(1, grid6.shape[0] - 1, 6):
            for j in range(1, grid6.shape[1] - 1, 6):
                a = grid6.a[i]
                x = grid6.xs[0][j]
                if not (dom1.a_min < a < dom1.a_max
                        and dom1.base_lo[0] < x < dom1.base_hi[0]):
                    continue
                checked += 1
                consistent = consistent and labels[i, j] == SOLUTION_CONSISTENT
        ok = monotone and consistent and checked > 10
        report(11, "domain-exhaustion convergence and core consistency", ok,
               f"gaps {['%.2e' % g for g in gaps]}, core nodes {checked}")

    def test_12_determinism(self, tmp_path, monkeypatch):
        base = """
domain.n = 2
domain.base = 0,1
domain.t_min = 0.2
domain.k0 = 2.0
domain.d0 = 1.0
problem.p = 2.0
problem.f = constant:-1
problem.dirichlet = zero
problem.exact = auto
grid.nodes = 13,13
exhaust.j_max = 3
exhaust.density = 8
convolve.direction = inf
convolve.eps = 0.05
convolve.input = {src}
study.levels = 2
verify.radii = 0.3,0.15,0.075
output.dir = out
"""
        # the comparison pair's forcing, t^p f = 0.1, replacing the base's line
        comparison_lines = {"problem.f = constant:-1": "problem.f = exp:0.1,-2.0"}
        # a source field for convolve
        dom = ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0], t_min=0.2)
        grid = LogGrid.build(dom, (13, 13))
        rng = np.random.default_rng(0)
        src = os.path.join(tmp_path, "src.gf")
        from conepde.calculus import write_gridfunction
        write_gridfunction(src, GridFunction(grid, rng.standard_normal(grid.shape)))

        commands = [
            ["solve"], ["manufacture"], ["exhaust"], ["convolve"],
            ["convergence-study"], ["gcondition"],
            ["verify", "abp"], ["verify", "hoelder"], ["verify", "harnack"],
            ["verify", "weakharnack"], ["verify", "oscillation"],
            ["verify", "comparison"], ["verify", "doubling"],
            ["verify", "weakform"],
        ]
        all_ok = True
        bad = []
        for command in commands:
            body = base.format(src=src)
            if command[-1] in ("comparison", "doubling"):
                for line, replacement in comparison_lines.items():
                    body = body.replace(line, replacement)
            cfgpath = os.path.join(tmp_path, "_".join(command) + ".cfg")
            with open(cfgpath, "w") as fh:
                fh.write(body)
            outs = []
            for tag in ("r1", "r2"):
                workdir = os.path.join(tmp_path, "_".join(command) + tag)
                os.makedirs(workdir, exist_ok=True)
                monkeypatch.chdir(workdir)
                code = cli_run(["--seed", "11", *command, "--config", cfgpath])
                if code != 0:
                    all_ok = False
                    bad.append(("exit", command, code))
                outs.append(os.path.join(workdir, "out"))
            for name in sorted(os.listdir(outs[0])):
                if name.endswith("_meta.json"):
                    continue
                with open(os.path.join(outs[0], name), "rb") as f1, open(
                        os.path.join(outs[1], name), "rb") as f2:
                    if f1.read() != f2.read():
                        all_ok = False
                        bad.append(("bytes", command, name))
        report(12, "byte-identical outputs for every subcommand", all_ok,
               f"issues: {bad}" if bad else "all files identical")
