"""Timing of p != 2 Newton linear solves, and of whole solves, against grid size.

    python tools/linear_scaling.py [OUT]

On each grid (2D at 81^2, 97^2 and 161^2; 3D at 17^3, 21^3 and 25^3, over
the unit base with t_min = e^-1) it measures four things, and then J·v on
larger grids, cold 3D solves on larger grids and a cold command line.

Grid set-up: on each of SETUP_REPEATS fresh grids, the seconds of its first
``gradient_field`` and ``hessian_field`` of the smooth iterate described
below, the Hessian's mixed entries taken from the gradient as a residual
takes them (``setup_fields``: the first call reads the stencil weights off
the 1D stencil matrices), then of its ``interior_taps`` (``setup_taps``, the
stencil offsets and weights that every p != 2 solve reads) and then of its
``interior_pattern`` (``setup_pattern``, the CSC pattern that the first
factorization builds, the dissection numbering included).

Assembly: on a fresh grid on which the residual has been evaluated once,
the seconds of ``grid.dissection_order`` (the first access numbers the interior) and of
``tests/oracles.recursive_dissection_order``, the recursion it replaced.
A Newton step builds its Jacobian from the coefficient fields that the
residual evaluation of its iterate returned, so the per-step work is timed
in two columns: ``operator``, one ``operators.divergence_part_field`` call
(the derivative fields and the coefficient fields A and B, which every
residual evaluation pays), and ``jacobian``, one ``solver._jacobian_operator``
call on the coefficient fields (the stencil operator's products); the
field C = dR/dg that only a step forms is in neither.  The first
``_jacobian_operator`` call, which also builds the grid's ``interior_taps``,
is timed on its own, then ASSEMBLY_REPEATS further rounds alternate the
operator evaluation, the Jacobian, ``csc_gather`` (``solver._assemble_jacobian``
on that operator, the interior block in dissection order that only a
factorization builds), ``ordered_assembly``
(``tests/oracles.ordered_interior_block``, the same block assembled straight
from the fields, as every p != 2 step did before the stencil operator) and
``coo_assembly`` (``tests/oracles.coo_interior_block``, which reads the
stencils and converts COO to CSC on every call).  The Jacobian is the p = 3
one at eps_reg = 1e-2 at the smooth iterate described next.

J·v: at 97^2, 161^2, 33^3 and 49^3 (MATVEC_SIZES), the product of that
Jacobian with a random vector that is 0 on the boundary, MATVEC_REPEATS
times each way, alternating: ``csc_matvec``, the interior block from
``solver._assemble_jacobian`` times the vector's interior in dissection
order, as GMRES formed J·v before the stencil operator, and
``stencil_matvec``, the operator of ``solver._jacobian_operator`` times the
full-grid vector, as GMRES forms it now; with the max |difference| of the
two over max |J·v|.

One Newton step: the Jacobian of the p = 3 residual at eps_reg = 1e-2 is
taken at a smooth iterate, the forcing-free solution t^((p-n)/(p-1)) (ln t
when p = n) plus a small wave, and the Newton system J du = -res is solved
two ways: ``spsolve`` on the full-grid Jacobian of
``tests/oracles.full_jacobian`` (identity boundary rows), with SuperLU's
default COLAMD order, and ``solver._solve_jacobian`` with no kept factor or
preconditioner, so it factorizes the interior block that
``solver._assemble_jacobian`` gathers in the grid's nested-dissection order
(the gather is timed with it).  The full-grid matrix, the stencil operator
and the grid's pattern are built once per grid, outside the timed region.  Per size it records the
median seconds of each solve over REPEATS runs (the two alternate), the
fill of each factorization (stored L + U entries over the stored entries of
the matrix it factorizes; the oracle's is read off ``splu`` with COLAMD, the
call ``spsolve`` makes), and max |du - du_spsolve| / max |du_spsolve|.

One whole solve: ``solve_dirichlet`` on the p = 3 manufactured problem with
u* = t^0.5 and the default solver settings, once as the package runs it
(the p = 2 presolve and one floor eps stage, each step a GMRES cycle
preconditioned by fast diagonalization until one misses, then GMRES on a
kept ``splu`` factor, refactorizing only where that stalls), once
with ``tests/oracles.refactorized_solve`` patched in, which factorizes
every Jacobian (the interior block probed from the stencil operator, in
natural order with COLAMD), and once as ``tests/oracles.halving_schedule``, the
halving eps continuation from 0.1 down to the floor with every stage run
to the final tolerance.  Per size it records the median seconds of each
over SOLVE_REPEATS runs (the three alternate), the stages, Newton steps,
factorizations and GMRES iterations of each, and the max field gap of
each of the other two to the package's solve, relative to max |u|.

One p = 2 Newton step: ``solver._solve_linear`` on the linear system of
the p = 3 presolve (drift n - 3) with a random right-hand side, against
``tests/oracles.banded_linear_solve``, which solves the same tridiagonal
systems by one ``scipy.linalg.solve_banded`` call.  Per size (the sizes
above and the 29^3 grid of the benchmark's p = 2 solve) it records the
median seconds of each over LINEAR_REPEATS calls (the two alternate) and
whether the two steps are bit-equal.

Cold 3D solves: the same p = 3 manufactured solve at 25^3, 33^3 and 49^3
(COLD_SIZES), as the package runs it, and up to 33^3 also with no
fast-diagonalization preconditioner, so every step is on the kept factor
(``kept_factor``; a 49^3 factor takes more than 1 GB).  Per size it records
the median seconds over COLD_REPEATS runs of each, and the Newton steps,
factorizations, GMRES iterations and max error against u* of each.

Cold 3D zero-data solves: zero Dirichlet data with f = 0.5 (ZERO_DATA_F)
at p = 3, 4, 5 and 6 (ZERO_DATA_PS) on 25^3, 33^3 and 49^3
(ZERO_DATA_SIZES), as the package runs them: p = 5 and 6 go up the ladder
in p, through p = 3 and 4.  Each run is a fresh interpreter that imports
only conepde (ZERO_DATA_PROBE) and reads its peak resident set, VmHWM of
/proc/self/status (Linux): what ``ru_maxrss`` reads in a process started
from a small shell.  The child's own ``ru_maxrss`` would not do, since
Linux carries the parent's peak over fork and exec into it, so every case
would read this tool's peak.  Per case it records the median, min and max
seconds and the median peak resident set over COLD_REPEATS runs, with the
Newton steps, factorizations and GMRES iterations (the same in every run)
and min u.

A cold command line: a fresh interpreter running the CLI's ``solve`` on the
p = 4 manufactured problem u* = t^0.41 on 97^2 (the solve-2d-nonlinear
benchmark problem: ``manufacture`` writes the forcing, untimed, and the
solve reads it with ``problem.f = gridfile:``), COMMAND_LINE_REPEATS times.
It records the median, min and max wall seconds of the whole command line,
interpreter start included, the median peak resident set (VmHWM, as above),
the scipy modules the process loaded, and the solve's Newton steps,
factorizations and GMRES iterations.

Every timing is recorded as the median (``<name>_s``) and the min and max
(``<name>_min_s``, ``<name>_max_s``) over its repeats.  Per dimension it
records the least-squares exponent in the unknown count of each time, fitted
once to the per-size medians and once to the per-size minima; host drift
moves a median more than a minimum, so the two fits side by side show how
far the exponent is to be trusted.  Writes OUT (default
``BENCH_linear.json`` at the repository root) with nproc and the numpy and
scipy versions.
"""

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy
import scipy.sparse.linalg as spla

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracles  # noqa: E402
from conepde.calculus import GridFunction, LogGrid, gradient_field, hessian_field  # noqa: E402
from conepde.geometry import ConeDomain  # noqa: E402
from conepde.operators import divergence_part_field  # noqa: E402
from conepde import cli, solver  # noqa: E402
from conepde.solver import (_NewtonSystem, _assemble_jacobian,  # noqa: E402
                            _jacobian_operator, _solve_jacobian, exact_solution_values,
                            make_exact_solution, manufactured_problem, power_of_t_field,
                            solve_dirichlet)

P, EPS_REG, REPEATS, SOLVE_REPEATS, ASSEMBLY_REPEATS, KAPPA = 3.0, 1e-2, 5, 3, 31, 0.5
SETUP_REPEATS = 7
COLD_SIZES, COLD_REPEATS, COLD_FACTOR_MAX = (25, 33, 49), 3, 33
SIZES = ((2, 81), (2, 97), (2, 161), (3, 17), (3, 21), (3, 25))
ZERO_DATA_SIZES, ZERO_DATA_PS, ZERO_DATA_F = (25, 33, 49), (3.0, 4.0, 5.0, 6.0), 0.5
# one zero-data solve in a fresh interpreter: argv is SRC, p, nodes per axis, f
ZERO_DATA_PROBE = """
import json, math, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from conepde.calculus import LogGrid
from conepde.geometry import ConeDomain
from conepde.operators import PDEProblem
from conepde.solver import solve_dirichlet
p, m, f = float(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
grid = LogGrid.build(ConeDomain(n=3, base_lo=[0.0, 0.0], base_hi=[1.0, 1.0],
                                t_min=math.exp(-1.0)), (m,) * 3)
prob = PDEProblem(p=p, f=lambda t, xs: np.full_like(np.asarray(t), f),
                  dirichlet=lambda t, xs: np.zeros_like(np.asarray(t)))
t0 = time.perf_counter()
u, rep = solve_dirichlet(prob, grid)
seconds = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"seconds": seconds, "converged": rep.converged,
                  "newton_steps": sum(s.iterations for s in rep.stages),
                  "factorizations": sum(s.factorizations for s in rep.stages),
                  "krylov_iterations": sum(s.krylov_iterations for s in rep.stages),
                  "min_u": float(np.min(u.values)),
                  "peak_rss_mb": peak / 1024}))
"""
LINEAR_SIZES, LINEAR_REPEATS = SIZES + ((3, 29),), 21
MATVEC_SIZES, MATVEC_REPEATS = ((2, 97), (2, 161), (3, 33), (3, 49)), 40
COMMAND_LINE_REPEATS, COMMAND_LINE_KAPPA = 5, 0.41
# one CLI command in a fresh interpreter: argv is SRC, then the CLI's own
COMMAND_LINE_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from conepde import cli
code = cli.run(sys.argv[2:])
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "peak_rss_mb": peak / 1024, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def unit_grid(n: int, m: int) -> LogGrid:
    domain = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                        t_min=math.exp(-1.0))
    return LogGrid.build(domain, (m,) * n)


def smooth_iterate(n: int, m: int) -> tuple:
    """(grid, values, residual, coefficient fields) at the smooth iterate
    on a fresh grid."""
    grid = unit_grid(n, m)
    values = exact_solution_values(make_exact_solution(P, n), grid).values
    values = values + 0.05 * np.sin(np.pi * sum(grid.mesh))
    res = _NewtonSystem(grid, P, n - P, np.zeros(grid.shape), EPS_REG).residual(values)[0]
    return grid, values, res, oracles.coefficient_fields(values, grid, P, EPS_REG)


def newton_system(n: int, m: int) -> tuple:
    """(grid, full-grid J, stencil operator, rhs) of one Newton step at the
    smooth iterate."""
    grid, _, res, lin = smooth_iterate(n, m)
    return grid, oracles.full_jacobian(grid, *lin), _jacobian_operator(grid, *lin), -res


def record(row: dict, times: dict) -> None:
    """Puts the median, min and max of each list of seconds in ``times``
    into ``row`` as ``<name>_s``, ``<name>_min_s`` and ``<name>_max_s``."""
    for name, ts in times.items():
        row[f"{name}_s"] = statistics.median(ts)
        row[f"{name}_min_s"] = min(ts)
        row[f"{name}_max_s"] = max(ts)


def seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def measure_assembly(n: int, m: int) -> dict:
    # the residual has read the grid's stencil weights, which the first
    # assembly would otherwise also pay for
    grid, values, _, lin = smooth_iterate(n, m)
    setup = {"setup_fields": [], "setup_taps": [], "setup_pattern": []}
    for _ in range(SETUP_REPEATS):
        fresh = GridFunction(unit_grid(n, m), values, check_finite=False)
        setup["setup_fields"].append(
            seconds(lambda: hessian_field(fresh, gradient_field(fresh))))
        setup["setup_taps"].append(seconds(lambda: fresh.grid.interior_taps))
        setup["setup_pattern"].append(seconds(lambda: fresh.grid.interior_pattern))
    dissection_s = seconds(lambda: grid.dissection_order)
    row = {"n": n, "nodes": list(grid.shape), "unknowns": math.prod(grid.shape),
           "interior": int(grid.dissection_order.size), "dissection_s": dissection_s}
    row["dissection_recursive_s"] = seconds(oracles.recursive_dissection_order, grid)
    row["first_jacobian_s"] = seconds(_jacobian_operator, grid, *lin)
    record(row, setup)
    u = GridFunction(grid, values, check_finite=False)
    J = _jacobian_operator(grid, *lin)
    times = {"operator": [], "jacobian": [], "csc_gather": [], "ordered_assembly": [],
             "coo_assembly": []}
    for _ in range(ASSEMBLY_REPEATS):
        times["operator"].append(seconds(divergence_part_field, u, P, EPS_REG))
        times["jacobian"].append(seconds(_jacobian_operator, grid, *lin))
        times["csc_gather"].append(seconds(_assemble_jacobian, J))
        times["ordered_assembly"].append(seconds(oracles.ordered_interior_block, grid, *lin))
        times["coo_assembly"].append(seconds(oracles.coo_interior_block, grid, *lin))
    record(row, times)
    return row


def measure_matvec(n: int, m: int) -> dict:
    grid, _, _, lin = smooth_iterate(n, m)
    J = _jacobian_operator(grid, *lin)
    block, order = _assemble_jacobian(J), grid.dissection_order
    x = np.where(grid.boundary_mask, 0.0, np.random.default_rng(m).standard_normal(grid.shape))
    x = x.ravel()
    ordered = x[order]
    times = {"csc_matvec": [], "stencil_matvec": []}
    for _ in range(MATVEC_REPEATS):
        times["csc_matvec"].append(seconds(lambda: block @ ordered))
        times["stencil_matvec"].append(seconds(lambda: J @ x))
    want = np.zeros(x.size)
    want[order] = block @ ordered
    row = {"n": n, "nodes": list(grid.shape), "unknowns": math.prod(grid.shape),
           "offsets": int(grid.interior_taps[0].size), "block_nnz": int(block.nnz),
           "max_rel_diff": float(np.max(np.abs(J @ x - want)) / np.max(np.abs(want)))}
    record(row, times)
    return row


def fill(A, permc_spec: str) -> float:
    """Stored L + U entries of A's SuperLU factors over A's stored entries."""
    lu = spla.splu(A.tocsc(), permc_spec=permc_spec)
    return (lu.L.nnz + lu.U.nnz) / A.nnz


def measure(n: int, m: int) -> dict:
    grid, J, op, rhs = newton_system(n, m)
    block = _assemble_jacobian(op)
    times = {"spsolve": [], "ordered": []}
    for _ in range(REPEATS):
        fresh = _NewtonSystem(grid, P, n - P, np.zeros(grid.shape), EPS_REG)  # no kept factor
        t0 = time.perf_counter()
        direct = spla.spsolve(J, rhs.ravel()).reshape(grid.shape)
        t1 = time.perf_counter()
        du = _solve_jacobian(op, rhs, fresh)
        t2 = time.perf_counter()
        times["spsolve"].append(t1 - t0)
        times["ordered"].append(t2 - t1)
    row = {
        "n": n, "nodes": list(grid.shape), "unknowns": J.shape[0],
        "interior": block.shape[0], "jac_nnz": int(J.nnz), "block_nnz": int(block.nnz),
        "fill_spsolve": fill(J, "COLAMD"),
        "fill_ordered": fill(block, "NATURAL"),
        "max_rel_diff": float(np.max(np.abs(du - direct)) / np.max(np.abs(direct))),
    }
    record(row, times)
    return row


def measure_linear(n: int, m: int) -> dict:
    grid = unit_grid(n, m)
    rhs = np.random.default_rng(m).standard_normal(grid.shape)
    times = {"linear": [], "linear_banded": []}
    for _ in range(LINEAR_REPEATS):
        times["linear"].append(seconds(solver._solve_linear, grid, n - P, rhs))
        times["linear_banded"].append(seconds(oracles.banded_linear_solve, grid, n - P, rhs))
    du = solver._solve_linear(grid, n - P, rhs)
    row = {"n": n, "nodes": list(grid.shape), "unknowns": math.prod(grid.shape),
           "bit_equal": du.tobytes() == oracles.banded_linear_solve(grid, n - P, rhs).tobytes()}
    record(row, times)
    return row


def refactorized(prob, grid) -> tuple:
    """``solve_dirichlet`` with ``tests/oracles.refactorized_solve`` as the
    p != 2 linear solve, which factorizes every Jacobian."""
    saved = solver._solve_jacobian
    solver._solve_jacobian = oracles.refactorized_solve
    try:
        return solve_dirichlet(prob, grid)
    finally:
        solver._solve_jacobian = saved


# the whole solves: as the package runs them, factorizing every Jacobian,
# and along the halving eps continuation
SOLVES = {"reused": solve_dirichlet, "refactorized": refactorized,
          "halving_schedule": oracles.halving_schedule}


def measure_solve(n: int, m: int) -> dict:
    grid = unit_grid(n, m)
    prob = manufactured_problem(power_of_t_field(KAPPA), P)
    times = {name: [] for name in SOLVES}
    fields, reports = {}, {}
    for _ in range(SOLVE_REPEATS):
        for name, solve in SOLVES.items():
            t0 = time.perf_counter()
            u, reports[name] = solve(prob, grid)
            times[name].append(time.perf_counter() - t0)
            fields[name] = u.values
    row = {"n": n, "nodes": list(grid.shape), "unknowns": math.prod(grid.shape),
           "interior": int(grid.dissection_order.size)}
    record(row, times)
    for name, rep in reports.items():
        if not rep.converged:
            raise RuntimeError(f"the {name} solve at {m}^{n} did not converge")
        row[name] = {"stages": len(rep.stages),
                     "newton_steps": sum(s.iterations for s in rep.stages),
                     "factorizations": sum(s.factorizations for s in rep.stages),
                     "krylov_iterations": sum(s.krylov_iterations for s in rep.stages)}
    ref = fields["reused"]
    for name in ("refactorized", "halving_schedule"):
        row[f"max_rel_gap_{name}"] = float(np.max(np.abs(fields[name] - ref))
                                           / np.max(np.abs(ref)))
    return row


def kept_factor(prob, grid) -> tuple:
    """``solve_dirichlet`` with no fast-diagonalization preconditioner:
    every p != 2 step runs on the kept ``splu`` factor."""
    saved = solver._fd_preconditioner
    solver._fd_preconditioner = lambda *fields: None
    try:
        return solve_dirichlet(prob, grid)
    finally:
        solver._fd_preconditioner = saved


def measure_cold(m: int) -> dict:
    grid = unit_grid(3, m)
    u_star = power_of_t_field(KAPPA)
    prob = manufactured_problem(u_star, P)
    exact = exact_solution_values(u_star, grid).values
    solves = {"cold": solve_dirichlet}
    if m <= COLD_FACTOR_MAX:
        solves["kept_factor"] = kept_factor
    times = {name: [] for name in solves}
    row = {"n": 3, "nodes": list(grid.shape), "unknowns": math.prod(grid.shape),
           "interior": int(grid.dissection_order.size)}
    for _ in range(COLD_REPEATS):
        for name, solve in solves.items():
            t0 = time.perf_counter()
            u, rep = solve(prob, grid)
            times[name].append(time.perf_counter() - t0)
            if not rep.converged:
                raise RuntimeError(f"the {name} solve at {m}^3 did not converge")
            row[name] = {"newton_steps": sum(s.iterations for s in rep.stages),
                         "factorizations": sum(s.factorizations for s in rep.stages),
                         "krylov_iterations": sum(s.krylov_iterations for s in rep.stages),
                         "max_error": float(np.max(np.abs(u.values - exact)))}
    record(row, times)
    return row


def measure_zero_data(p: float, m: int) -> dict:
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", ZERO_DATA_PROBE, os.path.join(ROOT, "src"), repr(p), str(m),
         repr(ZERO_DATA_F)], capture_output=True, text=True, check=True).stdout)
        for _ in range(COLD_REPEATS)]
    if not all(run["converged"] for run in runs):
        raise RuntimeError(f"the zero-data solve at p = {p:g}, {m}^3 did not converge")
    row = {"n": 3, "p": p, "f": ZERO_DATA_F, "nodes": [m] * 3,
           **{k: runs[0][k] for k in ("newton_steps", "factorizations", "krylov_iterations",
                                      "min_u")},
           "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs)}
    record(row, {"solve": [run["seconds"] for run in runs]})
    return row


def measure_command_line() -> dict:
    grid_keys = {"domain.n": 2, "domain.base": "0,1", "domain.t_min": repr(math.exp(-1.0)),
                 "grid.nodes": "97,97", "problem.p": 4.0}
    kappa = f"tpower:{COMMAND_LINE_KAPPA!r}"
    with tempfile.TemporaryDirectory() as work:
        def config(name, entries):
            path = os.path.join(work, name)
            with open(path, "w") as fh:
                fh.writelines(f"{k} = {v}\n" for k, v in {**grid_keys, **entries,
                                                          "output.dir": work}.items())
            return path

        if cli.run(["manufacture", "--config", config("made.cfg", {"problem.exact": kappa})]):
            raise RuntimeError("manufacture failed")
        solve = config("solve.cfg", {"problem.f": "gridfile:" + os.path.join(work, "forcing.gf"),
                                     "problem.dirichlet": kappa})
        runs, times = [], []
        for _ in range(COMMAND_LINE_REPEATS):
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", COMMAND_LINE_PROBE,
                                   os.path.join(ROOT, "src"), "solve", "--config", solve],
                                  capture_output=True, text=True, check=True)
            times.append(time.perf_counter() - t0)
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        with open(os.path.join(work, "solve_report.json")) as fh:
            stages = json.load(fh)["stages"]
    if any(run["code"] for run in runs):
        raise RuntimeError("the cold command line failed")
    row = {"n": 2, "p": 4.0, "kappa": COMMAND_LINE_KAPPA, "nodes": [97, 97],
           "newton_steps": sum(s["iterations"] for s in stages),
           "factorizations": sum(s["factorizations"] for s in stages),
           "krylov_iterations": sum(s["krylov_iterations"] for s in stages),
           "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
           "scipy_modules": runs[0]["scipy"]}
    record(row, {"command": times})
    return row


def exponent(rows: list, name: str) -> dict:
    """The time exponent of ``name`` in the unknown count, fitted to the
    per-size medians and to the per-size minima."""
    x = np.log([r["unknowns"] for r in rows])
    return {stat: float(np.polyfit(x, np.log([r[f"{name}{suffix}"] for r in rows]), 1)[0])
            for stat, suffix in (("median", "_s"), ("min", "_min_s"))}


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    out = argv[0] if argv else os.path.join(ROOT, "BENCH_linear.json")
    assembly = []
    for n, m in SIZES:
        row = measure_assembly(n, m)
        assembly.append(row)
        print(f"{n}D {m}^{n} set-up: first fields {row['setup_fields_s'] * 1e3:6.2f} ms  "
              f"taps {row['setup_taps_s'] * 1e3:6.2f} ms  "
              f"pattern {row['setup_pattern_s'] * 1e3:6.2f} ms")
        print(f"{n}D {m}^{n} assembly: dissection {row['dissection_s'] * 1e3:6.2f} ms "
              f"(recursive {row['dissection_recursive_s'] * 1e3:6.2f} ms)  first call "
              f"{row['first_jacobian_s'] * 1e3:6.2f} ms  per step operator "
              f"{row['operator_s'] * 1e3:6.2f} ms + Jacobian {row['jacobian_s'] * 1e3:6.2f} ms "
              f"(CSC gather {row['csc_gather_s'] * 1e3:6.2f} ms, ordered assembly "
              f"{row['ordered_assembly_s'] * 1e3:6.2f} ms, "
              f"COO {row['coo_assembly_s'] * 1e3:6.2f} ms)")
    matvec = []
    for n, m in MATVEC_SIZES:
        row = measure_matvec(n, m)
        matvec.append(row)
        print(f"{n}D {m}^{n} J.v: CSC {row['csc_matvec_s'] * 1e3:6.3f} ms  stencil operator "
              f"{row['stencil_matvec_s'] * 1e3:6.3f} ms  max rel diff {row['max_rel_diff']:.2g}")
    rows = []
    for n, m in SIZES:
        row = measure(n, m)
        rows.append(row)
        print(f"{n}D {m}^{n}: spsolve {row['spsolve_s'] * 1e3:8.1f} ms "
              f"(fill {row['fill_spsolve']:5.1f})  ordered {row['ordered_s'] * 1e3:8.1f} ms "
              f"(fill {row['fill_ordered']:5.1f})  max rel diff {row['max_rel_diff']:.2g}")
    linear = []
    for n, m in LINEAR_SIZES:
        row = measure_linear(n, m)
        linear.append(row)
        print(f"{n}D {m}^{n} p = 2 step: numpy {row['linear_s'] * 1e3:6.2f} ms  "
              f"solve_banded {row['linear_banded_s'] * 1e3:6.2f} ms  "
              f"bit-equal {row['bit_equal']}")
    solves = []
    for n, m in SIZES:
        row = measure_solve(n, m)
        solves.append(row)
        print(f"{n}D {m}^{n} solve: " + "  ".join(
            f"{name} {row[name + '_s']:7.3f} s ({row[name]['newton_steps']} steps, "
            f"{row[name]['factorizations']} factorizations, "
            f"{row[name]['krylov_iterations']} GMRES iterations)" for name in SOLVES)
            + f"  max rel gaps {row['max_rel_gap_refactorized']:.2g}, "
            f"{row['max_rel_gap_halving_schedule']:.2g}")
    cold = []
    for m in COLD_SIZES:
        row = measure_cold(m)
        cold.append(row)
        print(f"3D {m}^3 cold solve: " + "  ".join(
            f"{name} {row[name + '_s']:7.3f} s ({row[name]['newton_steps']} steps, "
            f"{row[name]['factorizations']} factorizations, "
            f"{row[name]['krylov_iterations']} GMRES iterations)"
            for name in ("cold", "kept_factor") if name in row))
    zero_data = []
    for m in ZERO_DATA_SIZES:
        for p in ZERO_DATA_PS:
            row = measure_zero_data(p, m)
            zero_data.append(row)
            print(f"3D {m}^3 zero data p = {p:g}: {row['solve_s']:7.3f} s "
                  f"({row['newton_steps']} steps, {row['factorizations']} factorizations, "
                  f"{row['krylov_iterations']} GMRES iterations, "
                  f"peak RSS {row['peak_rss_mb']:.0f} MB)")
    command_line = measure_command_line()
    print(f"2D 97^2 p = 4 cold command line: {command_line['command_s']:6.3f} s "
          f"({command_line['factorizations']} factorizations, peak RSS "
          f"{command_line['peak_rss_mb']:.0f} MB, scipy modules {command_line['scipy_modules']})")
    exponents = {}
    for n in sorted({r["n"] for r in rows}):
        dim = [r for r in rows if r["n"] == n]
        dim_solves = [r for r in solves if r["n"] == n]
        dim_assembly = [r for r in assembly if r["n"] == n]
        dim_linear = [r for r in linear if r["n"] == n]
        exponents[f"{n}d"] = {"operator": exponent(dim_assembly, "operator"),
                              "jacobian": exponent(dim_assembly, "jacobian"),
                              "csc_gather": exponent(dim_assembly, "csc_gather"),
                              "ordered_assembly": exponent(dim_assembly, "ordered_assembly"),
                              "coo_assembly": exponent(dim_assembly, "coo_assembly"),
                              "spsolve": exponent(dim, "spsolve"),
                              "ordered": exponent(dim, "ordered"),
                              "linear": exponent(dim_linear, "linear"),
                              "linear_banded": exponent(dim_linear, "linear_banded"),
                              **{f"solve_{name}": exponent(dim_solves, name)
                                 for name in SOLVES}}
        print(f"{n}D time exponents in unknowns (median fit / min fit): " + ", ".join(
            f"{k} {v['median']:.2f}/{v['min']:.2f}" for k, v in exponents[f"{n}d"].items()))
    report = {
        "what": "a fresh grid's set-up: its first gradient and Hessian fields, its "
                "interior stencil taps and its CSC pattern; the dissection numbering; the "
                "p = 3 operator evaluation whose coefficient fields a Newton step reads, and "
                "the stencil operator built from them, against the interior block gathered "
                "from it, assembled straight from the fields and assembled by COO from the "
                "stencils; J.v on the interior block in CSC vs the stencil operator; one p = 3 "
                "Newton linear solve, full-grid spsolve (COLAMD) vs the "
                "interior block in nested-dissection order; one p = 2 Newton step, the "
                "numpy elimination vs one solve_banded call; one p = 3 manufactured "
                "solve (u* = t^0.5), as the package runs it vs a fresh factor "
                "every Newton step vs the halving eps continuation, every stage run to "
                "the final tolerance; cold 3D p = 3 solves up to 49^3, "
                "fast-diagonalization GMRES vs every step on the kept splu factor; and "
                "cold 3D zero-data solves (f = 0.5) at p = 3, 4, 5 and 6 up to 49^3, each in "
                "a fresh interpreter with its peak resident set (VmHWM); and one cold "
                "p = 4 97^2 solve command line in a fresh interpreter, with its peak resident "
                "set and the scipy modules it loaded",
        "p": P, "eps_reg": EPS_REG, "repeats": REPEATS, "solve_repeats": SOLVE_REPEATS,
        "assembly_repeats": ASSEMBLY_REPEATS, "setup_repeats": SETUP_REPEATS,
        "linear_repeats": LINEAR_REPEATS, "matvec_repeats": MATVEC_REPEATS,
        "command_line_repeats": COMMAND_LINE_REPEATS, "kappa": KAPPA,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cold_repeats": COLD_REPEATS,
        "assembly": assembly, "matvec": matvec, "sizes": rows, "linear": linear,
        "solves": solves, "cold_solves": cold, "zero_data_solves": zero_data,
        "cold_command_line": command_line, "time_exponents": exponents,
    }
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
