"""Timing of one p != 2 Newton linear solve against grid size.

    python tools/linear_scaling.py [OUT]

On each grid (2D at 81^2, 97^2 and 161^2; 3D at 17^3, 21^3 and 25^3, over
the unit base with t_min = e^-1) the Jacobian of the p = 3 residual at
eps_reg = 1e-2 is taken at a smooth iterate, the forcing-free solution
t^((p-n)/(p-1)) (ln t when p = n) plus a small wave, and the Newton system
J du = -res is solved two ways: ``spsolve`` on the full-grid Jacobian of
``tests/oracles.full_jacobian`` (identity boundary rows), with SuperLU's
default COLAMD order, and ``solver._solve_jacobian`` on the interior block
from ``solver._assemble_jacobian``, which is in the grid's nested-dissection
order.  Both matrices and the order are built once per grid, outside the
timed region.  Per size it records the median seconds of each solve over
REPEATS runs (the two alternate), the fill of each factorization (stored
L + U entries over the stored entries of the matrix it factorizes; the
oracle's is read off ``splu`` with COLAMD, the call ``spsolve`` makes), and
max |du - du_spsolve| / max |du_spsolve|.  Per dimension it records the
least-squares exponent of each median time in the unknown count.  Writes
OUT (default ``BENCH_linear.json`` at the repository root) with nproc and
the numpy and scipy versions.
"""

import json
import math
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy
import scipy.sparse.linalg as spla

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracles  # noqa: E402
from conepde.calculus import LogGrid  # noqa: E402
from conepde.geometry import ConeDomain  # noqa: E402
from conepde.solver import (_assemble_jacobian, _interior_residual,  # noqa: E402
                            _solve_jacobian, exact_solution_values,
                            make_exact_solution)

P, EPS_REG, REPEATS = 3.0, 1e-2, 5
SIZES = ((2, 81), (2, 97), (2, 161), (3, 17), (3, 21), (3, 25))


def newton_system(n: int, m: int) -> tuple:
    """(grid, full-grid J, interior block, rhs) of one Newton step at the
    smooth iterate."""
    domain = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                        t_min=math.exp(-1.0))
    grid = LogGrid.build(domain, (m,) * n)
    values = exact_solution_values(make_exact_solution(P, n), grid).values
    values = values + 0.05 * np.sin(np.pi * sum(grid.mesh))
    res = _interior_residual(values, grid, P, n, np.zeros(grid.shape), EPS_REG)
    return (grid, oracles.full_jacobian(values, grid, P, n, EPS_REG),
            _assemble_jacobian(values, grid, P, n, EPS_REG), -res)


def fill(A, permc_spec: str) -> float:
    """Stored L + U entries of A's SuperLU factors over A's stored entries."""
    lu = spla.splu(A.tocsc(), permc_spec=permc_spec)
    return (lu.L.nnz + lu.U.nnz) / A.nnz


def measure(n: int, m: int) -> dict:
    grid, J, block, rhs = newton_system(n, m)
    times = {"spsolve": [], "ordered": []}
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        direct = spla.spsolve(J, rhs.ravel()).reshape(grid.shape)
        t1 = time.perf_counter()
        du = _solve_jacobian(block, grid, rhs)
        t2 = time.perf_counter()
        times["spsolve"].append(t1 - t0)
        times["ordered"].append(t2 - t1)
    return {
        "n": n, "nodes": list(grid.shape), "unknowns": J.shape[0],
        "interior": block.shape[0], "jac_nnz": int(J.nnz), "block_nnz": int(block.nnz),
        "spsolve_s": statistics.median(times["spsolve"]),
        "ordered_s": statistics.median(times["ordered"]),
        "fill_spsolve": fill(J, "COLAMD"),
        "fill_ordered": fill(block, "NATURAL"),
        "max_rel_diff": float(np.max(np.abs(du - direct)) / np.max(np.abs(direct))),
    }


def exponent(rows: list, key: str) -> float:
    x = np.log([r["unknowns"] for r in rows])
    y = np.log([r[key] for r in rows])
    return float(np.polyfit(x, y, 1)[0])


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    out = argv[0] if argv else os.path.join(ROOT, "BENCH_linear.json")
    rows = []
    for n, m in SIZES:
        row = measure(n, m)
        rows.append(row)
        print(f"{n}D {m}^{n}: spsolve {row['spsolve_s'] * 1e3:8.1f} ms "
              f"(fill {row['fill_spsolve']:5.1f})  ordered {row['ordered_s'] * 1e3:8.1f} ms "
              f"(fill {row['fill_ordered']:5.1f})  max rel diff {row['max_rel_diff']:.2g}")
    exponents = {}
    for n in sorted({r["n"] for r in rows}):
        dim = [r for r in rows if r["n"] == n]
        exponents[f"{n}d"] = {"spsolve": exponent(dim, "spsolve_s"),
                              "ordered": exponent(dim, "ordered_s")}
        print(f"{n}D time exponent in unknowns: spsolve {exponents[f'{n}d']['spsolve']:.2f}, "
              f"ordered {exponents[f'{n}d']['ordered']:.2f}")
    report = {
        "what": "one p = 3 Newton linear solve, full-grid spsolve (COLAMD) vs the "
                "interior block in nested-dissection order",
        "p": P, "eps_reg": EPS_REG, "repeats": REPEATS,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sizes": rows, "time_exponents": exponents,
    }
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
