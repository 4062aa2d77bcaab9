"""Timing and memory of the exact Hoelder seminorm against grid size.

    python tools/hoelder_scaling.py [OUT]

On each grid (2D at 41^2, 81^2 and 161^2; 3D at 13^3, 17^3, 21^3 and
29^3, over the unit base with t_min = e^-1) ``calculus.hoelder_norm`` is
applied to a fixed field, a smooth wave plus seeded noise, at rho = 0.5 and
rho = 1.  Per size it records the median seconds of one call at each rho
over REPEATS runs (``rho_<rho>_s``) with their min and max
(``rho_<rho>_min_s``, ``rho_<rho>_max_s``), the node-pair quotients the
branch and bound formed at each rho (``rho_<rho>_pairs``) against the
N(N-1)/2 node pairs (``all_pairs``), the tracemalloc peak of one call at
rho = 0.5 (numpy reports its array buffers to tracemalloc), and whether the
result at every rho equals the all-pairs oracle ``tests/oracles.hoelder_norm``
bit for bit (checked once per size, outside the timed region).  Per dimension it
records the least-squares exponent of each time in the node count N,
fitted once to the per-size medians and once to the per-size minima; host
drift moves a median more than a minimum, so the two fits side by side
show how far the exponent is to be trusted.  Writes
OUT (default ``BENCH_hoelder.json`` at the repository root) with nproc and
the numpy and scipy versions.
"""

import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracles  # noqa: E402
from conepde.calculus import GridFunction, LogGrid, _hoelder_search, hoelder_norm  # noqa: E402
from conepde.geometry import ConeDomain  # noqa: E402

RHOS, REPEATS = (0.5, 1.0), 3
SIZES = ((2, 41), (2, 81), (2, 161), (3, 13), (3, 17), (3, 21), (3, 29))


def field(n: int, m: int) -> GridFunction:
    domain = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                        t_min=math.exp(-1.0))
    grid = LogGrid.build(domain, (m,) * n)
    rng = np.random.default_rng(m)
    values = np.sin(np.pi * sum(grid.mesh)) + 0.01 * rng.standard_normal(grid.shape)
    return GridFunction(grid, values)


def measure(n: int, m: int) -> dict:
    u = field(n, m)
    times = {rho: [] for rho in RHOS}
    for _ in range(REPEATS):
        for rho in RHOS:
            t0 = time.perf_counter()
            hoelder_norm(u, rho)
            times[rho].append(time.perf_counter() - t0)
    tracemalloc.start()
    hoelder_norm(u, RHOS[0])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    N = u.values.size
    row = {"n": n, "nodes": list(u.grid.shape), "N": N, "all_pairs": N * (N - 1) // 2}
    for rho, ts in times.items():
        row[f"rho_{rho:g}_s"] = statistics.median(ts)
        row[f"rho_{rho:g}_min_s"] = min(ts)
        row[f"rho_{rho:g}_max_s"] = max(ts)
        row[f"rho_{rho:g}_pairs"] = _hoelder_search(u.values, u.grid.axes, rho)[1]
    row["peak_mb"] = peak / 2**20
    row["exact"] = all(hoelder_norm(u, rho) == oracles.hoelder_norm(u, rho) for rho in RHOS)
    return row


def exponent(rows: list, name: str) -> dict:
    """The time exponent of ``name`` in N, fitted to the per-size medians
    and to the per-size minima."""
    x = np.log([r["N"] for r in rows])
    return {stat: float(np.polyfit(x, np.log([r[f"{name}{suffix}"] for r in rows]), 1)[0])
            for stat, suffix in (("median", "_s"), ("min", "_min_s"))}


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    out = argv[0] if argv else os.path.join(ROOT, "BENCH_hoelder.json")
    rows = []
    for n, m in SIZES:
        row = measure(n, m)
        rows.append(row)
        print(f"{n}D {m}^{n}: " + "  ".join(
            f"rho {rho:g} {row[f'rho_{rho:g}_s'] * 1e3:8.1f} ms"
            f" ({row[f'rho_{rho:g}_pairs'] / row['all_pairs']:.4f} of the pairs)"
            for rho in RHOS)
            + f"  peak {row['peak_mb']:6.1f} MB  exact {row['exact']}")
    exponents = {}
    for n in sorted({r["n"] for r in rows}):
        dim = [r for r in rows if r["n"] == n]
        exponents[f"{n}d"] = {f"rho_{rho:g}": exponent(dim, f"rho_{rho:g}") for rho in RHOS}
        print(f"{n}D time exponent in N (median fit / min fit): " + ", ".join(
            f"rho {rho:g} {v['median']:.2f}/{v['min']:.2f}"
            for rho, v in zip(RHOS, exponents[f"{n}d"].values())))
    report = {
        "what": "one exact rho-Hoelder seminorm call, calculus.hoelder_norm, "
                "against the node count N",
        "rhos": list(RHOS), "repeats": REPEATS,
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
