"""Timing and memory of the exact Hoelder seminorm and of the min-plus
kernel against grid size.

    python tools/hoelder_scaling.py [OUT [BASE_SRC]]

On each grid (2D at 41^2, 81^2 and 161^2; 3D at 13^3, 17^3, 21^3 and
29^3, over the unit base with t_min = e^-1) the kernels are applied to a
fixed field, a smooth wave plus seeded noise.  ``calculus.hoelder_norm``
runs at rho = 0.5 and rho = 1.  Per size it records the median seconds of
one call at each rho over REPEATS runs (``rho_<rho>_s``) with their min and
max (``rho_<rho>_min_s``, ``rho_<rho>_max_s``), the node-pair quotients the
branch and bound formed at each rho (``rho_<rho>_pairs``) against the
N(N-1)/2 node pairs (``all_pairs``), the tracemalloc peak of one call at
rho = 0.5 (numpy reports its array buffers to tracemalloc), and whether the
result at every rho equals the all-pairs oracle ``tests/oracles.hoelder_norm``
bit for bit (checked once per size, outside the timed region).  The
min-plus kernel is timed the same way in ``regularization.inf_convolution``
at eps = 0.05 (``inf_convolution_s``) and in
``analysis.doubling_diagnostic`` of the field against itself at each alpha
of 1, 10, 100 and 1000 (``doubling_<alpha>_s``), which forms every node's
partner candidates at eps = 1/alpha; ``min_plus_exact`` says whether
``regularization._min_plus`` gives the dense scan's values and partners
(``tests/oracles.min_plus``) bit for bit at each of those eps.  Per
dimension it records the least-squares exponent of each time in the node
count N, fitted once to the per-size medians and once to the per-size
minima; host drift moves a median more than a minimum, so the two fits
side by side show how far the exponent is to be trusted.

Every size is measured in a fresh interpreter.  Given BASE_SRC, the
``src/`` directory of another source tree, each size is also measured on
it, alternating which tree runs first, and its figures go beside this
tree's as the size's ``base`` entry, with its exponents under
``base_time_exponents``.  Writes OUT (default ``BENCH_hoelder.json`` at the
repository root) with nproc and the numpy and scipy versions.
"""

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

RHOS, REPEATS, EPS, ALPHAS = (0.5, 1.0), 3, 0.05, (1, 10, 100, 1000)
SIZES = ((2, 41), (2, 81), (2, 161), (3, 13), (3, 17), (3, 21), (3, 29))


def timed(call, row: dict, name: str) -> None:
    """The median, min and max seconds of REPEATS calls into ``row``."""
    ts = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        ts.append(time.perf_counter() - t0)
    row[f"{name}_s"], row[f"{name}_min_s"], row[f"{name}_max_s"] = (
        statistics.median(ts), min(ts), max(ts))


def measure(src: str, n: int, m: int) -> dict:
    """Every figure of one size, with the package imported from ``src``."""
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    import oracles
    from conepde.analysis import doubling_diagnostic
    from conepde.calculus import GridFunction, LogGrid, _hoelder_search, hoelder_norm
    from conepde.geometry import ConeDomain
    from conepde.regularization import _min_plus, inf_convolution

    domain = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                        t_min=math.exp(-1.0))
    grid = LogGrid.build(domain, (m,) * n)
    rng = np.random.default_rng(m)
    u = GridFunction(grid, np.sin(np.pi * sum(grid.mesh))
                     + 0.01 * rng.standard_normal(grid.shape))
    N = u.values.size
    row = {"n": n, "nodes": list(grid.shape), "N": N, "all_pairs": N * (N - 1) // 2}
    for rho in RHOS:
        timed(lambda: hoelder_norm(u, rho), row, f"rho_{rho:g}")
        row[f"rho_{rho:g}_pairs"] = _hoelder_search(u.values, grid.axes, rho)[1]
    tracemalloc.start()
    hoelder_norm(u, RHOS[0])
    row["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    row["exact"] = all(hoelder_norm(u, rho) == oracles.hoelder_norm(u, rho) for rho in RHOS)
    timed(lambda: inf_convolution(u, EPS), row, "inf_convolution")
    for alpha in ALPHAS:
        timed(lambda: doubling_diagnostic(u, u, [alpha]), row, f"doubling_{alpha}")
    row["min_plus_exact"] = True
    for eps in (EPS, *(1.0 / alpha for alpha in ALPHAS)):
        (f, w), (f_dense, w_dense) = (kernel(u.values, grid.axes, eps)
                                      for kernel in (_min_plus, oracles.min_plus))
        row["min_plus_exact"] &= (f.tobytes() == f_dense.tobytes()
                                  and all(map(np.array_equal, w, w_dense)))
    return row


def measure_fresh(src: str, n: int, m: int) -> dict:
    """``measure`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--size", src, str(n),
                          str(m)], capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def timings(rows: list) -> list:
    return [name[:-2] for name in rows[0] if name.endswith("_s") and not name.endswith(
        ("_min_s", "_max_s"))]


def exponents(rows: list) -> dict:
    """Per dimension, the exponent in N of every time, fitted to the
    per-size medians and to the per-size minima."""
    out = {}
    for n in sorted({r["n"] for r in rows}):
        dim = [r for r in rows if r["n"] == n]
        x = np.log([r["N"] for r in dim])
        out[f"{n}d"] = {name: {stat: float(np.polyfit(
            x, np.log([r[f"{name}{suffix}"] for r in dim]), 1)[0])
            for stat, suffix in (("median", "_s"), ("min", "_min_s"))}
            for name in timings(dim)}
    return out


def show(label: str, row: dict) -> str:
    return (f"{label:>4} " + "  ".join(
        f"rho {rho:g} {row[f'rho_{rho:g}_s'] * 1e3:7.1f} ms"
        f" ({row[f'rho_{rho:g}_pairs'] / row['all_pairs']:.4f})" for rho in RHOS)
        + f"  peak {row['peak_mb']:5.1f} MB  inf {row['inf_convolution_s'] * 1e3:6.1f} ms"
        + "  doubling " + "/".join(f"{row[f'doubling_{a}_s'] * 1e3:.1f}" for a in ALPHAS)
        + f" ms  exact {row['exact']}/{row['min_plus_exact']}")


def main(argv) -> int:
    if argv[:1] == ["--size"]:
        print(json.dumps(measure(argv[1], int(argv[2]), int(argv[3]))))
        return 0
    if len(argv) > 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    out = argv[0] if argv else os.path.join(ROOT, "BENCH_hoelder.json")
    base = os.path.abspath(argv[1]) if len(argv) > 1 else None
    rows = []
    for k, (n, m) in enumerate(SIZES):
        trees = [("this", SRC)] + ([("base", base)] if base else [])
        measured = {label: measure_fresh(src, n, m)
                    for label, src in (trees[::-1] if k % 2 else trees)}
        row = measured["this"]
        print(f"{n}D {m}^{n}:")
        for label, r in measured.items():
            print(show(label, r))
        if base:
            row["base"] = {name: value for name, value in measured["base"].items()
                           if name not in ("n", "nodes", "N", "all_pairs")}
        rows.append(row)
    report = {
        "what": "one call of each kernel against the node count N: the exact rho-Hoelder "
                "seminorm calculus.hoelder_norm, and the min-plus kernel in "
                "regularization.inf_convolution and analysis.doubling_diagnostic",
        "rhos": list(RHOS), "eps": EPS, "alphas": list(ALPHAS), "repeats": REPEATS,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sizes": rows, "time_exponents": exponents(rows),
    }
    if base:
        report["base_time_exponents"] = exponents(
            [{**r["base"], "n": r["n"], "N": r["N"]} for r in rows])
    for n, fits in report["time_exponents"].items():
        print(f"{n} time exponent in N (median fit / min fit): " + ", ".join(
            f"{name} {v['median']:.2f}/{v['min']:.2f}" for name, v in fits.items()))
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
