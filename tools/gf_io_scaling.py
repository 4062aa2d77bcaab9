"""Timing of grid-function file writes and reads against grid size.

    python tools/gf_io_scaling.py [OUT]

On each grid (2D at 97^2 and 161^2; 3D at 29^3 and 49^3, over the unit
base with t_min = e^-1) it stores a fixed field, a smooth wave plus seeded
noise, and times three things, REPEATS times each, alternating:
``binary_write``, one ``calculus.write_gridfunction`` call (the header
line, then the values as little-endian binary64); ``binary_read``, one
``calculus.read_gridfunction`` call on that file; and ``text_read``, one
``calculus.read_gridfunction`` call on the same field in the text format
that preceded the binary one (one value per line at 17 significant
digits, written once by ``tests/oracles.write_gridfunction_per_value``,
outside the timed region).  Per size it records the median, min and max
seconds of each, both file sizes in bytes, and whether each file reads
back the field bit for bit.  Per dimension it records the least-squares
exponent of each median time in the node count N.  Files go to a
temporary directory, so every read after the first is served from the
page cache.  Writes OUT (default ``BENCH_io.json`` at the repository
root) with nproc and the numpy and scipy versions.
"""

import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 5
SIZES = ((2, 97), (2, 161), (3, 29), (3, 49))
TIMINGS = ("binary_write", "binary_read", "text_read")


def measure(n: int, m: int, tmp: str) -> dict:
    """Every figure of one size, its files in ``tmp``."""
    import oracles
    from conepde.calculus import GridFunction, LogGrid, read_gridfunction, write_gridfunction
    from conepde.geometry import ConeDomain

    domain = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                        t_min=math.exp(-1.0))
    grid = LogGrid.build(domain, (m,) * n)
    rng = np.random.default_rng(m)
    u = GridFunction(grid, np.sin(np.pi * sum(grid.mesh))
                     + 0.01 * rng.standard_normal(grid.shape))
    binary, text = os.path.join(tmp, f"{m}_{n}.gf"), os.path.join(tmp, f"{m}_{n}.txt.gf")
    oracles.write_gridfunction_per_value(text, u)
    calls = {"binary_write": lambda: write_gridfunction(binary, u),
             "binary_read": lambda: read_gridfunction(binary),
             "text_read": lambda: read_gridfunction(text)}
    times = {name: [] for name in TIMINGS}
    for _ in range(REPEATS):
        for name in TIMINGS:
            t0 = time.perf_counter()
            calls[name]()
            times[name].append(time.perf_counter() - t0)
    row = {"n": n, "nodes": list(grid.shape), "N": u.values.size,
           "binary_bytes": os.path.getsize(binary), "text_bytes": os.path.getsize(text)}
    for name, ts in times.items():
        row[f"{name}_s"], row[f"{name}_min_s"], row[f"{name}_max_s"] = (
            statistics.median(ts), min(ts), max(ts))
    for name, path in (("binary", binary), ("text", text)):
        row[f"{name}_exact"] = read_gridfunction(path).values.tobytes() == u.values.tobytes()
    return row


def exponents(rows: list) -> dict:
    """Per dimension, the exponent in N of every median time."""
    out = {}
    for n in sorted({r["n"] for r in rows}):
        dim = [r for r in rows if r["n"] == n]
        x = np.log([r["N"] for r in dim])
        out[f"{n}d"] = {name: float(np.polyfit(x, np.log([r[f"{name}_s"] for r in dim]), 1)[0])
                        for name in TIMINGS}
    return out


def main(argv) -> int:
    if len(argv) > 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    out = argv[0] if argv else os.path.join(ROOT, "BENCH_io.json")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, m in SIZES:
            row = measure(n, m, tmp)
            print(f"{n}D {m}^{n}: " + "  ".join(
                f"{name} {row[f'{name}_s'] * 1e3:7.2f} ms" for name in TIMINGS)
                + f"  exact {row['binary_exact']}/{row['text_exact']}")
            rows.append(row)
    report = {
        "what": "one grid-function file write or read against the node count N: "
                "calculus.write_gridfunction and read_gridfunction in the binary format, "
                "and read_gridfunction on the text format that preceded it",
        "repeats": REPEATS, "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sizes": rows, "time_exponents": exponents(rows),
    }
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
