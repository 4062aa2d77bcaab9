"""Dirichlet solves at p >= 3 on two source trees of conepde, side by side.

    python tools/solver_sweep.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src/`` directories of two checkouts.  Each
tree runs in its own subprocess with its own ``tools/solver_sweep.py``, so
each side calls the API of its own tree, and the two sides' cases are
matched by label.  This tree's 45 cases are, for each p in {3.5, 4, 5, 6},
all on 41^2 grids over the base [0, 1] with t_min = e^-1 unless stated:

- manufactured u* = t^kappa for kappa in {-0.5, 0.2, 0.41, 1.0};
- zero Dirichlet data with f = c for c in {-1, 0.3, 1};
- zero Dirichlet data with f = 0.3 t^-p and t_min = 0.01;
- on 13^3 grids: manufactured u* = t^0.3, and f = 0.5 with zero Dirichlet
  data.

Then the problem of the verify-2d benchmark workload, p = 3 with
f = 0.3 t^-3 (t^p f = 0.3) and zero Dirichlet data, at 41^2 and 81^2, and
last the same zero-data problem in 3D at 12^3, 13^3 and 14^3: an odd node
count puts one node at the symmetric centre, where the central gradient
vanishes.  The zero-data cases are where a coefficient that does not see
spikes (a node whose central gradient reads 0 whatever its own value)
reaches a second discrete solution; the min of u tells such fields apart.

Prints, for each case both sides run, whether the solve converged, its
stages (one per rung of the ladder in p, so two at p = 5 and 6 and one
below; a tree from before the ladder counted eps stages), Newton steps, factorizations, GMRES iterations, seconds and min u,
and the max-norm difference of the two fields relative to the old field's
max norm; then the totals over those cases and the largest of those
differences, the labels that only one side runs, how many fields are
bit-equal and in how many cases the stages and Newton steps match.  A
side whose tool records no factorizations or GMRES iterations shows "-"
for them.  Exits 1 if a case converges on OLD_SRC but not on NEW_SRC.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

PS = (3.5, 4.0, 5.0, 6.0)


def cases():
    """(label, p, n, nodes per axis, t_min, u* exponent or None, forcing or
    None) per case; a case has either a manufactured exponent or a forcing
    with zero Dirichlet data, where a forcing is (c, q) for f = c t^q."""
    e1 = math.exp(-1.0)
    for p in PS:
        for kappa in (-0.5, 0.2, 0.41, 1.0):
            yield f"p={p:g} 41^2 u*=t^{kappa:g}", p, 2, 41, e1, kappa, None
        for c in (-1.0, 0.3, 1.0):
            yield f"p={p:g} 41^2 f={c:g}", p, 2, 41, e1, None, (c, 0.0)
        yield f"p={p:g} 41^2 f=0.3t^-p t_min=0.01", p, 2, 41, 0.01, None, (0.3, -p)
        yield f"p={p:g} 13^3 u*=t^0.3", p, 3, 13, e1, 0.3, None
        yield f"p={p:g} 13^3 f=0.5", p, 3, 13, e1, None, (0.5, 0.0)
    for nodes in (41, 81):
        yield f"verify-2d p=3 {nodes}^2 f=0.3t^-3", 3.0, 2, nodes, e1, None, (0.3, -3.0)
    for nodes in (12, 13, 14):
        yield f"p=3 {nodes}^3 f=0.3t^-3", 3.0, 3, nodes, e1, None, (0.3, -3.0)


def run_cases(out: str) -> None:
    """Solves every case with the conepde found on sys.path; writes the
    fields to ``out + '.npz'`` and the statistics to ``out + '.json'``."""
    from conepde.calculus import LogGrid
    from conepde.geometry import ConeDomain
    from conepde.operators import PDEProblem
    from conepde.solver import manufactured_problem, power_of_t_field, solve_dirichlet

    stats, fields = [], {}
    for k, (label, p, n, nodes, t_min, kappa, forcing) in enumerate(cases()):
        domain = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1),
                            t_min=t_min)
        grid = LogGrid.build(domain, (nodes,) * n)
        if kappa is not None:
            prob = manufactured_problem(power_of_t_field(kappa), p)
        else:
            c, q = forcing
            prob = PDEProblem(p=p, f=lambda t, xs, c=c, q=q: c * np.asarray(t) ** q,
                              dirichlet=lambda t, xs: np.zeros_like(np.asarray(t)))
        t0 = time.perf_counter()
        try:
            u, rep = solve_dirichlet(prob, grid)
        except FloatingPointError as exc:
            stats.append({"converged": False, "stages": 0, "steps": 0, "factorizations": 0,
                          "krylov": 0, "seconds": time.perf_counter() - t0,
                          "min_u": math.nan, "error": str(exc)})
            continue
        stats.append({"converged": rep.converged, "stages": len(rep.stages),
                      "steps": sum(s.iterations for s in rep.stages),
                      "factorizations": sum(s.factorizations for s in rep.stages),
                      "krylov": sum(s.krylov_iterations for s in rep.stages),
                      "seconds": time.perf_counter() - t0,
                      "min_u": float(np.min(u.values))})
        fields[f"c{k}"] = u.values
    np.savez(out + ".npz", **fields)
    with open(out + ".json", "w") as fh:
        json.dump(stats, fh)


def run_side(src: str, out: str) -> dict:
    """Runs the cases of the tree whose ``src/`` is ``src`` with that tree's
    own ``tools/solver_sweep.py``, so each side calls the API of its own
    tree; returns {label: (stats, field or None)}."""
    tree = os.path.dirname(os.path.abspath(src))
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import solver_sweep; "
            "solver_sweep.run_cases(sys.argv[3]); "
            "json.dump([c[0] for c in solver_sweep.cases()], open(sys.argv[3] + '.labels', 'w'))")
    subprocess.run([sys.executable, "-c", code, os.path.abspath(src),
                    os.path.join(tree, "tools"), out], check=True)
    with open(out + ".json") as fh, open(out + ".labels") as labels:
        stats = json.load(fh)
        labels = json.load(labels)
    with np.load(out + ".npz") as npz:
        return {label: (s, npz[f"c{k}"] if f"c{k}" in npz.files else None)
                for k, (label, s) in enumerate(zip(labels, stats))}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        old, new = (run_side(src, os.path.join(tmp, side)) for side, src in zip(("old", "new"), argv))
    labels = [label for label in new if label in old]
    head = "conv stages steps fact gmres s min u"
    print(f"{'case':<34} {'old: ' + head:>47}   {'new: ' + head:>47}   rel diff")
    lost = bit_equal = same_path = 0
    gaps = []
    for label in labels:
        (a, ref), (b, field) = old[label], new[label]
        if ref is not None and field is not None:
            bit_equal += np.array_equal(ref, field)
        same_path += (a["stages"], a["steps"]) == (b["stages"], b["steps"])
        if a["converged"] and b["converged"]:
            gaps.append(np.max(np.abs(field - ref)) / np.max(np.abs(ref)))
            diff = f"{gaps[-1]:.2e}"
        else:
            diff = "-"
        lost += a["converged"] and not b["converged"]
        row = "   ".join(f"{'yes' if s['converged'] else 'NO':>4} {s['stages']:>6} "
                         f"{s['steps']:>5} {s.get('factorizations', '-'):>4} "
                         f"{s.get('krylov', '-'):>5} {s['seconds']:>7.2f} {s['min_u']:>8.5f}"
                         for s in (a, b))
        print(f"{label:<34} {row}   {diff}")
    for side, runs, other in (("old", old, new), ("new", new, old)):
        stats = [s for label, (s, _) in runs.items() if label in other]
        linear = (f"{sum(s['factorizations'] for s in stats)} factorizations, "
                  f"{sum(s['krylov'] for s in stats)} GMRES iterations, "
                  if all("krylov" in s for s in stats) else "")
        print(f"{side}: {sum(s['converged'] for s in stats)} of {len(stats)} converge; "
              f"{sum(s['stages'] for s in stats)} stages, "
              f"{sum(s['steps'] for s in stats)} Newton steps, {linear}"
              f"{sum(s['seconds'] for s in stats):.1f} s")
        only = [label for label in runs if label not in other]
        if only:
            print(f"only on {side}: {len(only)} case(s): {', '.join(only)}")
    print(f"{bit_equal} of {len(labels)} fields bit-equal; stages and Newton steps "
          f"match in {same_path} of {len(labels)} cases; largest rel diff "
          f"{max(gaps, default=0.0):.2e}")
    if lost:
        print(f"{lost} case(s) converge on OLD_SRC but not on NEW_SRC")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
