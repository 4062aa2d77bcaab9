"""The benchmark's workloads: generated configs and the output checks.

Every workload drives the real CLI in-process through ``conepde.cli.run``.
``setup`` is the timed set-up, ``reference`` computes the benchmark's own
oracles outside any timed region, ``operation`` is one measured operation
and ``check`` decides whether its outputs are correct.  Why each workload
exists is written in ``bench/NOTES.md``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from conepde import cli
from conepde.calculus import read_gridfunction

T_MIN = "0.36787944117144233"  # e^-1, so the radial log-chart axis is [-1, 0]
BASE = {2: "0,1", 3: "0,1;0,1"}


def _config(path: str, entries: dict) -> str:
    with open(path, "w") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")
    return path


def _domain(n: int, nodes: int) -> dict:
    return {"domain.n": n, "domain.base": BASE[n], "domain.t_min": T_MIN,
            "grid.nodes": ",".join([str(nodes)] * n)}


def _command(*argv: str) -> int:
    # looked up on the module at call time, so a tracer's patch applies
    return cli.run(list(argv))


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class SolveWorkload:
    """``manufacture`` u* = t^kappa at set-up; each operation is one ``solve``
    of the manufactured problem with ``problem.f = gridfile:forcing.gf``.
    The check requires exit 0, a converged report and a max-norm error
    against ``exact.gf`` below ``err_tol`` (ten times the error measured at
    the parent commit, so it only catches a broken solve)."""

    scaling_nodes = None

    def __init__(self, name, p, n, nodes, kappa_range, err_tol):
        self.name, self.p, self.n, self.nodes = name, p, n, nodes
        self.kappa_range, self.err_tol = kappa_range, err_tol

    def draw(self, rng) -> dict:
        return {"kappa": float(rng.uniform(*self.kappa_range))}

    def setup(self, workdir: str, params: dict) -> dict:
        kappa = params["kappa"]
        common = {**_domain(self.n, self.nodes), "problem.p": self.p,
                  "output.dir": workdir}
        manufacture = _config(os.path.join(workdir, "manufacture.cfg"),
                              {"problem.exact": f"tpower:{kappa!r}", **common})
        code = _command("manufacture", "--config", manufacture)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"manufacture exited {code}")
        solve = _config(os.path.join(workdir, "solve.cfg"),
                        {"problem.f": "gridfile:" + os.path.join(workdir, "forcing.gf"),
                         "problem.dirichlet": f"tpower:{kappa!r}", **common})
        return {"workdir": workdir, "solve_cfg": solve}

    def reference(self, state: dict) -> None:
        state["exact"] = read_gridfunction(os.path.join(state["workdir"], "exact.gf")).values

    def operation(self, state: dict) -> list:
        return [_command("solve", "--config", state["solve_cfg"])]

    def check(self, state: dict, codes: list) -> tuple:
        """Returns (problems, err_max, extra figures)."""
        workdir = state["workdir"]
        problems = [f"solve exited {c}" for c in codes if c != cli.EXIT_OK]
        if not _load(os.path.join(workdir, "solve_report.json"))["converged"]:
            problems.append("solve did not converge")
        u = read_gridfunction(os.path.join(workdir, "solution.gf")).values
        err = float(np.max(np.abs(u - state["exact"])))
        if not err <= self.err_tol:
            problems.append(f"err_max {err:.3e} above {self.err_tol:.1e}")
        return problems, err, {}


def hoelder_oracle(u, rho: float, chunk: int = 256) -> float:
    """Exact sup |u| + rho-Hoelder seminorm over all node pairs, log-chart
    Euclidean distance; the reference for the CLI's subsampled norm."""
    pts = u.grid.log_points
    vals = u.values.ravel()
    semi = 0.0
    for start in range(0, vals.size, chunk):
        d2 = np.sum((pts[start:start + chunk, None, :] - pts[None, :, :]) ** 2, axis=2)
        dv = np.abs(vals[start:start + chunk, None] - vals[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = dv / d2 ** (0.5 * rho)
        q[d2 == 0.0] = 0.0
        semi = max(semi, float(q.max()))
    return float(np.max(np.abs(vals))) + semi


class VerifyWorkload:
    """p=3 solve with t^p f = c stored at set-up; each operation runs
    ``verify abp``, ``verify hoelder``, ``verify doubling`` (which solves the
    shifted pair itself) and ``convolve`` inf and sup on the stored field."""

    name = "verify-2d"
    p, n = 3.0, 2
    rhos = (0.5, 1.0)
    alphas = "1,10,100,1000"
    eps = 0.05
    c_range = (0.2, 0.4)
    scaling_nodes = 41  # second grid for the kernels' scaling exponents

    def __init__(self, nodes: int = 81):
        self.nodes = nodes

    def draw(self, rng) -> dict:
        return {"c": float(rng.uniform(*self.c_range))}

    def _problem(self, c: float, nodes: int, workdir: str) -> dict:
        return {**_domain(self.n, nodes), "problem.p": self.p,
                "problem.f": f"exp:{c!r},-3.0", "problem.omega": repr(c),
                "output.dir": workdir}

    def setup(self, workdir: str, params: dict) -> dict:
        common = self._problem(params["c"], self.nodes, workdir)
        solve = _config(os.path.join(workdir, "solve.cfg"), common)
        code = _command("solve", "--config", solve)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"stored solve exited {code}")
        solution = os.path.join(workdir, "solution.gf")
        verify = _config(os.path.join(workdir, "verify.cfg"),
                         {"verify.rhos": ",".join(map(str, self.rhos)),
                          "verify.solution": solution, "verify.alphas": self.alphas,
                          **common})
        convolve = {}
        for direction in ("inf", "sup"):
            outdir = os.path.join(workdir, direction)
            os.makedirs(outdir, exist_ok=True)
            convolve[direction] = _config(
                os.path.join(workdir, f"convolve_{direction}.cfg"),
                {"convolve.direction": direction, "convolve.eps": self.eps,
                 "convolve.input": solution, **common, "output.dir": outdir})
        return {"workdir": workdir, "params": params, "verify_cfg": verify,
                "convolve_cfg": convolve, "u": read_gridfunction(solution)}

    def reference(self, state: dict) -> None:
        """All-pairs Hoelder norms of the stored field, and its max-norm gap
        to a solve on the grid of half the resolution (the shared nodes are
        every other node), relative to max |u|: a discretization error
        estimate, since the problem has no closed-form solution."""
        u = state["u"]
        state["hoelder_exact"] = {rho: hoelder_oracle(u, rho) for rho in self.rhos}
        coarse_dir = os.path.join(state["workdir"], "coarse")
        os.makedirs(coarse_dir, exist_ok=True)
        coarse_nodes = (self.nodes + 1) // 2
        cfg = _config(os.path.join(coarse_dir, "solve.cfg"),
                      self._problem(state["params"]["c"], coarse_nodes, coarse_dir))
        code = _command("solve", "--config", cfg)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"coarse reference solve exited {code}")
        coarse = read_gridfunction(os.path.join(coarse_dir, "solution.gf")).values
        fine = u.values[::2, ::2]
        state["err_max"] = float(np.max(np.abs(fine - coarse)) / np.max(np.abs(fine)))

    def operation(self, state: dict) -> list:
        cfg = state["verify_cfg"]
        codes = [_command("verify", check, "--config", cfg)
                 for check in ("abp", "hoelder", "doubling")]
        codes += [_command("convolve", "--config", state["convolve_cfg"][d])
                  for d in ("inf", "sup")]
        return codes

    def check(self, state: dict, codes: list) -> tuple:
        workdir, u = state["workdir"], state["u"].values
        names = ("verify abp", "verify hoelder", "verify doubling",
                 "convolve inf", "convolve sup")
        problems = [f"{name} exited {c}" for name, c in zip(names, codes)
                    if c != cli.EXIT_OK]
        for check in ("abp", "hoelder", "doubling"):
            if _load(os.path.join(workdir, f"verify_{check}.json"))["verdict"] is not True:
                problems.append(f"verify {check}: verdict false")
        ms = [d["M_alpha"] for d in
              _load(os.path.join(workdir, "verify_doubling.json"))["diagnostics"]]
        if any(b > a for a, b in zip(ms, ms[1:])):
            problems.append(f"doubling: M_alpha increases: {ms}")
        conv = read_gridfunction(os.path.join(workdir, "inf", "convolved.gf")).values
        if np.any(conv > u + 1e-12):
            problems.append("convolve inf: result exceeds the input")
        env = read_gridfunction(os.path.join(workdir, "sup", "convolved.gf")).values
        with open(os.path.join(workdir, "sup", "convolved_mask.csv")) as fh:
            mask = np.array([int(r) for r in fh.read().split("\n")[2:] if r],
                            dtype=bool).reshape(u.shape)
        if not mask.any() or np.any(env[mask] < u[mask] + self.eps - 1e-12):
            problems.append("convolve sup: envelope below input + eps on the mask")
        gaps = []
        for row in _load(os.path.join(workdir, "verify_hoelder.json"))["sweep"]:
            exact = state["hoelder_exact"][row["rho"]]
            if row["norm"] > exact * (1.0 + 1e-12):
                problems.append(f"hoelder: norm {row['norm']} above the all-pairs {exact}")
            gaps.append((exact - row["norm"]) / exact)
        return problems, state["err_max"], {"hoelder_rel_gap": max(gaps)}


WORKLOADS = {
    w.name: w for w in (
        SolveWorkload("solve-3d-linear", p=2.0, n=3, nodes=29,
                      kappa_range=(-0.91, -0.89), err_tol=1e-4),
        SolveWorkload("solve-2d-nonlinear", p=4.0, n=2, nodes=97,
                      kappa_range=(0.40, 0.42), err_tol=1e-6),
        VerifyWorkload(),
    )
}
