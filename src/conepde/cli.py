"""Batch front end: config parsing, subcommand dispatch, file and report I/O.

The config is a line-oriented ``section.key = value`` text file.  Exit codes:
0 success, 2 validation error, 3 solver non-convergence, 4 verification
verdict failure.  Reports are byte-deterministic for a fixed config and
seed; wall-clock metadata goes to a separate ``*_meta.json`` file.

The CLI is two tables.  ``COMMANDS`` maps each subcommand to its handler,
which returns its exit code and its output files by name, and
``VERIFY_CHECKS`` maps each verify check to a function returning its report
fields, verdict and CSV table; both feed the argument parser and the
dispatch.  Report dataclasses are serialized field by field, and ``run``
alone creates the output directory, writes every file and times a command.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from conepde import analysis
from conepde.calculus import GridFunction, LogGrid, read_gridfunction, write_gridfunction
from conepde.geometry import ConeDomain, GConditionParams, estimate_g_condition
from conepde.operators import (
    PDEProblem,
    TransformParams,
    constant_field,
    gridfunction_field,
    log_polynomial_field,
    psi_inverse,
    separable_exponential_field,
)
from conepde.regularization import inf_convolution, upper_envelope
from conepde.solver import (
    SolverConfig,
    convergence_study,
    exact_solution_values,
    log_t_field,
    make_exact_solution,
    manufactured_problem,
    power_of_t_field,
    quadratic_field,
    solve_by_exhaustion,
    solve_dirichlet,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERDICT = 4


class ConfigError(Exception):
    pass


def _listof(kind):
    """A comma-list parser; an empty entry (also a trailing comma or an
    empty value) is a ValueError."""
    def parse(raw):
        entries = raw.split(",")
        if not all(v.strip() for v in entries):
            raise ValueError("empty entry")
        return [kind(v) for v in entries]
    return parse


def _base_box(raw: str) -> list:
    box = [[float(v) for v in axis.split(",")] for axis in raw.split(";")]
    if any(len(pair) != 2 for pair in box):
        raise ValueError(raw)
    return box


def _finite(value) -> bool:
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _show(value) -> str:
    return ",".join(map(_show, value)) if isinstance(value, list) else f"{value:g}"


# the kinds of value a key takes: (parser, what its text must be)
NUMBER = (float, "a number")
INTEGER = (int, "an integer")
NUMBERS = (_listof(float), "a comma list of numbers")
INTEGERS = (_listof(int), "a comma list of integers")
BASE_BOX = (_base_box, "'lo,hi' per axis, axes separated by ';'")
TEXT = (str, "text")
# the default of a key that the config must set
REQUIRED = object()
# the common ranges: (predicate, what a value must be)
POSITIVE = (lambda v: v > 0.0, "must be finite and positive")
NONNEGATIVE = (lambda v: v >= 0.0, "must be finite and at least 0")


@dataclasses.dataclass
class RunConfig:
    entries: dict
    lines: dict
    text: str

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]

    def read(self, key: str, kind: tuple, default=None, ok=None, what: str = "must be finite"):
        """The value of ``key`` parsed as ``kind``, or ``default`` for a key
        the config does not set (an error when that is ``REQUIRED``, and
        None, unchecked, when it is None).  Every number in the value must
        be finite and the value must pass ``ok``, which says ``what`` it
        must be; a ConfigError names the key, its line and its text, or the
        default read in its place."""
        parse, shape = kind
        raw = self.entries.get(key)
        if raw is None:
            if default is REQUIRED:
                raise ConfigError(f"missing required key {key}")
            value = default
        else:
            try:
                value = parse(raw)
            except ValueError:
                raise self.rejection([key], f"expected {shape}") from None
        if value is None or (_finite(value) and (ok is None or ok(value))):
            return value
        if raw is None:
            raise ConfigError(f"{key}: {what}, got the default {_show(value)}")
        raise self.rejection([key], what)

    def require_known(self, section: str, names, reader: str) -> None:
        """Rejects the first ``section.*`` key that is not ``section.<name>``
        for one of ``names``, naming it, its line and the keys ``reader`` reads."""
        for key in self.entries:
            if key.startswith(section + ".") and key.removeprefix(section + ".") not in names:
                raise ConfigError(f"line {self.lines[key]}: unknown key {key}; {reader} reads "
                                  + ", ".join(f"{section}.{name}" for name in names))

    def where(self, key: str) -> str:
        """``key`` after its line, ``line N: key``, when the config sets it."""
        return f"line {self.lines[key]}: {key}" if key in self.lines else key

    def rejection(self, keys: list, what: str) -> ConfigError:
        """The error for set ``keys`` whose values together are not ``what``
        they must be, naming each key with its line and its text."""
        return ConfigError(", ".join(map(self.where, keys)) + f": {what}, got "
                           + ", ".join(repr(self.entries[k]) for k in keys))


def parse_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    entries, lines = {}, {}
    with open(path) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if "." not in key:
            raise ConfigError(f"line {lineno}: key {key!r} lacks a section prefix")
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {lines[key]}")
        entries[key] = value
        lines[key] = lineno
    return RunConfig(entries=entries, lines=lines, text=text)


# ---------------------------------------------------------------------------
# builders

def build_domain(cfg: RunConfig) -> ConeDomain:
    n = cfg.read("domain.n", INTEGER, REQUIRED, lambda n: n >= 2, "must be at least 2")
    lo, hi = zip(*cfg.read("domain.base", BASE_BOX, REQUIRED,
                           lambda box: len(box) == n - 1 and all(a < b for a, b in box),
                           f"need n - 1 = {n - 1} axes 'lo,hi', each with lo < hi"))
    t_min = cfg.read("domain.t_min", NUMBER, REQUIRED, lambda t: 0.0 < t < 1.0,
                     "must lie in (0, 1)")
    default = GConditionParams()
    K0 = cfg.read("domain.k0", NUMBER, default.K0, *POSITIVE)
    d0 = cfg.read("domain.d0", NUMBER, default.d0, *POSITIVE)
    return ConeDomain(n=n, base_lo=np.array(lo), base_hi=np.array(hi),
                      t_min=t_min, g_params=GConditionParams(K0=K0, d0=d0))


def _parse_field_spec(spec: str, label: str, n: int, p: float | None = None):
    """The field a ``problem.f``, ``problem.dirichlet`` or ``problem.exact``
    spec names; errors start with ``label``, the key (``RunConfig.where``).
    An exact solution (``p`` given) may be ``auto``, the forcing-free one
    at p, and needs derivatives, which a gridfile lacks.  ``constant:`` and
    ``tpower:`` take one value, ``exp:`` two to n + 1 (c and q, then k) and
    each ``poly:`` term at most n + 1, a missing one reading 0; ``zero``,
    ``logt``, ``quadratic`` and ``auto`` take none.  Every number must be
    finite."""
    name, _, args = spec.partition(":")
    name = name.strip().lower()

    def values(text, most=n + 1):
        vals = _listof(float)(text)
        if len(vals) > most:
            raise ValueError(f"{len(vals)} values, at most {most} at n = {n}")
        bad = [v for v in vals if not _finite(v)]
        if bad:
            raise ValueError(f"{_show(bad[0])} is not finite")
        return vals

    try:
        if name in ("zero", "logt", "quadratic", "auto") and args.strip():
            raise ValueError(f"{name} takes no arguments")
        if name == "auto" and p is not None:
            return make_exact_solution(p, n)
        if name == "zero":
            return constant_field(0.0)
        if name == "constant":
            return constant_field(*values(args, 1))
        if name == "tpower":
            return power_of_t_field(*values(args, 1))
        if name == "logt":
            return log_t_field()
        if name == "quadratic":
            return quadratic_field(n)
        if name == "exp":
            vals = values(args)
            if len(vals) < 2:
                raise ValueError("exp: needs at least two values, c and q")
            return separable_exponential_field(vals[0], vals[1], vals[2:])
        if name == "poly":
            return log_polynomial_field([values(term) for term in args.split(";")])
        if name == "gridfile" and p is None:
            return gridfunction_field(read_gridfunction(args.strip()))
    except (ValueError, IndexError, OSError) as exc:
        raise ConfigError(f"{label}: malformed spec {spec!r} ({exc})") from exc
    if name == "gridfile":
        raise ConfigError(f"{label}: a gridfile has no derivatives for an exact solution")
    raise ConfigError(f"{label}: unknown field kind {name!r}")


def _exponent(cfg: RunConfig) -> float:
    return cfg.read("problem.p", NUMBER, REQUIRED, lambda p: p >= 2.0,
                    "must be finite and at least 2")


def build_problem(cfg: RunConfig, domain: ConeDomain) -> PDEProblem:
    p = _exponent(cfg)
    f, g = (_parse_field_spec(cfg.read(key, TEXT, "zero"), cfg.where(key), domain.n)
            for key in ("problem.f", "problem.dirichlet"))
    return PDEProblem(p=p, f=f, dirichlet=g)


def build_manufactured(cfg: RunConfig, domain: ConeDomain) -> tuple:
    """(u*, the problem it solves) for the ``problem.exact`` spec at ``problem.p``."""
    p = _exponent(cfg)
    u_star = _parse_field_spec(cfg.read("problem.exact", TEXT, "auto"),
                               cfg.where("problem.exact"), domain.n, p)
    return u_star, manufactured_problem(u_star, p)


def build_grid(cfg: RunConfig, domain: ConeDomain) -> LogGrid:
    counts = cfg.read("grid.nodes", INTEGERS, REQUIRED,
                      lambda c: len(c) == domain.n and min(c) >= 3,
                      f"need {domain.n} counts, each at least 3")
    # a base box too narrow for its offset rounds to a non-uniform axis
    try:
        return LogGrid.build(domain, counts)
    except ValueError as exc:
        raise cfg.rejection(["domain.base", "grid.nodes"], str(exc)) from None


def build_solver_config(cfg: RunConfig) -> SolverConfig:
    """Each ``solver.<name>`` key sets the ``SolverConfig`` field of that name."""
    fields = {f.name: f for f in dataclasses.fields(SolverConfig)}
    cfg.require_known("solver", fields, "the solver")
    kwargs = {}
    for key in [k for k in cfg.entries if k.startswith("solver.")]:
        name = key.removeprefix("solver.")
        # the float fields must be finite and positive; SolverConfig checks the ranges
        kwargs[name] = cfg.read(key, INTEGER if isinstance(fields[name].default, int)
                                else NUMBER, what="must be finite and positive")
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        # the message names the field at fault, which the config sets: every default passes
        name, _, what = str(exc).partition(": ")
        raise cfg.rejection([f"solver.{name}"], what) from None


# ---------------------------------------------------------------------------
# output plumbing

def _py(obj):
    if dataclasses.is_dataclass(obj):
        return _py(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _py(obj.item())
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "nan", "inf" or "-inf": JSON has no such numbers
    return obj


def write_json(path: str, payload, config_hash: str) -> None:
    """``payload`` is a dict or a dataclass; dataclasses serialize by field."""
    with open(path, "w") as fh:
        json.dump({**_py(payload), "config_hash": config_hash}, fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def write_csv(path: str, header: list, rows: list, config_hash: str) -> None:
    lines = [f"# config_hash={config_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else f"{v:.17g}" if isinstance(v, float)
                              else str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _columns(records, header: list) -> list:
    """CSV rows holding the ``header`` attributes of each record."""
    return [[getattr(r, k) for k in header] for r in records]


def write_output(path: str, payload, config_hash: str) -> None:
    """Writes one output file by its extension: a GridFunction to ``.gf``,
    (header, rows) to ``.csv``, a dict or report dataclass to ``.json``."""
    if path.endswith(".gf"):
        write_gridfunction(path, payload)
    elif path.endswith(".csv"):
        write_csv(path, *payload, config_hash)
    else:
        write_json(path, payload, config_hash)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    domain = build_domain(cfg)
    prob = build_problem(cfg, domain)
    grid = build_grid(cfg, domain)
    scfg = build_solver_config(cfg)
    u, report = solve_dirichlet(prob, grid, scfg)
    return (EXIT_OK if report.converged else EXIT_SOLVER,
            {"solution.gf": u, "solve_report.json": report})


def _cmd_manufacture(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    domain = build_domain(cfg)
    u_star, prob = build_manufactured(cfg, domain)
    grid = build_grid(cfg, domain)
    exact = exact_solution_values(u_star, grid)
    forcing = GridFunction(grid, prob.forcing_values(grid))
    return EXIT_OK, {"exact.gf": exact, "forcing.gf": forcing, "manufacture_report.json": {
        "p": prob.p, "n": domain.n, "max_abs_exact": float(np.max(np.abs(exact.values))),
        "max_abs_forcing": float(np.max(np.abs(forcing.values)))}}


def _cmd_exhaust(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    j_max = cfg.read("exhaust.j_max", INTEGER, 4, lambda j: j >= 2,
                     "need at least two exhaustion stages")
    density = cfg.read("exhaust.density", NUMBER, 16.0, *POSITIVE)
    domain = build_domain(cfg)
    prob = build_problem(cfg, domain)
    scfg = build_solver_config(cfg)
    report = solve_by_exhaustion(prob, domain, j_max, density, scfg)
    files = {f"exhaust_u{j}.gf": u_j for j, (_, u_j) in enumerate(report.members, start=1)}
    return EXIT_OK, {**files, "exhaust_diffs.csv": (["j", "sup_diff"], report.diffs),
                     "exhaust_report.json": {
                         "j_max": j_max, "monotone": report.monotone,
                         "diffs": [{"j": j, "sup_diff": g} for j, g in report.diffs]}}


def _cmd_convolve(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    cfg.require_known("convolve", ("direction", "eps", "input"), "convolve")
    direction = cfg.read("convolve.direction", TEXT, "inf",
                         lambda d: d.lower() in ("inf", "sup"), "must be inf or sup").lower()
    eps = cfg.read("convolve.eps", NUMBER, REQUIRED, *POSITIVE)
    u = _read_field_file(cfg, "convolve.input")
    payload = {"direction": direction, "eps": eps}
    files = {}
    if direction == "inf":
        out = inf_convolution(u, eps)
    else:
        env = upper_envelope(u, eps)
        out = GridFunction(u.grid, np.where(env.mask, env.field.values, 0.0))
        files["convolved_mask.csv"] = ["mask"], [(int(v),) for v in env.mask.ravel()]
        payload.update(masked_nodes=int(env.mask.sum()), max_offset=env.max_offset)
    files.update({"convolved.gf": out, "convolve_report.json": payload})
    return EXIT_OK, files


def _cmd_convergence_study(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    domain = build_domain(cfg)
    u_star, prob = build_manufactured(cfg, domain)
    scfg = build_solver_config(cfg)
    base = build_grid(cfg, domain)
    levels = cfg.read("study.levels", INTEGER, 3, lambda n: n > 0, "need at least one level")
    grids = [LogGrid.build(domain, [(c - 1) * 2**lev + 1 for c in base.shape])
             for lev in range(levels)]
    rows = convergence_study(prob, u_star, grids, scfg)
    header = ["h", "max_error", "order"]
    return EXIT_OK, {"convergence.csv": (header, _columns(rows, header)),
                     "convergence_report.json": {"rows": rows}}


def _cmd_gcondition(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    domain = build_domain(cfg)
    samples = cfg.read("verify.samples", INTEGER, 200, lambda n: n > 0,
                       "need at least one sample")
    sigma = estimate_g_condition(domain, samples, args.seed)
    return EXIT_OK, {"gcondition_report.json": {
        "K0": domain.g_params.K0, "d0": domain.g_params.d0, "sigma_est": sigma,
        "samples": samples, "seed": args.seed, "degenerate": sigma == 0.0}}


def _read_field_file(cfg: RunConfig, key: str) -> GridFunction:
    """The grid function stored at the path ``key`` names; a file that does
    not read names the key and its line, then the path."""
    try:
        return read_gridfunction(cfg.read(key, TEXT, REQUIRED))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{cfg.where(key)}: {exc}") from None


def _get_solution(cfg: RunConfig, prob: PDEProblem, grid: LogGrid,
                  scfg: SolverConfig) -> GridFunction:
    """The stored ``verify.solution``, which must lie on the configured
    grid, or else a fresh solve.  Every verify check reads the problem's
    solution here, the supersolution of the shifted pair included; a stored
    field enters as is, whether or not it solves the configured problem."""
    if not cfg.read("verify.solution", TEXT):
        return _solve_or_raise(prob, grid, scfg)[0]
    stored = _read_field_file(cfg, "verify.solution")
    if not stored.grid.same_nodes(grid):
        raise ConfigError(f"{cfg.where('verify.solution')}: its grid {stored.grid.shape} "
                          f"does not have the nodes of the configured grid {grid.shape}")
    return GridFunction(grid, stored.values)


def _solve_or_raise(prob, grid, scfg, initial=None):
    """``solve_dirichlet``'s (solution, report); an unconverged solve raises
    a RuntimeError naming the p, stop reason and residual of its last
    stage."""
    u, report = solve_dirichlet(prob, grid, scfg, initial=initial)
    if not report.converged:
        last = report.stages[-1]
        raise RuntimeError(f"solver failed to converge: the last stage, at p "
                           f"{last.p:g}, stopped on {last.stop_reason} at residual "
                           f"{last.residual_norm:.3g}")
    return u, report


def _shifted_pair(cfg: RunConfig, prob: PDEProblem, grid: LogGrid,
                  scfg: SolverConfig) -> tuple:
    """The solve with the forcing raised by margin t^-p, and the solution
    of the problem's own forcing from ``_get_solution`` (the stored
    ``verify.solution`` when set, so only the raised forcing is solved).  A
    larger forcing gives a smaller solution, so the first is the
    subsolution of the pair.  It starts from the held supersolution, stored
    or solved (``solve_dirichlet``'s ``initial``), and runs cold only when
    that one floor-eps stage misses ``solver.tol``."""
    margin = cfg.read("verify.margin", NUMBER, 0.5, *POSITIVE)
    v_super = _get_solution(cfg, prob, grid, scfg)
    f_low = prob.f

    def f_high(t, xs):
        return f_low(t, xs) + margin * np.asarray(t, dtype=float) ** (-prob.p)

    u_sub, _ = _solve_or_raise(dataclasses.replace(prob, f=f_high), grid, scfg, initial=v_super)
    return u_sub, v_super


def _ball_from_config(cfg: RunConfig, grid: LogGrid, harnack: bool = False) -> tuple:
    """(log-chart centre (a, x), radius d) of ``verify.ball``, by default
    centred with a third of the shortest extent as d.  The Harnack checks
    need d at most K0 d0 + 1 and the ball inside the grid, checked before any solve."""
    default = ([0.5 * (ax[0] + ax[-1]) for ax in grid.axes]
               + [min(ax[-1] - ax[0] for ax in grid.axes) / 3.0])
    bound = analysis.harnack_radius_bound(grid.domain) if harnack else math.inf
    ball = cfg.read("verify.ball", NUMBERS, default,
                    lambda b: len(b) == grid.n + 1 and 0.0 < b[-1] <= bound,
                    f"need {grid.n + 1} finite numbers a, x..., d with d > 0"
                    + (f" and d <= K0 d0 + 1 = {bound:g}" if harnack else ""))
    center, d = np.array(ball[:-1]), ball[-1]
    if harnack:
        try:
            analysis._require_harnack_ball(grid, center, d)
        except ValueError as exc:
            raise ConfigError(f"{cfg.where('verify.ball')}: {exc}") from None
    return center, d


# ---------------------------------------------------------------------------
# verify checks: each maps (cfg, prob, grid, scfg, seed) to
# (report fields, verdict, CSV header, CSV rows)

def _verify_abp(cfg, prob, grid, scfg, seed) -> tuple:
    slack = cfg.read("verify.slack", NUMBER, 10.0 * max(grid.h) ** 2, *NONNEGATIVE)
    c_ref = cfg.read("verify.c_ref", NUMBER, None, *NONNEGATIVE)
    u = _get_solution(cfg, prob, grid, scfg)
    one, two = analysis.abp_check(u, prob)
    verdict = True
    if c_ref is not None:
        verdict = one.holds_with(c_ref, slack)
    elif one.forcing_zero:
        verdict = one.interior_sup_vplus <= one.boundary_sup_vplus + slack
    rows = [(k, v) for k, v in sorted(dataclasses.asdict(one).items())
            if isinstance(v, (int, float))]
    return {"subsolution": one, "two_sided": two}, verdict, ["quantity", "value"], rows


def _verify_hoelder(cfg, prob, grid, scfg, seed) -> tuple:
    if "verify.rho" in cfg.lines and "verify.rhos" in cfg.lines:
        raise ConfigError(f"{cfg.where('verify.rho')}: set next to verify.rhos on line "
                          f"{cfg.lines['verify.rhos']}; give one of them")
    rho = cfg.read("verify.rho", NUMBER, 0.25, lambda r: 0.0 < r <= 1.0,
                   "each rho must lie in (0, 1]")
    rhos = cfg.read("verify.rhos", NUMBERS, [rho], lambda rs: all(0.0 < r <= 1.0 for r in rs),
                    "each rho must lie in (0, 1]")
    u = _get_solution(cfg, prob, grid, scfg)
    reports = [analysis.hoelder_check(u, prob, rho) for rho in rhos]
    header = ["rho", "norm", "forcing", "ratio"]
    return ({"sweep": reports}, not any(r.inconsistent for r in reports),
            header, _columns(reports, header))


def _verify_harnack(cfg, prob, grid, scfg, seed) -> tuple:
    center, d = _ball_from_config(cfg, grid, harnack=True)
    u = _get_solution(cfg, prob, grid, scfg)
    rep = analysis.harnack_ratio(u, prob, center, d)
    header = ["sup", "inf", "forcing", "C_emp"]
    return {"harnack": rep}, math.isfinite(rep.C_emp), header, _columns([rep], header)


def _verify_weakharnack(cfg, prob, grid, scfg, seed) -> tuple:
    center, d = _ball_from_config(cfg, grid, harnack=True)
    p0s = cfg.read("verify.p0s", NUMBERS, [0.25, 0.5, 0.75, 1.0],
                   lambda ps: all(0.0 < p0 <= 1.0 for p0 in ps), "p0 values must lie in (0, 1]")
    u = _get_solution(cfg, prob, grid, scfg)
    rows = analysis.weak_harnack_check(u, prob, p0s, center, d)
    verdict = any(math.isfinite(r.C_emp_minus) or math.isfinite(r.C_emp_plus)
                  for r in rows)
    header = ["p0", "mean", "inf", "C_emp_minus", "C_emp_plus"]
    return {"rows": rows}, verdict, header, _columns(rows, header)


def _verify_oscillation(cfg, prob, grid, scfg, seed) -> tuple:
    center, d = _ball_from_config(cfg, grid)
    radii = cfg.read("verify.radii", NUMBERS, [d, d / 2.0, d / 4.0],
                     lambda r: len(r) >= 3 and r[-1] > 0.0
                     and all(b < a for a, b in zip(r, r[1:])),
                     "need at least three finite, positive, strictly decreasing radii")
    u = _get_solution(cfg, prob, grid, scfg)
    rep = analysis.oscillation_decay(u, center, radii)
    verdict = rep.vacuous or (rep.exponent is not None and rep.exponent > 0.0)
    header = ["radius", "oscillation"]
    report = {**dataclasses.asdict(rep), "rows": [dict(zip(header, r)) for r in rep.rows]}
    return {"oscillation": report}, verdict, header, rep.rows


def _verify_comparison(cfg, prob, grid, scfg, seed) -> tuple:
    slack = cfg.read("verify.slack", NUMBER, 10.0 * max(grid.h) ** 2, *NONNEGATIVE)
    u_sub, v_super = _shifted_pair(cfg, prob, grid, scfg)
    rep = analysis.comparison_check(u_sub, v_super, prob, tol=slack)
    header = ["violations", "worst_gap"]
    return {"comparison": rep}, rep.violations == 0, header, _columns([rep], header)


def _verify_doubling(cfg, prob, grid, scfg, seed) -> tuple:
    # the verdict asks M_alpha not to grow along the list, which the
    # doubling argument gives as alpha grows
    alphas = cfg.read("verify.alphas", NUMBERS, [1.0, 10.0, 100.0, 1000.0],
                      lambda al: al[0] > 0.0 and all(b > a for a, b in zip(al, al[1:])),
                      "each alpha must be finite and positive, in strictly increasing order")
    u1, u2 = _shifted_pair(cfg, prob, grid, scfg)
    bound = max(float(np.max(np.abs(u1.values))),
                float(np.max(np.abs(u2.values))), 1e-6)
    params = TransformParams.from_bound(bound)
    z1 = GridFunction(grid, np.asarray(psi_inverse(u1.values * 0.5, params)))
    z2 = GridFunction(grid, np.asarray(psi_inverse(u2.values * 0.5, params)))
    diags = analysis.doubling_diagnostic(z1, z2, alphas)
    ms = [d.M_alpha for d in diags]
    header = ["alpha", "M_alpha", "penalty", "diagonal_gap"]
    return ({"diagnostics": diags}, all(b <= a + 1e-12 for a, b in zip(ms, ms[1:])),
            header, _columns(diags, header))


def _verify_weakform(cfg, prob, grid, scfg, seed) -> tuple:
    count = cfg.read("verify.bumps", INTEGER, 10, lambda n: n > 0, "need at least one bump")
    tol = cfg.read("verify.weakform_tol", NUMBER, 10.0 * max(grid.h) ** 2, *NONNEGATIVE)
    u = _get_solution(cfg, prob, grid, scfg)
    bumps = analysis.cosine_bumps(grid, count, seed=seed)
    worst, rows = analysis.weak_form_residual(u, prob, bumps)
    header = ["residual", "residual_divergence_form", "form_gap"]
    return ({"max_residual": worst, "tolerance": tol, "tests": rows}, worst <= tol,
            header, [[r[k] for k in header] for r in rows])


VERIFY_CHECKS = {
    "abp": _verify_abp,
    "hoelder": _verify_hoelder,
    "harnack": _verify_harnack,
    "weakharnack": _verify_weakharnack,
    "oscillation": _verify_oscillation,
    "comparison": _verify_comparison,
    "doubling": _verify_doubling,
    "weakform": _verify_weakform,
}


def _cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    domain = build_domain(cfg)
    prob = build_problem(cfg, domain)
    grid = build_grid(cfg, domain)
    scfg = build_solver_config(cfg)
    fields, verdict, header, rows = VERIFY_CHECKS[args.check](cfg, prob, grid, scfg, args.seed)
    return EXIT_OK if verdict else EXIT_VERDICT, {
        f"verify_{args.check}.csv": (header, rows),
        f"verify_{args.check}.json": {"check": args.check, "seed": args.seed, **fields,
                                      "verdict": bool(verdict)}}


# ---------------------------------------------------------------------------
# entry point

COMMANDS = {
    "solve": _cmd_solve,
    "manufacture": _cmd_manufacture,
    "exhaust": _cmd_exhaust,
    "convolve": _cmd_convolve,
    "convergence-study": _cmd_convergence_study,
    "gcondition": _cmd_gcondition,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conepde",
        description="Finite-difference laboratory for a degenerate p-Laplace "
                    "equation on a stretched cone.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized checks")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "verify":
            p.add_argument("check", choices=VERIFY_CHECKS)
        p.add_argument("--config", required=True)
    return parser


def run(argv) -> int:
    """Parses ``argv`` and runs the command.  When it returns, creates
    ``output.dir`` and writes the command's files there, then its wall time
    to ``<command>_meta.json`` (``verify_<check>_meta.json`` for verify); a
    raised error is reported and writes nothing."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0,) else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(args.config)
        t0 = time.perf_counter()
        code, files = COMMANDS[args.command](cfg, args)
        outdir = cfg.read("output.dir", TEXT, "out")
        os.makedirs(outdir, exist_ok=True)
        for filename, payload in files.items():
            write_output(os.path.join(outdir, filename), payload, cfg.config_hash)
        name = f"verify_{args.check}" if args.command == "verify" else args.command
        write_output(os.path.join(outdir, f"{name}_meta.json"),
                     {"wall_time_seconds": time.perf_counter() - t0,
                      "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}, cfg.config_hash)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, FloatingPointError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
