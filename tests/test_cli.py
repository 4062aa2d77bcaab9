import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from conepde.calculus import GridFunction, LogGrid, read_gridfunction, write_gridfunction
from conepde.cli import ConfigError, _parse_field_spec, run, solve_dirichlet, write_json
from conepde.geometry import ConeDomain
from conepde.operators import PDEProblem, constant_field, separable_exponential_field
from conepde.solver import SolverConfig


BASE_CONFIG = """
domain.n = 2
domain.base = 0,1
domain.t_min = 0.36787944117144233
domain.k0 = 2.0
domain.d0 = 1.0
problem.p = 2.0
problem.f = zero
problem.dirichlet = zero
grid.nodes = 13,13
output.dir = {outdir}
"""


def write_config(tmp_path, body, name="run.cfg"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(body)
    return path


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


RADII = "need at least three finite, positive, strictly decreasing radii"
BALL = "need 3 finite numbers a, x..., d with d > 0"
ADMISSIBLE = BALL + " and d <= K0 d0 + 1 = 3"
FINITE = "must be finite and positive"
NONNEGATIVE = "must be finite and at least 0"
ALPHAS = "each alpha must be finite and positive, in strictly increasing order"


# every numeric key the CLI reads: (key, a command that reads it, its text
# around the number under test)
NUMERIC_KEYS = [
    ("domain.n", ["solve"], "{}"),
    ("domain.base", ["solve"], "0,{}"),
    ("domain.t_min", ["solve"], "{}"),
    ("domain.k0", ["verify", "abp"], "{}"),
    ("domain.d0", ["verify", "abp"], "{}"),
    ("problem.p", ["solve"], "{}"),
    ("problem.p", ["manufacture"], "{}"),
    ("grid.nodes", ["solve"], "13,{}"),
    ("solver.eps_reg_floor", ["solve"], "{}"),
    ("solver.tol", ["solve"], "{}"),
    ("solver.max_iter", ["solve"], "{}"),
    ("exhaust.j_max", ["exhaust"], "{}"),
    ("exhaust.density", ["exhaust"], "{}"),
    ("convolve.eps", ["convolve"], "{}"),
    ("study.levels", ["convergence-study"], "{}"),
    ("verify.samples", ["gcondition"], "{}"),
    ("verify.margin", ["verify", "comparison"], "{}"),
    ("verify.ball", ["verify", "harnack"], "-0.5,0.5,{}"),
    ("verify.ball", ["verify", "oscillation"], "-0.5,{},0.3"),
    ("verify.c_ref", ["verify", "abp"], "{}"),
    ("verify.rho", ["verify", "hoelder"], "{}"),
    ("verify.rhos", ["verify", "hoelder"], "0.5,{}"),
    ("verify.p0s", ["verify", "weakharnack"], "0.5,{}"),
    ("verify.radii", ["verify", "oscillation"], "{},0.3,0.1"),
    ("verify.alphas", ["verify", "doubling"], "1,{}"),
    ("verify.bumps", ["verify", "weakform"], "{}"),
    ("verify.weakform_tol", ["verify", "weakform"], "{}"),
    ("verify.slack", ["verify", "comparison"], "{}"),
]


def set_entries(text, *entries):
    """Config text with each ``key = value`` entry replacing the line of its
    key, or appended when no line sets it."""
    keys = {entry.partition(" ")[0]: entry for entry in entries}
    rows = [keys.pop(row.partition(" ")[0], row) for row in text.splitlines()]
    return "\n".join(rows + list(keys.values())) + "\n"


def refuse_solve(*args, **kwargs):
    raise AssertionError("the config should be rejected before any solve")


class SolveRecord(list):
    """The (solution, report) of each solve, newest last; ``solve`` is
    ``solve_dirichlet`` recording them, and a ``cold`` record drops
    ``initial``, so that every solve starts cold."""

    def __init__(self, cold=False):
        super().__init__()
        self.cold = cold

    def solve(self, prob, grid, cfg=None, initial=None):
        self.append(solve_dirichlet(prob, grid, cfg, initial=None if self.cold else initial))
        return self[-1]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        assert run(["solve", "--config", os.path.join(tmp_path, "nope.cfg")]) == 2

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "domain.n = 2\nbogus line\n")
        assert run(["solve", "--config", cfg]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_repeated_key_reports_key_and_both_lines(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        cfg = write_config(tmp_path, (BASE_CONFIG + "problem.p = 3.0\n").format(outdir=out))
        assert run(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "'problem.p'" in err and "line 12" in err and "line 7" in err
        assert not os.path.isdir(out)

    def test_bad_number_reports_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path)
                           .replace("problem.p = 2.0", "problem.p = two"))
        assert run(["solve", "--config", cfg]) == 2
        assert "problem.p" in capsys.readouterr().err

    @pytest.mark.parametrize("base", ["0,x", "0,1,2"])
    def test_bad_base_box_reports_key_and_line(self, tmp_path, capsys, base):
        cfg = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path)
                           .replace("domain.base = 0,1", f"domain.base = {base}"))
        assert run(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "domain.base" in err and "line 3" in err

    @pytest.mark.parametrize("spec", ["gridfile:in.gf", "tpower:abc", "cubic"])
    @pytest.mark.parametrize("command", ["manufacture", "convergence-study"])
    def test_bad_exact_spec_names_key(self, tmp_path, capsys, monkeypatch, spec, command):
        # a stored field has no derivatives, "abc" is no exponent and "cubic"
        # no field kind: each exits 2 naming the key
        grid = LogGrid.build(ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0],
                                        t_min=0.36787944117144233), (13, 13))
        write_gridfunction(os.path.join(tmp_path, "in.gf"),
                           GridFunction(grid, np.zeros(grid.shape)))
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, BASE_CONFIG.format(outdir="out")
                           + f"problem.exact = {spec}\n")
        assert run([command, "--config", cfg]) == 2
        assert "config error: line 12: problem.exact:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, spec", [
        ("problem.f", "exp:1,0,0.5,0.7,9"),
        ("problem.f", "exp:1,0,0.5,0.7"),
        ("problem.dirichlet", "poly:0.5,0,2;1,1,0,2"),
        ("problem.dirichlet", "quadratic:3"),
        ("problem.f", "logt:x"),
        ("problem.f", "zero:0"),
        ("problem.exact", "auto:x"),
    ])
    def test_extra_field_spec_arguments_name_key(self, tmp_path, capsys, monkeypatch,
                                                 key, spec):
        # at n = 2, exp and each poly term take at most 3 values and the
        # other kinds none; fewer values stay legal
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        body = BASE_CONFIG.format(outdir=tmp_path)
        body = (body.replace(f"{key} = zero", f"{key} = {spec}") if key != "problem.exact"
                else body + f"{key} = {spec}\n")
        command = "manufacture" if key == "problem.exact" else "solve"
        assert run([command, "--config", write_config(tmp_path, body)]) == 2
        line = body.splitlines().index(f"{key} = {spec}") + 1
        assert f"config error: line {line}: {key}: malformed spec" in capsys.readouterr().err

    @pytest.mark.parametrize("n, short, full", [
        (2, "exp:1,-3.0", "exp:1,-3.0,0"),
        (3, "exp:1,0,0.5", "exp:1,0,0.5,0"),
        (2, "poly:0.5,0,2;1,1", "poly:0.5,0,2;1,1,0"),
        (3, "poly:2,1", "poly:2,1,0,0"),
        (2, "zero:", "zero"),
    ])
    def test_short_field_spec_reads_missing_values_as_zero(self, n, short, full):
        # value, gradient and Hessian all agree with the spelled-out spec
        rng = np.random.default_rng(11)
        a = rng.uniform(-1.0, 0.0, 5)
        xs = tuple(rng.uniform(0.0, 1.0, 5) for _ in range(n - 1))
        got = _parse_field_spec(short, "problem.f", n)
        want = _parse_field_spec(full, "problem.f", n)
        for part in ("value", "grad", "hess"):
            np.testing.assert_array_equal(getattr(got, part)(a, xs),
                                          getattr(want, part)(a, xs))

    @pytest.mark.parametrize("n", [2, 3])
    def test_arity_bound_follows_dimension(self, n):
        # n + 1 values are legal in exp and in every poly term, n + 2 are not
        full = ",".join(["1"] + ["0.5"] * n)
        for kind in ("exp", "poly"):
            _parse_field_spec(f"{kind}:{full}", "problem.f", n)
            with pytest.raises(ConfigError, match=f"problem.f: malformed spec .*"
                                                  f"{n + 2} values, at most {n + 1}"):
                _parse_field_spec(f"{kind}:{full},2", "problem.f", n)

    def test_auto_is_only_an_exact_solution(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path)
                           .replace("problem.f = zero", "problem.f = auto"))
        assert run(["solve", "--config", cfg]) == 2
        assert "problem.f: unknown field kind 'auto'" in capsys.readouterr().err

    def test_truncated_gridfunction_header_names_field(self, tmp_path, capsys):
        src = os.path.join(tmp_path, "short.gf")
        with open(src, "w") as fh:
            fh.write("2,5\n0.0\n")
        body = BASE_CONFIG + f"convolve.eps = 0.05\nconvolve.input = {src}\n"
        cfg = write_config(tmp_path, body.format(outdir=tmp_path))
        assert run(["convolve", "--config", cfg]) == 2
        assert "x1_count" in capsys.readouterr().err

    def test_rejected_gridfunction_file_names_its_path(self, tmp_path, capsys):
        # a 3x3 field with a nan value line
        src = os.path.join(tmp_path, "nan.gf")
        with open(src, "w") as fh:
            fh.write("2,3,3,-1,0.36787944117144233,0,1,0\n" + "0\n" * 4 + "nan\n" + "0\n" * 4)
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + f"convolve.eps = 0.05\nconvolve.input = {src}\n"
        assert run(["convolve", "--config", write_config(tmp_path, body.format(outdir=out))]) == 2
        assert capsys.readouterr().err == (
            f"config error: line 13: convolve.input: {src}: grid function values must be finite\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv, key", [(["convolve"], "convolve.input"),
                                           (["verify", "abp"], "verify.solution")],
                             ids=["convolve.input", "verify.solution"])
    @pytest.mark.parametrize("content, why", [
        ("2,3,3,-1,0.36787944117144233,0,1,0\n" + "0\n" * 8, "value count does not match"),
        (None, "No such file or directory"),
    ], ids=["short", "missing"])
    def test_unreadable_gridfunction_file_names_key_and_line(self, tmp_path, capsys, monkeypatch,
                                                             argv, key, content, why):
        # both used to exit 2 naming only the path, a missing file as a bare
        # OSError message
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        src = os.path.join(tmp_path, "field.gf")
        if content is not None:
            with open(src, "w") as fh:
                fh.write(content)
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + f"convolve.eps = 0.05\n{key} = {src}\n"
        assert run([*argv, "--config", write_config(tmp_path, body.format(outdir=out))]) == 2
        err = capsys.readouterr().err
        line = body.splitlines().index(f"{key} = {src}") + 1
        assert err.startswith(f"config error: line {line}: {key}: ")
        assert src in err and why in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key", ["problem.f", "problem.dirichlet"])
    def test_missing_gridfile_spec_names_key_line_and_path(self, tmp_path, capsys, monkeypatch,
                                                           key):
        # it used to exit 2 with the bare OSError message, naming only the path
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        src = os.path.join(tmp_path, "nothere.gf")
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG.format(outdir=out).replace(f"{key} = zero", f"{key} = gridfile:{src}")
        assert run(["solve", "--config", write_config(tmp_path, body)]) == 2
        err = capsys.readouterr().err
        line = body.splitlines().index(f"{key} = gridfile:{src}") + 1
        assert err.startswith(f"config error: line {line}: {key}: malformed spec ")
        assert src in err and "No such file or directory" in err
        assert not os.path.exists(out)

    def test_unknown_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path))
        assert run(["frobnicate", "--config", cfg]) == 2

    @pytest.mark.parametrize("key", ["solver.damping = 0.3",
                                     "solver.drift_upwind_threshold = 0",
                                     "solver.eps_reg_start = 0.1"])
    def test_unknown_solver_key_reports_key_and_line(self, tmp_path, capsys, key):
        # a solve runs one stage at the floor eps, so no key sets a start
        out = os.path.join(tmp_path, "out")
        cfg = write_config(tmp_path, (BASE_CONFIG + key + "\n").format(outdir=out))
        assert run(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: line 12: unknown key {key.split(' =')[0]}; the solver reads "
            "solver.eps_reg_floor, solver.tol, solver.max_iter\n")
        assert not os.path.isdir(out) or not os.listdir(out)

    @pytest.mark.parametrize("entry, what", [
        *[(f"solver.tol = {v}", FINITE) for v in ("inf", "nan", "0", "-1")],
        *[(f"solver.eps_reg_floor = {v}", FINITE) for v in ("inf", "nan", "0", "-1", "-inf")],
        ("solver.max_iter = -1", "must be at least 0"),
    ])
    def test_bad_solver_setting_exits_two_before_solving(self, tmp_path, capsys,
                                                         monkeypatch, entry, what):
        # an infinite tol used to exit 0 after no Newton step
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG.replace("problem.p = 2.0", "problem.p = 3.0")
        cfg = write_config(tmp_path, (body + entry + "\n").format(outdir=out))
        assert run(["solve", "--config", cfg]) == 2
        key, value = entry.split(" = ")
        assert capsys.readouterr().err == f"config error: line 12: {key}: {what}, got {value!r}\n"
        assert not os.path.isdir(out) or not os.listdir(out)

    def test_base_box_too_narrow_for_its_offset_names_both_keys(self, tmp_path, capsys,
                                                                 monkeypatch):
        # linspace over a base side this narrow for its offset rounds to
        # unequal steps, which the grid's node count cannot resolve
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = set_entries(BASE_CONFIG.format(outdir=out),
                           "domain.base = 1e15,1.000000000000001e15")
        assert run(["solve", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err == (
            "config error: line 3: domain.base, line 10: grid.nodes: grid axes must be "
            "uniform, got '1e15,1.000000000000001e15', '13,13'\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, spec, command, why", [
        ("problem.f", "exp:1,2,3,4", "solve",
         "malformed spec 'exp:1,2,3,4' (4 values, at most 3 at n = 2)"),
        ("problem.f", "exp:1", "solve",
         "malformed spec 'exp:1' (exp: needs at least two values, c and q)"),
        ("problem.exact", "exp:1", "manufacture",
         "malformed spec 'exp:1' (exp: needs at least two values, c and q)"),
        ("problem.dirichlet", "constant:inf", "solve",
         "malformed spec 'constant:inf' (inf is not finite)"),
        ("problem.f", "cubic", "solve", "unknown field kind 'cubic'"),
        ("problem.exact", "gridfile:in.gf", "manufacture",
         "a gridfile has no derivatives for an exact solution"),
    ])
    def test_field_spec_rejection_names_key_and_line(self, tmp_path, capsys, monkeypatch,
                                                     key, spec, command, why):
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = set_entries(BASE_CONFIG.format(outdir=out), f"{key} = {spec}")
        assert run([command, "--config", write_config(tmp_path, body)]) == 2
        line = body.splitlines().index(f"{key} = {spec}") + 1
        assert capsys.readouterr().err == f"config error: line {line}: {key}: {why}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, entry, what", [
        *[("exhaust", f"exhaust.density = {v}", FINITE) for v in ("inf", "nan", "0", "-5")],
        ("exhaust", "exhaust.j_max = 1", "need at least two exhaustion stages"),
        *[("convolve", f"convolve.eps = {v}", FINITE) for v in ("inf", "nan", "0")],
    ])
    def test_bad_density_eps_or_j_max_exits_two_before_solving(
            self, tmp_path, capsys, monkeypatch, command, entry, what):
        # an infinite density crashed with exit 1, a zero one solved on
        # 5-node grids, and an infinite eps wrote Infinity into the JSON
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        monkeypatch.setattr("conepde.cli.read_gridfunction", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "convolve.input = missing.gf\n" + entry + "\n"
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run([command, "--config", cfg]) == 2
        key, value = entry.split(" = ")
        assert capsys.readouterr().err == f"config error: line 13: {key}: {what}, got {value!r}\n"
        assert not os.path.isdir(out) or not os.listdir(out)

    def test_bad_convolve_direction_exits_two_before_reading_input(
            self, tmp_path, capsys, monkeypatch):
        # an unknown direction used to leave an empty output dir behind
        monkeypatch.setattr("conepde.cli.read_gridfunction", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = (BASE_CONFIG + "convolve.eps = 0.05\nconvolve.input = missing.gf\n"
                "convolve.direction = bogus\n")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["convolve", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("config error: line 14: convolve.direction: "
                                           "must be inf or sup, got 'bogus'\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("entry", ["convolve.metric = log", "convolve.directon = sup"])
    def test_unknown_convolve_key_exits_two_before_reading_input(
            self, tmp_path, capsys, monkeypatch, entry):
        # a misspelt direction used to run the default inf-convolution without
        # a word, as the removed metric key would
        monkeypatch.setattr("conepde.cli.read_gridfunction", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "convolve.eps = 0.05\nconvolve.input = missing.gf\n" + entry + "\n"
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["convolve", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"config error: line 14: unknown key {entry.split(' =')[0]}; convolve reads "
            "convolve.direction, convolve.eps, convolve.input\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key, argv, text", NUMERIC_KEYS,
                             ids=[f"{key} {' '.join(argv)}" for key, argv, _ in NUMERIC_KEYS])
    def test_non_finite_number_exits_two_naming_key_and_line(
            self, tmp_path, capsys, monkeypatch, key, argv, text, value):
        # every numeric key the CLI reads; an infinite K0 used to pass verify
        # abp, and an infinite radius to fail an SVD after the solve
        for name in ("solve_dirichlet", "read_gridfunction", "estimate_g_condition"):
            monkeypatch.setattr(f"conepde.cli.{name}", refuse_solve)
        out = os.path.join(tmp_path, "out")
        entry = f"{key} = {text.format(value)}"
        lines = [line for line in BASE_CONFIG.format(outdir=out).splitlines()
                 if not line.startswith(key + " ")]
        body = "\n".join(lines + [entry, "convolve.input = in.gf"]) + "\n"
        assert run([*argv, "--config", write_config(tmp_path, body)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {len(lines) + 1}: {key}: ")
        assert err.endswith(f"got {text.format(value)!r}\n")
        assert not os.path.exists(out)

    def test_out_of_range_p(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path)
                           .replace("problem.p = 2.0", "problem.p = 1.5"))
        assert run(["solve", "--config", cfg]) == 2

    @pytest.mark.parametrize("key, spec, command", [
        ("problem.f", "constant:inf", "solve"),
        ("problem.dirichlet", "constant:nan", "solve"),
        ("problem.f", "exp:1,-inf", "solve"),
        ("problem.dirichlet", "poly:1,0;nan,1", "solve"),
        ("problem.exact", "tpower:nan", "manufacture"),
        ("problem.exact", "exp:1,inf", "convergence-study"),
    ])
    def test_non_finite_field_spec_number_exits_two_naming_key(
            self, tmp_path, capsys, monkeypatch, key, spec, command):
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = set_entries(BASE_CONFIG.format(outdir=out), f"{key} = {spec}")
        assert run([command, "--config", write_config(tmp_path, body)]) == 2
        err = capsys.readouterr().err
        line = body.splitlines().index(f"{key} = {spec}") + 1
        assert err.startswith(f"config error: line {line}: {key}: malformed spec {spec!r}")
        assert "is not finite" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("entry, line, key, command", [
        ("domain.t_min = 2", 4, "domain.t_min", "solve"),
        ("domain.t_min = 1", 4, "domain.t_min", "solve"),
        ("problem.p = 1.5", 7, "problem.p", "solve"),
        ("problem.p = 1.5", 7, "problem.p", "manufacture"),
        ("grid.nodes = 2,13", 10, "grid.nodes", "solve"),
        ("domain.base = 1,0", 3, "domain.base", "solve"),
        ("domain.k0 = 0", 5, "domain.k0", "solve"),
        ("domain.d0 = -1", 6, "domain.d0", "gcondition"),
        ("domain.n = 1", 2, "domain.n", "solve"),
        # a one-axis base at n = 3 names the base, which needs two axes
        ("domain.n = 3", 3, "domain.base", "solve"),
    ])
    def test_domain_problem_or_grid_rejection_names_key_and_line(
            self, tmp_path, capsys, monkeypatch, entry, line, key, command):
        for name in ("solve_dirichlet", "estimate_g_condition"):
            monkeypatch.setattr(f"conepde.cli.{name}", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = set_entries(BASE_CONFIG.format(outdir=out), entry)
        assert run([command, "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: line {line}: {key}: ")
        assert not os.path.exists(out)


class TestSolveCommand:
    def test_trivial_solve_writes_zero_field(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        cfg = write_config(tmp_path, BASE_CONFIG.format(outdir=out))
        assert run(["solve", "--config", cfg]) == 0
        u = read_gridfunction(os.path.join(out, "solution.gf"))
        np.testing.assert_array_equal(u.values, np.zeros((13, 13)))
        with open(os.path.join(out, "solve_report.json")) as fh:
            report = json.load(fh)
        assert report["converged"] is True
        assert "config_hash" in report
        assert "wall_time" not in report

    def test_solver_keys_reach_the_solve(self, tmp_path, monkeypatch):
        # the three keys make the solve's config, and the set floor is the
        # eps of its one stage
        record = SolveRecord()
        configs = []

        def solve(prob, grid, cfg=None, initial=None):
            configs.append(cfg)
            return record.solve(prob, grid, cfg, initial)

        monkeypatch.setattr("conepde.cli.solve_dirichlet", solve)
        out = os.path.join(tmp_path, "out")
        body = set_entries(BASE_CONFIG.format(outdir=out), "problem.p = 3.0",
                           "problem.f = exp:0.3,-3.0", "solver.eps_reg_floor = 1e-3",
                           "solver.tol = 1e-8", "solver.max_iter = 50")
        assert run(["solve", "--config", write_config(tmp_path, body)]) == 0
        assert configs == [SolverConfig(eps_reg_floor=1e-3, tol=1e-8, max_iter=50)]
        with open(os.path.join(out, "solve_report.json")) as fh:
            report = json.load(fh)
        assert report["converged"] is True
        assert [s["p"] for s in report["stages"]] == [3.0]

    def test_non_convergence_exits_with_three(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "solver.max_iter = 0\n"
        body = body.replace("problem.f = zero", "problem.f = constant:-1")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["solve", "--config", cfg]) == 3
        with open(os.path.join(out, "solve_report.json")) as fh:
            assert json.load(fh)["converged"] is False

    def test_nan_forcing_exits_three_without_outputs(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        # 0 e^(1000 x) is 0 inf = NaN wherever the exponential overflows
        body = BASE_CONFIG.replace("problem.f = zero", "problem.f = exp:0,0,1000")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["solve", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "solver error" in err and "NaN" in err
        assert not os.path.isdir(out) or not os.listdir(out)

    def test_overflowing_forcing_exits_three_naming_inf(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG.replace("problem.f = zero", "problem.f = exp:1,-800")
        cfg = write_config(tmp_path, body.format(outdir=out))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["solve", "--config", cfg]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "solver error" in err and "inf" in err and "RuntimeWarning" not in err
        assert not os.path.isdir(out) or not os.listdir(out)

    @pytest.mark.parametrize("p, code", [("2.0", 0), ("3.0", 2), ("4.0", 2)])
    def test_radial_step_beyond_peclet_bound_exits_two(self, tmp_path, capsys, p, code):
        # t_min = 1e-6 on three radial nodes: h_a = 6.9, above 2(p-1) when n != p
        out = os.path.join(tmp_path, "out")
        body = (BASE_CONFIG.replace("0.36787944117144233", "1e-6")
                .replace("problem.p = 2.0", f"problem.p = {p}")
                .replace("grid.nodes = 13,13", "grid.nodes = 3,5"))
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["solve", "--config", cfg]) == code
        if code:
            assert "Peclet" in capsys.readouterr().err
            assert not os.path.isdir(out) or not os.listdir(out)

    def test_solve_reports_are_deterministic(self, tmp_path):
        out1 = os.path.join(tmp_path, "o1")
        out2 = os.path.join(tmp_path, "o2")
        body = BASE_CONFIG.replace("problem.f = zero", "problem.f = constant:-1")
        c1 = write_config(tmp_path, body.format(outdir=out1), "a.cfg")
        c2 = write_config(tmp_path, body.format(outdir=out2), "b.cfg")
        assert run(["solve", "--config", c1]) == 0
        assert run(["solve", "--config", c2]) == 0
        assert read_bytes(os.path.join(out1, "solution.gf")) == read_bytes(
            os.path.join(out2, "solution.gf"))


class TestVerifyCommands:
    def test_comparison_passes_on_calibrated_pair(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "verify.margin = 0.4\n"
        body = body.replace("problem.f = zero", "problem.f = exp:0.3,-2.0")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["verify", "comparison", "--config", cfg]) == 0
        with open(os.path.join(out, "verify_comparison.json")) as fh:
            rep = json.load(fh)
        assert rep["verdict"] is True
        assert rep["comparison"]["violations"] == 0

    def test_abp_detects_corrupted_solution(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        os.makedirs(out)
        dom = ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0],
                         t_min=0.36787944117144233)
        grid = LogGrid.build(dom, (13, 13))
        A, X = grid.mesh
        bump = 0.5 * np.exp(-40.0 * ((A + 0.5) ** 2 + (X - 0.5) ** 2))
        corrupted = os.path.join(tmp_path, "bad.gf")
        write_gridfunction(corrupted, GridFunction(grid, bump))
        body = BASE_CONFIG + f"verify.solution = {corrupted}\n"
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["verify", "abp", "--config", cfg]) == 4

    def test_abp_passes_on_true_solution(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        cfg = write_config(tmp_path, BASE_CONFIG.format(outdir=out))
        assert run(["verify", "abp", "--config", cfg]) == 0

    def test_stored_solution_on_another_grid_rejected(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        stored = [
            ConeDomain(n=3, base_lo=[0.0, 0.0], base_hi=[1.0, 1.0],
                       t_min=0.36787944117144233),
            ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0], t_min=0.36787944117144233),
        ]
        for k, dom in enumerate(stored):
            grid = LogGrid.build(dom, (5,) * dom.n)
            path = os.path.join(tmp_path, f"stored{k}.gf")
            write_gridfunction(path, GridFunction(grid, np.zeros(grid.shape)))
            body = BASE_CONFIG + f"verify.solution = {path}\n"
            cfg = write_config(tmp_path, body.format(outdir=out), f"s{k}.cfg")
            assert run(["verify", "abp", "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert "line 12: verify.solution" in err
            assert str(grid.shape) in err and "(13, 13)" in err

    @pytest.mark.parametrize("check", ["abp", "hoelder"])
    def test_overflowing_forcing_on_stored_solution_exits_three(self, tmp_path, capsys,
                                                               check):
        # f = -t^-800 overflows on the two lowest radial rows; these checks
        # read the forcing of a stored field without solving, so they must
        # reject it themselves
        out = os.path.join(tmp_path, "out")
        grid = LogGrid.build(ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0],
                                        t_min=0.36787944117144233), (13, 13))
        stored = os.path.join(tmp_path, "stored.gf")
        write_gridfunction(stored, GridFunction(grid, np.zeros(grid.shape)))
        body = (BASE_CONFIG.replace("problem.f = zero", "problem.f = exp:-1,-800")
                + f"verify.solution = {stored}\n")
        cfg = write_config(tmp_path, body.format(outdir=out))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["verify", check, "--config", cfg]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "at 26 nodes (0 NaN, 26 inf)" in capsys.readouterr().err
        assert not os.path.isdir(out)

    @pytest.mark.parametrize("check, key", [("hoelder", "verify.rhos"),
                                            ("doubling", "verify.alphas")])
    def test_empty_list_key_exits_two_before_solving(self, tmp_path, capsys, monkeypatch,
                                                     check, key):
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        cfg = write_config(tmp_path, (BASE_CONFIG + f"{key} =\n").format(outdir=out))
        assert run(["verify", check, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line 12: ") and f"{key}: expected" in err
        assert not os.path.isdir(out)

    @pytest.mark.parametrize("entry", ["verify.rhos = 1.5", "verify.rhos = 0,0.5",
                                       "verify.rhos = nan", "verify.rho = 1.5",
                                       "verify.rho = 0"])
    def test_out_of_range_rho_exits_two_before_solving(self, tmp_path, capsys,
                                                       monkeypatch, entry):
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        cfg = write_config(tmp_path, (BASE_CONFIG + entry + "\n").format(outdir=out))
        assert run(["verify", "hoelder", "--config", cfg]) == 2
        err = capsys.readouterr().err
        key = entry.split(" =")[0]
        assert err.startswith(f"config error: line 12: {key}: ")
        assert "(0, 1]" in err
        assert not os.path.isdir(out)

    def test_rho_next_to_rhos_exits_two_before_solving(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "verify.rho = 1.5\nverify.rhos = 0.5,1\n"
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["verify", "hoelder", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line 12: verify.rho: ")
        assert "verify.rhos on line 13" in err
        assert not os.path.isdir(out)

    def test_slack_is_read_only_by_the_checks_that_use_it(self, tmp_path):
        # verify hoelder reads no slack, so a negative one is not its error;
        # it used to exit 2, since every check read verify.slack
        reports = []
        for k, extra in enumerate(["", "verify.slack = -1\n"]):
            out = os.path.join(tmp_path, f"out{k}")
            body = BASE_CONFIG.replace("problem.f = zero", "problem.f = constant:-1") + extra
            cfg = write_config(tmp_path, body.format(outdir=out), f"run{k}.cfg")
            assert run(["verify", "hoelder", "--config", cfg]) == 0
            with open(os.path.join(out, "verify_hoelder.json")) as fh:
                report = json.load(fh)
            with open(os.path.join(out, "verify_hoelder.csv")) as fh:
                table = fh.read().splitlines()[1:]  # after the config hash
            del report["config_hash"]
            reports.append((report, table))
        assert reports[0] == reports[1]
        assert reports[0][0]["sweep"][0]["ratio"] > 0.0

    @pytest.mark.parametrize("argv, entry, what", [
        (["verify", "weakform"], "verify.bumps = 0", "need at least one bump"),
        (["verify", "weakform"], "verify.bumps = -2", "need at least one bump"),
        (["convergence-study"], "study.levels = 0", "need at least one level"),
        (["verify", "doubling"], "verify.alphas = 1,0", ALPHAS),
        (["verify", "doubling"], "verify.alphas = -1", ALPHAS),
        (["verify", "doubling"], "verify.alphas = 10,nan", ALPHAS),
        # M_alpha must not grow along the list, so a decreasing list used
        # to fail a correct diagnostic with exit 4
        (["verify", "doubling"], "verify.alphas = 1000,1", ALPHAS),
        (["verify", "doubling"], "verify.alphas = 10,10", ALPHAS),
        (["verify", "comparison"], "verify.margin = 0", FINITE),
        (["verify", "comparison"], "verify.margin = -0.5", FINITE),
        (["verify", "comparison"], "verify.margin = nan", FINITE),
        (["verify", "doubling"], "verify.margin = 0", FINITE),
        (["verify", "oscillation"], "verify.radii = 0.3,0.15", RADII),
        (["verify", "oscillation"], "verify.radii = 0.1,0.2,0.3", RADII),
        (["verify", "oscillation"], "verify.radii = 0.3,0.15,0", RADII),
        (["verify", "oscillation"], "verify.ball = -0.5,0.5,0", BALL),
        (["verify", "harnack"], "verify.ball = -0.5,0.5,-0.1", ADMISSIBLE),
        (["verify", "weakharnack"], "verify.ball = -0.5,0.5,nan", ADMISSIBLE),
        (["verify", "oscillation"], "verify.ball = -0.5,0.5", BALL),
        (["verify", "harnack"], "verify.ball = -0.5,0.5,5.0", ADMISSIBLE),
        (["verify", "weakharnack"], "verify.ball = -0.5,0.5,5.0", ADMISSIBLE),
        # a non-finite centre used to exit 2 naming no key, and an infinite
        # radius to crash the oscillation check's default radii
        *[(["verify", check], f"verify.ball = {ball}",
           BALL if check == "oscillation" else ADMISSIBLE)
          for check in ("harnack", "weakharnack", "oscillation")
          for ball in ("nan,0.5,0.3", "-0.5,inf,0.3", "-inf,0.5,0.3", "-0.5,0.5,inf")],
        # a non-finite slack, reference constant or tolerance used to give a
        # vacuous verdict (exit 0) or an unnamed failure
        *[(["verify", "comparison"], f"verify.slack = {v}", NONNEGATIVE)
          for v in ("nan", "inf", "-inf", "-1e-3")],
        *[(["verify", "abp"], f"verify.c_ref = {v}", NONNEGATIVE)
          for v in ("nan", "inf", "-1")],
        *[(["verify", "weakform"], f"verify.weakform_tol = {v}", NONNEGATIVE)
          for v in ("nan", "inf", "-1")],
        (["gcondition"], "verify.samples = 0", "need at least one sample"),
    ])
    def test_vacuous_or_out_of_range_entry_exits_two_before_solving(
            self, tmp_path, capsys, monkeypatch, argv, entry, what):
        # no bumps, no study levels or a zero margin would report a vacuous pass
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        monkeypatch.setattr("conepde.cli.estimate_g_condition", refuse_solve)
        out = os.path.join(tmp_path, "out")
        cfg = write_config(tmp_path, (BASE_CONFIG + entry + "\n").format(outdir=out))
        assert run([*argv, "--config", cfg]) == 2
        key, value = entry.split(" = ")
        assert capsys.readouterr().err == f"config error: line 12: {key}: {what}, got {value!r}\n"
        assert not os.path.isdir(out)

    @pytest.mark.parametrize("check", ["harnack", "weakharnack"])
    def test_inadmissible_default_ball_exits_two_before_solving(self, tmp_path, capsys,
                                                                monkeypatch, check):
        # a third of the shortest extent, 12, exceeds K0 d0 + 1 = 3
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        t_min = f"domain.t_min = {math.exp(-12.0)!r}"
        body = (BASE_CONFIG.replace("domain.base = 0,1", "domain.base = 0,12")
                .replace("domain.t_min = 0.36787944117144233", t_min))
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["verify", check, "--config", cfg]) == 2
        assert capsys.readouterr().err == (f"config error: verify.ball: {ADMISSIBLE}, "
                                           "got the default -6,6,4\n")
        assert not os.path.isdir(out)

    def test_degenerate_default_radii_exit_two_before_solving(self, tmp_path, capsys,
                                                              monkeypatch):
        # the default radii d, d/2, d/4 of a ball radius whose halves round to
        # 0 used to crash with a KeyError on the unset verify.radii
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "verify.ball = -0.5,0.5,5e-324\n"
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["verify", "oscillation", "--config", cfg]) == 2
        assert capsys.readouterr().err == (f"config error: verify.radii: {RADII}, "
                                           "got the default 4.94066e-324,0,0\n")
        assert not os.path.isdir(out)

    def test_oscillation_accepts_a_ball_beyond_k0_d0_plus_one(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_dirichlet(*args, **kwargs)

        monkeypatch.setattr("conepde.cli.solve_dirichlet", counted)
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "verify.ball = -0.5,0.5,5.0\nverify.radii = 0.3,0.15,0.075\n"
        assert run(["verify", "oscillation", "--config",
                    write_config(tmp_path, body.format(outdir=out))]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("p0s", ["0.5,1.5", "0", "-0.5"])
    def test_out_of_range_p0_exits_two_before_solving(self, tmp_path, capsys, monkeypatch,
                                                      p0s):
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        cfg = write_config(tmp_path, (BASE_CONFIG + f"verify.p0s = {p0s}\n").format(outdir=out))
        assert run(["verify", "weakharnack", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line 12: verify.p0s: ")
        assert "p0 values must lie in (0, 1]" in err
        assert not os.path.isdir(out)

    @pytest.mark.parametrize("check", ["harnack", "weakharnack"])
    def test_ball_leaving_the_grid_exits_two_before_solving(self, tmp_path, capsys,
                                                             monkeypatch, check):
        # weakharnack used to exit 0 with inf = 0 read off the boundary nodes,
        # and both checks used to solve first and then name neither the key
        # nor its line
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        body = (BASE_CONFIG.replace("domain.t_min = 0.36787944117144233", "domain.t_min = 0.2")
                .replace("problem.p = 2.0", "problem.p = 3.0")
                .replace("problem.f = zero", "problem.f = constant:-1")
                .replace("grid.nodes = 13,13", "grid.nodes = 17,17")
                + "verify.ball = -0.1,0.9,0.3\n")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["verify", check, "--config", cfg]) == 2
        assert capsys.readouterr().err == ("config error: line 12: verify.ball: the ball is "
                                           "not compactly contained in the grid\n")
        assert not os.path.isdir(out)

    @pytest.mark.parametrize("argv, key, value", [
        (["verify", "hoelder"], "verify.rhos", "0.5,,1"),
        (["verify", "hoelder"], "verify.rhos", "0.5,1,"),
        (["verify", "doubling"], "verify.alphas", "1,,10"),
        (["verify", "doubling"], "verify.alphas", "1,10,"),
        (["solve"], "grid.nodes", "13,,13"),
        (["solve"], "grid.nodes", "13,13,"),
    ])
    def test_empty_list_entry_exits_two_before_solving(self, tmp_path, capsys, monkeypatch,
                                                       argv, key, value):
        monkeypatch.setattr("conepde.cli.solve_dirichlet", refuse_solve)
        out = os.path.join(tmp_path, "out")
        entry = f"{key} = {value}"
        body = (BASE_CONFIG.replace("grid.nodes = 13,13", entry) if key == "grid.nodes"
                else BASE_CONFIG + entry + "\n")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run([*argv, "--config", cfg]) == 2
        err = capsys.readouterr().err
        line = body.splitlines().index(entry) + 1
        assert err.startswith(f"config error: line {line}: {key}: ")
        assert not os.path.isdir(out)

    def test_shifted_pair_reads_stored_solution(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_dirichlet(*args, **kwargs)

        monkeypatch.setattr("conepde.cli.solve_dirichlet", counted)
        body = BASE_CONFIG.replace("problem.f = zero", "problem.f = exp:0.3,-2.0")
        solved = os.path.join(tmp_path, "solved")
        assert run(["solve", "--config", write_config(
            tmp_path, body.format(outdir=solved), "solve.cfg")]) == 0
        stored_body = body + f"verify.solution = {os.path.join(solved, 'solution.gf')}\n"
        for check in ("doubling", "comparison"):
            outputs = []
            for label, text, solves in (("fresh", body, 2), ("stored", stored_body, 1)):
                out = os.path.join(tmp_path, label)
                cfg = write_config(tmp_path, text.format(outdir=out), f"{label}.cfg")
                calls.clear()
                assert run(["verify", check, "--config", cfg]) == 0
                assert len(calls) == solves
                # the stored and fresh configs differ, so do their hashes
                outputs.append([[line for line in read_bytes(
                    os.path.join(out, f"verify_{check}.{ext}")).splitlines()
                    if b"config_hash" not in line] for ext in ("json", "csv")])
            assert outputs[0] == outputs[1]

    def test_random_stored_field_falls_back_to_the_cold_solve(self, tmp_path, monkeypatch):
        # the warm stage from a random supersolution does not converge in
        # the 8 Newton steps allowed, and the cold solve that follows is the
        # one a solve without a start runs: every output and exit code
        # equals that of a cold shifted solve
        monkeypatch.chdir(tmp_path)
        grid = LogGrid.build(ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0],
                                        t_min=0.36787944117144233), (13, 13))
        noise = np.random.default_rng(0).standard_normal(grid.shape)
        write_gridfunction("random.gf", GridFunction(grid, np.where(grid.boundary_mask, 0.0,
                                                                    noise)))
        body = set_entries(BASE_CONFIG.format(outdir="out"), "problem.p = 3.0",
                           "problem.f = exp:0.3,-3.0", "verify.solution = random.gf",
                           "solver.max_iter = 8")
        cfg = write_config(tmp_path, body)
        for check, code in (("doubling", 0), ("comparison", 4)):
            outputs = []
            warm, cold = SolveRecord(), SolveRecord(cold=True)
            for record in (warm, cold):
                monkeypatch.setattr("conepde.cli.solve_dirichlet", record.solve)
                assert run(["verify", check, "--config", cfg]) == code
                outputs.append([read_bytes(f"out/verify_{check}.{ext}") for ext in ("json", "csv")])
            assert outputs[0] == outputs[1]
            # the stored supersolution leaves the shifted solve the only one
            (_, report), = warm
            assert report.stages[0].stop_reason != "converged"
            assert report.stages[1:] == cold[0][1].stages

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_warm_shifted_pair_matches_the_cold_one(self, tmp_path, monkeypatch, p):
        # one floor-eps stage from the stored supersolution reaches the
        # subsolution the cold continuation reaches, to the solver tolerance
        monkeypatch.chdir(tmp_path)
        body = set_entries(BASE_CONFIG.format(outdir="out"), f"problem.p = {p}",
                           f"problem.f = exp:0.3,-{p}", "grid.nodes = 21,21")
        assert run(["solve", "--config", write_config(tmp_path, body, "solve.cfg")]) == 0
        cfg = write_config(tmp_path, body + "verify.solution = out/solution.gf\n")
        for check in ("comparison", "doubling"):
            results = []
            warm = SolveRecord()
            for record in (warm, SolveRecord(cold=True)):
                monkeypatch.setattr("conepde.cli.solve_dirichlet", record.solve)
                code = run(["verify", check, "--config", cfg])
                with open(f"out/verify_{check}.json") as fh:
                    results.append((code, json.load(fh)))
            (_, report), = warm
            assert [s.stop_reason for s in report.stages] == ["converged"]
            (code_w, warm_report), (code_c, cold_report) = results
            assert code_w == code_c == 0
            if check == "comparison":
                assert (warm_report["comparison"]["violations"]
                        == cold_report["comparison"]["violations"] == 0)
                gaps = [warm_report["comparison"]["worst_gap"],
                        cold_report["comparison"]["worst_gap"]]
            else:
                gaps = [[d["M_alpha"] for d in r["diagnostics"]]
                        for r in (warm_report, cold_report)]
            # the two subsolutions differ by at most 10 solver tolerances
            np.testing.assert_allclose(*gaps, rtol=0.0, atol=1e-8)

    def test_failed_shifted_solve_names_its_last_stage(self, tmp_path, monkeypatch, capsys):
        # with no Newton step allowed the warm stage fails, the cold solve
        # after it too, and the error names the p of the stage that ended it
        monkeypatch.chdir(tmp_path)
        grid = LogGrid.build(ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0],
                                        t_min=0.36787944117144233), (13, 13))
        write_gridfunction("zero.gf", GridFunction(grid, np.zeros(grid.shape)))
        body = set_entries(BASE_CONFIG.format(outdir="out"), "problem.p = 3.0",
                           "problem.f = exp:0.3,-3.0", "solver.max_iter = 0",
                           "verify.solution = zero.gf")
        record = SolveRecord()
        monkeypatch.setattr("conepde.cli.solve_dirichlet", record.solve)
        assert run(["verify", "comparison", "--config", write_config(tmp_path, body)]) == 3
        assert capsys.readouterr().err.startswith(
            "solver error: solver failed to converge: the last stage, at p 3, "
            "stopped on max_iter at residual ")
        (_, report), = record
        assert [(s.p, s.iterations, s.stop_reason) for s in report.stages[:1]] == [
            (3.0, 0, "max_iter")]
        assert len(report.stages) > 1 and report.stages[-1].p == 3.0
        assert not os.path.exists("out")

    def test_subsolution_from_the_prolonged_solution_is_the_cold_one(self, tmp_path,
                                                                       monkeypatch):
        # the verify-2d problem (p = 3, t^p f = 0.3, zero data) at 81^2:
        # Newton from the cubic prolongation of the 41^2 solution reaches
        # the field of the default start, min u -0.1023 (there were two,
        # -0.1028 and -0.1227, while the coefficient missed spikes).  With
        # it stored, the subsolution started from it is the cold one, min
        # u -0.1670, to 10 solver tolerances, and the comparison check sees
        # no violation
        monkeypatch.chdir(tmp_path)
        domain = ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0], t_min=0.36787944117144233)
        prob = PDEProblem(p=3.0, f=separable_exponential_field(0.3, -3.0, []),
                          dirichlet=constant_field(0.0))
        coarse, grid = (LogGrid.build(domain, (m, m)) for m in (41, 81))
        u_coarse, _ = solve_dirichlet(prob, coarse)
        cubic = RegularGridInterpolator(coarse.axes, u_coarse.values, method="cubic")
        start = GridFunction(grid, cubic(grid.log_points).reshape(grid.shape))
        branch, rep = solve_dirichlet(prob, grid, initial=start)
        assert rep.converged and len(rep.stages) == 1
        assert round(branch.values.min(), 4) == -0.1023
        write_gridfunction("branch.gf", branch)
        body = set_entries(BASE_CONFIG.format(outdir="out"), "problem.p = 3.0",
                           "problem.f = exp:0.3,-3.0", "grid.nodes = 81,81",
                           "verify.solution = branch.gf")
        cfg = write_config(tmp_path, body)
        subs = []
        for record in (SolveRecord(), SolveRecord(cold=True)):
            monkeypatch.setattr("conepde.cli.solve_dirichlet", record.solve)
            assert run(["verify", "comparison", "--config", cfg]) == 0
            with open("out/verify_comparison.json") as fh:
                assert json.load(fh)["comparison"]["violations"] == 0
            # the stored supersolution leaves the shifted solve the only one
            (u_sub, _), = record
            subs.append(u_sub.values)
        assert round(subs[0].min(), 4) == -0.1670
        assert np.max(np.abs(subs[0] - subs[1])) <= 10.0 * SolverConfig().tol

    def test_infinite_constants_are_written_as_strict_json(self, tmp_path):
        # on a zero field every weak Harnack constant is infinite, which used
        # to be written as the bare token Infinity that strict parsers reject
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG.replace("problem.p = 2.0", "problem.p = 3.0")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["verify", "weakharnack", "--config", cfg]) == 4
        with open(os.path.join(out, "verify_weakharnack.json")) as fh:
            rows = json.load(fh, parse_constant=reject_constant)["rows"]
        assert [(r["C_emp_minus"], r["C_emp_plus"]) for r in rows] == [("inf", "inf")] * 4

    def test_weakform_verdict(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG.replace("problem.f = zero", "problem.f = constant:-1")
        body = body.replace("grid.nodes = 13,13", "grid.nodes = 21,21")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["verify", "weakform", "--config", cfg]) == 0

    def test_doubling_verdict_and_csv(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG.replace("problem.f = zero", "problem.f = exp:0.3,-2.0")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["verify", "doubling", "--config", cfg]) == 0
        with open(os.path.join(out, "verify_doubling.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "alpha,M_alpha,penalty,diagonal_gap"
        assert len(lines) == 6


def test_write_json_maps_every_non_finite_float_to_its_string(tmp_path):
    path = os.path.join(tmp_path, "report.json")
    write_json(path, {"values": [np.float64("nan"), np.float32("inf"), -math.inf,
                                 np.array([math.nan, 1.5])]}, "hash")
    with open(path) as fh:
        report = json.load(fh, parse_constant=reject_constant)
    assert report["values"] == ["nan", "inf", "-inf", ["nan", 1.5]]


class TestOtherCommands:
    def test_gcondition_deterministic(self, tmp_path):
        out1 = os.path.join(tmp_path, "g1")
        out2 = os.path.join(tmp_path, "g2")
        c1 = write_config(tmp_path, BASE_CONFIG.format(outdir=out1), "g1.cfg")
        c2 = write_config(tmp_path, BASE_CONFIG.format(outdir=out2), "g2.cfg")
        assert run(["--seed", "7", "gcondition", "--config", c1]) == 0
        assert run(["--seed", "7", "gcondition", "--config", c2]) == 0
        r1 = json.loads(read_bytes(os.path.join(out1, "gcondition_report.json")))
        r2 = json.loads(read_bytes(os.path.join(out2, "gcondition_report.json")))
        assert r1["sigma_est"] == r2["sigma_est"]
        assert r1["sigma_est"] > 0.0

    def test_manufacture_writes_fields(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "problem.exact = quadratic\n"
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["manufacture", "--config", cfg]) == 0
        exact = read_gridfunction(os.path.join(out, "exact.gf"))
        forcing = read_gridfunction(os.path.join(out, "forcing.gf"))
        A = exact.grid.mesh[0]
        np.testing.assert_allclose(forcing.values, 4.0 * np.exp(-2.0 * A), rtol=1e-12)

    def test_exhaust_and_csv(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "exhaust.j_max = 3\nexhaust.density = 10\n"
        body = body.replace("domain.t_min = 0.36787944117144233",
                            "domain.t_min = 0.001")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["exhaust", "--config", cfg]) == 0
        assert os.path.exists(os.path.join(out, "exhaust_u3.gf"))
        with open(os.path.join(out, "exhaust_report.json")) as fh:
            rep = json.load(fh)
        assert rep["monotone"] is True

    def test_exhaust_failure_exits_three_without_outputs(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "solver.max_iter = 0\n"
        body = body.replace("problem.f = zero", "problem.f = constant:-1")
        body = body.replace("domain.t_min = 0.36787944117144233",
                            "domain.t_min = 0.001")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["exhaust", "--config", cfg]) == 3
        assert "failed to converge" in capsys.readouterr().err
        assert not os.path.isdir(out) or not any(
            name.startswith("exhaust_") for name in os.listdir(out))

    @pytest.mark.parametrize("argv, entries, code", [
        (["convolve"], ["convolve.eps = 0.05", "convolve.input = in.gf"], 2),
        (["verify", "abp"], ["solver.max_iter = 0"], 3),
        (["exhaust"], ["solver.max_iter = 0", "domain.t_min = 0.001"], 3),
    ])
    def test_error_raised_in_command_creates_no_output_dir(self, tmp_path, monkeypatch,
                                                           argv, entries, code):
        # convolve's kernel fails after its input is read
        def fail(*args, **kwargs):
            raise ValueError("kernel failure")

        monkeypatch.setattr("conepde.cli.inf_convolution", fail)
        monkeypatch.chdir(tmp_path)
        grid = LogGrid.build(ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0],
                                        t_min=0.36787944117144233), (13, 13))
        write_gridfunction("in.gf", GridFunction(grid, np.ones(grid.shape)))
        body = set_entries(BASE_CONFIG.format(outdir="out"), "problem.f = constant:-1",
                           *entries)
        assert run([*argv, "--config", write_config(tmp_path, body)]) == code
        assert not os.path.exists("out")

    def test_convolve_round_trip(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        dom = ConeDomain(n=2, base_lo=[0.0], base_hi=[1.0],
                         t_min=0.36787944117144233)
        grid = LogGrid.build(dom, (13, 13))
        rng = np.random.default_rng(0)
        src = os.path.join(tmp_path, "in.gf")
        write_gridfunction(src, GridFunction(grid, rng.standard_normal(grid.shape)))
        body = BASE_CONFIG + f"convolve.direction = inf\nconvolve.eps = 0.05\nconvolve.input = {src}\n"
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["convolve", "--config", cfg]) == 0
        conv = read_gridfunction(os.path.join(out, "convolved.gf"))
        orig = read_gridfunction(src)
        assert np.all(conv.values <= orig.values + 1e-14)

    def test_convergence_study_csv(self, tmp_path):
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "study.levels = 2\nproblem.exact = auto\n"
        body = body.replace("grid.nodes = 13,13", "grid.nodes = 9,9")
        body = body.replace("problem.p = 2.0", "problem.p = 3.0")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["convergence-study", "--config", cfg]) == 0
        with open(os.path.join(out, "convergence.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[1] == "h,max_error,order"
        assert len(lines) == 4

    @pytest.mark.parametrize("p", ["2.0", "3.0"])
    def test_convergence_study_x_dependent_exact(self, tmp_path, p):
        # u* = t^0.5 e^(0.7 x) from the exp family, which has exact derivatives
        out = os.path.join(tmp_path, "out")
        body = BASE_CONFIG + "study.levels = 3\nproblem.exact = exp:1,0.5,0.7\n"
        body = body.replace("grid.nodes = 13,13", "grid.nodes = 9,9")
        body = body.replace("problem.p = 2.0", f"problem.p = {p}")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run(["convergence-study", "--config", cfg]) == 0
        with open(os.path.join(out, "convergence_report.json")) as fh:
            rows = json.load(fh)["rows"]
        assert len(rows) == 3 and all(r["order"] >= 1.9 for r in rows[1:])


class TestByteDeterminism:
    @pytest.mark.parametrize("command", [
        ["solve"], ["manufacture"], ["gcondition"],
        ["verify", "abp"], ["verify", "hoelder"], ["verify", "oscillation"],
    ])
    def test_rerun_byte_identical(self, tmp_path, monkeypatch, command):
        # identical config text, run twice from separate working directories
        body = BASE_CONFIG.replace("problem.f = zero", "problem.f = constant:-1")
        body = (body + "problem.exact = auto\n").format(outdir="out")
        cfg = write_config(tmp_path, body)
        outs = []
        for tag in ("r1", "r2"):
            workdir = os.path.join(tmp_path, tag)
            os.makedirs(workdir)
            monkeypatch.chdir(workdir)
            assert run(["--seed", "3", *command, "--config", cfg]) == 0
            outs.append(os.path.join(workdir, "out"))
        for name in sorted(os.listdir(outs[0])):
            if name.endswith("_meta.json"):
                continue
            b1 = read_bytes(os.path.join(outs[0], name))
            b2 = read_bytes(os.path.join(outs[1], name))
            assert b1 == b2, f"{name} differs between reruns"


def key_tree(obj):
    """The keys of a JSON report: nested dicts keep their keys, a list of
    objects is represented by its first element, every other value by None."""
    if isinstance(obj, dict):
        return {k: key_tree(v) for k, v in obj.items()}
    if isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        return [key_tree(obj[0])]
    return None


ABP_KEYS = dict.fromkeys(["variant", "interior_sup_vplus", "boundary_sup_vplus", "forcing",
                          "geometry_factor", "C_emp", "forcing_zero",
                          "bottom_face_active", "vacuous"])
VERIFY_KEYS = dict.fromkeys(["check", "seed", "verdict", "config_hash"])


class TestReportSchema:
    """The JSON key tree and CSV header of every report on the base grid."""

    @pytest.mark.parametrize("command, keys, header", [
        (["solve"], {"config_hash": None, "converged": None, "final_residual": None,
                     "stages": [dict.fromkeys(["p", "iterations", "residual_norm",
                                               "stop_reason", "factorizations",
                                               "krylov_iterations"])]}, None),
        (["verify", "abp"], {**VERIFY_KEYS, "subsolution": ABP_KEYS,
                             "two_sided": ABP_KEYS}, "quantity,value"),
        (["verify", "hoelder"],
         {**VERIFY_KEYS, "sweep": [dict.fromkeys(["rho", "norm", "forcing", "ratio",
                                                  "vacuous", "inconsistent"])]},
         "rho,norm,forcing,ratio"),
        (["verify", "harnack"],
         {**VERIFY_KEYS, "harnack": dict.fromkeys(["sup", "inf", "forcing", "C_emp"])},
         "sup,inf,forcing,C_emp"),
        (["verify", "weakharnack"],
         {**VERIFY_KEYS, "rows": [dict.fromkeys(["p0", "mean", "inf", "C_emp_minus",
                                                 "C_emp_plus"])]},
         "p0,mean,inf,C_emp_minus,C_emp_plus"),
        (["verify", "oscillation"],
         {**VERIFY_KEYS, "oscillation": {"rows": [dict.fromkeys(["radius", "oscillation"])],
                                         "exponent": None, "vacuous": None}},
         "radius,oscillation"),
        (["verify", "comparison"],
         {**VERIFY_KEYS, "comparison": dict.fromkeys(["violations", "worst_gap",
                                                      "location"])},
         "violations,worst_gap"),
        (["verify", "doubling"],
         {**VERIFY_KEYS, "diagnostics": [{"alpha": None, "M_alpha": None,
                                          "argmax_pair": [None], "penalty": None,
                                          "diagonal_gap": None}]},
         "alpha,M_alpha,penalty,diagonal_gap"),
        (["verify", "weakform"],
         {**VERIFY_KEYS, "max_residual": None, "tolerance": None,
          "tests": [dict.fromkeys(["center", "widths", "residual",
                                   "residual_divergence_form", "form_gap"])]},
         "residual,residual_divergence_form,form_gap"),
    ])
    def test_json_keys_and_csv_header(self, tmp_path, command, keys, header):
        out = os.path.join(tmp_path, "out")
        if command[-1] in ("comparison", "doubling"):
            body = BASE_CONFIG + "verify.margin = 0.4\n"
            body = body.replace("problem.f = zero", "problem.f = exp:0.3,-2.0")
        else:
            body = BASE_CONFIG.replace("problem.f = zero", "problem.f = constant:-1")
        cfg = write_config(tmp_path, body.format(outdir=out))
        assert run([*command, "--config", cfg]) == 0
        stem = os.path.join(out, "solve_report" if command == ["solve"]
                            else f"verify_{command[1]}")
        with open(stem + ".json") as fh:
            assert key_tree(json.load(fh)) == keys
        if header is not None:
            with open(stem + ".csv") as fh:
                lines = fh.read().splitlines()
            assert lines[0].startswith("# config_hash=")
            assert lines[1] == header


# the tracer patches these by name; a target that no longer resolves drops
# its spans and per-layer figures without an error.  _subsample_flat left
# calculus when the Hoelder norm became exact, and the tracer still lists it
STALE_TRACER_TARGETS = {("conepde.calculus", "_subsample_flat")}


def test_benchmark_tracer_targets_resolve():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = {(module, attr) for module, attr, _ in spans.TARGETS}
    assert STALE_TRACER_TARGETS <= targets
    missing = {(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == STALE_TRACER_TARGETS


def test_stored_forcing_solve_loads_no_interpolation(tmp_path):
    # a gridfile: forcing read on the nodes it was stored on is gathered by
    # index, so the CLI solve of a manufactured check never imports
    # scipy.interpolate, which only an off-node read needs
    src = os.path.dirname(os.path.dirname(importlib.import_module("conepde.cli").__file__))
    out = os.path.join(tmp_path, "out")
    body = set_entries(BASE_CONFIG.format(outdir=out), "problem.p = 3.0",
                       "problem.exact = tpower:0.4")
    assert run(["manufacture", "--config", write_config(tmp_path, body, "m.cfg")]) == 0
    body = set_entries(body, f"problem.f = gridfile:{os.path.join(out, 'forcing.gf')}",
                       "problem.dirichlet = tpower:0.4")
    probe = ("import sys; from conepde import cli; code = cli.run(sys.argv[1:]); "
             "print(code, 'scipy.interpolate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe, "solve", "--config",
                           write_config(tmp_path, body)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"
    with open(os.path.join(out, "solve_report.json")) as fh:
        assert json.load(fh)["converged"]


def test_non_factorizing_commands_load_no_scipy(tmp_path):
    # every command line is a fresh interpreter; manufacture, a p = 2 solve
    # in 2D and 3D and verify abp on a stored field factorize nothing, so
    # none of them imports scipy; a cold p = 3 solve applies its Jacobians
    # as numpy stencil operators and takes only fast-diagonalization GMRES
    # cycles, so it loads no scipy module either, nor does the cold
    # zero-data solve of the verify-2d family (p = 3, t^p f = 0.3) on 41^2,
    # whose row-scaled preconditioner serves every step; the warm shifted
    # pair of verify doubling factorizes at its first step and loads
    # scipy.sparse and scipy.sparse.linalg
    src = os.path.dirname(os.path.dirname(importlib.import_module("conepde.cli").__file__))

    def config(outdir, *entries):
        return set_entries(BASE_CONFIG.format(outdir=os.path.join(tmp_path, outdir)), *entries)

    stored = os.path.join(tmp_path, "plane", "solution.gf")
    p3 = ("problem.p = 3.0", "problem.f = constant:-1")
    stored_p3 = f"verify.solution = {os.path.join(tmp_path, 'p3', 'solution.gf')}"
    runs = [(["manufacture"], config("made", "problem.exact = tpower:0.4"), set()),
            (["solve"], config("plane"), set()),
            (["solve"], config("solid", "domain.n = 3", "domain.base = 0,1;0,1",
                               "grid.nodes = 9,9,9"), set()),
            (["verify", "abp"], config("plane", f"verify.solution = {stored}"), set()),
            (["solve"], config("p3", *p3), set()),
            (["solve"], config("zero", "problem.p = 3.0", "problem.f = exp:0.3,-3.0",
                               "grid.nodes = 41,41"), set()),
            (["verify", "doubling"], config("p3", *p3, stored_p3),
             {"scipy.sparse", "scipy.sparse.linalg"})]
    probe = ("import sys; from conepde import cli; code = cli.run(sys.argv[1:]); "
             "print(code, [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    for argv, text, sparse in runs:
        done = subprocess.run([sys.executable, "-c", probe, *argv, "--config",
                               write_config(tmp_path, text)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True)
        code, loaded = done.stdout.splitlines()[-1].split(" ", 1)
        assert code == "0", argv
        if sparse:
            assert {m for m in ("scipy.sparse", "scipy.sparse.linalg")
                    if f"'{m}'" in loaded} == sparse, argv
        else:
            assert loaded == "[]", argv
    for outdir in ("plane", "solid", "p3", "zero"):
        with open(os.path.join(tmp_path, outdir, "solve_report.json")) as fh:
            assert json.load(fh)["converged"], outdir


def test_each_module_is_its_own_import():
    # the package re-exports nothing, so importing one module loads only
    # what that module imports: geometry needs numpy alone, and no module,
    # the solver and the CLI included, loads scipy at import.  Each
    # module's __all__ is the one declaration of its public names
    src = os.path.dirname(os.path.dirname(importlib.import_module("conepde.geometry").__file__))

    def loaded(module):
        probe = (f"import sys, conepde.{module}; print(sorted(m for m in sys.modules"
                 " if m == 'scipy' or m.startswith(('scipy.', 'conepde.'))))")
        return subprocess.run([sys.executable, "-c", probe],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, check=True).stdout

    assert loaded("geometry") == "['conepde.geometry']\n"
    for name in ("calculus", "operators", "regularization", "analysis", "solver", "cli"):
        assert "scipy" not in loaded(name), name
    for name in ("geometry", "calculus", "operators", "solver", "regularization", "analysis"):
        module = importlib.import_module(f"conepde.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == []
