"""CLI output parity between two source trees of conepde.

    python tools/cli_parity.py OLD_SRC NEW_SRC

Runs every subcommand and verify check on the same configs with each tree's
``src/`` directory (OLD_SRC and NEW_SRC) on PYTHONPATH, each command in a
fresh working directory with relative input and output paths, so both sides
see identical config text and hence identical config hashes.  The first
83 cases are the fourteen commands of the determinism acceptance test at p = 2, 3
and 4 (p = 4 covers the solves above p = 3), ``verify harnack``,
``weakharnack`` and ``oscillation`` on an explicit off-centre ball whose a
does not survive exp/log, a ``solve`` whose data vary
in x (``poly:`` Dirichlet data and forcing), ``convolve`` in both
directions, ``verify abp`` and ``hoelder`` on a
stored random field, ``verify comparison`` and ``doubling`` on the stored
``solve`` output of their own config (a case of two commands run in turn),
the solver-failure paths (``solver.max_iter = 0``), a solve on a radial grid
too coarse for the mesh Peclet bound, and a 9^3 solve with n = 3 at p = 2
and 3, which covers the 3D fast linear solve and the 3D presolve.  A 9^3
zero-data solve at p = 4 with f = 0.5 follows, a 3D solve whose steps all
take the fast-diagonalization GMRES cycle and never factorize.  Five
cases at p = 3 follow: ``verify hoelder``, ``verify doubling`` and
``convolve`` in both directions (at eps = 0.005, where each min-plus pass
reads a window narrower than its axis) on a stored random 9^3 field, and
``verify doubling`` on its own solve with ``verify.alphas = 1000,1``, a
config error since the verdict asks M_alpha not to grow along the list.
Fifteen more cases at p = 3 each give one key that the cases above leave at its
default another valid value (the ten verify keys ``rho``, ``rhos``, ``p0s``,
``alphas``, ``margin``, ``c_ref``, ``slack``, ``bumps``, ``weakform_tol``
and ``samples``, ``solver.max_iter``, the two float ``solver.*`` keys and
``convolve.direction = SUP``), or drop ``verify.radii`` so that ``verify
oscillation`` reads its default radii.  Three more cases at p = 3 run on
the shortest axes, where every node of an axis lies in the reach of a
face stencil: a ``solve`` and ``verify abp`` on ``grid.nodes = 4,5`` and
an n = 3 ``solve`` on ``grid.nodes = 3,4,5``.  One ``solve`` at p = 4 on
a radial step of 2.5 over a base of width 8 has a p = 2 presolve whose
radial rows pivot (|n-p| h_a = 5), and one at p = 6 on the base config
goes up the ladder in p, through a rung at p = 4.  The last 23 cases, at p = 3,
reach every field-spec kind: six solves set ``problem.f`` and
``problem.dirichlet`` to ``zero``, ``constant``, ``tpower``, ``logt``,
``quadratic``, ``exp`` with a k and ``gridfile:src.gf``, one more reads
both from ``coarse.gf``, stored on a 9x9 grid, at 17x17, so most of its
nodes fall between the stored ones and are interpolated, and
``manufacture`` and ``convergence-study`` each run with a ``problem.exact``
of every kind other than ``auto`` (a gridfile one exits 2).  The stored
fields ``src.gf``, ``coarse.gf`` and ``solid.gf`` are written by OLD_SRC's
writer, so that both trees read them.  Every JSON and CSV output must be
byte-identical, and every ``.gf`` output value-identical: read by
NEW_SRC's reader, which reads either file format, both sides' files hold
the same header fields and the same value bits.  The exit codes of every
command, the set of meta files and whether ``output.dir`` exists
afterwards must agree.  Prints one line per
case (132 in all) and a summary; exits 1 on any difference.  A file that differs is
reported with the largest |old - new| / max(1, |old|) over its numbers
(JSON values, CSV fields, ``.gf`` header fields and values).  A JSON file
whose key set changed names the added and removed keys and still compares
the numbers both sides share; "structure differs" marks any other change
of its non-numeric content, which for a CSV file ends the comparison, as
a different number of ``.gf`` fields does.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

BASE = """\
domain.n = 2
domain.base = 0,1
domain.t_min = 0.2
domain.k0 = 2.0
domain.d0 = 1.0
problem.p = {p}
problem.f = constant:-1
problem.dirichlet = zero
problem.exact = auto
grid.nodes = 13,13
exhaust.j_max = 3
exhaust.density = 8
convolve.direction = inf
convolve.eps = 0.05
convolve.input = src.gf
study.levels = 2
verify.radii = 0.3,0.15,0.075
output.dir = out
"""
# t^p f = 0.1 at every p, the positive floor the comparison pair needs
PAIR = "problem.f = exp:0.1,-{p}\n"
STORED = "verify.solution = src.gf\n"
# the pair's own solution, written by a solve of the same config
SOLVED = "verify.solution = out/solution.gf\n"
FAILING = "solver.max_iter = 0\ndomain.t_min = 0.001\n"
# h_a = 6.9 breaks the mesh Peclet bound |n-p| h_a <= 2(p-1) unless p = n = 2
COARSE = "domain.t_min = 1e-6\ngrid.nodes = 3,5\n"
SOLID = "domain.n = 3\ndomain.base = 0,1;0,1\ngrid.nodes = 9,9,9\n"
# the stored random field on that 9^3 grid
SOLID_STORED = SOLID + "verify.solution = solid.gf\nconvolve.input = solid.gf\n"
# zero data with f = 0.5: the cold stages' preconditioner serves every step
ZERO_SOLID = SOLID + "problem.f = constant:0.5\n"
# the shortest axes: second_diff's face rows span an axis of 3 or 4 nodes
SHORT = "grid.nodes = 4,5\n"
SHORT_SOLID = SOLID + "grid.nodes = 3,4,5\n"
# p = 4 on h_a = 2.5 over a base of width 8: the presolve's drift n - p = -2
# gives |n-p| h_a = 5, within the Peclet bound 2(p-1), and the shifted
# radial diagonals of the lowest base modes fall below |lower|, so rows pivot
PIVOT = ("problem.p = 4.0\ndomain.t_min = 0.0005530843701478336\ndomain.base = 0,8\n"
         "grid.nodes = 4,13\n")
# Dirichlet data 0.5 x^2 + a and forcing -x, the cases whose data vary in x
SLOPED = "problem.dirichlet = poly:0.5,0,2;1,1\nproblem.f = poly:-1,0,1\n"
# math.log(math.exp(-0.6)) != -0.6, so a centre kept as t = e^a moves
BALL = "verify.ball = -0.6,0.5,0.3\n"
RADII = "verify.radii = 0.3,0.15,0.075\n"
# (a valid value other than the default of a key no case above sets, the
# command that reads it)
SETTINGS = [
    ("verify.rho = 0.5", ["verify", "hoelder"]),
    ("verify.rhos = 0.3,0.7", ["verify", "hoelder"]),
    ("verify.p0s = 0.4,0.9", ["verify", "weakharnack"]),
    ("verify.alphas = 2,20,200", ["verify", "doubling"]),
    ("verify.margin = 0.3", ["verify", "comparison"]),
    ("verify.c_ref = 5", ["verify", "abp"]),
    ("verify.slack = 1e-4", ["verify", "comparison"]),
    ("verify.bumps = 4", ["verify", "weakform"]),
    ("verify.weakform_tol = 0.5", ["verify", "weakform"]),
    ("verify.samples = 50", ["gcondition"]),
    ("solver.max_iter = 50", ["solve"]),
    ("solver.eps_reg_floor = 1e-5", ["solve"]),
    ("solver.tol = 1e-8", ["solve"]),
    ("convolve.direction = SUP", ["convolve"]),
]
# (problem.f, problem.dirichlet) of the solves that set each field-spec
# kind in both keys, the stored field included
FIELDS = [("zero", "constant:0.5"), ("tpower:-1", "tpower:0.5"), ("logt", "logt"),
          ("quadratic", "quadratic"), ("exp:-1,0.5,2", "exp:0.5,1,-1"),
          ("gridfile:src.gf", "gridfile:src.gf")]
# a field stored at 9x9 read at 17x17, between its nodes
OFF_NODE = ("problem.f = gridfile:coarse.gf\nproblem.dirichlet = gridfile:coarse.gf\n"
            "grid.nodes = 17,17\n")
# a problem.exact of each kind the cases above leave out; a stored field
# has no derivatives, so its two cases exit 2
EXACTS = ["zero", "constant:0.5", "tpower:0.5", "logt", "quadratic", "exp:0.5,1,2",
          "poly:0.5,0,2;1,1", "gridfile:src.gf"]
CHECKS = ("abp", "hoelder", "harnack", "weakharnack", "oscillation",
          "comparison", "doubling", "weakform")


def merged(base: str, extra: str) -> str:
    """Config text with each key once: ``extra``'s values replace ``base``'s
    in place and its new keys are appended, since a repeated key is a
    config error."""
    entries = {}
    for line in (base + extra).splitlines():
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def cases():
    """(label, the argv of each command run in turn, config text) for every
    case."""
    for p in ("2.0", "3.0", "4.0"):
        base = BASE.format(p=p)
        for cmd in ("solve", "manufacture", "exhaust", "convergence-study", "gcondition"):
            yield f"p={p} {cmd}", [[cmd]], base
        yield f"p={p} solve x-dependent", [["solve"]], merged(base, SLOPED)
        for direction in ("inf", "sup"):
            extra = f"convolve.direction = {direction}\n"
            yield f"p={p} convolve {direction}", [["convolve"]], merged(base, extra)
        for check in CHECKS:
            extra = PAIR.format(p=p) if check in ("comparison", "doubling") else ""
            yield f"p={p} verify {check}", [["verify", check]], merged(base, extra)
        for check in ("harnack", "weakharnack", "oscillation"):
            yield f"p={p} verify {check} ball", [["verify", check]], merged(base, BALL)
        for check in ("abp", "hoelder"):
            yield f"p={p} verify {check} stored", [["verify", check]], merged(base, STORED)
        for check in ("comparison", "doubling"):
            yield (f"p={p} verify {check} stored", [["solve"], ["verify", check]],
                   merged(base, PAIR.format(p=p) + SOLVED))
        for argv in (["solve"], ["exhaust"], ["verify", "abp"]):
            yield f"p={p} {' '.join(argv)} max_iter=0", [argv], merged(base, FAILING)
        yield f"p={p} solve coarse", [["solve"]], merged(base, COARSE)
        if p != "4.0":
            yield f"p={p} solve 3d", [["solve"]], merged(base, SOLID)
    yield "p=4.0 solve 3d zero data", [["solve"]], merged(BASE.format(p="4.0"), ZERO_SOLID)
    base = BASE.format(p="3.0")
    for check in ("hoelder", "doubling"):
        extra = PAIR.format(p="3.0") if check == "doubling" else ""
        yield (f"p=3.0 verify {check} 3d stored", [["verify", check]],
               merged(base, SOLID_STORED + extra))
    # at eps = 0.005 each min-plus pass reads a window narrower than its axis
    for direction in ("inf", "sup"):
        yield (f"p=3.0 convolve {direction} 3d", [["convolve"]],
               merged(base, SOLID_STORED + "convolve.eps = 0.005\n"
                      f"convolve.direction = {direction}\n"))
    # M_alpha must not grow along verify.alphas, so a decreasing list is a
    # config error (exit 2; a false verdict, exit 4, before it was rejected)
    yield ("p=3.0 verify doubling alphas 1000,1", [["solve"], ["verify", "doubling"]],
           merged(base, PAIR.format(p="3.0") + SOLVED + "verify.alphas = 1000,1\n"))
    for entry, argv in SETTINGS:
        extra = PAIR.format(p="3.0") if argv[-1] in ("comparison", "doubling") else ""
        yield f"p=3.0 {' '.join(argv)} {entry}", [argv], merged(base, extra + entry + "\n")
    yield ("p=3.0 verify oscillation default radii", [["verify", "oscillation"]],
           base.replace(RADII, ""))
    for argv in (["solve"], ["verify", "abp"]):
        yield f"p=3.0 {' '.join(argv)} 4x5", [argv], merged(base, SHORT)
    yield "p=3.0 solve 3d 3x4x5", [["solve"]], merged(base, SHORT_SOLID)
    yield "p=4.0 solve pivoting presolve", [["solve"]], merged(base, PIVOT)
    yield "p=6.0 solve", [["solve"]], BASE.format(p="6.0")
    for f, g in FIELDS:
        yield (f"p=3.0 solve f={f} dirichlet={g}", [["solve"]],
               merged(base, f"problem.f = {f}\nproblem.dirichlet = {g}\n"))
    yield "p=3.0 solve gridfile 9x9 at 17x17", [["solve"]], merged(base, OFF_NODE)
    for exact in EXACTS:
        for cmd in ("manufacture", "convergence-study"):
            yield f"p=3.0 {cmd} exact={exact}", [[cmd]], merged(base, f"problem.exact = {exact}\n")


def run_side(src: str, workdir: str, commands: list, text: str, fields: list) -> list:
    """Runs each command in turn in ``workdir``, with the stored ``fields``
    copied in; returns their exit codes."""
    os.makedirs(workdir)
    for field in fields:
        shutil.copy(field, workdir)
    with open(os.path.join(workdir, "run.cfg"), "w") as fh:
        fh.write(text)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    return [subprocess.run([sys.executable, "-m", "conepde.cli", "--seed", "11", *argv,
                            "--config", "run.cfg"], cwd=workdir, env=env,
                           capture_output=True, text=True).returncode
            for argv in commands]


def outputs(workdir: str) -> dict | None:
    """The files in ``output.dir`` by name (None for a meta file), or None
    when no command created it."""
    out = os.path.join(workdir, "out")
    if not os.path.isdir(out):
        return None
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = None if name.endswith("_meta.json") else fh.read()
    return result


def json_diff(old, new, path: str, keys: dict, pairs: list) -> bool:
    """Walks two JSON value trees side by side.  Each key that only one side
    has goes into ``keys["added"]`` or ``keys["removed"]`` as a dotted path
    (list indices as ``[]``), and each number both sides hold at the same
    place goes into ``pairs`` as (old, new); returns False when anything
    else differs: a type, a string, a list length, a null against a
    number."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if isinstance(old, dict) and isinstance(new, dict):
        keys["added"].update(path + k for k in new.keys() - old.keys())
        keys["removed"].update(path + k for k in old.keys() - new.keys())
        return all([json_diff(old[k], new[k], f"{path}{k}.", keys, pairs)
                    for k in old.keys() & new.keys()])
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return all([json_diff(a, b, path[:-1] + "[].", keys, pairs) for a, b in zip(old, new)])
    if number(old) and number(new):
        pairs.append((float(old), float(new)))
        return True
    return old == new and type(old) is type(new)


def split_numbers(data: bytes) -> tuple:
    """(non-numeric skeleton, numbers) of a CSV file: its comma- and
    line-separated fields with numbers replaced by "#"."""
    numbers = []

    def field(text):
        try:
            numbers.append(float(text))
            return "#"
        except ValueError:
            return text

    return [[field(f) for f in line.split(",")] for line in data.decode().splitlines()], numbers


def gridfunction_fields(data: bytes) -> np.ndarray:
    """The header fields (n, the node counts, a_min, t_min, each base axis's
    ends and a_max) and then the row-major values of the ``.gf`` file
    ``data``, in either format, as the imported ``conepde`` reads it."""
    from conepde.calculus import read_gridfunction

    with tempfile.NamedTemporaryFile(suffix=".gf") as fh:
        fh.write(data)
        fh.flush()
        u = read_gridfunction(fh.name)
    grid = u.grid
    ends = [end for xs in grid.xs for end in (xs[0], xs[-1])]
    head = [grid.n, *grid.shape, grid.a[0], grid.domain.t_min, *ends, grid.a[-1]]
    return np.concatenate([np.array(head, dtype=float), u.values.ravel()])


def same_output(name: str, old: bytes, new: bytes) -> bool:
    """Whether two outputs named ``name`` agree: a ``.gf`` file in its
    header fields and the bits of its values, any other file byte for
    byte."""
    if not name.endswith(".gf"):
        return old == new
    return np.array_equal(gridfunction_fields(old).view(np.int64),
                          gridfunction_fields(new).view(np.int64))


def describe_difference(name: str, old: bytes, new: bytes) -> str:
    notes = []
    if name.endswith(".json"):
        keys, pairs = {"added": set(), "removed": set()}, []
        if not json_diff(json.loads(old), json.loads(new), "", keys, pairs):
            notes.append("structure differs")
        notes += [f"{kind} keys {', '.join(sorted(paths))}"
                  for kind, paths in keys.items() if paths]
    elif name.endswith(".gf"):
        old_nums, new_nums = gridfunction_fields(old), gridfunction_fields(new)
        if old_nums.size != new_nums.size:
            return "structure differs"
        pairs = list(zip(old_nums.tolist(), new_nums.tolist()))
    else:
        (old_skeleton, old_nums), (new_skeleton, new_nums) = split_numbers(old), split_numbers(new)
        if old_skeleton != new_skeleton:
            return "structure differs"
        pairs = list(zip(old_nums, new_nums))
    worst = 0.0
    for a, b in pairs:
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        d = abs(a - b) / max(1.0, abs(a))
        worst = math.inf if math.isnan(d) else max(worst, d)
    shared = " over the shared values" if notes else ""
    return "; ".join(notes + [f"max rel diff {worst:.3g}{shared}"])


# a seeded random field on a grid of NODES per axis over the configs'
# domain in N dimensions; argv: PATH NODES N
FIELD = """\
import sys
import numpy as np
from conepde.calculus import GridFunction, LogGrid, write_gridfunction
from conepde.geometry import ConeDomain

path, nodes, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
dom = ConeDomain(n=n, base_lo=[0.0] * (n - 1), base_hi=[1.0] * (n - 1), t_min=0.2)
grid = LogGrid.build(dom, (nodes,) * n)
values = np.random.default_rng(0).standard_normal(grid.shape)
write_gridfunction(path, GridFunction(grid, values))
"""


def write_field(src: str, path: str, nodes: int, n: int = 2) -> None:
    """Writes the seeded random field ``FIELD`` with the writer of the
    tree ``src``, in an interpreter of its own: at 13x13, the convolve
    input and the stored verify solution."""
    subprocess.run([sys.executable, "-c", FIELD, path, str(nodes), str(n)], check=True,
                   env={**os.environ, "PYTHONPATH": os.path.abspath(src)})


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    old_src, new_src = argv
    # the .gf outputs of both sides are read by the new tree's reader
    sys.path.insert(0, os.path.abspath(new_src))
    differing = files = 0
    with tempfile.TemporaryDirectory() as tmp:
        fields = [os.path.join(tmp, name) for name in ("src.gf", "coarse.gf", "solid.gf")]
        write_field(old_src, fields[0], 13)
        write_field(old_src, fields[1], 9)
        write_field(old_src, fields[2], 9, n=3)
        all_cases = list(cases())
        for k, (label, cmd, text) in enumerate(all_cases):
            codes, outs = [], []
            for side, src in (("old", old_src), ("new", new_src)):
                workdir = os.path.join(tmp, side, str(k))
                codes.append(run_side(src, workdir, cmd, text, fields))
                outs.append(outputs(workdir))
            problems = []
            if codes[0] != codes[1]:
                problems.append(f"exit {codes[0]} != {codes[1]}")
            if (outs[0] is None) != (outs[1] is None):
                problems.append("output.dir exists on the "
                                + ("new side only" if outs[0] is None else "old side only"))
            outs = [out or {} for out in outs]
            if outs[0].keys() != outs[1].keys():
                problems.append(f"files {sorted(outs[0])} != {sorted(outs[1])}")
            shared = [n for n in outs[0] if n in outs[1] and outs[0][n] is not None]
            same = [n for n in shared if same_output(n, outs[0][n], outs[1][n])]
            problems += [f"{n} differs ({describe_difference(n, outs[0][n], outs[1][n])})"
                         for n in shared if n not in same]
            files += len(same)
            differing += bool(problems)
            status = "DIFF" if problems else "ok  "
            print(f"{status} {label:<36} exit {'/'.join(map(str, codes[1]))}  "
                  f"{len(same)} identical"
                  + (": " + "; ".join(problems) if problems else ""))
    print(f"{len(all_cases) - differing} of {len(all_cases)} cases match; "
          f"{files} non-meta files identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
