"""The README documents exactly the config keys the CLI reads."""

import ast
import dataclasses
import re
from pathlib import Path

from conepde.solver import SolverConfig

ROOT = Path(__file__).resolve().parents[1]
KEY = r"[a-z]+\.[a-z0-9_]+"
# the extensions of the files a command writes, whose names look like keys
OUTPUT_EXTENSIONS = ("gf", "csv", "json")


def cli_keys() -> set:
    """The ``section.key`` literals in the CLI source, plus one
    ``solver.<field>`` per ``SolverConfig`` field, which the CLI reads by name."""
    tree = ast.parse((ROOT / "src" / "conepde" / "cli.py").read_text())
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(KEY, node.value)
                and node.value.rpartition(".")[2] not in OUTPUT_EXTENSIONS}
    return literals | {f"solver.{f.name}" for f in dataclasses.fields(SolverConfig)}


def readme_keys() -> set:
    """The keys set in the README's example config and those named in the
    first column of its optional-key table."""
    text = (ROOT / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    keys = set(re.findall(rf"^({KEY})\s*=", example, re.M))
    table = text.split("| Key | Default | Accepted values |", 1)[1].split("\n\n", 1)[0]
    for row in table.splitlines()[2:]:
        keys |= set(re.findall(rf"`({KEY})`", row.split("|")[1]))
    return keys


def test_readme_documents_exactly_the_keys_the_cli_reads():
    cli, readme = cli_keys(), readme_keys()
    assert sorted(cli - readme) == [], "read by the CLI but not in the README"
    assert sorted(readme - cli) == [], "in the README but not read by the CLI"
