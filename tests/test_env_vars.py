"""The README documents every ``REPRO_*`` variable the program reads.

Its environment-variable table must list exactly the ``REPRO_*`` names
that appear as string constants in ``src/repro``, so no setting — and in
particular no gate that only selects an older implementation — can be
added without a row saying what it changes and its default.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def names_in_code() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and NAME.fullmatch(node.value)):
                names.add(node.value)
    return names


def names_in_readme() -> set[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Environment variables\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, re.M))


def test_readme_table_matches_the_variables_the_code_reads():
    code, readme = names_in_code(), names_in_readme()
    assert code == readme, (
        f"read but not in the README table: {sorted(code - readme)}; "
        f"in the table but never read: {sorted(readme - code)}")
