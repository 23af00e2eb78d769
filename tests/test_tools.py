"""tools/code_lines.py, which counts every code-line target of the project,
and source checks that parse the package."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Code lines by hand: `import math`, `class Counter:`, `step = 1`,
# `def total(self):`, the string statement after the docstring, and the
# three lines of the `return max(` call: 8.
SYNTHETIC = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code

# a comment line


class Counter:
    """Class docstring."""

    step = 1

    def total(self):
        """Function docstring,

        with a blank line inside."""
        "a string statement that is not the docstring"
        return max(
            self.step,
            math.pi)
'''


def _code_lines_module():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_gives_the_hand_count():
    assert _code_lines_module().code_lines(SYNTHETIC) == 8


def test_code_lines_prints_each_module_then_the_total():
    done = subprocess.run([sys.executable, "tools/code_lines.py"], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    modules = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "fracwave").rglob("*.py"))
    assert sorted(path for _, path in rows[:-1]) == modules
    assert rows[-1] == [str(sum(int(count) for count, _ in rows[:-1])), "total"]


def test_package_has_no_global_statement():
    """No function under src/fracwave rebinds a module global: state such as
    a worker's callable travels in arguments and closures, not in module
    variables."""
    found = []
    for path in sorted((ROOT / "src" / "fracwave").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Global)]
    assert found == []
