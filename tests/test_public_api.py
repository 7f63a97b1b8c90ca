"""Every name the demos and the README import from faircf resolves.

The demos take tens of seconds to run, so this checks their imports
statically instead of running them.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        yield demo.name, demo.read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        yield "README.md", block


def test_demo_and_readme_imports_resolve():
    checked = 0
    for origin, source in _sources():
        for node in ast.walk(ast.parse(source, origin)):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "faircf"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{origin}: {node.module} has no {alias.name}"
                checked += 1
    assert checked >= 20
