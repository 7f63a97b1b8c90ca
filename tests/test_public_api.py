"""Every name the demos and the README import from faircf resolves, and
all demos but 05 run.

The six demos take 0.6-5 s each, about 13 s in total.  Demos 01-04, which
present the model, metric, bias-setting and training-config API, run in a
subprocess with warnings as errors; demo 06 runs in ``test_cli.py``.  Demo
05 (about 5 s) is checked through its imports only.
"""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

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


@pytest.mark.parametrize("demo", ["01_model_basics.py", "02_fairness_metrics.py",
                                  "03_bias_settings.py", "04_penalized_training.py"])
def test_demo_runs_without_warnings(demo):
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr


# setuptools 65 warns that its pyproject.toml table is in beta.
@pytest.mark.filterwarnings(r"ignore:Support for `\[tool.setuptools\]`")
def test_the_package_version_is_the_modules():
    """pyproject.toml takes the version from faircf.__version__, the one
    place it is written."""
    pytest.importorskip("setuptools")
    from setuptools.config.pyprojecttoml import read_configuration

    import faircf
    config = read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["version"] == faircf.__version__
