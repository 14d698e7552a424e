"""Every desklm module imports cleanly on its own, in a fresh module table,
no desklm module imports the benchmark, and every installed script names
a function that exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import desklm

ROOT = Path(__file__).resolve().parents[1]

# One interpreter for all modules: dropping every desklm* entry from
# sys.modules before each import makes each one a first import, which is
# what exposes an import cycle, at a fraction of one interpreter per module.
SCRIPT = """
import importlib, pkgutil, sys
import desklm
names = [m.name for m in pkgutil.walk_packages(desklm.__path__, "desklm.")]
for name in names:
    for key in [k for k in sys.modules if k == "desklm" or k.startswith("desklm.")]:
        del sys.modules[key]
    importlib.import_module(name)
print(len(names))
"""


def test_each_module_imports_on_its_own():
    source = str(Path(desklm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) >= 20


def test_every_script_entry_point_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as stream:
        scripts = tomllib.load(stream)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, function = target.partition(":")
        assert callable(getattr(importlib.import_module(module), function)), name


def test_no_module_imports_the_benchmark():
    # The benchmark measures the library; the library must not depend on it.
    offending = []
    root = Path(desklm.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offending += [
                f"{path.relative_to(root)}:{node.lineno}" for name in names
                if name.split(".")[0] == "perfbench"
            ]
    assert offending == []
