"""The package ``__init__``s load their names on first use.

``repro``, ``repro.crawler`` and ``repro.ecosystem`` resolve each public
name through a PEP 562 ``__getattr__``, so a process that only reads
shards (``analyze``, ``serve``) never imports the crawl stack, while
every public import path keeps working.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

#: What a crawl needs and ``analyze``/``serve`` do not.
CRAWL_STACK = ("numpy", "repro.browser", "repro.cookieguard",
               "repro.ecosystem.behaviors", "repro.crawler.crawler",
               "repro.crawler.distributed")

LAZY_PACKAGES = ("repro", "repro.crawler", "repro.ecosystem")


def _fresh_interpreter(script: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src}).stdout


def test_analyze_and_serve_load_no_crawl_stack():
    script = (
        "import json, sys\n"
        "import repro.__main__, repro.analysis.snapshot, repro.serve.app\n"
        f"print(json.dumps([m for m in {CRAWL_STACK!r} "
        "if m in sys.modules]))\n"
        "from repro import Browser, CookieGuardExtension, Script\n"
        "from repro.crawler import Coordinator\n"
        "from repro.analysis import Study\n"
        "from repro.ecosystem import generate_population\n"
        "print(Coordinator.__module__, generate_population.__module__)\n")
    loaded, resolved = _fresh_interpreter(script).splitlines()
    assert json.loads(loaded) == []
    assert resolved == "repro.crawler.distributed repro.ecosystem.population"


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        getattr(package, export)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        package.nope


def _unused_imports(path: Path) -> list:
    """Names ``path`` imports and never reads.

    A name counts as read when it is loaded anywhere in the module,
    listed in ``__all__`` or named inside a string annotation.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(const.value for const in ast.walk(node.value)
                        if isinstance(const, ast.Constant))
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value,
                                                              str):
                used.update(node.id for node in ast.walk(ast.parse(
                    const.value, mode="eval")) if isinstance(node, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_reads():
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    unused = [f"{path.relative_to(root)}:{line}: {name}"
              for path in sorted(root.rglob("*.py"))
              if path.name != "__init__.py"
              for line, name in _unused_imports(path)]
    assert unused == []
