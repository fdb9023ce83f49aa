"""Every name a program module imports is read somewhere in that module, and only ``discretization``
differences grid functions."""

import ast
from pathlib import Path

import pytest

import plapbench

MODULES = sorted(Path(plapbench.__file__).resolve().parent.glob("*.py"))


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names an import binds (``from __future__`` aside) that no expression reads, a name inside a
    string annotation counting as read; each as "line: name"."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unused_import_and_reads_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Sequence\n"
        "from .field import Grid as G, Region\n"
        "def f(x: 'Sequence[G]') -> Iterable:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["4: Region"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def stencil_calls(source: str) -> list[str]:
    """The calls of numpy's diff or gradient (numpy bound as np or numpy) in a module; each as "line: name"."""
    return [
        f"{node.lineno}: {node.func.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("diff", "gradient") and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]


def test_the_stencil_check_finds_numpy_differencing():
    source = "import numpy as np\nx = np.diff([1.0, 2.0])\ny = np.gradient(x)\nz = x.diff()\nw = gradient(x)\n"
    assert stencil_calls(source) == ["2: diff", "3: gradient"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_discretization_differences_grid_functions(path):
    # one stencil: the solver, the field gradient, the reactions, the estimates
    # and the weak residual all read discretization's one-sided differences,
    # and the single-sided field gradient they replaced stays gone
    source = path.read_text()
    if path.name != "discretization.py":
        assert stencil_calls(source) == []
    assert "_gradient_values" not in source
