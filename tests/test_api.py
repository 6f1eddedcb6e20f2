"""The public surface: every advertised name resolves and star-imports work;
no check in the library relies on `assert`, which `python -O` strips; the
CLI maps errors to exit codes in `main` alone and starts without importing
networkx or scipy.signal; KD-tree ball queries stay in closure's neighbour
helpers; rows change basis only through the splitting's methods."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import shadowbench

MODULES = sorted(m.name for m in pkgutil.iter_modules(shadowbench.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"shadowbench.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"shadowbench.{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from shadowbench.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_names_resolve():
    namespace: dict = {}
    exec("from shadowbench import *", namespace)
    public = [attr for attr in vars(shadowbench)
              if not attr.startswith("_") and attr not in MODULES]
    assert public and all(attr in namespace for attr in public)


def test_no_assert_statements():
    found = []
    for path in sorted(Path(shadowbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_only_main_catches_in_cli():
    # one exit-code policy: every error reaches `cli.main`, which maps it to a code
    tree = ast.parse(Path(shadowbench.__file__).with_name("cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)}
    elsewhere = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ExceptHandler) and id(node) not in in_main]
    assert in_main and not elsewhere, f"except handlers outside main at lines {elsewhere}"


def test_ball_queries_only_in_the_neighbour_helpers():
    # one neighbour rule: the tree's closed-ball hits are filtered in closure's
    # helpers, and only build_graph's lazy-graph gate counts them unfiltered
    helpers, queries = {"_ball", "_balls", "_pairs"}, {"query_ball_point", "query_pairs"}
    found = []
    for path in sorted(Path(shadowbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function (ast.walk is breadth-first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        gate = {id(node.func) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and owner.get(id(node)) == "build_graph"
                and any(k.arg == "return_length" for k in node.keywords)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            in_helper = path.name == "closure.py" and (owner.get(id(node)) in helpers
                                                       or id(node) in gate)
            if (node.attr in queries and not in_helper
                    or node.attr == "tree" and path.name != "closure.py"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found, f"neighbour queries outside closure's helpers: {found}"


def test_basis_changes_only_in_the_splitting_and_newton():
    # one change of basis: rows go through the splitting's methods in torus;
    # only the Newton clamp rows and the adapted blocks, which are matrix
    # products, read the basis matrices, and bracket_delta_for builds its
    # projector matrices from them
    allowed = {"closure.py": set(), "maximality.py": {"bracket_delta_for"},
               "shadowing.py": {"_adapted_blocks", "_newton_jacobian", "newton_shadow"}}
    found = []
    for name, owners in allowed.items():
        tree = ast.parse(Path(shadowbench.__file__).with_name(name).read_text())
        owner = {}  # node -> outermost enclosing function (ast.walk is breadth-first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), fn.name)
        found += [f"{name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("basis", "basis_inv")
                  and owner.get(id(node)) not in owners]
    assert not found, f"basis changes outside the splitting: {found}"


def test_cli_import_leaves_networkx_unloaded():
    # neither is needed; scipy.signal alone costs about 0.6 s and 35 MB per process
    code = ("import sys, shadowbench.cli; "
            "print('networkx' in sys.modules, 'scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False False"
