"""The public surface: every advertised name resolves and star-imports work;
no check in the library relies on `assert`, which `python -O` strips; the
CLI maps errors to exit codes in `main` alone and starts without importing
networkx, scipy or mpmath, which load on first use inside named accessors;
KD-tree ball queries stay in closure's neighbour helpers; rows change basis
only through the splitting's methods; the flow code reads the base shadow
on arrays and never re-iterates a point; float map steps loop in one
kernel; only the CLI touches files; integer arguments are told apart in
one helper, and every integer, positive-scalar and dimension precondition
of a public entry point is a ValueError that names its argument, and so
is a `periodic` flag that is not a bool; pseudo-orbit defects are
measured in one helper and never declared; a transition graph's successor
lists are built in one property."""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import shadowbench
from shadowbench.closure import SampledOrbits
from shadowbench.maximality import (GridSet, bracket_delta_for, b_direction_heteroclinic_family,
                                    constant_family, crovisier_set, maximal_invariant_set)
from shadowbench.shadowing import (PseudoOrbit, expansivity_test, pseudo_orbit_defect,
                                   shift_pseudo, suspend_pseudo_orbit)
from shadowbench.symbolic import (SFT, PeriodicWord, SubshiftPresentation, equality_witness,
                                  is_locally_maximal, language, sft_closure,
                                  shift_metric_with_bound, symbolic_shadow)
from shadowbench.torus import SuspensionFlow, TorusPoint, cat_map, crovisier_product

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


def test_flow_code_reads_the_base_shadow():
    # the flow shadow is the suspension of the base shadow window: no flow
    # function flows or iterates a single point, and the sampling and the
    # shadow run on arrays with no Python loop
    tree = ast.parse(Path(shadowbench.__file__).with_name("shadowing.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    flow_code = ("FlowPseudoTrajectory", "suspend_pseudo_orbit", "flow_defect",
                 "FlowShadowResult", "flow_shadow")
    found = [f"{name}:{node.lineno} {callee}" for name in flow_code
             for node in ast.walk(defs[name]) if isinstance(node, ast.Call)
             for callee in [getattr(node.func, "attr", getattr(node.func, "id", None))]
             if callee in ("flow_at", "iterate", "TorusPoint")]
    found += [f"{name}:{node.lineno} loop" for name in ("suspend_pseudo_orbit", "flow_shadow")
              for node in ast.walk(defs[name])
              if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp))]
    assert not found, f"per-point work in the flow code: {found}"


def test_one_float_orbit_loop():
    # the float map is stepped in ToralAutomorphism._orbit alone: no other
    # loop body steps a map or builds a point per step
    steps = {"apply_array", "apply_inverse_array", "apply", "apply_inverse", "iterate",
             "TorusPoint"}
    found, in_kernel = [], []
    for name in ("torus.py", "shadowing.py", "maximality.py"):
        tree = ast.parse(Path(shadowbench.__file__).with_name(name).read_text())
        kernel = {id(node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and cls.name == "ToralAutomorphism"
                  for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "_orbit"
                  for node in ast.walk(fn)}
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for call in (node for stmt in loop.body + loop.orelse for node in ast.walk(stmt)):
                callee = isinstance(call, ast.Call) and getattr(
                    call.func, "attr", getattr(call.func, "id", None))
                if callee in steps:
                    (in_kernel if id(loop) in kernel else found).append(
                        f"{name}:{call.lineno} {callee}")
    assert in_kernel and not found, f"map steps in loops outside the orbit kernel: {found}"


def test_only_the_cli_touches_files():
    # file formats sit behind cli.py: the library takes arrays, objects and
    # text, never paths
    found = []
    for path in sorted(Path(shadowbench.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno} import {name}" for name in names
                      if name.split(".")[0] in ("csv", "pathlib")]
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                found.append(f"{path.name}:{node.lineno} open()")
    assert not found, f"file access outside cli.py: {found}"


def test_integer_types_only_in_the_integer_helper():
    # one integer rule: `torus._integer` alone tells an integer argument
    # apart, and `_unimodular` alone reads matrix entries as integers
    allowed = {("torus.py", "_integer"), ("torus.py", "_unimodular")}
    found = []
    for path in sorted(Path(shadowbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function (ast.walk is breadth-first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in ("integer", "Integral") and (path.name, owner.get(id(node))) not in allowed:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"integer type tests outside torus._integer: {found}"


def test_one_defect_measurement():
    # one measured gate: the pairs of `_step_pairs` reach `torus_distance_array`
    # through `shadowing._max_defect` alone, and no pseudo-orbit holder keeps
    # a settable defect
    def calls(node, name):
        return isinstance(node, ast.Call) and name in (getattr(node.func, "attr", None),
                                                       getattr(node.func, "id", None))

    found = set()
    for path in sorted(Path(shadowbench.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    path.name, fn.name) == ("shadowing.py", "_max_defect"):
                continue
            pairs = {name.id for node in ast.walk(fn)
                     if isinstance(node, ast.Assign) and calls(node.value, "_step_pairs")
                     for target in node.targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)}
            found |= {f"{path.name}:{node.lineno} {fn.name}" for node in ast.walk(fn)
                      if calls(node, "torus_distance_array")
                      for arg in node.args + [k.value for k in node.keywords]
                      for sub in ast.walk(arg)
                      if calls(sub, "_step_pairs") or isinstance(sub, ast.Name) and sub.id in pairs}
    assert not found, f"step pairs measured outside shadowing._max_defect: {sorted(found)}"
    for holder in (PseudoOrbit, SampledOrbits):
        assert not {f.name for f in fields(holder)} & {"defect", "delta"}, holder


def test_successor_lists_built_in_one_place():
    # a materialized graph's successor lists come from its cached
    # `successors` property alone, so a reused graph never rebuilds them
    tree = ast.parse((Path(shadowbench.__file__).parent / "closure.py").read_text())
    owners = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
              for node in ast.walk(fn) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_successors"]
    assert owners == ["successors"]


def _fresh(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter on this test run's path."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stdout


HEAVY = ("networkx", "scipy", "mpmath")
LOADED = f"print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(HEAVY)!r}))"


def test_cli_import_leaves_networkx_unloaded():
    # none is needed to start: scipy.sparse.linalg, scipy.spatial and mpmath
    # cost about 0.6 s per process, and the symbolic commands use none of them
    assert _fresh(f"import sys, shadowbench.cli; {LOADED}").strip() == "[]"


def test_sft_command_leaves_scipy_and_mpmath_unloaded(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("(0)(0)\n(01)(01)\n(001)(001)\n(0001)(0001)\n")
    argv = ["sft", "--words", str(words), "--alphabet", "2", "--maximal", "4",
            "--language", "2", "--closure", "2", "--out", str(tmp_path / "out.json")]
    code = f"import sys; from shadowbench import cli; print(cli.main({argv!r})); {LOADED}"
    assert _fresh(code).split("\n")[:2] == ["0", "[]"]
    assert json.loads((tmp_path / "out.json").read_text())["locally_maximal"]["k"] == 2


# The first user of each lazily loaded dependency, run cold: each snippet
# prints whether the dependency was loaded before and after the call, then
# the call's result.  The digests are of the results at the last commit that
# imported scipy and mpmath at module level.
COLD_PATHS = {
    "newton": ("scipy.sparse.linalg", """
import numpy as np
from shadowbench.shadowing import PseudoOrbit, newton_shadow
from shadowbench.torus import cat_map
cat = cat_map()
rows = [np.array([0.1, 0.2])]
for j in range(7):
    rows.append(cat.apply_array(rows[-1][None])[0] + 1e-3 * np.array([1.0, -0.5]))
before = MODULE in sys.modules
res = newton_shadow(cat, PseudoOrbit.from_map(cat, np.array(rows) % 1.0, start_index=-4))
value = [res.converged, res.iterations, res.orbit.tolist()]
""", "be3da1253fda60632425f82143e77a5baa01ade54ff189d2b2a0a1e84dec011c"),
    "setapprox": ("scipy.spatial", """
from shadowbench.closure import SetApprox, hausdorff
before = MODULE in sys.modules
a = SetApprox.build([[0.1, 0.2], [0.12, 0.21], [0.5, 0.5], [0.98, 0.99], [0.01, 0.0]], 0.1)
b = SetApprox([[0.1, 0.25], [0.5, 0.45]], 0.1)
value = [a.points.tolist(), hausdorff(a, b)]
""", "705787483fbcedd0f60cda518319cbedbaebf9fa31132038f4ddde856dcb6eaf"),
    "witness": ("mpmath", """
from shadowbench.maximality import b_direction_heteroclinic_family
from shadowbench.torus import TorusPoint, crovisier_product
before = MODULE in sys.modules
fam = b_direction_heteroclinic_family(crovisier_product(), TorusPoint((0.5, 0.0)),
                                      TorusPoint((0.0, 0.0)), s_offset=0.25, a=0.2,
                                      n_window=6, n_params=3)
value = [fam.n_start, fam.xi.tolist()]
""", "1e7f88ca25e25feaf85177b31e907abe7a5c537216fee1f30b193dbcb2365104"),
}


@pytest.mark.parametrize("name", sorted(COLD_PATHS))
def test_cold_path_loads_on_first_use(name):
    module, body, digest = COLD_PATHS[name]
    code = (f"import json, sys\nMODULE = {module!r}\n{body}\n"
            "print(json.dumps([before, MODULE in sys.modules, value]))")
    before, after, value = json.loads(_fresh(code))
    assert (before, after) == (False, True)
    assert hashlib.sha256(json.dumps(value).encode()).hexdigest() == digest


def test_heavy_imports_only_in_their_accessors():
    # scipy and mpmath load where they are first used, so that importing the
    # package pays for numpy alone; annotations import them for type checkers
    allowed = {"closure.py": {"_torus_tree"},
               "shadowing.py": {"_newton_jacobian", "_newton_lu"},
               "maximality.py": {"_mpmath"}}
    found = []
    for path in sorted(Path(shadowbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> outermost enclosing function (ast.walk is breadth-first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), fn.name)
        typing_only = {id(node) for block in ast.walk(tree)
                       if isinstance(block, ast.If)
                       and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
                       for stmt in block.body for node in ast.walk(stmt)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if (any(n.split(".")[0] in ("scipy", "mpmath") for n in names)
                    and id(node) not in typing_only
                    and owner.get(id(node)) not in allowed.get(path.name, ())):
                found.append(f"{path.name}:{node.lineno} {', '.join(names)}")
    assert not found, f"scipy or mpmath imported outside their accessors: {found}"


def _refusals() -> dict:
    """Calls whose integer, positive-scalar, dimension or `periodic` argument
    is wrong, and the refusal each gives."""
    cat, crovisier = cat_map(), crovisier_product()
    p, q, r = TorusPoint((0.3, 0.4)), TorusPoint((0.5, 0.0)), TorusPoint((0.0, 0.0))
    s = SubshiftPresentation(2, (PeriodicWord.constant(0, 2), PeriodicWord.constant(1, 2)))
    po = PseudoOrbit.from_map(cat, [[0.1, 0.2], [0.3, 0.4]])
    word = PeriodicWord.constant(0, 2)
    grid = {"v_radius": 0.1, "depth": 2, "n_iter": 2}
    return {
        "SFT k": (lambda: SFT(2, 1.5, frozenset()), "k must be an integer, got 1.5"),
        "SFT alphabet_size": (lambda: SFT(2.5, 1, frozenset()),
                              "alphabet_size must be an integer, got 2.5"),
        "presentation alphabet_size": (lambda: SubshiftPresentation(2.5, s.generators),
                                       "alphabet_size must be an integer, got 2.5"),
        "word symbol": (lambda: PeriodicWord((0.5,), (), (0.5,), 2),
                        "symbol must be an integer, got 0.5"),
        "word offset": (lambda: PeriodicWord((0,), (), (0,), 2, offset=0.5),
                        "offset must be an integer, got 0.5"),
        "language k": (lambda: language(s, True), "k must be an integer, got True"),
        "fixed_points period": (lambda: cat.fixed_points(True),
                                "period must be an integer, got True"),
        "iterate n": (lambda: cat.iterate(p, 1.5), "n must be an integer, got 1.5"),
        "orbit_segment n_max": (lambda: cat.orbit_segment(p, 0, 1.5),
                                "n_max must be an integer, got 1.5"),
        "shift_pseudo n": (lambda: shift_pseudo(po, 1.5), "n must be an integer, got 1.5"),
        "PseudoOrbit periodic": (lambda: PseudoOrbit(po.points, periodic="no"),
                                 "periodic must be a bool, got 'no'"),
        "from_map periodic": (lambda: PseudoOrbit.from_map(cat, po.points, periodic=1),
                              "periodic must be a bool, got 1"),
        "pseudo_orbit_defect periodic": (
            lambda: pseudo_orbit_defect(cat, po.points, periodic="no"),
            "periodic must be a bool, got 'no'"),
        "from_map start_index": (
            lambda: PseudoOrbit.from_map(cat, po.points, start_index=-0.5),
            "start_index must be an integer, got -0.5"),
        "sft_closure k": (lambda: sft_closure(s, 1.5), "k must be an integer, got 1.5"),
        "periodic_cycles max_period": (lambda: sft_closure(s, 1).periodic_cycles(2.5),
                                       "max_period must be an integer, got 2.5"),
        "equality_witness period_bound": (lambda: equality_witness(s, 1, period_bound=2.5),
                                          "period_bound must be an integer, got 2.5"),
        "is_locally_maximal kmax": (lambda: is_locally_maximal(s, 1.5),
                                    "kmax must be an integer, got 1.5"),
        "shift_metric precision": (lambda: shift_metric_with_bound(word, word, 2.5),
                                   "precision must be an integer, got 2.5"),
        "symbolic_shadow start_index": (
            lambda: symbolic_shadow(sft_closure(s, 1), [word], 0.1, start_index=0.5),
            "start_index must be an integer, got 0.5"),
        "expansivity N": (lambda: expansivity_test(cat, p, p, 0.1, 2.5),
                          "N must be an integer, got 2.5"),
        "maximal_invariant_set n_iter": (lambda: maximal_invariant_set(cat, GridSet.full(2, 2),
                                                                       1.5),
                                         "n_iter must be an integer, got 1.5"),
        "crovisier depth": (lambda: crovisier_set(crovisier, q, r, **{**grid, "depth": 2.0}),
                            "depth must be an integer, got 2.0"),
        "crovisier n_iter": (lambda: crovisier_set(crovisier, q, r, **{**grid, "n_iter": 2.5}),
                             "n_iter must be an integer, got 2.5"),
        "grid dim": (lambda: GridSet.full(2.5, 2), "dim must be an integer, got 2.5"),
        "grid dim bool": (lambda: GridSet(True, 1, np.ones(2, dtype=bool)),
                          "dim must be an integer, got True"),
        "constant_family n_params": (lambda: constant_family(cat, p, 2, 2.5, 0.1),
                                     "n_params must be an integer, got 2.5"),
        "constant_family n_window": (lambda: constant_family(cat, p, 2.5, 3, 0.1),
                                     "n_window must be an integer, got 2.5"),
        "heteroclinic n_window": (
            lambda: b_direction_heteroclinic_family(crovisier, q, r, s_offset=0.01, a=0.1,
                                                    n_window=2.5, n_params=3),
            "n_window must be an integer, got 2.5"),
        "expansivity a": (lambda: expansivity_test(cat, p, p, float("nan"), 5),
                          "a must be positive, got nan"),
        "symbolic_shadow delta": (lambda: symbolic_shadow(sft_closure(s, 1), [word], -1.0),
                                  "delta must be positive, got -1.0"),
        "bracket_delta_for eps": (lambda: bracket_delta_for(cat.splitting, -1.0),
                                  "eps must be positive, got -1.0"),
        "suspend h zero": (lambda: suspend_pseudo_orbit(SuspensionFlow(cat), po, 0.0),
                           "sample step h must be in (0, 1]"),
        "suspend h negative": (lambda: suspend_pseudo_orbit(SuspensionFlow(cat), po, -0.5),
                               "sample step h must be in (0, 1]"),
        "maximal_invariant_set dimension": (
            lambda: maximal_invariant_set(crovisier.as_automorphism(), GridSet.full(2, 3), 2),
            "dimension mismatch: map is 4-d, points are 2-d"),
        "minus_ball center": (
            lambda: GridSet.full(2, 2).minus_ball(np.array([0.1, 0.2, 0.3]), 0.2),
            "ball needs a center of 2 finite coordinates and a finite radius, "
            "got [0.1, 0.2, 0.3] and 0.2"),
    }


REFUSALS = _refusals()


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_bad_argument_refused_by_name(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
