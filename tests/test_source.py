"""Static checks on the package source."""

import argparse
import ast
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

from treeval.bench import DESK_ESTIMATORS, BermudanPlan, ExperimentPlan
from treeval.cli import _EST_KEYS, _KEYS, build_parser
from treeval.paths import Payoff

SRC = Path(__file__).resolve().parent.parent / "src" / "treeval"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(SRC.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports and never references; __future__ imports are exempt."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_import_check_sees_leftovers():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from dataclasses import dataclass, field as f\nimport numpy as np\n"
                     "np.zeros(1)\n")
    assert _unused_imports(tree) == ["os", "dataclass", "f"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_only_names_they_use(path):
    assert MODULES, SRC
    assert _unused_imports(ast.parse(path.read_text())) == [], path.name


def _private_definitions(tree: ast.Module) -> list:
    """Module-level private functions, classes and constants; dunders are exempt."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _dead_private_names(trees: dict) -> list:
    """``module: name`` for each private definition no module references."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return [f"{module}: {name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name not in used]


def test_dead_private_name_check_sees_orphans():
    trees = {
        "a.py": ast.parse("__version__ = '1'\n_MAX_DIM = 16\n_LIMIT: int = 2\n_LO, _HI = 0, 1\n"
                          "def _grid(): pass\ndef _corner(): return _LIMIT\n"
                          "class _Copula: pass\ndef _seed(): pass\n"),
        "b.py": ast.parse("from .a import _seed as seed\nimport a\n"
                          "print(a._grid(), a._HI, seed())\n"),
    }
    assert _dead_private_names(trees) == ["a.py: _MAX_DIM", "a.py: _LO", "a.py: _corner",
                                          "a.py: _Copula"]


def test_every_private_name_is_referenced():
    trees = {p.name: ast.parse(p.read_text()) for p in SOURCES}
    assert trees, SRC
    assert _dead_private_names(trees) == []


def _module_imports(tree: ast.Module, modules: tuple) -> list:
    """Import statements that load one of ``modules`` or a submodule, in walk order.

    numpy and scipy load a subpackage on first attribute access, so a
    read of ``np.polynomial`` or ``scipy.special`` counts as an import too.
    """
    def hit(name):
        return any(name == m or name.startswith(m + ".") for m in modules)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if hit(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if hit(node.module):
                found.append(node.module)
            else:
                found += [f"{node.module}.{a.name}" for a in node.names
                          if hit(f"{node.module}.{a.name}")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = f"{'numpy' if node.value.id == 'np' else node.value.id}.{node.attr}"
            if hit(name):
                found.append(name)
    return found


_SCIPY_SPECIAL = ("scipy.special",)
# exact_v1 builds its Gauss-Legendre rule itself: either package would add
# its import time to every process that loads treeval
_QUADRATURE_MODULES = ("scipy.integrate", "numpy.polynomial")


def test_scipy_special_import_check_sees_every_form():
    tree = ast.parse("import scipy\nimport scipy.special\nimport scipy.special._ufuncs as u\n"
                     "from scipy.special import ndtr\nfrom scipy import special, stats\n"
                     "from scipy.specialty import x\nfrom .special import y\n"
                     "import scipy.stats\nscipy.special.ndtr(0.0)\n")
    assert _module_imports(tree, _SCIPY_SPECIAL) == [
        "scipy.special", "scipy.special._ufuncs", "scipy.special", "scipy.special",
        "scipy.special"]
    tree = ast.parse("import scipy.integrate\nfrom scipy.integrate import quad\n"
                     "from scipy import integrate, special\nimport numpy.polynomial.legendre as L\n"
                     "from numpy import polynomial\nnp.polynomial.legendre.leggauss(4)\n"
                     "from numpy.polynomials import x\nfrom .integrate import y\n"
                     "import scipy.special\nnp.linalg.eigh(a)\n")
    assert _module_imports(tree, _QUADRATURE_MODULES) == [
        "scipy.integrate", "scipy.integrate", "scipy.integrate",
        "numpy.polynomial.legendre", "numpy.polynomial", "numpy.polynomial"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "paths.py"],
                         ids=lambda p: p.name)
def test_only_paths_imports_scipy_special(path):
    # paths.py loads ndtr and ndtri without scipy.special's package init;
    # an import of the package anywhere else would run that init again
    assert _module_imports(ast.parse(path.read_text()), _SCIPY_SPECIAL) == [], path.name


def _parallel_imports(tree: ast.Module) -> list:
    """Lines of import statements that load treeval's ``parallel`` module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name == "treeval.parallel" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            hit = module in (".parallel", "treeval.parallel") or (
                module in (".", "treeval") and any(a.name == "parallel" for a in node.names))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


def test_parallel_import_check_sees_every_form():
    tree = ast.parse("from .parallel import thread_map\nfrom . import parallel, risk\n"
                     "import treeval.parallel\nfrom treeval.parallel import set_threads\n"
                     "from treeval import parallel as p\nfrom .parallelism import x\n"
                     "import parallel\nfrom .risk import parallel\nfrom ..parallel import y\n")
    assert _parallel_imports(tree) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name not in ("bench.py", "cli.py", "__init__.py")],
                         ids=lambda p: p.name)
def test_only_bench_cli_and_init_import_parallel(path):
    # the thread cap serves the nested-MC oracle alone, so no other
    # module's output can depend on the thread count
    assert _parallel_imports(ast.parse(path.read_text())) == [], path.name


def _block_size_parameters(tree: ast.Module) -> list:
    """``name(param)`` for each public function or method parameter named chunk or *_chunk."""
    found = []

    def scan(body, prefix):
        for node in body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.ClassDef):
                scan(node.body, f"{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                         + [a.vararg, a.kwarg] if x is not None]
                found.extend(f"{prefix}{node.name}({n})" for n in names
                             if n == "chunk" or n.endswith("_chunk"))

    scan(tree.body, "")
    return found


def test_block_size_check_sees_public_parameters():
    tree = ast.parse("def f(x, chunk=4): pass\ndef g(x, *, point_chunk=1, chunks=2): pass\n"
                     "def _h(chunk): pass\ndef k(x, chunky=1):\n    def inner(chunk): pass\n"
                     "class A:\n    def m(self, cell_chunk): pass\n"
                     "    def _p(self, chunk): pass\nclass _B:\n    def m(self, chunk): pass\n"
                     "async def a(*chunk): pass\n")
    assert _block_size_parameters(tree) == ["f(chunk)", "g(point_chunk)", "A.m(cell_chunk)",
                                            "a(chunk)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_signatures_take_no_block_size(path):
    # block sizes are module constants: they change no value, so no caller sets them
    assert _block_size_parameters(ast.parse(path.read_text())) == [], path.name


def _references(tree: ast.Module, name: str) -> list:
    """Lines that read ``name``, bare or as an attribute; imports and definitions are not reads."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == name
                  and isinstance(node.ctx, ast.Load)
                  or isinstance(node, ast.Attribute) and node.attr == name)


def test_reference_check_sees_calls_and_aliases():
    tree = ast.parse("from .flat import membership_sums\ndef membership_sums(): pass\n"
                     "membership_sums(a)\nflat.membership_sums(b)\nf = membership_sums\n"
                     "x.membership_sums_2(c)\nmembership_sums = None\n"
                     "def h():\n    return g(membership_sums)\n")
    assert _references(tree, "membership_sums") == [3, 4, 5, 9]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_membership_kernel_has_one_call_site_per_caller(path):
    # evaluate_flat in flat.py and one helper in valuation.py that both
    # value_surface and value_at call: a second valuation path would code
    # again the columns that the helper's one pass codes once
    want = {"flat.py": 1, "valuation.py": 1}.get(path.name, 0)
    assert len(_references(ast.parse(path.read_text()), "membership_sums")) == want, path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_flattening_reads_leaf_cells_through_the_forest_walk(path):
    # cart._leaf_cells walks all trees of a model one depth at a time; a call
    # of the one-tree RegressionTree.leaf_cells in the package walks them one by one
    assert _references(ast.parse(path.read_text()), "leaf_cells") == [], path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_forest_walks_have_one_reader_outside_cart(path):
    # ensemble.predict routes every fitted model through _predict_trees and
    # flat.flatten_model flattens every one through _leaf_cells; a second
    # reader would be a second prediction or flattening path
    tree = ast.parse(path.read_text())
    for name, owner in (("_predict_trees", "ensemble.py"), ("_leaf_cells", "flat.py")):
        if path.name not in ("cart.py", owner):
            assert _references(tree, name) == [], (path.name, name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_points_have_one_layout_reader(path):
    # cart._as_points alone turns a (k, d, T) batch into time-major rows; a
    # second reader of a point layout could read a flat row in another order
    tree = ast.parse(path.read_text())
    refs = _references(tree, "_time_major")
    if path.name != "cart.py":
        assert refs == [], path.name
        return
    reader, = (node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_as_points")
    assert len(refs) == 1 and reader.lineno <= refs[0] <= reader.end_lineno, refs


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_inner_stream_has_one_reader(path):
    # oracle_v1's scenario windows tile the (seed, inner) stream from its
    # first word, so a second reader would reuse scenario 0's draws
    tree = ast.parse(path.read_text())
    refs = _references(tree, "STREAM_INNER")
    if path.name != "bench.py":
        assert refs == [], path.name
        return
    reader, = (node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "oracle_v1")
    assert refs and all(reader.lineno <= r <= reader.end_lineno for r in refs), refs


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_split_search_has_one_caller(path):
    # growth fits every tree, so the greedy-split gate on its root split
    # covers every split search; a second entry would go ungated
    tree = ast.parse(path.read_text())
    refs = _references(tree, "_split_nodes")
    if path.name != "cart.py":
        assert refs == [], path.name
        return
    caller, = (node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_grow_trees")
    assert len(refs) == 1 and caller.lineno <= refs[0] <= caller.end_lineno, refs


def _unique_calls_without_return_flag(tree: ast.Module) -> list:
    """Lines of ``np.unique`` calls that pass no true ``return_*`` flag.

    Such a call reads ``np.ma.is_masked``, which imports ``numpy.ma``
    into the process; a call that asks for indices, an inverse or counts
    skips that check.
    """
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")):
            continue
        if not any(k.arg and k.arg.startswith("return_")
                   and not (isinstance(k.value, ast.Constant) and not k.value.value)
                   for k in node.keywords):
            lines.append(node.lineno)
    return lines


def test_unique_flag_check_sees_bare_calls():
    tree = ast.parse("np.unique(a)\nnumpy.unique(a, axis=0)\nnp.unique(a, return_index=False)\n"
                     "np.unique(a, return_inverse=True)\nnp.unique(a, return_counts=flag)\n"
                     "pd.unique(a)\nnp.unique(a, equal_nan=True, return_index=1)\n")
    assert _unique_calls_without_return_flag(tree) == [1, 2, 3]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_unique_call_passes_a_return_flag(path):
    # a plain np.unique imports numpy.ma (10-15 ms) inside a timed stage;
    # cart._distinct gives the same values without it
    assert _unique_calls_without_return_flag(ast.parse(path.read_text())) == [], path.name


def test_fit_valuation_and_surface_read_leave_numpy_ma_unloaded(tmp_path):
    script = textwrap.dedent(f"""
        import sys
        from pathlib import Path
        import numpy as np
        import treeval
        from treeval.cart import TreeConfig, fit_tree
        from treeval.cli import _load_surface
        from treeval.flat import evaluate_flat, flatten_model
        from treeval.valuation import ValueSurface
        assert "numpy.ma" not in sys.modules, "imported at start"
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 2, 2))
        fe = flatten_model(fit_tree(x, x.sum(axis=(1, 2)), TreeConfig(nodesize=20)))
        evaluate_flat(fe, x[:50])
        path = Path({str(tmp_path / "surface.csv")!r})
        ValueSurface(dates=(0, 2), values=rng.normal(size=(5, 2))).to_csv(path)
        assert _load_surface(path, (0, 2), 5).dates == (0, 2)
        print("numpy.ma" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_quadrature_packages(path):
    assert _module_imports(ast.parse(path.read_text()), _QUADRATURE_MODULES) == [], path.name


def test_cli_import_and_exact_v1_leave_quadrature_packages_unloaded():
    script = textwrap.dedent(f"""
        import sys
        import numpy as np
        import treeval.cli
        from treeval.bench import exact_v1, standard_model
        from treeval.paths import Payoff
        model = standard_model("min_put")
        for kind in ("min_put", "max_call"):
            exact_v1(Payoff(kind), model, np.zeros((40, model.n_assets)))
        model = standard_model("brc")
        exact_v1(Payoff("brc", barrier=0.6), model, np.zeros((40, model.n_assets)))
        print(sorted(m for m in {_QUADRATURE_MODULES!r} if m in sys.modules))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_floats_are_written_by_one_formatter(path):
    # flat._reprs formats each distinct float of an array once, for
    # write_flat_text and ValueSurface.to_csv; bench's tables format in
    # _write_csv alone, so no module keeps a float formatter of its own
    tree = ast.parse(path.read_text())
    want = {"flat.py": 1, "valuation.py": 1}.get(path.name, 0)
    assert len(_references(tree, "_reprs")) == want, path.name
    assert "_fmt" not in _private_definitions(tree), path.name


def test_every_config_key_is_a_plan_field():
    # the CLI's one key table against the dataclasses it fills: a field added to
    # an estimator config must get its key, and a misspelt key fails here
    def names(cls):
        return {f.name for f in fields(cls)}

    assert set(_EST_KEYS) == set(DESK_ESTIMATORS)
    for kind, config in DESK_ESTIMATORS.items():
        assert set(_EST_KEYS[kind]) == names(config), kind
    for section, cls in (("payoff", Payoff), ("plan", ExperimentPlan),
                         ("bermudan", BermudanPlan)):
        assert set(_KEYS[section]) <= names(cls), section


def test_every_subcommand_takes_only_the_common_options():
    # the plan alone drives a run: a stage has no option that overrides it
    ap = build_parser()
    sub, = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"simulate", "train", "value", "risk", "bermudan", "report"}
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if "--help" not in a.option_strings]
        assert sorted(s for a in actions for s in a.option_strings) == \
            ["--config", "--out", "--scale", "--seed", "--threads"], name
        assert all(len(a.option_strings) == 1 for a in actions), name
