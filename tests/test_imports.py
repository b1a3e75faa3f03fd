"""Every package module uses each name it imports; `__init__.py`
exports exactly the names of its one name -> module table, each
resolved from its home module on first access; each CLI stage loads
only the modules it runs, and every library function the CLI calls is
an attribute of `cli` that names its home; the command-line driver
opens no file itself, reads the downstream stages' inputs and prints
their reports in `main` alone; no default is a bare number; one
function each owns the date-range rule, the alignment check, the
row-scaled product, the sustained run, the fixed-lag bound and the
opening of artifact files; and the runtime imports numpy only."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "factorregimes"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression of the module
    reads. `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_export_table_resolves_every_name():
    """`__init__.py` exports the names of its one name -> module table:
    each `__all__` name is listed once, is the object its home module
    defines, is bound by `import *` and listed by `dir()`; an unknown name
    is an AttributeError that names it, and submodules still import."""
    import factorregimes

    homes = factorregimes._HOMES
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    (table,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["_HOMES"]]
    listed = [node.value for tup in ast.walk(table) if isinstance(tup, ast.Tuple)
              for node in tup.elts if isinstance(node, ast.Constant)]
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(homes) == factorregimes.__all__
    for name, module in homes.items():
        home = importlib.import_module(f"factorregimes.{module}")
        assert getattr(factorregimes, name) is vars(home)[name], name
    star = {}
    exec("from factorregimes import *", star)
    assert set(factorregimes.__all__) <= set(star)
    # in a fresh interpreter, before any name has been looked up
    fresh = subprocess.run(
        [sys.executable, "-c", "import factorregimes as f; "
         "print(set(f.__all__) <= set(dir(f)), len(f.__all__))"],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True, text=True, timeout=60)
    assert fresh.stdout.split() == ["True", str(len(homes))], fresh.stderr
    with pytest.raises(AttributeError, match="'no_such_export'"):
        factorregimes.no_such_export
    with pytest.raises(ImportError, match="no_such_export"):
        exec("from factorregimes import no_such_export", {})
    exec("from factorregimes import cli", star)
    assert star["cli"] is sys.modules["factorregimes.cli"]


def test_export_table_names_each_public_name_of_its_home():
    """Each table entry is defined in its home module itself, not only
    imported there, so the table names the one owner of every export."""
    import factorregimes

    for name, module in factorregimes._HOMES.items():
        obj = getattr(factorregimes, name)
        owner = getattr(obj, "__module__", None)
        if owner is not None:
            assert owner == f"factorregimes.{module}", name
        else:  # a constant: the home assigns it at module level
            tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
            assigned = {t.id for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for t in (node.targets if isinstance(node, ast.Assign)
                                  else [node.target])
                        if isinstance(t, ast.Name)}
            assert name in assigned, name


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .errors import SampleSizeError, SchemaError\n"
              "from typing import Callable\n"
              "def f(g: Callable) -> None:\n"
              "    raise SchemaError(np.pi)\n")
    assert unused_imports(source) == [(2, "os"), (4, "SampleSizeError")]


def test_cli_opens_no_file():
    """Artifact formats live in the library: `cli.py` calls no `open`
    (builtin, `io.open` or `os.open`), so every file it writes goes through
    a library writer."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "open"
                  or getattr(node.func, "attr", None) == "open")]
    assert calls == []


def test_only_main_and_die_print():
    """Stages return their report: in `cli.py` only `main` prints it, and
    only `_die` prints an error."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    printers = {getattr(top, "name", "<module>") for top in tree.body
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "print"}
    assert printers == {"main", "_die"}


def _is_number(node) -> bool:
    """An int or float literal, signed or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def numeric_defaults(source: str) -> list[tuple[int, str]]:
    """(line, literal) of each function parameter, class field and
    `add_argument` default that is a number other than 0."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            found += [d for d in node.args.defaults + node.args.kw_defaults
                      if d is not None]
        elif isinstance(node, ast.ClassDef):
            found += [st.value for st in node.body
                      if isinstance(st, ast.AnnAssign) and st.value is not None]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "add_argument"
              and ast.literal_eval(node.args[0]) not in ("--k", "--restarts")):
            found += [kw.value for kw in node.keywords if kw.arg == "default"]
    found.sort(key=lambda d: (d.lineno, d.col_offset))
    return [(d.lineno, ast.unparse(d)) for d in found
            if _is_number(d) and ast.literal_eval(d) != 0]


def test_numeric_checker_flags_every_kind_of_default():
    source = ("from dataclasses import dataclass\n"
              "def f(a, b=2, *, c=-0.5, d=0, e=None): pass\n"
              "g = lambda x=3: x\n"
              "@dataclass\n"
              "class C:\n"
              "    n: int = 10\n"
              "    m: int = LIMIT\n"
              "p.add_argument('--k', type=int, default=3)\n"
              "p.add_argument('--lag', type=int, default=9)\n"
              "p.add_argument('--lag2', type=int, default=LAG)\n")
    assert numeric_defaults(source) == [(2, "2"), (2, "-0.5"), (3, "3"),
                                        (6, "10"), (9, "9")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numeric_literal_defaults(path):
    """Each paper setting has one owner, a named constant: no default in
    the package is a number but 0 and the CLI-only `--k` and `--restarts`."""
    assert numeric_defaults(path.read_text(encoding="utf-8")) == []


def test_main_alone_loads_stage_inputs():
    """The downstream stages take their panel and labels from `main`: only
    `main` calls `_load_aligned`, and no `cmd_*` but ingest's and fit's
    reads a panel or labels file."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    callers = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, set()).add(fn.name)
    assert callers["_load_aligned"] == {"main"}
    readers = (callers.get("read_panel_csv", set())
               | callers.get("read_labels_csv", set()))
    assert readers <= {"_load_aligned", "cmd_fit"}


def _is_dates(node) -> bool:
    """A `dates` name or attribute, or a subscript of one."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return (getattr(node, "id", None) == "dates"
            or getattr(node, "attr", None) == "dates")


def test_only_panel_compares_dates_with_a_bound():
    """Date ranges are cut by `panel._in_range` alone: no other module
    orders a `dates` array against a bound."""
    order = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    found = []
    for path in PACKAGE.glob("*.py"):
        if path.name == "panel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, order) for op in node.ops)
                    and any(map(_is_dates, [node.left, *node.comparators]))):
                found.append((path.name, node.lineno))
    assert found == []


def test_one_function_raises_the_alignment_error():
    """Every series-against-panel length check goes through
    `panel._aligned`, the only function that holds its message."""
    holders = []
    for path in PACKAGE.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                holders += [(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Constant)
                            and "must align with the panel rows" in str(node.value)]
    assert holders == [("panel.py", "_aligned")]


def functions_where(matches) -> list[tuple[str, str]]:
    """Sorted (module, function) of each package function that holds a
    node for which matches(node) is true."""
    holders = set()
    for path in PACKAGE.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and any(map(matches, ast.walk(fn))):
                holders.add((path.name, fn.name))
    return sorted(holders)


@pytest.mark.parametrize("text,functions", [
    ("transition product is zero or not finite", [("hmm.py", "_row_scaled")]),
    ("m must be >= 1", [("granger.py", "_runs_from")]),
    ("L must be >= 1", [("granger.py", "_fixed_lag_fit"),
                        ("granger.py", "regime_lag_mask")]),
], ids=["row_scaled", "runs_from", "fixed_lag_bound"])
def test_one_function_decides_each_rule(text, functions):
    """The row-scaled product, the sustained run and the fixed-lag bound
    each raise their error from the one function that decides them."""
    assert functions_where(lambda node: isinstance(node, ast.Constant)
                           and node.value == text) == functions


def opens_for_writing(node) -> bool:
    """A call of the builtin `open` whose mode is not a read-only literal."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), None)
    return mode is not None and (not isinstance(mode, ast.Constant)
                                 or any(c in mode.value for c in "wax+"))


def test_one_function_opens_artifact_files():
    """Every artifact file, CSV or JSON, is opened by `panel._write_text`."""
    assert opens_for_writing(ast.parse("open(p, 'w')").body[0].value)
    assert not opens_for_writing(ast.parse("open(p, encoding='utf-8')").body[0].value)
    assert functions_where(opens_for_writing) == [("panel.py", "_write_text")]


def test_granger_report_prints_the_matrix_level(tmp_path, monkeypatch, capsys):
    """The report's Bonferroni level is the one the matrix flagged its
    cells against, not a second computation of it."""
    from factorregimes import FactorPanel, cli, write_labels_csv, write_panel_csv
    from factorregimes.granger import PairwiseMatrix

    dates = np.datetime64("2000-01-03") + np.arange(40)
    write_panel_csv(FactorPanel(dates, np.zeros((40, 2)), ("A", "B")),
                    tmp_path / "panel.csv")
    write_labels_csv(dates, np.zeros(40, dtype=int), tmp_path / "labels.csv")
    monkeypatch.setattr(cli, "pairwise_regime_matrix",
                        lambda *args: PairwiseMatrix((), (), 1.234e-7))
    assert cli.main(["granger", "--panel", str(tmp_path / "panel.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--out", str(tmp_path / "granger.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "0 cells tested, 0 infeasible; Bonferroni threshold 1.234e-07")


RUNTIME_PROBE = """
import pathlib, sys
import numpy as np
import factorregimes, factorregimes.cli
from factorregimes import FactorPanel, write_labels_csv, write_panel_csv

out = pathlib.Path(sys.argv[1])
rng = np.random.default_rng(0)
dates = np.datetime64("2000-01-03") + np.arange(400)
labels = (np.arange(400) // 50) % 2
write_panel_csv(FactorPanel(dates, rng.standard_normal((400, 3)),
                            ("A", "B", "C")), out / "panel.csv")
write_labels_csv(dates, labels, out / "labels.csv")
main = factorregimes.cli.main
assert main(["granger", "--panel", str(out / "panel.csv"),
             "--labels", str(out / "labels.csv"), "--lmax", "3",
             "--out", str(out / "granger.csv")]) == 0
assert "concurrent.futures" not in sys.modules, "granger loaded concurrent.futures"
assert main(["fit", "--panel", str(out / "panel.csv"), "--k", "2",
             "--seed", "1", "--restarts", "2",
             "--out", str(out / "model.json")]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"{len(loaded)} scipy modules, first {loaded[:3]}"
loaded = {"concurrent.futures", "logging"} & set(sys.modules)
assert not loaded, f"fit loaded {sorted(loaded)}"
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing")
assert not loaded, f"{len(loaded)} multiprocessing modules, first {loaded[:3]}"
"""


def test_runtime_imports_no_scipy(tmp_path):
    """The package and a granger and a fit stage run in a fresh process
    without loading scipy, so numpy is the only runtime dependency, and
    without loading `concurrent.futures`, `logging` or `multiprocessing`:
    the fit forks its restart workers itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", RUNTIME_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "granger.csv").exists()
    assert (tmp_path / "model.json").exists()


STAGE_PROBE = """
import sys
from factorregimes import cli

try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(code, "numpy.ma" in sys.modules,
      *sorted(m for m in sys.modules if m.startswith("factorregimes.")))
"""

BASE = {"cli", "errors", "panel"}
STAGE_MODULES = {
    "--help": BASE,
    "ingest": BASE,
    "fit": BASE | {"hmm", "numerics"},
    "granger": BASE | {"granger", "numerics"},
    "validate": BASE | {"events", "granger", "numerics"},
    "backtest": BASE | {"backtest"},
    "robustness": BASE | {"robustness", "granger", "numerics"},
    "plotdata": BASE | {"events"},
}


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """Raw factor files, a six-factor panel and two-regime labels."""
    from factorregimes import SIX_FACTOR_NAMES, FactorPanel, write_labels_csv, \
        write_panel_csv

    tmp = tmp_path_factory.mktemp("stages")
    (tmp / "ff5.csv").write_text(",Mkt-RF,SMB,HML,RMW,CMA,RF\n"
                                 "19900102,1.5,0.2,-0.1,0.05,0.02,0.03\n")
    (tmp / "mom.csv").write_text(",Mom\n19900102,0.45\n")
    rng = np.random.default_rng(0)
    dates = np.busday_offset("2007-01-02", np.arange(800)).astype("datetime64[D]")
    write_panel_csv(FactorPanel(dates, rng.standard_normal((800, 6)),
                                SIX_FACTOR_NAMES), tmp / "panel.csv")
    write_labels_csv(dates, (np.arange(800) // 80) % 2, tmp / "labels.csv")
    return tmp


@pytest.mark.parametrize("stage", sorted(STAGE_MODULES))
def test_each_stage_loads_only_the_modules_it_runs(stage, stage_inputs):
    """A subcommand run in a fresh interpreter loads exactly its modules:
    the parser needs only `cli`, `errors` and `panel`, and no stage loads
    `synthgen`, nor `numpy.ma` (np.unique and np.quantile load it)."""
    tmp = stage_inputs
    inputs = ["--panel", str(tmp / "panel.csv"), "--labels", str(tmp / "labels.csv")]
    argv = {
        "--help": ["--help"],
        "ingest": ["ingest", str(tmp / "ff5.csv"), str(tmp / "mom.csv"),
                   "--out", str(tmp / "ingested.csv")],
        "fit": ["fit", "--panel", str(tmp / "panel.csv"), "--k", "2", "--seed", "1",
                "--restarts", "1", "--out", str(tmp / "model.json")],
        "granger": ["granger", *inputs, "--lmax", "3",
                    "--out", str(tmp / "granger.csv")],
        "validate": ["validate", *inputs, "--out", str(tmp / "validation.csv")],
        "backtest": ["backtest", *inputs, "--out", str(tmp / "backtest.json")],
        "robustness": ["robustness", *inputs, "--lmax", "3",
                       "--out", str(tmp / "robustness")],
        "plotdata": ["plotdata", *inputs, "--out", str(tmp / "timeline.csv")],
    }[stage]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", STAGE_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, masked, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    assert masked == "False", "numpy.ma loaded"
    assert {m.split(".", 1)[1] for m in loaded} == STAGE_MODULES[stage]


def test_cli_calls_each_library_function_by_its_home_name():
    """Each package function `cli` calls is a module attribute of `cli`,
    looked up at call time, whose `__module__` and `__name__` name its
    home, so it can be wrapped or replaced by name (the benchmark's traced
    replay and the CLI tests' monkeypatching rely on this). Those of the
    modules `cli` loads on demand are stand-ins that run the real one."""
    from factorregimes import cli

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    library = {}
    for name in sorted(called & set(vars(cli))):
        obj = vars(cli)[name]
        home = getattr(obj, "__module__", "")
        if (home.startswith("factorregimes.") and home != "factorregimes.cli"
                and not (inspect.isclass(obj) and issubclass(obj, Exception))):
            library[name] = home
    for name, home in library.items():
        obj = vars(cli)[name]
        assert inspect.isfunction(obj) and obj.__name__ == name, name
        real = vars(importlib.import_module(home))[name]
        if home.rsplit(".", 1)[1] in ("panel", "errors"):
            assert obj is real, name
        else:
            assert obj is not real, name
    assert {home.rsplit(".", 1)[1] for home in library.values()} == {
        "backtest", "events", "granger", "hmm", "panel", "robustness"}
    assert cli.FitConfig(seed=3, n_restarts=2) == \
        importlib.import_module("factorregimes.hmm").FitConfig(3, 2)
