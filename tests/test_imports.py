"""Every package module uses each name it imports (`__init__.py` imports
to re-export, so it is checked against `__all__` instead), the
command-line driver opens no file
itself, reads the downstream stages' inputs and prints their reports in
`main` alone, no default is a bare number, one
function each owns the date-range rule, the alignment check, the
row-scaled product, the sustained run, the fixed-lag bound and the
opening of artifact files, and the runtime imports numpy only."""

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "factorregimes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_init_exports_exactly_what_it_imports():
    """`__init__.py` imports the names of `__all__`, each once: no export
    is left unimported and no import is left unexported."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["__all__"]]
    assert len(set(exported)) == len(exported)
    assert len(set(imported)) == len(imported)
    assert sorted(imported) == sorted(exported)


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
