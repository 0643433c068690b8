"""Modules are the API: importing one layer loads only the layers beneath it.

Each ``cmfix.<module>`` is imported in a fresh interpreter, which then lists
the ``cmfix.*`` modules it loaded.  The package itself holds only
``__version__``, so a module that starts reaching into another layer, or a
package that starts re-exporting names, shows here as a changed set.

``cli`` is the one text boundary: no other module imports ``json`` or
defines ``to_json``, ``from_json``, ``parse_rational`` or ``format_rational``;
the library takes and returns values.

``records`` is the one base of all eleven immutable value types and the
only module that may define ``__setattr__`` or ``__delattr__`` or call
``object.__setattr__``.  It imports nothing, so ``import cmfix.cli`` loads
none of the stdlib's introspection modules (``dataclasses`` would load
``inspect``, ``ast``, ``dis`` and ``tokenize``).

Every module the CLI loads is compiled on import when no bytecode cache is
written (``PYTHONDONTWRITEBYTECODE=1``).  CPython 3.11's parser keeps a
file's tokens in one array that doubles past 4,096 entries, so a module
stays below that many tokens; ``cli`` and ``wreath`` are past it already.
"""

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ALL = {"records", "arith", "linalg", "partitions", "affine_weyl", "parameters",
       "fixed_points", "wreath", "quiver", "roots", "invariants", "cli"}

LOADS = {
    "records": {"records"},
    "arith": {"arith", "records"},
    "linalg": {"linalg", "records"},
    "partitions": {"partitions"},
    "affine_weyl": {"affine_weyl", "partitions"},
    "parameters": {"parameters", "records", "affine_weyl", "partitions"},
    "fixed_points": {"fixed_points", "parameters", "records", "affine_weyl", "partitions"},
    "wreath": {"wreath", "records", "arith", "partitions"},
    "quiver": {"quiver", "records", "linalg"},
    "roots": {"roots"},
    # norton_simplicity imports roots only when Norton's test runs
    "invariants": ALL - {"cli", "roots"},
    # run_selftest imports invariants only when selftest runs
    "cli": ALL - {"invariants", "roots"},
}

PROBE = "import sys, cmfix.{0}; print(' '.join(m[6:] for m in sys.modules if m.startswith('cmfix.')))"


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_module_is_listed():
    assert {p.stem for p in (SRC / "cmfix").glob("*.py")} - {"__init__"} == ALL == set(LOADS)


@pytest.mark.parametrize("module", sorted(LOADS))
def test_importing_a_module_loads_only_the_layers_beneath_it(module):
    assert set(_fresh(PROBE.format(module))) == LOADS[module]


@pytest.mark.parametrize("module", sorted(ALL - {"cli"}))
def test_only_cli_reads_or_writes_text(module):
    tree = ast.parse((SRC / "cmfix" / f"{module}.py").read_text(encoding="utf-8"))
    imported = {a.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "json" not in imported
    assert not defined & {"to_json", "from_json", "parse_rational", "format_rational"}


@pytest.mark.parametrize("module", sorted(ALL - {"records"}))
def test_only_records_sets_or_deletes_attributes(module):
    tree = ast.parse((SRC / "cmfix" / f"{module}.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    attributes = {ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not defined & {"__setattr__", "__delattr__"}
    assert "object.__setattr__" not in attributes


def test_nortons_test_loads_roots_when_it_runs():
    names = _fresh("import sys, random; from cmfix.quiver import norton_simplicity, random_rep; "
                   "norton_simplicity(random_rep((2, 1), random.Random(1))); "
                   "print(*(m[6:] for m in sys.modules if m.startswith('cmfix.')))")
    assert set(names) == LOADS["quiver"] | {"roots"}


def test_the_package_loads_no_layer_and_binds_only_its_version():
    names = _fresh("import sys, cmfix; print(*[m for m in sys.modules if m.startswith('cmfix.')],"
                   " *[k for k in vars(cmfix) if not k.startswith('__')])")
    assert names == []


# what a fresh interpreter loads before cmfix is not cmfix's doing (a site may load typing)
NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_the_cli_loads_no_introspection_module():
    added = _fresh("import sys; before = set(sys.modules); import cmfix.cli; "
                   "print(*(set(sys.modules) - before))")
    assert "cmfix.cli" in added
    assert not set(NOT_LOADED) & set(added)


def test_the_cli_loads_no_argparse():
    # main builds a parser, and imports argparse and the gettext it loads, only
    # for a command line that the registry read declines
    added = _fresh("import sys; before = set(sys.modules); import cmfix.cli; "
                   "print(*(set(sys.modules) - before))")
    assert not {"argparse", "gettext"} & set(added)


# CPython 3.11's parser doubles its token array past this many tokens
TOKEN_LIMIT = 4096
# the modules past it: 4,291 and 4,545 tokens when the limit was set
OVER_TOKEN_LIMIT = {"cli", "wreath"}


def _tokens(module):
    # the tokens the parser reads: comments and blank-line breaks are not among them
    with open(SRC / "cmfix" / f"{module}.py", encoding="utf-8") as f:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL)
                   for t in tokenize.generate_tokens(f.readline))


@pytest.mark.parametrize("module", sorted(ALL))
def test_a_module_stays_below_the_parsers_token_doubling(module):
    # a module listed over the limit that falls below it leaves the list
    assert (_tokens(module) < TOKEN_LIMIT) == (module not in OVER_TOKEN_LIMIT)
