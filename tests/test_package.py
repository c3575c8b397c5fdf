import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import ladderkit


def test_every_export_resolves():
    missing = [name for name in ladderkit.__all__
               if not hasattr(ladderkit, name)]
    assert missing == []
    assert len(set(ladderkit.__all__)) == len(ladderkit.__all__)


def test_import_loads_no_test_dependency():
    # numpy is the only runtime dependency; mpmath, scipy and hypothesis
    # serve the tests alone
    code = ("import sys, ladderkit; print(' '.join(sorted("
            "{'mpmath', 'scipy', 'hypothesis'} & set(sys.modules))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == ""


def test_oracle_imports_only_the_algebra():
    # the oracle shares no code with the routes it checks
    tree = ast.parse(Path(ladderkit.__file__).with_name("expm.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if node.level or name.split(".")[0] == "ladderkit":
                found.add(name)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names
                      if a.name.split(".")[0] == "ladderkit"}
    assert found == {".algebra"}
    # nor does the rotation oracle's input: rotation_direct, and the
    # functions of rotations.py it calls, name nothing from factorization
    tree = ast.parse(Path(ladderkit.__file__).with_name("rotations.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    banned = {"factorization"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in (
                "factorization", "ladderkit.factorization"):
            banned |= {a.asname or a.name for a in node.names}
        elif isinstance(node, (ast.ImportFrom, ast.Import)):
            banned |= {a.asname or a.name for a in node.names
                       if a.name.endswith("factorization")}
    todo, seen, named = ["rotation_direct"], set(), set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                named.add(node.id)
                if node.id in functions and node.id not in seen:
                    todo.append(node.id)
    assert named & banned == set()


def test_only_the_algebra_derives_the_coupling_roots():
    # the sector rule (where lambda^2 <= 0, from the roots -alpha and -beta)
    # lives in algebra._breaks; no other module negates alpha or beta
    negating = set()
    for path in Path(ladderkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                    and isinstance(node.operand, ast.Attribute)
                    and node.operand.attr in ("alpha", "beta")):
                negating.add(path.name)
    assert negating == {"algebra.py"}


def test_only_the_window_rules_read_suggested_pad():
    # the oracle's window comes from algebra._oracle_window alone; cli.py
    # reads suggested_pad for the products' windows (--pad), not the
    # oracle's.  No other module derives a pad
    readers = set()
    for path in Path(ladderkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name == "suggested_pad":
                readers.add(path.name)
    assert readers == {"algebra.py", "cli.py"}


def test_only_the_oracle_core_runs_the_taylor_polynomial():
    # one Paterson-Stockmeyer evaluator, expm._taylor_ps, called from
    # expm._exp alone, and its layout tables read by it alone (past their
    # build at import): no second polynomial path beside it
    readers = {"_taylor_ps": set(), "_RE_ROWS": set(), "_PS_ROWS": set(),
               "_PARITY_ROWS": set()}

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else None)
            if name in readers and isinstance(child.ctx, ast.Load):
                readers[name].add(f"{module}.{scope}".rstrip("."))
            inner = (f"{scope}.{child.name}".lstrip(".")
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     else scope)
            visit(child, inner, module)

    for path in Path(ladderkit.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), "", path.stem)
    assert readers == {"_taylor_ps": {"expm._exp"},
                       "_RE_ROWS": {"expm", "expm._taylor_ps"},
                       "_PS_ROWS": {"expm._taylor_ps"},
                       "_PARITY_ROWS": {"expm._taylor_ps"}}


def test_only_the_band_builder_derives_the_oracle_bands():
    # operator_matrix's bands come from expm._bands alone: oracle_element
    # reads its real K off them and takes no root or difference of its own
    tree = ast.parse(Path(ladderkit.__file__).with_name("expm.py").read_text())
    calls = {}
    for func in tree.body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = (f.id if isinstance(f, ast.Name)
                            else ast.unparse(f) if isinstance(f, ast.Attribute)
                            else None)
                    calls.setdefault(name, set()).add(func.name)
    assert calls.get("np.sqrt") == {"_bands"}
    assert calls.get("np.subtract") == {"_bands"}
    assert "oracle_element" in calls.get("_bands", set())


def test_spin_reference_shares_no_route_code():
    # the J_x/J_y reference builds its own spin matrices and rotation
    # vector: from the library it takes the angles' container and the oracle
    path = Path(__file__).with_name("spin_references.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ladderkit"):
            found |= {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names
                      if a.name.split(".")[0] == "ladderkit"}
    assert found == {"ladderkit.RotationSpec", "ladderkit.expm"}


def test_every_export_has_a_caller_outside_the_tests():
    # a public name is the library's only if the package itself (past its
    # own def or class line and the export list) or the benchmark uses it;
    # references that only the tests need belong in a tests/ helper
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in (root / "src" / "ladderkit").glob("*.py")
               if p.name != "__init__.py"]
    lines = [line for p in sources + sorted((root / "bench").glob("*.py"))
             for line in p.read_text().splitlines()]
    unused = []
    for name in ladderkit.__all__:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line)
                   for line in lines):
            unused.append(name)
    assert unused == []


def test_no_library_handler_raises():
    # a refusal reaches the caller as the error that was raised: outside the
    # CLI, which maps errors to exit codes, no except handler raises another
    raising = []
    for path in Path(ladderkit.__file__).parent.glob("*.py"):
        if path.name != "cli.py":
            raising += [f"{path.name}:{node.lineno}"
                        for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.ExceptHandler)
                        and any(isinstance(inner, ast.Raise)
                                for inner in ast.walk(node))]
    assert raising == []


def test_cli_refuses_through_main_alone():
    # a command refuses by raising (ValueError: exit 3, a domain error:
    # exit 2) and otherwise returns its payload; main alone writes the
    # message or the payload (through _emit, the one writer to stdout) and
    # picks every exit code; argparse's usage errors exit through
    # _Parser.error, and the __main__ guard exits with main's code
    tree = ast.parse(Path(ladderkit.__file__).with_name("cli.py").read_text())
    stderr, stdout, raised, exits = set(), set(), [], []
    readers = {"_emit": set(), "EXIT_": set()}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "stderr":
                stderr.add(scope)
            elif isinstance(child, ast.Attribute) and child.attr == "stdout":
                stdout.add(scope)
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                for prefix, scopes in readers.items():
                    if child.id.startswith(prefix):
                        scopes.add(scope)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "SystemExit":
                    raised.append(scope)
            elif (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "exit"):
                exits.append((scope, ast.unparse(child.func)))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
            else:
                visit(child, scope)

    visit(tree, "")
    assert stderr == {"main"}
    assert stdout == {"_emit"}
    assert readers == {"_emit": {"main"}, "EXIT_": {"_Parser.error", "main"}}
    assert raised == []
    assert exits == [("_Parser.error", "self.exit"), ("", "sys.exit")]
