"""Mutation testing of one module of the source tree, with the standard
library only.

    python scripts/mutate.py stpz/svd.py tests/test_svd.py tests/test_nkp.py

Each mutant makes one change to the module:

- compare: a comparison operator becomes its boundary twin (< and <=,
  > and >=, == and !=, in and not in, is and is not);
- boolop: an ``and`` becomes ``or``, or the reverse;
- const: a module-level integer constant (an UPPER_CASE name, such as
  ``_BAND = 1 << 16``) goes up or down by one;
- delete: a statement of a function body that is not a return or a raise
  becomes ``pass``.

The mutants are written, one at a time, to a temporary copy of the source
tree (``--src``, default ``src/``); the working tree is never written.  The
tests (default ``tests``) run against each with ``pytest -x``, Hypothesis at
a fixed seed and with a fresh example database, so that two passes over one
tree give the same report.  A mutant they fail on, or time out on, is
killed; one they pass survived, unless ``scripts/mutation-known.json``
lists it as equivalent.  The JSON report (``--report``) lists every mutant
with its id, line, operator and status.  A mutant's id names its scope and
its change, not its line, so that the known list survives edits elsewhere
in the module.  A full pass over one module takes several minutes to tens
of minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOWN = Path(__file__).resolve().parent / "mutation-known.json"
HYPOTHESIS_SEED = 0

_TWINS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


def _nodes(tree: ast.AST) -> list[ast.AST]:
    # Every node in a fixed order, so that an index names the same node in
    # every parse of the same source.
    return list(ast.walk(tree))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scopes(tree: ast.AST) -> tuple[dict[int, str], set[int]]:
    # The qualified name of the function or class around each node (a def's
    # own name for the def), and the nodes that lie in a function's body.
    names, inside = {}, set()

    def visit(node, scope, in_function):
        names[id(node)] = scope
        if in_function:
            inside.add(id(node))
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (*_FUNCTIONS, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner, in_function or isinstance(node, _FUNCTIONS))

    visit(tree, "<module>", False)
    return names, inside


def _int_constant(node: ast.Assign) -> int | None:
    # The value of NAME = <integer expression> for an UPPER_CASE NAME.
    target = node.targets[0]
    if len(node.targets) != 1 or not (isinstance(target, ast.Name) and target.id.isupper()):
        return None
    if not all(isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
               for n in ast.walk(node.value)):
        return None
    value = eval(compile(ast.Expression(node.value), "<constant>", "eval"), {"__builtins__": {}})
    return value if type(value) is int else None


def _deletable(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Return, ast.Raise, ast.Pass, ast.Global, ast.Nonlocal,
                         *_FUNCTIONS, ast.ClassDef)):
        return False
    # A docstring.
    return not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))


def mutants(source: str) -> list[dict]:
    """Every mutant of ``source``: its id (scope, operator, and the code
    before and after), line, operator, and where it is (the index of the
    node it changes and how)."""
    tree = ast.parse(source)
    nodes, (scopes, inside) = _nodes(tree), _scopes(tree)
    found, seen = [], {}

    def add(node, op, before, after, where):
        key = f"{scopes[id(node)]}: {op} {before} -> {after}"
        seen[key] = seen.get(key, 0) + 1
        found.append({
            "id": key if seen[key] == 1 else f"{key} #{seen[key]}",
            "line": node.lineno, "operator": op, "where": where,
        })

    for k, node in enumerate(nodes):
        if isinstance(node, ast.Compare):
            for j, cmp in enumerate(node.ops):
                mutated = ast.Compare(node.left, list(node.ops), node.comparators)
                mutated.ops[j] = _TWINS[type(cmp)]()
                add(node, "compare", ast.unparse(node), ast.unparse(mutated), (k, "compare", j))
        elif isinstance(node, ast.BoolOp):
            other = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            add(node, "boolop", ast.unparse(node), ast.unparse(ast.BoolOp(other, node.values)),
                (k, "boolop", 0))
        elif isinstance(node, ast.Assign) and scopes[id(node)] == "<module>":
            value = _int_constant(node)
            if value is not None:
                name = node.targets[0].id
                for step in (1, -1):
                    add(node, "const", f"{name} = {ast.unparse(node.value)}",
                        f"{name} = {value + step}", (k, "const", step))
        # The statement lists of a def and of the compound statements in it.
        if isinstance(node, _FUNCTIONS) or (
            id(node) in inside and isinstance(node, ast.stmt) and not isinstance(node, ast.ClassDef)
        ):
            for field in ("body", "orelse", "finalbody"):
                for j, stmt in enumerate(getattr(node, field, [])):
                    if isinstance(stmt, ast.stmt) and _deletable(stmt):
                        text = ast.unparse(stmt).splitlines()[0]
                        add(stmt, "delete", text, "pass", (k, field, j))
    return found


def _apply(tree: ast.Module, where) -> ast.Module:
    k, kind, arg = where
    node = _nodes(tree)[k]
    if kind == "compare":
        node.ops[arg] = _TWINS[type(node.ops[arg])]()
    elif kind == "boolop":
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif kind == "const":
        node.value = ast.Constant(_int_constant(node) + arg)
    else:
        getattr(node, kind)[arg] = ast.Pass()
    return ast.fix_missing_locations(tree)


def mutated_source(source: str, mutant: dict) -> str:
    return ast.unparse(_apply(ast.parse(source), mutant["where"]))


def run_tests(tests: list[str], src: Path, cwd: Path, timeout: float | None) -> tuple[bool, float]:
    """Whether pytest -x passes on ``tests`` with ``src`` first on the path,
    and how long it took; a run past ``timeout`` seconds fails.

    Hypothesis draws every run's examples from one fixed seed and keeps
    its example database in a fresh directory beside ``src``, so no run
    replays another's failures and a run's result is a function of the
    code; ``cwd`` gets no ``.hypothesis/``."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests]
    with tempfile.TemporaryDirectory(dir=src.parent) as store:
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=store)
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module under --src, e.g. stpz/svd.py")
    parser.add_argument("tests", nargs="*", default=["tests"], help="pytest paths (default tests)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree (default src/)")
    parser.add_argument("--known", type=Path, default=KNOWN, help="known equivalent mutants")
    parser.add_argument("--report", type=Path, default=Path("mutation-report.json"))
    args = parser.parse_args(argv)

    src = args.src.resolve()
    module = Path(args.module).as_posix()
    source = (src / module).read_text()
    found = mutants(source)
    known = json.loads(args.known.read_text()) if args.known.exists() else []
    equivalent = {k["id"] for k in known if k["module"] == module}
    tests = [str(Path(t).resolve()) for t in args.tests]

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / module
        # The baseline runs the module as every mutant is written, unparsed.
        target.write_text(ast.unparse(ast.parse(source)))
        passed, seconds = run_tests(tests, copy, src.parent, None)
        if not passed:
            print(f"the tests fail on the unmutated {module}; no mutant was run", file=sys.stderr)
            return 1
        timeout = max(60.0, 10 * seconds)
        for n, m in enumerate(found, 1):
            target.write_text(mutated_source(source, m))
            survived, _ = run_tests(tests, copy, src.parent, timeout)
            m["status"] = (
                "killed" if not survived else "equivalent" if m["id"] in equivalent else "survived"
            )
            print(f"[{n}/{len(found)}] {m['status']:10s} {m['id']}", file=sys.stderr)

    counts = {s: sum(m["status"] == s for m in found) for s in ("killed", "survived", "equivalent")}
    report = {
        "module": module,
        "tests": args.tests,
        **counts,
        "mutants": [{k: m[k] for k in ("id", "line", "operator", "status")} for m in found],
        "known_not_generated": sorted(equivalent - {m["id"] for m in found}),
    }
    args.report.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{module}: {counts['killed']} of {len(found)} killed, {counts['survived']} survived, "
          f"{counts['equivalent']} known equivalent; report in {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
