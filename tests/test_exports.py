"""Every name fourcurv exports has a production caller.

A production caller is the command-line front end and the library code
it reaches, code that runs at import, the benchmark under bench/ (as
`fc.<name>` or as a name in bench/tracing.py's TRACED), or the README,
which shows the name in backticks.  Reachability is an AST pass over
src/fourcurv: each top-level definition leads to the top-level names its
body reads (annotations aside), resolved through the module's relative
imports.  A route that only the tests run belongs in tests/proof_routes.py.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fourcurv"


def _reads(node) -> set:
    """Names read anywhere under node, annotations excepted."""
    names, stack = set(), [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            names.add(n.id)
        for field, value in ast.iter_fields(n):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)
    return names


def _library():
    """(edges, roots, exports): each top-level definition "module.name" with the
    definitions it reads, the definitions read by code that runs at import,
    and the package's re-exports as name -> "module.name"."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    edges, roots, exports = {}, set(), {}
    for module, tree in trees.items():
        scope, bodies, top = {}, {}, []
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "level", 0) == 1:
                    for alias in node.names:
                        scope[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[node.name] = node
            elif (isinstance(node, (ast.Assign, ast.AnnAssign))
                  and all(isinstance(t, ast.Name) for t in targets)):
                for t in targets:
                    bodies[t.id] = node.value
            elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                top.append(node)  # code that runs at import
        scope.update({name: f"{module}.{name}" for name in bodies})
        for name, body in bodies.items():
            edges[f"{module}.{name}"] = {scope[n] for n in _reads(body) if n in scope}
        for node in top:
            roots |= {scope[n] for n in _reads(node) if n in scope}
        if module == "__init__":
            exports = {n: t for n, t in scope.items() if not n.startswith("_")}
    return edges, roots, exports


def _bench_names(exports) -> set:
    bench = ROOT / "bench"
    names = set()
    for path in bench.rglob("*.py"):
        names |= {exports[n] for n in re.findall(r"\bfc\.(\w+)", path.read_text())
                  if n in exports}
    tracing = ast.parse((bench / "tracing.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    return names | {f"{module}.{fn}" for module, fns in traced.items() for fn in fns}


def _readme_names(exports) -> set:
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return {exports[n] for span in re.findall(r"`([^`\n]+)`", text)
            for n in re.findall(r"[A-Za-z_]\w*", span) if n in exports}


def test_every_export_has_a_production_caller():
    edges, roots, exports = _library()
    reached = set()
    todo = list(roots | _bench_names(exports) | _readme_names(exports))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += edges.get(name, ())
    unreached = sorted(n for n, target in exports.items() if target not in reached)
    assert unreached == [], f"exported with no production caller: {unreached}"
