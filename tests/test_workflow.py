"""The CI workflow runs every property module in its deep step, and the
package carries no dead import or dead private name.

Read as plain text: the `ci-deep` step is the one line of the workflow that
selects that hypothesis profile, and it names each module it runs. The
package modules are read with `ast`.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_that_imports_hypothesis_runs_in_the_deep_step():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    deep = [line for line in workflow.splitlines() if "--hypothesis-profile ci-deep" in line]
    assert len(deep) == 1
    listed = set(re.findall(r"tests/(test_\w+\.py)", deep[0]))
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in (ROOT / "tests").glob("test_*.py")}
    properties = {name for name, text in modules.items()
                  if re.search(r"^(from|import) hypothesis\b", text, re.MULTILINE)}
    assert properties - listed == set()
    assert listed <= set(modules)


def _package():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "gatewatch").glob("*.py"))}


def _read_names(tree):
    """Every name a module reads: loaded names, attributes and the names it
    imports from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export
    unused = []
    for name, tree in _package().items():
        if name == "__init__.py":
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{name}: {b}" for b in bound if b not in loaded]
    assert unused == []


def test_every_private_module_name_is_used():
    # a module-level function, class or assignment named with one leading
    # underscore is read somewhere in the package
    package = _package()
    read = set().union(*map(_read_names, package.values()))
    unused = []
    for name, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}: {d}" for d in defined
                       if re.match(r"_[^_]", d) and d not in read]
    assert unused == []
