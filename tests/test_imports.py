"""Every name a module imports is used in it (a stand-in for pyflakes' check),
and every module-level function or class of the package is named somewhere."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "soscurves"
TREES = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, including those inside string annotations."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return out


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return imported - used


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == {"os", "b"}
    assert unused_imports("from a import B\ndef f(x: 'B | None'): pass\n") == set()


def test_no_module_imports_an_unused_name():
    found = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unused_imports(path.read_text())
    }
    assert not found, sorted(found)


def module_level_definitions(source: str) -> set[str]:
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in tree.body if isinstance(node, kinds)}


def referenced_names(source: str) -> set[str]:
    """Identifiers a file uses: names, attributes, imported names, and the
    dotted parts of string constants (wrappers that patch by name)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= set(node.value.split("."))
    return out


def test_dead_definitions_are_found():
    assert module_level_definitions("def f(): pass\nclass C: pass\nx = 1\n") == {"f", "C"}
    assert referenced_names("from a import b\nc.d('e.f')\n") >= {"b", "c", "d", "e", "f"}


def test_every_definition_is_named_somewhere():
    used = set()
    for tree in TREES:
        for path in sorted(tree.rglob("*.py")):
            used |= referenced_names(path.read_text())
    dead = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in module_level_definitions(path.read_text())
        if name not in used
    }
    assert not dead, sorted(dead)


def function_level_imports(source: str) -> set[tuple[str, str]]:
    """(function name, imported module) for every import inside a function."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    out.add((node.name, "." * sub.level + (sub.module or "")))
                elif isinstance(sub, ast.Import):
                    out |= {(node.name, a.name) for a in sub.names}
    return out


def test_function_level_imports_are_found():
    source = "import os\ndef f():\n    from .a import b\n    import c\n"
    assert function_level_imports(source) == {("f", ".a"), ("f", "c")}


def test_only_import_cycles_are_deferred():
    # the polynomial classes print through polyparse, which imports them back
    found = {
        (path.stem, *entry)
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in function_level_imports(path.read_text())
    }
    assert found == {("bipoly", "__repr__", ".polyparse"), ("unipoly", "__repr__", ".polyparse")}
