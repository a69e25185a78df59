"""Source hygiene: every module under ``src/gsclab`` and ``tests`` reads
each name it imports, ``gsclab.__all__`` lists exactly what the package
imports, in order, every function in ``src/gsclab`` has a caller there
or is public API, every annotated class field in ``src/gsclab`` is read,
every attribute the benchmark tracer wraps still exists, only
``relations`` imports ``heapq``, and no ``isinstance`` in ``src/gsclab``
tests against a ``typing`` name.  No linter ships with the
project, so the check walks the syntax trees with ``ast`` alone."""

import ast
import importlib.util
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gsclab"


def dunder_all(tree: ast.Module) -> list[str]:
    """The names a module's top-level ``__all__`` lists, in its order."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names an import binds that the module never loads, other than
    ``from __future__`` features and the names its ``__all__`` exports."""
    tree = ast.parse(path.read_text(), str(path))
    bound: dict[str, int] = {}
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    exported = set(dunder_all(tree))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in loaded and name not in exported]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    problems = [p for path in modules if path != PACKAGE / "__init__.py"
                for p in unused_imports(path)]
    assert problems == []


def test_all_is_sorted_and_lists_the_package_imports():
    # The imports of __init__.py are its exports, so test_no_unused_imports
    # skips it; __all__ must name each of them once, sorted.
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = dunder_all(tree)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert exported == sorted(set(exported))
    assert set(exported) == imported


def load_tracing(path: pathlib.Path = ROOT / "perfbench" / "tracing.py"):
    """The benchmark tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def public_api(package: pathlib.Path, bench: pathlib.Path) -> set[str]:
    """Names code outside ``package`` may use: its ``__all__``, the
    attributes ``bench/tracing.py``'s ``_PATCHES`` wraps, and every
    attribute a file under ``bench`` reads."""
    names = set(dunder_all(ast.parse((package / "__init__.py").read_text())))
    names.update(attr for _, attr, _, _ in load_tracing(bench / "tracing.py")._PATCHES)
    for path in sorted(bench.rglob("*.py")):
        names.update(node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return names


def external_names(tree: ast.Module) -> set[str]:
    """The names a module binds by importing from outside its package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def functions_without_callers(package: pathlib.Path, public: set[str]) -> list[str]:
    """Functions and methods (not dunders) in ``package`` that no code of
    ``package`` outside their own definition names, as a variable or as an
    attribute, unless ``public`` holds their name and it has no leading
    underscore.  An attribute read off a name imported from outside the
    package (``itertools.product``) names none of them."""
    defs: dict[str, list[tuple[pathlib.Path, int, int]]] = {}
    refs: list[tuple[str, pathlib.Path, int]] = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        foreign = external_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defs.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif (isinstance(node, ast.Attribute)
                  and not (isinstance(node.value, ast.Name) and node.value.id in foreign)):
                refs.append((node.attr, path, node.lineno))
    called = {name for name, path, line in refs if name in defs
              and not any(p == path and first <= line <= last for p, first, last in defs[name])}
    return [f"{path.name}:{first}: {name}"
            for name, sites in sorted(defs.items())
            if name not in called and (name.startswith("_") or name not in public)
            for path, first, _ in sites]


def test_functions_have_src_callers():
    # Code that only tests call belongs in the tests.  Public API is what
    # the package exports and what the benchmark reaches into.
    public = public_api(PACKAGE, ROOT / "perfbench")
    assert functions_without_callers(PACKAGE, public) == []


def test_caller_rule_on_a_small_package(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text(
        'from .mod import exported\n\n__all__ = ["exported"]\n')
    (package / "mod.py").write_text(textwrap.dedent("""\
        import itertools


        def exported():
            return _helper()


        def _helper():
            return 1


        def traced():
            pass


        def benched():
            pass


        def uncalled():
            return uncalled()


        def product():
            return itertools.product()


        def _unused():
            pass


        class Box:
            def method(self):
                pass
        """))
    (bench / "tracing.py").write_text(textwrap.dedent("""\
        _PATCHES = ((None, "traced", "mod.traced", False),)


        def run(mod):
            return mod.benched()
        """))
    public = public_api(package, bench)
    assert {"exported", "traced", "benched"} <= public
    assert functions_without_callers(package, public | {"_unused"}) == [
        "mod.py:28: _unused", "mod.py:33: method", "mod.py:24: product",
        "mod.py:20: uncalled"]


def unread_fields(package: pathlib.Path, readers: list[pathlib.Path]) -> list[str]:
    """Annotated fields of the classes in ``package`` whose name no file
    under ``readers`` reads as an attribute."""
    read = {node.attr for root in readers for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{field.lineno}: {cls.name}.{field.target.id}"
            for path in sorted(package.glob("*.py"))
            for cls in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(cls, ast.ClassDef)
            for field in cls.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            and field.target.id not in read]


def test_class_fields_are_read():
    # A field nothing reads is state every instance carries for no one.
    readers = [PACKAGE, ROOT / "tests", ROOT / "perfbench"]
    assert unread_fields(PACKAGE, readers) == []


def test_field_rule_on_a_small_package(tmp_path):
    (tmp_path / "mod.py").write_text(textwrap.dedent("""\
        class Pair:
            left: int
            right: int = 0
            unused: str = ""
            plain = 1

            def total(self):
                return self.left + self.right
        """))
    assert unread_fields(tmp_path, [tmp_path]) == ["mod.py:4: Pair.unused"]


def test_tracer_patches_name_existing_attributes():
    # The tracer swaps ``owner.__dict__[attr]`` for a wrapper, so a renamed
    # or deleted attribute breaks ``perfbench/run.py --trace 1`` only there.
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in load_tracing()._PATCHES
               if attr not in owner.__dict__]
    assert missing == []


def imported_modules(path: pathlib.Path) -> set[str]:
    """The top-level names of the modules a file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_only_relations_orders_with_a_heap():
    # Kahn's algorithm lives in relations.least_order; every other ordering
    # goes through it or through relations.extensions.
    users = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "heapq" in imported_modules(path)]
    assert users == ["relations.py"]


def typing_isinstance_checks(path: pathlib.Path) -> list[str]:
    """``isinstance`` calls whose class, or one of whose classes, is a name
    imported from ``typing`` or an attribute of the ``typing`` module."""
    tree = ast.parse(path.read_text(), str(path))
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "typing")
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1]
        for c in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
            if (isinstance(c, ast.Name) and c.id in names
                    or isinstance(c, ast.Attribute) and isinstance(c.value, ast.Name)
                    and c.value.id in modules):
                out.append(f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(c)}")
    return out


def test_isinstance_takes_no_typing_alias():
    # isinstance against typing.Mapping goes through typing's Python-level
    # __instancecheck__ on every call; collections.abc.Mapping answers the
    # same question directly.  Annotations may still use typing names.
    problems = [p for path in sorted(PACKAGE.glob("*.py"))
                for p in typing_isinstance_checks(path)]
    assert problems == []
