"""The package's public surface is what its commands, demos and benchmark use.

An AST check over ``src/diffgap``:

- every name a module lists in ``__all__`` is referenced somewhere in
  ``src/``, ``demos/`` or ``perfbench/`` outside its own definition,
- so is every method, property and staticmethod of every class in the
  package, dunders apart, and every field of its dataclasses and
  NamedTuples, and
- every module-level import of a package module is used in that module.

A reference to a public name is a bare name in the defining module, an
attribute or ``from``-import of the module elsewhere, or a string equal to
the name (the benchmark's span table looks functions up by name).  A
reference to a class member is an attribute, a keyword or a string of that
name outside the member's own definition.  Tests do not count: a helper that
only its own tests call is dead code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diffgap"
USERS = [ROOT / "src", ROOT / "demos", ROOT / "perfbench"]

# Public names kept although nothing in src/, demos/ or perfbench/ calls them.
ALLOWED_UNREFERENCED = {
    # |e| as a tree: the tests build it for the quadrature kink and the
    # kernel's abs branch; dropping it would only move its construction there
    ("expr", "absval"),
    # the closed-form reference semigroup of the reflected/absorbed
    # intertwining (acceptance test 11)
    ("oracle", "kernel_apply"),
}

# Class members kept although nothing in src/, demos/ or perfbench/ reaches
# them: (module, class, member) -> the reason.
ALLOWED_UNREFERENCED_MEMBERS: dict[tuple[str, str, str], str] = {
    ("cli", "_SubcommandParser", "parse_known_args"):
        "overrides argparse's hook: the top-level parse_args reaches it through "
        "the subparsers action",
}


def _modules():
    return sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if _is_all(node):
            return ast.literal_eval(node.value)
    return []


def _module_aliases(tree: ast.Module, path: Path) -> tuple[dict, set]:
    """Local names bound to a package module, and the (module, name) pairs
    bound by ``from <module> import name``."""
    in_package = PACKAGE in path.parents
    aliases, direct = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "diffgap" and len(parts) == 2 and a.asname:
                    aliases[a.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            pkg = (node.level == 1 and in_package and not node.module) or node.module == "diffgap"
            sub = None
            if node.level == 1 and in_package and node.module:
                sub = node.module
            elif node.module and node.module.startswith("diffgap."):
                sub = node.module.split(".")[1]
            for a in node.names:
                if pkg:
                    aliases[a.asname or a.name] = a.name
                elif sub:
                    direct.add((sub, a.name))
    return aliases, direct


def _references() -> tuple[set, set]:
    """(module, name) pairs referenced through a module in src/, demos/ and
    perfbench/, and (file, is_string, enclosing top-level definition, name)
    for every bare name and string, so a definition's references to itself
    can be told apart."""
    refs, seen = set(), set()
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            tree = _parse(path)
            aliases, direct = _module_aliases(tree, path)
            refs |= direct
            for top in tree.body:
                if _is_all(top):
                    continue
                owner = getattr(top, "name", None)
                for node in ast.walk(top):
                    if isinstance(node, ast.Attribute):
                        base = node.value
                        if isinstance(base, ast.Name) and base.id in aliases:
                            refs.add((aliases[base.id], node.attr))
                        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                              and base.value.id == "diffgap"):
                            refs.add((base.attr, node.attr))
                    elif isinstance(node, ast.Name):
                        seen.add((path, False, owner, node.id))
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        seen.add((path, True, owner, node.value))
    return refs, seen


def _referenced(module: str, name: str, refs: set, seen: set) -> bool:
    """A bare name counts only in the defining module, outside the name's own
    definition; a string counts anywhere else too."""
    if (module, name) in refs:
        return True
    home = PACKAGE / f"{module}.py"
    return any(ident == name and (owner != name if path == home else is_string)
               for path, is_string, owner, ident in seen)


def test_every_public_name_has_a_caller():
    refs, seen = _references()
    dead = []
    for module in _modules():
        for name in _all_names(_parse(PACKAGE / f"{module}.py")):
            if (module, name) in ALLOWED_UNREFERENCED:
                continue
            if not _referenced(module, name, refs, seen):
                dead.append(f"{module}.{name}")
    assert not dead, f"public names no command, demo or benchmark reaches: {dead}"


def test_allowlist_names_exist():
    for module, name in ALLOWED_UNREFERENCED:
        assert name in _all_names(_parse(PACKAGE / f"{module}.py")), (module, name)


def _ends_in(node, name: str) -> bool:
    """Whether node names ``name``, bare or as a module attribute, or calls it."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name)


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: its annotated class-body names are fields."""
    return (any(_ends_in(d, "dataclass") for d in cls.decorator_list)
            or any(_ends_in(b, "NamedTuple") for b in cls.bases))


def _members() -> list[tuple[str, str, str]]:
    """(module, class, member) for every non-dunder function defined in a
    class body of the package (methods, properties and staticmethods) and
    every field of a dataclass or NamedTuple."""
    out = []
    for module in _modules():
        for cls in ast.walk(_parse(PACKAGE / f"{module}.py")):
            if isinstance(cls, ast.ClassDef):
                out += [(module, cls.name, f.name) for f in cls.body
                        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (f.name.startswith("__") and f.name.endswith("__"))]
                if _is_record(cls):
                    out += [(module, cls.name, f.target.id) for f in cls.body
                            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
    return out


def _member_references() -> set:
    """(file, enclosing class, enclosing member, name) for every attribute,
    keyword and string in src/, demos/ and perfbench/; the enclosing class
    and member are None outside a class body."""
    refs = set()

    def visit(node, path, cls, member):
        if isinstance(node, ast.ClassDef):
            cls, member = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and member is None \
                and cls is not None:
            member = node.name
        if isinstance(node, ast.Attribute):
            refs.add((path, cls, member, node.attr))
        elif isinstance(node, ast.keyword) and node.arg:
            refs.add((path, cls, member, node.arg))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add((path, cls, member, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, path, cls, member)

    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            visit(_parse(path), path, None, None)
    return refs


def test_every_class_member_has_a_caller():
    refs = _member_references()
    dead = []
    for module, cls, name in _members():
        if (module, cls, name) in ALLOWED_UNREFERENCED_MEMBERS:
            continue
        home = PACKAGE / f"{module}.py"
        if not any(ident == name and (path, owner, member) != (home, cls, name)
                   for path, owner, member, ident in refs):
            dead.append(f"{module}.{cls}.{name}")
    assert not dead, f"class members no command, demo or benchmark reaches: {dead}"


def test_member_allowlist_entries_exist_and_give_a_reason():
    members = set(_members())
    for entry, reason in ALLOWED_UNREFERENCED_MEMBERS.items():
        assert entry in members, entry
        assert reason.strip(), entry


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname is None and "." in a.name:
                    continue  # ``import numpy.random``: imported for its side effect
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(_all_names(tree))
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("module", ["__init__"] + _modules())
def test_no_unused_module_level_import(module):
    unused = _unused_imports(_parse(PACKAGE / f"{module}.py"))
    assert not unused, f"{module}.py imports names it never uses: {unused}"
