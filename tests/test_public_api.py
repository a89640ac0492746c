"""Every function and method of the package has a caller in the package,
and every module-level constant and import a reader.

A public name that only tests call is API kept alive by its tests: their
checks pin behaviour that no command runs.  A private helper without a
caller is dead code.  The scan matches by name, and it resolves three kinds
of receiver to a class of the package, so that the attribute counts only
for that class's method: the class itself (`Cls.name`), `self` or `cls` in
a method of the class, and a parameter annotated with the class
(`f: TrigPoly`).  Any other name or attribute in src/ (a bare call,
`obj.name`, `module.name`) counts for every function and method it spells,
outside that function's own body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "landau_lab"

# Public names with no caller in the package, each kept on purpose.
ALLOWED = {
    "torus.DiscreteBundle.plaquette_phases":
        "gauge oracle: the bundle's plaquette holonomy is tested with it",
    "fock.FockOperator.as_array":
        "dense view through which the exact algebra is tested against numpy",
    "surfaces.sphere_crosscheck":
        "entry point of the surface-table acceptance criterion",
    "torus.peaked_gram":
        "entry point of the peaked-section pairing acceptance criterion",
    "fock.PolyZZbar.evaluate":
        "quadrature oracle: exact pairings of polynomials are tested against it",
    "bargmann.gram_inner":
        "the pairing as a CRad, read by the benchmark's sympy sample; it "
        "goes with the radicals module",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _annotated_class(arg: ast.arg, classes: set[str]) -> str | None:
    """The package class a parameter is annotated with, bare or quoted."""
    ann = arg.annotation
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        name = ann.value
    else:
        name = ann.id if isinstance(ann, ast.Name) else None
    return name if name in classes else None


def _collect_refs(node, classes, receivers, enclosing, out) -> None:
    """Append (spelled name, the package class it is looked up on or None,
    node) for every name and attribute under node.  receivers maps the
    names known to hold a package class to it; enclosing is the class whose
    body node is in, whose methods' self and cls hold it."""
    if isinstance(node, ast.ClassDef):
        enclosing = node.name
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        receivers = dict(receivers)
        a = node.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
            if arg is None:
                continue
            owner = (enclosing if arg.arg in ("self", "cls")
                     else _annotated_class(arg, classes))
            if owner is None:
                receivers.pop(arg.arg, None)
            else:
                receivers[arg.arg] = owner
        enclosing = None
    if isinstance(node, ast.Name):
        out.append((node.id, None, node))
    elif isinstance(node, ast.Attribute):
        owner = None
        if isinstance(node.value, ast.Name):
            name = node.value.id
            owner = receivers.get(name, name if name in classes else None)
        out.append((node.attr, owner, node))
    for child in ast.iter_child_nodes(node):
        _collect_refs(child, classes, receivers, enclosing, out)


def _uncalled(wanted=_is_public) -> set[str]:
    """The functions, and the methods of public classes, whose names `wanted`
    accepts and that nothing else in the package refers to."""
    trees = _trees()
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    # (qualified name, owning class or None, definition)
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and wanted(node.name):
                defs.append(("%s.%s" % (module, node.name), None, node))
            elif isinstance(node, ast.ClassDef) and _is_public(node.name):
                defs += [("%s.%s.%s" % (module, node.name, sub.name), node.name, sub)
                         for sub in node.body
                         if isinstance(sub, ast.FunctionDef) and wanted(sub.name)]
    refs = []
    for tree in trees.values():
        _collect_refs(tree, classes, {}, None, refs)
    out = set()
    for qualname, cls, node in defs:
        name = node.name
        own = {id(n) for n in ast.walk(node)}
        if not any(r == name and owner in (None, cls) and id(n) not in own
                   for r, owner, n in refs):
            out.add(qualname)
    return out


def test_scan_resolves_self_and_annotated_receivers():
    tree = ast.parse("class A:\n    def m(self):\n        return self.go()\n"
                     "def f(x: 'A', y):\n    return x.go(), y.go()\n")
    refs = []
    _collect_refs(tree, {"A"}, {}, None, refs)
    assert [owner for name, owner, _ in refs if name == "go"] == ["A", "A", None]


def test_every_public_function_has_a_caller_in_the_package():
    assert sorted(_uncalled() - set(ALLOWED)) == []


def test_allowlist_holds_only_uncalled_names():
    # a name that gained a caller, or was deleted, leaves the list
    assert sorted(set(ALLOWED) - _uncalled()) == []


def test_every_private_function_has_a_caller_in_the_package():
    # Single-underscore helpers, dunders apart, with no allowlist: a helper
    # that only tests call, or that nothing calls, is deleted.
    assert sorted(_uncalled(_is_private)) == []


def test_every_module_level_name_is_read_in_the_package():
    # Assigned constants and imports, dunders apart: a name that nothing in
    # src/ reads, such as a margin left behind by a deleted code path that
    # only tests still set, is deleted.  A name counts as read when it is
    # loaded, or spelled as an attribute (`torus.NAME`), anywhere in src/.
    trees = _trees()
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
            or isinstance(node, ast.Attribute)}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                  and node.module != "__future__"):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            else:
                continue
            unread += ["%s.%s" % (module, n) for n in names
                       if not (n.startswith("__") and n.endswith("__")) and n not in read]
    assert sorted(unread) == []
