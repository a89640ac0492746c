"""Every public function and method of the package has a caller in the
package.

A public name that only tests call is API kept alive by its tests: their
checks pin behaviour that no command runs.  The scan matches by name, so a
method counts as called when any name or attribute in src/ spells it outside
the method's own body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "landau_lab"

# Public names with no caller in the package, each kept on purpose.
ALLOWED = {
    "bargmann.bargmann_project_quadrature":
        "quadrature oracle the exact vacuum projection is tested against",
    "torus.DiscreteBundle.plaquette_phases":
        "gauge oracle: the bundle's plaquette holonomy is tested with it",
    "fock.FockOperator.as_array":
        "dense view through which the exact algebra is tested against numpy",
    "surfaces.sphere_crosscheck":
        "entry point of the surface-table acceptance criterion",
    "torus.peaked_gram":
        "entry point of the peaked-section pairing acceptance criterion",
}


def _uncalled() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append(("%s.%s" % (module, node.name), node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defs += [("%s.%s.%s" % (module, node.name, sub.name), sub)
                         for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and not sub.name.startswith("_")]
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    out = set()
    for qualname, node in defs:
        name = node.name
        own = {id(n) for n in ast.walk(node)}
        if not any(r == name and id(n) not in own for r, n in refs):
            out.add(qualname)
    return out


def test_every_public_function_has_a_caller_in_the_package():
    assert sorted(_uncalled() - set(ALLOWED)) == []


def test_allowlist_holds_only_uncalled_names():
    # a name that gained a caller, or was deleted, leaves the list
    assert sorted(set(ALLOWED) - _uncalled()) == []
