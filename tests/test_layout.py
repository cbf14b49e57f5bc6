"""``src/ginshift`` holds what the program runs: every module-level public
function is referenced somewhere else in the package (a call, an attribute,
an import, or an export from ``__init__.py``). A reference or oracle that
only the tests use belongs in the tests."""

import ast
from collections import Counter
from pathlib import Path

import ginshift

PACKAGE = Path(ginshift.__file__).parent

#: unreferenced functions kept in ``src/`` on purpose
ALLOWED = {
    "gin_multi_adaptive": "the Theorem 2 sweep over sampled weight orders "
                          "will call it",
    "degree2_trans_witnesses": "the tests' closure oracle for the witness "
                               "descents; the benchmark tracer wraps it",
    "write_graph": "the pair of the used read_graph",
    "write_ideal": "the pair of the used read_ideal",
    "alpha": "the alpha map, a computation offered to users",
}


def _names(tree) -> Counter:
    """How often each name is referred to within a syntax tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def unreferenced_functions(package=PACKAGE) -> list[str]:
    """``module.function`` for each module-level public function of the
    package that no code outside its own body refers to."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    names = sum(map(_names, trees.values()), Counter())
    return [f"{module}.{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and names[node.name] == _names(node)[node.name]]


def test_every_public_function_in_src_is_used():
    dead = [name for name in unreferenced_functions()
            if name.split(".")[1] not in ALLOWED]
    assert dead == [], f"move test-only helpers into tests/: {dead}"


def test_the_allowlist_names_only_unreferenced_functions():
    unused = {name.split(".")[1] for name in unreferenced_functions()}
    assert set(ALLOWED) <= unused


def _imported_modules(tree) -> set:
    """The package modules a syntax tree imports from (``from .x import``)."""
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level}


def _module_trees() -> dict:
    """The syntax tree of each module of the package, by file name."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _naming(trees, name: str) -> list:
    """The modules that define or refer to ``name``."""
    return sorted(module for module, tree in trees.items()
                  if _names(tree)[name] or any(
                      isinstance(node, ast.FunctionDef) and node.name == name
                      for node in tree.body))


def test_families_own_the_family_bound():
    # the exterior action's limit is named where the action lives; the
    # families hold their own bound and lean on nothing but the fields
    trees = _module_trees()
    assert _naming(trees, "MAX_EXT_VARIABLES") == ["changes.py"]
    assert _imported_modules(trees["families.py"]) == {"fields"}
    assert not any(_names(tree)["MAX_COMPLEX_VERTICES"]
                   for tree in trees.values())


def test_ideals_own_the_conversion_between_ideals_and_families():
    # an ideal becomes its subset family, and a family its ideal, in
    # ideals.py alone: the shifts of gin.py read and write families
    # through it, and no other module reads a family's minimal supports
    trees = _module_trees()
    assert _naming(trees, "minimal_family") == ["families.py", "ideals.py"]
    assert "gin.py" not in _naming(trees, "up_closure")


def test_monomials_own_the_coordinate():
    # a monomial of either ring reads as its exponent vector (an exterior
    # one as its support's indicator): no module keys monomials per ring,
    # the orders test no ring, and the readers of that vector are defined
    # once for both monomial types
    trees = _module_trees()
    assert _naming(trees, "COORDINATES") == []
    assert "orders.py" not in _naming(trees, "ExtMonomial")
    for name in ("min_index", "max_index", "divides"):
        assert sum(isinstance(node, ast.FunctionDef) and node.name == name
                   for tree in trees.values()
                   for node in ast.walk(tree)) == 1, name
