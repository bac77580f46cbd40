"""Every name a library module imports is used in that module; every
top-level function and class of the library, and every public method of a
top-level class, is used, exported, wrapped by the benchmark's tracing shim,
or kept as a named test oracle. A method counts as used where its name is an
attribute outside its own body; exporting a class does not keep its methods.
Every field of a NamedTuple is read as an attribute somewhere in the library.

No linter ships with the project, so this scans the source with `ast`: a name
bound by an import counts as used when it appears as a name anywhere in the
module (annotations included) or is listed in the module's __all__.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import macpoly

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "macpoly").glob("*.py"))

# top-level names that no library code uses, each kept on purpose
ORACLES = {
    "fillings.attack_inversion_count": "|Inv| by definition, checked against inv on the paper's example",
    "fillings.indicator": "I(x, y) by definition, the oracle of the letter_codes test x >= y | 1",
    "fillings.bottom_row_inversions": "one half of inv's triple decomposition, checked on every small filling",
    "fillings.inversion_triples": "the other half of inv's triple decomposition",
    "fillings.word_inverse_descent_set": "the descent sets the standard filling sum is checked against",
    "llt.tableau_inversions": "the LLT statistic summed directly, the oracle of the LLT content DP",
    "shapes.ribbon_descents": "reads a ribbon's descents back, the inverse ribbon_from_descents is tested against",
    "symfunc.schur_in_x": "Schur polynomials by tableaux, the oracle of schur_expand and qsym_q",
    "symfunc.qsym_q": "Gessel's Q_{n,D}, the oracle of the F expansion of the standard filling sum",
    "symfunc.super_exponents": "exponents of a signed word, used by the naive signed sums in tests",
    "special.eval_alpha": "evaluates Jack coefficients at an integer alpha; the README documents it",
    "symfunc.XPoly.prefix_part": "the restriction to fewer variables that llt_super_poly's docstring promises",
    "shapes.SkewShape.is_ribbon": "the ribbon oracle the ribbon constructions are tested against",
    "involutions.InvolutionStep.is_fixed": "part of the result the exported involutions return",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_the_scan_finds_an_unused_import():
    source = "from typing import Iterable, Iterator\n\ndef f(x: Iterable) -> int:\n    return 0\n"
    assert unused_imports(source) == ["Iterator (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def definitions(module: str, tree: ast.Module):
    """(qualified name, node, whether a bare name counts as a use) for every
    top-level function and class and every public method of a top-level class."""
    for top in tree.body:
        if isinstance(top, DEFINITIONS):
            yield f"{module}.{top.name}", top, True
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                    yield f"{module}.{top.name}.{node.name}", node, False


def uses(node: ast.AST, name: str, as_name: bool) -> int:
    """Occurrences of name inside node: as an attribute, and also as a bare
    name when as_name is set."""
    return sum(
        (isinstance(n, ast.Attribute) and n.attr == name)
        or (as_name and isinstance(n, ast.Name) and n.id == name)
        for n in ast.walk(node)
    )


def unreferenced(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes, as module.name, and the public
    methods of top-level classes, as module.Class.method, whose name appears
    in no module outside their own definition (imports do not count, and a
    method counts only where its name is an attribute)."""
    names, attributes, defined = Counter(), Counter(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        names.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
        attributes.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        defined += definitions(module, tree)
    unused = []
    for qualified, node, as_name in defined:
        name = qualified.rsplit(".", 1)[1]
        total = attributes[name] + (names[name] if as_name else 0)
        if total == uses(node, name, as_name):
            unused.append(qualified)
    return sorted(unused)


def test_the_scan_finds_an_unreferenced_function():
    sources = {
        "a": "def used():\n    return 1\n\ndef unused(n):\n    return unused(n - 1) if n else used()\n",
        "b": "from .a import used\n\nclass Kept:\n    x = used()\n",
    }
    assert unreferenced(sources) == ["a.unused", "b.Kept"]


def test_the_scan_finds_an_unreferenced_method():
    # size is called from another method and a function; grow only calls
    # itself; total appears elsewhere only as a bare name; _hidden is private
    source = (
        "class Box:\n"
        "    def size(self):\n        return 1\n"
        "    def grow(self, n):\n        return self.grow(n - 1) if n else self.size()\n"
        "    def total(self):\n        return 0\n"
        "    def _hidden(self):\n        return 0\n\n"
        "def main(total=0):\n    return Box().size() + total\n\n"
        "main()\n"
    )
    assert unreferenced({"a": source}) == ["a.Box.grow", "a.Box.total"]


def unread_fields(sources: dict[str, str]) -> list[str]:
    """The fields of every NamedTuple class, as module.Class.field, whose
    name is read as an attribute nowhere in the sources: a field that only
    its construction sets is one no code needs."""
    read, fields = Counter(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        read.update(
            n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        )
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in top.bases
            ):
                fields += [
                    f"{module}.{top.name}.{node.target.id}"
                    for node in top.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                ]
    return sorted(field for field in fields if not read[field.rsplit(".", 1)[1]])


def test_the_scan_finds_an_unread_field():
    # label is set by the constructor but never read; y is read once
    source = (
        "import typing\n\n"
        "class Point(typing.NamedTuple):\n    x: int\n    y: int\n    label: str = ''\n\n"
        "def shift(p):\n    return p._replace(x=p.y, label='moved')\n\n"
        "ORIGIN = Point(0, 0, label='origin')\n"
    )
    assert unread_fields({"a": source}) == ["a.Point.label", "a.Point.x"]


def test_every_named_tuple_field_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_fields(sources) == []


def shim_wraps() -> list:
    # loaded from its file, as the benchmark runs it, without importing perfbench
    spec = importlib.util.spec_from_file_location("perfbench_shim", ROOT / "perfbench" / "shim.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_top_level_name_is_used_exported_wrapped_or_an_oracle():
    # an exported class keeps its own name, not its methods
    kept = set(macpoly.__all__) | {attribute for _, attribute, _, _ in shim_wraps()}
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    unused = [name for name in unreferenced(sources) if name.split(".", 1)[1] not in kept]
    assert unused == sorted(ORACLES)


def package_imports(sources: dict[str, str]) -> dict[str, set[str]]:
    """{module: the modules of the package it imports}, read off its
    `from .x import ...` statements; `from . import ...` names __init__."""
    return {
        module: {
            node.module or "__init__"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
        for module, source in sources.items()
    }


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the graph as a path that ends where it starts, or []."""
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> list[str]:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        for target in sorted(graph.get(module, ())):
            cycle = visit(target, path + [module])
            if cycle:
                return cycle
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module, [])
        if cycle:
            return cycle
    return []


def test_the_layering_scan_finds_a_cycle():
    sources = {"a": "from .b import f\n", "b": "from .c import g\n", "c": "from . import __version__\n"}
    assert package_imports(sources) == {"a": {"b"}, "b": {"c"}, "c": {"__init__"}}
    assert import_cycle(package_imports(sources)) == []
    sources["c"] = "from .a import h\n"
    assert import_cycle(package_imports(sources)) == ["a", "b", "c", "a"]


def test_the_package_imports_are_layered():
    # an acyclic graph lets any module be imported on its own, first
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    graph = package_imports(sources)
    assert "fillings" in graph["symfunc"]  # the edge the tableau generator brought
    assert import_cycle(graph) == []


# pyproject.toml declares requires-python >= 3.10; this checks the grammar of
# every source file against 3.10, not which library calls 3.10 provides
MINIMUM_PYTHON = (3, 10)
ALL_SOURCES = sorted(
    path for folder in ("src/macpoly", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")
)


def test_the_grammar_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=MINIMUM_PYTHON)


def test_every_source_file_parses_as_the_minimum_python():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert len(ALL_SOURCES) > len(SOURCES)
    for path in ALL_SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=MINIMUM_PYTHON)
