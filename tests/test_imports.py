"""Every name a library module imports is used in that module, and every
top-level function and class of the library is used, exported, wrapped by the
benchmark's tracing shim, or kept as a named test oracle.

No linter ships with the project, so this scans the source with `ast`: a name
bound by an import counts as used when it appears as a name anywhere in the
module (annotations included) or is listed in the module's __all__.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import macpoly

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "macpoly").glob("*.py"))

# top-level names that no library code uses, each kept on purpose
ORACLES = {
    "fillings.attack_inversion_count": "|Inv| by definition, checked against inv on the paper's example",
    "fillings.bottom_row_inversions": "one half of inv's triple decomposition, checked on every small filling",
    "fillings.inversion_triples": "the other half of inv's triple decomposition",
    "fillings.word_inverse_descent_set": "the descent sets the standard filling sum is checked against",
    "llt.tableau_inversions": "the LLT statistic summed directly, the oracle of the LLT content DP",
    "shapes.ribbon_descents": "reads a ribbon's descents back, the inverse ribbon_from_descents is tested against",
    "symfunc.schur_in_x": "Schur polynomials by tableaux, the oracle of schur_expand and qsym_q",
    "symfunc.qsym_q": "Gessel's Q_{n,D}, the oracle of the F expansion of the standard filling sum",
    "symfunc.super_exponents": "exponents of a signed word, used by the naive signed sums in tests",
    "special.eval_alpha": "evaluates Jack coefficients at an integer alpha; the README documents it",
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes, as module.name, whose name appears
    in no module outside their own definition (imports do not count)."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, DEFINITIONS) else None
            if own:
                defined.append(f"{module}.{own}")
            names = {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            referenced |= names - {own}
    return sorted(name for name in defined if name.split(".")[1] not in referenced)


def test_the_scan_finds_an_unreferenced_function():
    sources = {
        "a": "def used():\n    return 1\n\ndef unused(n):\n    return unused(n - 1) if n else used()\n",
        "b": "from .a import used\n\nclass Kept:\n    x = used()\n",
    }
    assert unreferenced(sources) == ["a.unused", "b.Kept"]


def shim_wraps() -> list:
    # loaded from its file, as the benchmark runs it, without importing perfbench
    spec = importlib.util.spec_from_file_location("perfbench_shim", ROOT / "perfbench" / "shim.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_top_level_name_is_used_exported_wrapped_or_an_oracle():
    kept = set(macpoly.__all__) | {attribute.split(".")[0] for _, attribute, _, _ in shim_wraps()}
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    unused = [name for name in unreferenced(sources) if name.split(".")[1] not in kept]
    assert unused == sorted(ORACLES)
