"""Only the oracles and the per-filling checks call the brute-force kernel.

`fillings.filling_sum` enumerates every word: n^n of them over a positive
alphabet, (2n)^n over a signed one. Production paths sum content by content
instead (`content_filling_sum`), so this scans the source with `ast` and pins
the functions that still reach the kernel. A name inside a nested function
counts for the top-level function around it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "macpoly"

# the x-polynomial oracles, the two-letter (1 - u) sum (2^n words) and the
# involution checks, which test per-filling behaviour
ALLOWED = {
    "macdonald.macdonald_in_x",
    "macdonald.super_macdonald_in_xy",
    "macdonald.one_minus_u_coeffs",
    "involutions._signed_sums",
}


def kernel_callers(module: str, source: str, kernel: str = "filling_sum") -> set[str]:
    callers = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if kernel in names:
                callers.add(f"{module}.{node.name}")
    return callers


def test_the_scan_finds_a_nested_caller():
    source = (
        "from .fillings import filling_sum\n\n"
        "def outer(sd):\n    def inner():\n        return filling_sum(sd, {}, 0)\n    return inner\n\n"
        "def other(sd):\n    return fillings.filling_sum\n\n"
        "def clean(sd):\n    return content_filling_sum(sd, ())\n"
    )
    assert kernel_callers("m", source) == {"m.outer", "m.other"}


def test_only_the_oracles_call_the_brute_force_kernel():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers |= kernel_callers(path.stem, path.read_text(encoding="utf-8"))
    assert callers == ALLOWED
