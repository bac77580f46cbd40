"""Only the oracles and the per-filling checks call the brute-force kernel.

`fillings.filling_sum` enumerates every word: n^n of them over a positive
alphabet, (2n)^n over a signed one. Production paths sum content by content
instead (`content_filling_sum`), so this scans the source with `ast` and pins
the functions that still reach the kernel, and those that call the
x-polynomial oracles, and checks that no subcommand but verify reaches any of
these sums. A name inside a nested function counts for the top-level function
around it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "macpoly"

# the x-polynomial oracles, the two-letter (1 - u) sum (2^n words), the
# involution checks, which test per-filling behaviour, and the signed LLT
# oracle, which hands the kernel only the semistandard tuples
ALLOWED = {
    "macdonald.macdonald_in_x",
    "macdonald.super_macdonald_in_xy",
    "macdonald.one_minus_u_coeffs",
    "involutions._signed_sums",
    "llt.llt_super_poly",
}


# the kernel, the x-polynomial oracles and the loop behind the direct
# integral-form and Jack sums: each walks all n^n words
BRUTE_FORCE = {
    "filling_sum",
    "macdonald_in_x",
    "integral_form_in_x",
    "jack_alpha_in_x",
    "_non_attacking_sum",
}


def top_level_names(source: str) -> dict[str, set[str]]:
    """The names each top-level function or class of a module refers to."""
    refs = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            refs[node.name] = names
    return refs


def kernel_callers(module: str, source: str, kernel: str = "filling_sum") -> set[str]:
    return {f"{module}.{name}" for name, names in top_level_names(source).items() if kernel in names}


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


def test_only_the_jack_suite_and_the_alpha_vector_call_the_x_oracles():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for oracle in ("macdonald_in_x", "integral_form_in_x", "jack_alpha_in_x"):
            callers |= kernel_callers(path.stem, source, oracle)
    # jack_alpha_m_vec takes its limit from the signed route and calls none
    assert callers == {"verify.suite_jack"}


def test_no_subcommand_but_verify_reaches_a_brute_force_sum():
    # a name stands for every top-level function so named in the package,
    # which can only widen what a subcommand reaches
    refs: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, names in top_level_names(path.read_text(encoding="utf-8")).items():
            refs.setdefault(name, set()).update(names)
    commands = [name for name in refs if name.startswith("_cmd_")]
    assert "_cmd_jmu" in commands and "_cmd_verify" in commands
    reached, todo = set(), [name for name in commands if name != "_cmd_verify"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(refs.get(name, set()) - reached)
    assert "content_filling_sum" in reached
    assert reached.isdisjoint(BRUTE_FORCE)


# the one place the command line writes an m-vector out in x, and the
# exported x-basis writers of the library
WRITE_OUTS = {
    "cli._print_poly",
    "llt.llt_poly",
    "special.jack_limit",
    "special.integral_form_from_macdonald",
    "macdonald._signed_plethysm",
}


def test_symmetric_functions_are_written_out_in_x_in_one_place():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        callers |= kernel_callers(path.stem, path.read_text(encoding="utf-8"), "from_m_basis")
    assert callers == WRITE_OUTS
    # verify compares m-vectors; only the two-variable recursion is in x
    verify = (PACKAGE / "verify.py").read_text(encoding="utf-8")
    assert not kernel_callers("verify", verify, "from_m_basis")
    assert kernel_callers("verify", verify, "XPoly") == {"verify._beta_step_holds"}
