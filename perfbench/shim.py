"""Tracing shim: run one macpoly CLI job in-process and record layer spans.

Usage:  python3 perfbench/shim.py SPANS_JSON [macpoly CLI arguments ...]

The shim imports macpoly, wraps public functions at the layer boundaries,
calls macpoly.cli.main(argv) and, at exit, writes its spans to SPANS_JSON as
{"spans": [[name, start, end, parent, counters], ...], "child_cpu_s": x}.
Times are time.perf_counter() seconds; parent is the index of the enclosing
span or -1; counters is null or a dict of integers (words, cache hits, ...).
stdout and the exit status are those of the CLI itself.

Rules the wrapping follows:
- modules are resolved through sys.modules, because `macpoly.macdonald` as an
  attribute of the package is the function, not the module;
- functions are imported by value across modules, so every macpoly global (and
  every value of a module-level dict, such as verify.SUITES) bound to the
  original function object is rebound to the wrapper;
- per-word helpers (word_statistics, letter_key, qtring, shapes) are never
  wrapped: one verify job calls them over a million times;
- spans recorded inside forked pool workers are lost, so the CPU of reaped
  workers is reported from getrusage(RUSAGE_CHILDREN) instead.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cells(args) -> int:
    return sum(args["mu"])


def _words(base):
    """Counter for an enumerating call: base(arguments) ** |mu| words."""
    return lambda args, result: {"words": base(args) ** _cells(args)}


def _cache_outcome(args, result):
    return {"cache_hits": int(result is not None), "cache_misses": int(result is None)}


def _suite_outcome(args, result):
    return {"checks": len(result), "failed": sum(1 for _, ok in result if not ok)}


def _m_basis_terms(args, result):
    return {"terms": len(args["f"].terms)}


def _beta_words(args, result):
    betas = args["betas"]
    return {"words": 2 ** len(betas)} if hasattr(betas, "__len__") else None


# (module, attribute, span name, counter(bound arguments, result) or None)
WRAPS = [
    ("macpoly.cli", "main", "cli.main", None),
    ("macpoly.cli", "_load_cached_table", "cli.cache_load", _cache_outcome),
    ("macpoly.cli", "_store_table", "cli.cache_store", None),
    ("macpoly.cli", "_compute_table", "cli.compute_table", None),
    ("macpoly.macdonald", "macdonald", "macdonald.macdonald", None),
    ("macpoly.macdonald", "macdonald_in_x", "macdonald.macdonald_in_x",
     _words(lambda a: a["nvars"])),
    ("macpoly.macdonald", "super_macdonald_in_xy", "macdonald.signed",
     _words(lambda a: a["npos"] + a["nneg"])),
    ("macpoly.macdonald", "plethysm_q_minus_one", "macdonald.signed",
     _words(lambda a: 2 * a["nvars"])),
    ("macpoly.macdonald", "plethysm_t_minus_one", "macdonald.signed",
     _words(lambda a: 2 * a["nvars"])),
    ("macpoly.macdonald", "one_minus_u_coeffs", "macdonald.signed", _words(lambda a: 2)),
    ("macpoly.macdonald", "descent_class_polys", "macdonald.descent_classes",
     _words(lambda a: a["nvars"])),
    ("macpoly.macdonald", "descent_class_poly", "macdonald.descent_classes",
     _words(lambda a: a["nvars"])),
    ("macpoly.symfunc", "to_m_basis", "symfunc.to_m_basis", _m_basis_terms),
    ("macpoly.symfunc", "m_to_schur", "symfunc.m_to_schur", None),
    ("macpoly.symfunc", "XPoly.is_symmetric", "symfunc.is_symmetric", None),
    ("macpoly.special", "integral_form_from_macdonald", "special.integral_form_signed",
     _words(lambda a: 2 * a["nvars"])),
    ("macpoly.special", "integral_form_in_x", "special.integral_form_direct",
     _words(lambda a: a["nvars"])),
    ("macpoly.special", "jack_alpha_in_x", "special.jack", _words(lambda a: a["nvars"])),
    ("macpoly.special", "jack_limit", "special.jack", None),
    ("macpoly.special", "hall_littlewood_schur", "special.hall_littlewood", None),
    ("macpoly.llt", "llt_poly", "llt.llt_poly", None),
    ("macpoly.llt", "check_ribbon_factorization", "llt.ribbon_checks", None),
    ("macpoly.llt", "check_transpose_identity", "llt.transpose_checks", None),
    ("macpoly.llt", "check_transpose_schur", "llt.transpose_checks", None),
    ("macpoly.llt", "binary_inversion_poly", "llt.binary_inversion_poly", _beta_words),
    ("macpoly.involutions", "attack_involution", "involutions.involution", None),
    ("macpoly.involutions", "row_bound_involution", "involutions.involution", None),
    ("macpoly.involutions", "attack_cancellation_holds", "involutions.cancellation",
     _words(lambda a: a["npos"] + a["nneg"])),
    ("macpoly.involutions", "row_bound_cancellation_holds", "involutions.cancellation",
     _words(lambda a: a["npos"] + a["nneg"])),
    ("macpoly.crystal", "check_word_axioms", "crystal.checks", None),
    ("macpoly.crystal", "check_recording_preserved", "crystal.checks", None),
    ("macpoly.crystal", "check_unique_yamanouchi", "crystal.checks", None),
    ("macpoly.crystal", "check_filling_operators", "crystal.checks", None),
    ("macpoly.crystal", "check_fiber_sizes", "crystal.checks", None),
    ("macpoly.crystal", "two_column_kostka", "crystal.two_column_kostka", None),
] + [
    ("macpoly.verify", f"suite_{suite}", f"verify.{suite}", _suite_outcome)
    for suite in ("axioms", "involutions", "llt", "cocharge", "jack", "crystal")
]


class Tracer:
    """Spans in call order; a span's slot is reserved when the call starts."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = [name, start, clock(), parent, None]
                raise
            finally:
                stack.pop()
            end = clock()
            counts = None
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, result)
            spans[index] = [name, start, end, parent, counts]
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "macpoly" or k.startswith("macpoly.")]
        for module_name, attribute, name, counter in WRAPS:
            owner = sys.modules[module_name]
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                setattr(cls, method, self.wrap(getattr(cls, method), name, counter))
                continue
            original = getattr(owner, attribute)
            traced = self.wrap(original, name, counter)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = traced
                    elif isinstance(value, dict):
                        for k2, v2 in list(value.items()):
                            if v2 is original:
                                value[k2] = traced


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import macpoly.cli  # noqa: F401  (imports every layer)

    t_import = time.perf_counter()
    tracer = Tracer()
    tracer.spans.append(["cli.import", T0, t_import, -1, None])
    tracer.install()
    status = 1
    try:
        status = sys.modules["macpoly.cli"].main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": tracer.spans, "child_cpu_s": children.ru_utime + children.ru_stime},
                fh,
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
