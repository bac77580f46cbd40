"""Command line front end.

Every computation sums over fillings or sets of cells, so sizes are guarded;
the library itself takes any size. There is one cap per cost class: the
subset DP on one shape (SHAPE_GUARD cells) or on every shape of a table
(TABLE_GUARD), that DP written out in x or run over a signed alphabet
(WORD_GUARD), the monomials written out in --vars variables (TERM_GUARD),
and verify's n (VERIFY_GUARD). README's "Size guards" table gives each cap's
commands and the time at the cap. --force-guard lifts a cap.
kostka-table --workers N opens at most one process per column and per CPU.
verify takes --n-max and --samples; every other suite bound (alphabet, word
and beta lengths, seed) is a library parameter that runs at its default.
verify with one suite refuses a bound that suite does not take; verify all
passes each suite the bounds it takes.
Exit status is 0 on success, 1 when a verification suite reports a failure
or stdout is closed before the output is written (as by `| head`), and 2 for
usage errors (including tripped guards).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from math import comb
from multiprocessing import Pool

from . import __version__
from .crystal import two_column_kostka
from .llt import llt_m_vec
from .macdonald import kostka_column, macdonald
from .qtring import QT
from .shapes import (
    Partition,
    format_partition,
    parse_partition,
    partitions,
    ribbon_tuple,
)
from .special import hall_littlewood_schur, integral_form_m_vec, jack_alpha_m_vec
from .symfunc import from_m_basis, m_to_schur
from .verify import SUITES, run_suite, suite_bounds

# size guards, one per cost class (see the module docstring)
SHAPE_GUARD = 10
TABLE_GUARD = 9
WORD_GUARD = 7
VERIFY_GUARD = 6
# cap on the monomials that --basis x writes out in --vars variables
TERM_GUARD = 10_000
CACHE_SCHEMA = 1
CACHE_ENV = "MACPOLY_CACHE_DIR"


def _parse_mu(parser: argparse.ArgumentParser, text: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as exc:
        parser.error(str(exc))


def _guard(parser: argparse.ArgumentParser, n: int, limit: int, forced: bool) -> None:
    if n > limit and not forced:
        parser.error(
            f"size {n} exceeds the guard of {limit} cells; pass --force-guard to proceed"
        )


def _guard_terms(parser: argparse.ArgumentParser, n: int, nvars: int, forced: bool) -> None:
    """Refuse to write out more than TERM_GUARD monomials: a degree-n
    polynomial in nvars variables has up to C(nvars + n - 1, n) of them."""
    terms = comb(nvars + n - 1, n)
    if terms > TERM_GUARD and not forced:
        parser.error(
            f"{nvars} variables give up to {terms} monomials of degree {n}, "
            f"above the guard of {TERM_GUARD}; pass --force-guard to proceed"
        )


def _nvars(parser: argparse.ArgumentParser, args, n: int) -> int:
    """The number of variables --basis x is written out in: --vars, else n.
    Only --basis x takes --vars, and its write-out is capped by _guard_terms."""
    if args.vars is not None and args.basis != "x":
        parser.error("argument --vars: only --basis x takes a number of variables")
    nvars = args.vars or max(n, 1)
    if args.basis == "x":
        _guard_terms(parser, n, nvars, args.force_guard)
    return nvars


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _at_least(least: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return integer


def _coeff_term(c, label: str) -> str:
    s = str(c)
    if s == "1":
        return label
    if isinstance(c, QT) and len(c.terms) > 1:
        return f"({s})*{label}"
    if not isinstance(c, QT) and ("+" in s or s.startswith("-")):
        return f"({s})*{label}"
    return f"{s}*{label}"


def _vec_text(vec: dict[Partition, object], n: int, letter: str) -> str:
    terms = []
    for lam in partitions(n):
        c = vec.get(lam)
        if c:
            terms.append(_coeff_term(c, f"{letter}[{format_partition(lam)}]"))
    return " + ".join(terms) if terms else "0"


def _coeff_json(c):
    return c.to_json() if isinstance(c, QT) else c


def _vec_json(vec: dict[Partition, object], n: int) -> list:
    return [
        [list(lam), _coeff_json(vec[lam])]
        for lam in partitions(n)
        if vec.get(lam)
    ]


def _print_poly(vec, n: int, basis: str, fmt: str, extra: dict, nvars: int | None = None) -> None:
    """Print an m- or Schur vector; --basis x writes the m-vector out in nvars
    variables, the one place the command line builds an x-polynomial."""
    if basis == "x":
        f = from_m_basis(vec, nvars)
        # unindented: indent would make the JSON about 8 times the text
        print(json.dumps({**extra, "basis": basis, "polynomial": f.to_json()}) if fmt == "json" else f)
    elif fmt == "json":
        print(json.dumps({**extra, "basis": basis, "terms": _vec_json(vec, n)}, indent=2))
    else:
        print(_vec_text(vec, n, "m" if basis == "m" else "s"))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_hmu(parser, args) -> int:
    mu = _parse_mu(parser, args.mu)
    n = sum(mu)
    _guard(parser, n, WORD_GUARD if args.basis == "x" else SHAPE_GUARD, args.force_guard)
    nvars = _nvars(parser, args, n)
    res = macdonald(mu)
    vec = res.schur_vec if args.basis == "schur" else res.m_vec
    _print_poly(vec, n, args.basis, args.format, {"mu": list(mu)}, nvars)
    return 0


def _compute_table(n: int, workers: int) -> dict:
    mus = partitions(n)
    workers = min(workers, len(mus), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            columns = pool.map(kostka_column, mus)
    else:
        columns = map(kostka_column, mus)
    return {
        "schema": CACHE_SCHEMA,
        "n": n,
        "partitions": [list(mu) for mu in mus],
        "table": [[c.to_json() for c in row] for row in zip(*columns)],
    }


def _load_cached_table(path: str, n: int) -> dict | None:
    """The cached payload, or None unless it is a well-formed table for n."""
    mus = [list(mu) for mu in partitions(n)]
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        table = payload["table"]
        ok = (
            (payload["schema"], payload["n"], payload["partitions"]) == (CACHE_SCHEMA, n, mus)
            and len(table) == len(mus)
            and all(len(row) == len(mus) for row in table)
            and all(QT.from_json(entry).to_json() == entry for row in table for entry in row)
        )
    except (OSError, LookupError, TypeError, ValueError):
        return None
    return payload if ok else None


def _store_table(path: str, payload: dict) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cache_step(parser, path: str, step, *args, **kwargs) -> None:
    """Run one step of caching path; an OSError is a usage error naming it."""
    try:
        step(*args, **kwargs)
    except OSError as exc:
        parser.error(f"cannot cache the table at {path}: {exc.strerror or exc}")


def _render_table_text(payload: dict) -> str:
    labels = [format_partition(mu) for mu in payload["partitions"]]
    grid = [["lambda \\ mu", *labels]] + [
        [lam, *(str(QT.from_json(entry)) for entry in row)]
        for lam, row in zip(labels, payload["table"])
    ]
    widths = [max(map(len, column)) for column in zip(*grid)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in grid
    )


def _cmd_kostka_table(parser, args) -> int:
    n = args.n
    if n < 0:
        parser.error("n must be nonnegative")
    _guard(parser, n, TABLE_GUARD, args.force_guard)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    payload = None
    path = None
    if cache_dir:
        path = os.path.join(cache_dir, f"kostka_{n}.json")
        # made before computing, so that an unusable directory fails at once
        _cache_step(parser, path, os.makedirs, cache_dir, exist_ok=True)
        payload = _load_cached_table(path, n)
    if payload is None:
        payload = _compute_table(n, args.workers)
        if path:
            _cache_step(parser, path, _store_table, path, payload)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_render_table_text(payload))
    return 0


def _parse_descents(parser, text: str):
    cells = []
    if text:
        for chunk in text.split(";"):
            pieces = chunk.split(",")
            if len(pieces) != 2:
                parser.error(f"descent cell {chunk!r} is not of the form i,j")
            try:
                cells.append((int(pieces[0]), int(pieces[1])))
            except ValueError:
                parser.error(f"descent cell {chunk!r} is not numeric")
    return tuple(cells)


def _cmd_llt(parser, args) -> int:
    mu = _parse_mu(parser, args.mu)
    n = sum(mu)
    _guard(parser, n, SHAPE_GUARD if args.basis == "schur" else WORD_GUARD, args.force_guard)
    descents = _parse_descents(parser, args.descents)
    try:
        shapes = ribbon_tuple(mu, descents)
    except ValueError as exc:
        parser.error(str(exc))
    nvars = _nvars(parser, args, n)
    vec = llt_m_vec(shapes, nvars)
    if args.basis == "schur":
        vec = m_to_schur(vec)
    _print_poly(vec, n, args.basis, args.format, {"mu": list(mu)}, nvars)
    return 0


def _cmd_jack(parser, args) -> int:
    mu = _parse_mu(parser, args.mu)
    n = sum(mu)
    _guard(parser, n, WORD_GUARD, args.force_guard)
    if args.alpha < 1:
        parser.error("alpha must be a positive integer")
    nvars = _nvars(parser, args, n)
    vec = {nu: c.at_alpha(args.alpha) for nu, c in jack_alpha_m_vec(mu, nvars).items()}
    _print_poly(vec, n, args.basis, args.format, {"mu": list(mu), "alpha": args.alpha}, nvars)
    return 0


def _cmd_jmu(parser, args) -> int:
    mu = _parse_mu(parser, args.mu)
    n = sum(mu)
    _guard(parser, n, WORD_GUARD, args.force_guard)
    vec = integral_form_m_vec(mu)
    _print_poly(vec, n, "m", args.format, {"mu": list(mu)})
    return 0


def _cmd_hall_littlewood(parser, args) -> int:
    mu = _parse_mu(parser, args.mu)
    n = sum(mu)
    _guard(parser, n, SHAPE_GUARD, args.force_guard)
    vec = hall_littlewood_schur(mu)
    _print_poly(vec, n, "schur", args.format, {"mu": list(mu)})
    return 0


def _cmd_two_column(parser, args) -> int:
    lam = _parse_mu(parser, args.lam)
    mu = _parse_mu(parser, args.mu)
    _guard(parser, sum(mu), SHAPE_GUARD, args.force_guard)
    if mu and mu[0] > 2:
        parser.error(f"shape {format_partition(mu)} has more than two columns")
    if sum(lam) != sum(mu):
        parser.error("lambda and mu must have the same size")
    coeff = two_column_kostka(lam, mu)
    if args.format == "json":
        print(json.dumps({"lambda": list(lam), "mu": list(mu), "coefficient": coeff.to_json()}, indent=2))
    else:
        print(coeff)
    return 0


def _cmd_verify(parser, args) -> int:
    if args.n_max is not None:
        _guard(parser, args.n_max, VERIFY_GUARD, args.force_guard)
    # below two cells no signed word has a pivot under either involution
    if args.suite in ("involutions", "all") and args.n_max is not None and args.n_max < 2:
        parser.error(f"argument --n-max: must be at least 2 for the involutions suite, got {args.n_max}")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    bounds = {"n_max": args.n_max, "samples": args.samples}
    # every bound is taken by some suite; a single suite refuses the others
    if args.suite != "all":
        accepted = [b for b in bounds if b in suite_bounds(args.suite)]
        for bound, value in bounds.items():
            if value is not None and bound not in accepted:
                flags = ", ".join(_flag(b) for b in accepted)
                parser.error(f"argument {_flag(bound)}: verify {args.suite} takes only {flags}")
    failed = 0
    for name in names:
        for label, ok in run_suite(name, **bounds):
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label}")
            failed += 0 if ok else 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macpoly",
        description="Exact Macdonald polynomial combinatorics from fillings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, vars_flag=True):
        p.add_argument("--mu", required=True, help="partition, e.g. 3,2,1")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--force-guard", action="store_true", help="lift the size guard")
        if vars_flag:
            p.add_argument("--vars", type=_at_least(1), default=None, help="number of x variables")

    p = sub.add_parser("hmu", help="modified Macdonald polynomial of one shape")
    common(p)
    p.add_argument("--basis", choices=("x", "m", "schur"), default="schur")
    p.set_defaults(fn=_cmd_hmu)

    p = sub.add_parser("kostka-table", help="full q,t-Kostka table for one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cache-dir", default=None, help=f"cache directory (else ${CACHE_ENV})")
    p.add_argument("--workers", type=_at_least(1), default=1)
    p.add_argument("--force-guard", action="store_true")
    p.set_defaults(fn=_cmd_kostka_table)

    p = sub.add_parser("llt", help="LLT polynomial of the ribbon tuple of a descent set")
    common(p)
    p.add_argument("--descents", default="", help="cells i,j separated by ';'")
    p.add_argument("--basis", choices=("x", "schur"), default="x")
    p.set_defaults(fn=_cmd_llt)

    p = sub.add_parser("jack", help="one-parameter integral form at integer alpha")
    common(p)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--basis", choices=("x", "m"), default="m")
    p.set_defaults(fn=_cmd_jack)

    p = sub.add_parser("jmu", help="two-parameter integral form, monomial basis")
    common(p, vars_flag=False)
    p.set_defaults(fn=_cmd_jmu)

    p = sub.add_parser("hall-littlewood", help="q = 0 Schur expansion")
    common(p, vars_flag=False)
    p.set_defaults(fn=_cmd_hall_littlewood)

    p = sub.add_parser("two-column", help="one Kostka coefficient by the Yamanouchi rule")
    p.add_argument("--lam", required=True, help="row partition")
    p.add_argument("--mu", required=True, help="column partition, at most two columns")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--force-guard", action="store_true")
    p.set_defaults(fn=_cmd_two_column)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("suite", choices=("all",) + tuple(sorted(SUITES)))
    # each bound's least value that leaves its checks something to run
    p.add_argument("--n-max", type=_at_least(1), default=None)
    p.add_argument("--samples", type=_at_least(1), default=None)
    p.add_argument("--force-guard", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    # each command reports usage errors through the subparser that took its arguments
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # reported through the subcommand's parser, so its usage is shown
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        status = args.fn(args.parser, args)
        # flush here, so that a closed pipe raises inside this block
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (as with `| head`): point stdout at /dev/null
        # so that the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
