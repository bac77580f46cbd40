"""Output invariants for the benchmark jobs, computed without macpoly.

Every check returns None when the output is right and a one-line reason when
it is not. At q = t = 1 the modified Macdonald polynomial of a shape of size n
is h_1^n, so:
- its Schur coefficient on s_lam is f^lam, the number of standard tableaux
  (hook-length formula), and its coefficient on m_nu is n! / prod(nu_i!);
- the coefficient of s_(n) and of m_(n) is exactly 1.
"""

from __future__ import annotations

import json
import re
from math import factorial, prod

VERIFY_LINES = {"axioms": 9, "jack": 2, "involutions": 4, "llt": 5, "crystal": 6, "cocharge": 3}


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in descending lexicographic order (the CLI's order)."""

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return list(gen(n, n))


def label(mu) -> str:
    return ",".join(map(str, mu))


def syt_count(lam) -> int:
    """f^lam by the hook-length formula."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = prod(lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


def multinomial(nu) -> int:
    return factorial(sum(nu)) // prod(factorial(part) for part in nu)


def at_one(text: str) -> int:
    """Value at q = t = 1 of a coefficient printed as 'c*q^a*t^b + ...'."""
    total, sign = 0, 1
    for token in text.split(" "):
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        total += sign * prod(int(f) for f in token.split("*") if f[0] not in "qt")
        sign = 1
    return total


def _expected(basis: str, lam) -> int:
    return syt_count(lam) if basis == "schur" else multinomial(lam)


def _compare(coeffs: dict, n: int, basis: str) -> str | None:
    """coeffs maps each partition to (value at q=t=1, is exactly 1)."""
    parts = partitions(n)
    if list(coeffs) != parts:
        return f"terms {list(coeffs)} are not the partitions of {n} in order"
    for lam, (value, is_one) in coeffs.items():
        if value != _expected(basis, lam):
            return f"coefficient of {label(lam)} is {value} at q=t=1, expected {_expected(basis, lam)}"
    if not coeffs[(n,)][1]:
        return f"coefficient of ({n}) is not 1"
    return None


def check_hmu(n: int, basis: str, fmt: str, out: str) -> str | None:
    coeffs = {}
    if fmt == "json":
        payload = json.loads(out)
        for lam, terms in payload["terms"]:
            coeffs[tuple(lam)] = (sum(int(c) for _, _, c in terms), terms == [[0, 0, "1"]])
    else:
        letter = "s" if basis == "schur" else "m"
        for term in re.split(r" \+ (?![^(]*\))", out.strip()):
            m = re.fullmatch(rf"(?:\((.+)\)\*|(.+)\*)?{letter}\[([\d,]+)\]", term)
            if m is None:
                return f"unparsed term {term!r}"
            coeff = m.group(1) or m.group(2) or "1"
            lam = tuple(int(p) for p in m.group(3).split(","))
            coeffs[lam] = (at_one(coeff), coeff == "1")
    return _compare(coeffs, n, basis)


def check_table(n: int, fmt: str, out: str) -> str | None:
    parts = partitions(n)
    if fmt == "json":
        payload = json.loads(out)
        if [tuple(p) for p in payload["partitions"]] != parts:
            return "table partitions are not the partitions of n"
        rows = [
            [(sum(int(c) for _, _, c in e), e == [[0, 0, "1"]]) for e in row]
            for row in payload["table"]
        ]
    else:
        lines = out.rstrip("\n").split("\n")
        header = re.split(r" {2,}", lines[0])
        if header[1:] != [label(mu) for mu in parts]:
            return f"table header {header!r} does not list the partitions of {n}"
        rows = []
        for line, lam in zip(lines[1:], parts):
            cells = re.split(r" {2,}", line)
            if cells[0] != label(lam):
                return f"row label {cells[0]!r}, expected {label(lam)!r}"
            rows.append([(at_one(c), c == "1") for c in cells[1:]])
    if len(rows) != len(parts) or any(len(row) != len(parts) for row in rows):
        return "table is not square in the partitions of n"
    for col in range(len(parts)):
        bad = _compare({lam: rows[i][col] for i, lam in enumerate(parts)}, n, "schur")
        if bad:
            return f"column {label(parts[col])}: {bad}"
    return None


def check_verify(suite: str, out: str) -> str | None:
    lines = out.rstrip("\n").split("\n")
    if len(lines) != VERIFY_LINES[suite]:
        return f"{len(lines)} lines, expected {VERIFY_LINES[suite]}"
    bad = [line for line in lines if not line.startswith(f"[PASS] {suite}: ")]
    return f"not passing: {bad[0]!r}" if bad else None
