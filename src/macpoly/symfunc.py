"""Sparse polynomials in x_1..x_N and symmetric-function basis bookkeeping.

Coefficients may be any exact ring value with +, *, == and truthiness (QT or
plain int), so the same machinery serves the q,t world and the Jack parameter
world, whose coefficients are QT values in q alone with q standing for alpha.
Basis vectors are plain dicts keyed by partitions.

skew_super_tableaux is the package's one semistandard-tableau generator:
signed fillings of a skew shape, optionally of a prescribed content, each as
its entries in reading order. LLT tuples, Schur polynomials and the cocharge
route to the Hall-Littlewood column all walk it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .fillings import ORDER1, LetterOrder, super_letters
from .qtring import QT
from .shapes import Partition, SkewShape, check_partition, conjugate, partitions

Exponents = tuple[int, ...]


class XPoly:
    """Polynomial in a fixed number of x variables, stored term by term."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, object] | None = None):
        self.nvars = int(nvars)
        self.terms: dict[Exponents, object] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != self.nvars:
                raise ValueError(f"exponent tuple {exps} does not have {self.nvars} entries")
            if c:
                self.terms[tuple(exps)] = c

    @classmethod
    def zero(cls, nvars: int) -> XPoly:
        return cls(nvars)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other: XPoly) -> XPoly:
        if self.nvars != other.nvars:
            raise ValueError("cannot add polynomials in different variable counts")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return XPoly(self.nvars, terms)

    def __sub__(self, other: XPoly) -> XPoly:
        return self + other.scaled(-1)

    def __mul__(self, other: XPoly) -> XPoly:
        if self.nvars != other.nvars:
            raise ValueError("cannot multiply polynomials in different variable counts")
        terms: dict[Exponents, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                terms[e] = terms[e] + prod if e in terms else prod
        return XPoly(self.nvars, terms)

    def scaled(self, factor) -> XPoly:
        return XPoly(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def map_coefficients(self, fn) -> XPoly:
        return XPoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    def degree(self) -> int:
        """Common total degree; raises for inhomogeneous polynomials."""
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            return 0
        if len(degrees) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def is_symmetric(self) -> bool:
        """Invariance under swapping consecutive variables (hence all of S_N)."""
        for k in range(self.nvars - 1):
            for e, c in self.terms.items():
                if e[k] == e[k + 1]:
                    continue
                swapped = list(e)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                if self.terms.get(tuple(swapped), 0) != c:
                    return False
        return True

    def prefix_part(self, k: int) -> XPoly:
        """Restriction to the first k variables (set the rest to zero)."""
        out: dict[Exponents, object] = {}
        for e, c in self.terms.items():
            if any(e[k:]):
                continue
            out[e[:k]] = c
        return XPoly(k, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [
                f"x{k + 1}" if p == 1 else f"x{k + 1}^{p}"
                for k, p in enumerate(e)
                if p
            ]
            cs = str(c)
            if not factors:
                parts.append(f"({cs})" if (" + " in cs or " - " in cs) else cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                cs = f"({cs})" if (" + " in cs or " - " in cs or "*" in cs) else cs
                parts.append(f"{cs}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"XPoly({self.nvars}, {self})"

    def to_json(self) -> dict:
        def enc(c):
            return c.to_json() if hasattr(c, "to_json") else c

        return {
            "nvars": self.nvars,
            "terms": [[list(e), enc(self.terms[e])] for e in sorted(self.terms)],
        }


def monomial_exponents(word: Iterable[int], nvars: int) -> Exponents:
    """Exponent vector of x^word; barred letters count via absolute value."""
    counts = [0] * nvars
    for x in word:
        counts[abs(x) - 1] += 1
    return tuple(counts)


def super_exponents(word: Iterable[int], npos: int, nneg: int) -> Exponents:
    """Exponents over x_1..x_npos, y_1..y_nneg: sign selects the block."""
    counts = [0] * (npos + nneg)
    for x in word:
        counts[x - 1 if x > 0 else npos - x - 1] += 1
    return tuple(counts)


def to_m_basis(f: XPoly) -> dict[Partition, object]:
    """Expand a symmetric homogeneous polynomial over monomial symmetric functions."""
    deg = f.degree()
    if f.nvars < deg:
        raise ValueError(f"{f.nvars} variables cannot resolve degree {deg} symmetric functions")
    if not f.is_symmetric():
        raise ValueError("polynomial is not symmetric in its variables")
    out: dict[Partition, object] = {}
    for e, c in f.terms.items():
        if all(a >= b for a, b in zip(e, e[1:])):
            out[tuple(p for p in e if p)] = c
    return out


def from_m_basis(m_vec: dict[Partition, object], nvars: int) -> XPoly:
    """The symmetric polynomial sum c_nu m_nu in nvars variables; the nu with
    more than nvars parts vanish there. to_m_basis inverts it when nvars is
    at least the degree."""
    terms: dict[Exponents, object] = {}
    for nu, c in m_vec.items():
        if len(nu) <= nvars:
            terms.update((e, c) for e in _rearrangements(tuple(nu), nvars))
    return XPoly(nvars, terms)


@lru_cache(maxsize=None)
def _rearrangements(nu: Partition, nvars: int) -> tuple[Exponents, ...]:
    """The distinct orderings of nu padded with zeros to nvars entries, each
    once: next-permutation steps from the increasing order."""
    e = sorted(nu + (0,) * (nvars - len(nu)))
    out = [tuple(e)]
    while True:
        i = nvars - 2
        while i >= 0 and e[i] >= e[i + 1]:
            i -= 1
        if i < 0:
            return tuple(out)
        j = nvars - 1
        while e[j] <= e[i]:
            j -= 1
        e[i], e[j] = e[j], e[i]
        e[i + 1:] = reversed(e[i + 1:])
        out.append(tuple(e))


@lru_cache(maxsize=None)
def _kostka(lam: Partition, content: Partition) -> int:
    if not content:
        return 1 if not lam else 0
    r = content[-1]
    total = 0
    for prev in _horizontal_strip_predecessors(lam, r):
        total += _kostka(prev, content[:-1])
    return total


def _horizontal_strip_predecessors(lam: Partition, strip: int) -> Iterator[Partition]:
    """Partitions nu with lam/nu a horizontal strip of the given size."""

    def gen(k: int, todo: int) -> Iterator[tuple[int, ...]]:
        if k == len(lam):
            if todo == 0:
                yield ()
            return
        lo = max(lam[k + 1] if k + 1 < len(lam) else 0, lam[k] - todo)
        for part in range(lam[k], lo - 1, -1):
            for rest in gen(k + 1, todo - (lam[k] - part)):
                yield (part,) + rest

    for nu in gen(0, strip):
        yield tuple(p for p in nu if p)


def kostka(lam: Partition, content: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content `content`."""
    lam = check_partition(lam)
    content = check_partition(content)
    if sum(lam) != sum(content):
        raise ValueError("shape and content must have equal size")
    return _kostka(lam, content)


def syt_count(lam: Partition) -> int:
    lam = check_partition(lam)
    return kostka(lam, (1,) * sum(lam))


def m_to_schur(m_vec: dict[Partition, object]) -> dict[Partition, object]:
    """Convert a monomial-basis vector to the Schur basis.

    Runs the unitriangular solve along descending lexicographic order, which
    refines dominance, so every Kostka contribution is already available.
    """
    cleaned = {check_partition(k): c for k, c in m_vec.items() if c}
    if not cleaned:
        return {}
    sizes = {sum(k) for k in cleaned}
    if len(sizes) > 1:
        raise ValueError(f"mixed degrees in monomial vector: {sorted(sizes)}")
    n = sizes.pop()
    out: dict[Partition, object] = {}
    for lam in partitions(n):
        c = cleaned.get(lam, 0)
        for prev, a in out.items():
            k = kostka(prev, lam)
            if k:
                c = c - a * k
        if c:
            out[lam] = c
    return out


def schur_expand(f: XPoly) -> dict[Partition, object]:
    return m_to_schur(to_m_basis(f))


def omega_schur(s_vec: dict[Partition, object]) -> dict[Partition, object]:
    """The standard involution on symmetric functions: s_lam -> s_lam'."""
    return {conjugate(check_partition(k)): c for k, c in s_vec.items() if c}


def skew_super_tableaux(
    shape: SkewShape,
    npos: int,
    nneg: int,
    order: LetterOrder = ORDER1,
    content: tuple[int, ...] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Signed semistandard fillings, entries aligned with shape.cells(): rows
    and columns weakly increase in the order, equal row neighbours must be
    plain, equal column neighbours barred. With nneg = 0 these are the
    ordinary semistandard fillings by 1..npos; on a straight shape each is
    the tableau's reading word, top row first. With `content` only the
    fillings in which the plain letter k appears content[k-1] times (and no
    other letter appears) are walked: a letter is skipped once its count is
    spent."""
    cells = shape.cells()
    letters = super_letters(npos, nneg, order)
    if content is None:
        spare = [len(cells)] * len(letters)  # more than any filling spends
    elif sum(content) != len(cells):
        return
    else:
        spare = [content[x - 1] if 0 < x <= len(content) else 0 for x in letters]
    # cells are filled bottom row first, so left and lower neighbours come
    # earlier; each step holds its reading position and those neighbours' steps
    fill_order = sorted(cells)
    step = {c: k for k, c in enumerate(fill_order)}
    pos = {c: p for p, c in enumerate(cells)}
    plan = [(pos[i, j], step.get((i, j - 1), -1), step.get((i - 1, j), -1)) for i, j in fill_order]
    placed = [0] * len(cells)           # the letter index chosen at each step
    word = [0] * len(cells)

    def walk(k: int) -> Iterator[tuple[int, ...]]:
        if k == len(plan):
            yield tuple(word)
            return
        p, left, below = plan[k]
        lo = 0
        if left >= 0:
            x = placed[left]
            lo = x if letters[x] > 0 else x + 1
        if below >= 0:
            x = placed[below]
            lo = max(lo, x if letters[x] < 0 else x + 1)
        for idx in range(lo, len(letters)):
            if spare[idx]:
                spare[idx] -= 1
                placed[k] = idx
                word[p] = letters[idx]
                yield from walk(k + 1)
                spare[idx] += 1

    yield from walk(0)


def tableau_reading_word(rows_bottom_up: list[list[int]]) -> tuple[int, ...]:
    """Reading word of a tableau given as rows bottom to top: top row first."""
    return tuple(x for row in reversed(rows_bottom_up) for x in row)


def schur_in_x(lam: Partition, nvars: int) -> XPoly:
    """The Schur polynomial s_lam(x_1..x_nvars) by tableau enumeration."""
    acc: dict[Exponents, int] = {}
    for word in skew_super_tableaux(SkewShape(lam), nvars, 0):
        e = monomial_exponents(word, nvars)
        acc[e] = acc.get(e, 0) + 1
    return XPoly(nvars, {e: QT.term(c) for e, c in acc.items()})


# ---------------------------------------------------------------------------
# Gessel quasisymmetric functions

def _check_descents(n: int, descents: Iterable[int]) -> frozenset[int]:
    d = frozenset(int(i) for i in descents)
    if not d <= set(range(1, n)):
        raise ValueError(f"descents must lie in 1..{n - 1}: {sorted(d)}")
    return d


@lru_cache(maxsize=None)
def _qsym_q(n: int, descents: frozenset[int], nvars: int) -> XPoly:
    acc: dict[Exponents, int] = {}

    def walk(pos: int, last: int, counts: tuple[int, ...]):
        if pos == n:
            acc[counts] = acc.get(counts, 0) + 1
            return
        # a_pos >= a_{pos-1}, strict when pos is a descent position
        lo = last + 1 if pos in descents else last
        for v in range(max(lo, 1), nvars + 1):
            c = list(counts)
            c[v - 1] += 1
            walk(pos + 1, v, tuple(c))

    walk(0, 0, (0,) * nvars)
    return XPoly(nvars, {e: QT.term(c) for e, c in acc.items()})


def qsym_q(n: int, descents: Iterable[int], nvars: int) -> XPoly:
    """Gessel's fundamental quasisymmetric function Q_{n,D}(x_1..x_nvars)."""
    return _qsym_q(n, _check_descents(n, descents), nvars)

