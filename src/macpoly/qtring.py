"""Exact coefficient arithmetic: Laurent polynomials in q and t.

Every computation in this package reduces to arithmetic in this ring over
arbitrary-precision integers; nothing here ever touches floating point. The
one-parameter Jack family lives here too, in q alone, with q standing for
alpha: QT.t_one_limit takes a two-parameter value to it, and QT.at_alpha
evaluates it at an integer alpha.
"""

from __future__ import annotations

from math import comb
from typing import Iterable


def _power_str(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


class QT:
    """Laurent polynomial in q and t with integer coefficients.

    Terms live in a dict mapping (q_exponent, t_exponent) to a nonzero
    coefficient, so equality and hashing are structural. Instances are
    treated as immutable: every operation returns a new value. Integers
    coerce on the fly, e.g. ``QT.q() + 1``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> QT:
        return cls()

    @classmethod
    def one(cls) -> QT:
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, coeff: int, q_exp: int = 0, t_exp: int = 0) -> QT:
        return cls({(q_exp, t_exp): coeff})

    @classmethod
    def q(cls, exp: int = 1) -> QT:
        return cls({(exp, 0): 1})

    @classmethod
    def t(cls, exp: int = 1) -> QT:
        return cls({(0, exp): 1})

    @staticmethod
    def _coerce(value) -> QT | None:
        if isinstance(value, QT):
            return value
        if isinstance(value, int):
            return QT({(0, 0): value})
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # a constant equals the int it is, so it hashes like that int
        if self.terms.keys() <= {(0, 0)}:
            return hash(self.terms.get((0, 0), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> QT:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return QT(terms)

    __radd__ = __add__

    def __neg__(self) -> QT:
        return QT({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> QT:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> QT:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> QT:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return QT(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QT:
        if n < 0:
            raise ValueError("negative powers are not defined for QT values")
        out = QT.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def swap_qt(self) -> QT:
        """Exchange the roles of q and t."""
        return QT({(b, a): c for (a, b), c in self.terms.items()})

    def is_polynomial(self) -> bool:
        """True when no exponent is negative."""
        return all(a >= 0 and b >= 0 for a, b in self.terms)

    def has_nonnegative_coefficients(self) -> bool:
        return all(c > 0 for c in self.terms.values())

    def sum_of_coefficients(self) -> int:
        """The evaluation q = t = 1 (well defined for Laurent terms too)."""
        return sum(self.terms.values())

    def at_alpha(self, alpha: int) -> int:
        """The value at q = alpha of a polynomial in q alone."""
        return sum(c * alpha**a for (a, _), c in self.terms.items())

    def t_one_limit(self, n: int) -> QT:
        """The limit at t = 1 of self(q -> t**alpha) / (1 - t)**n, as a
        polynomial in alpha (a QT in q alone, q standing for alpha).

        Expand self about q = t = 1: with q = 1 + u and t = 1 + v, the term
        c q^a t^b adds c * C(a, i) * C(b, j) to the coefficient f_ij of u^i v^j.
        Since q = t**alpha makes u = alpha*v + O(v^2), the division is exact
        for every alpha exactly when f_ij = 0 whenever i + j < n, and then the
        limit is (-1)**n times the sum of f_ij alpha^i over i + j = n. Raises
        ValueError on a remainder or a negative exponent."""
        if not self.is_polynomial():
            raise ValueError("negative exponent; expected a polynomial in q and t")
        taylor = [
            [sum(c * comb(a, i) * comb(b, d - i) for (a, b), c in self.terms.items()) for i in range(d + 1)]
            for d in range(n + 1)
        ]
        if any(any(row) for row in taylor[:n]):
            raise ValueError("division by (1 - t) leaves a remainder")
        return QT({(i, 0): (-1) ** n * f for i, f in enumerate(taylor[n])})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms):
            c = self.terms[(a, b)]
            factors = []
            if a:
                factors.append(_power_str("q", a))
            if b:
                factors.append(_power_str("t", b))
            if not factors:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"QT({self})"

    def to_json(self) -> list[list]:
        """Terms as [q_exp, t_exp, coefficient-as-string], sorted by exponents."""
        return [[a, b, str(self.terms[(a, b)])] for (a, b) in sorted(self.terms)]

    @classmethod
    def from_json(cls, data: Iterable[list]) -> QT:
        return cls({(int(a), int(b)): int(c) for a, b, c in data})


def elementary_coeffs(monomials: Iterable[tuple[int, int]]) -> list[QT]:
    """Elementary symmetric functions of a multiset of q^a t^b monomials.

    Returns [e_0, e_1, ..., e_k] where k is the multiset size, computed by
    expanding the product of (1 + z * q^a t^b) one factor at a time.
    """
    elems = [QT.one()]
    for (a, b) in monomials:
        mono = QT({(a, b): 1})
        nxt = [QT.zero()] * (len(elems) + 1)
        for d, e in enumerate(elems):
            nxt[d] = nxt[d] + e
            nxt[d + 1] = nxt[d + 1] + mono * e
        elems = nxt
    return elems

