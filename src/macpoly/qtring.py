"""Exact coefficient arithmetic: Laurent polynomials in q and t.

Every computation in this package reduces to arithmetic in this ring over
arbitrary-precision integers; nothing here ever touches floating point. The
one-parameter Jack family lives here too, in q alone, with q standing for alpha.
"""

from __future__ import annotations

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

    def coefficient(self, q_exp: int, t_exp: int) -> int:
        return self.terms.get((q_exp, t_exp), 0)

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

    def q_to_t_power(self, alpha: int) -> QT:
        """Substitute q -> t**alpha, collapsing to a Laurent polynomial in t."""
        terms: dict[tuple[int, int], int] = {}
        for (a, b), c in self.terms.items():
            e = (0, alpha * a + b)
            terms[e] = terms.get(e, 0) + c
        return QT(terms)

    def _t_coeff_list(self) -> list[int]:
        if any(a != 0 for a, _ in self.terms):
            raise ValueError("value involves q; expected a polynomial in t only")
        if any(b < 0 for _, b in self.terms):
            raise ValueError("negative t exponent; expected a polynomial in t")
        deg = max((b for _, b in self.terms), default=0)
        coeffs = [0] * (deg + 1)
        for (_, b), c in self.terms.items():
            coeffs[b] = c
        return coeffs

    def divide_by_one_minus_t(self, n: int = 1) -> QT:
        """Exact division by (1 - t)**n; raises ValueError when inexact."""
        coeffs = self._t_coeff_list()
        for _ in range(n):
            running = 0
            quotient = []
            for c in coeffs:
                running += c
                quotient.append(running)
            if running != 0:
                raise ValueError("division by (1 - t) leaves a remainder")
            coeffs = quotient[:-1] if len(quotient) > 1 else [0]
        return QT({(0, i): c for i, c in enumerate(coeffs)})

    def eval_t_one(self) -> int:
        """Evaluate at t = 1; requires a polynomial in t alone."""
        return sum(self._t_coeff_list())

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

