"""Polynomial container, Schur/monomial bases, and quasisymmetric pieces."""

from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from macpoly.qtring import QT
from macpoly.shapes import SkewShape, partitions
from macpoly.symfunc import (
    XPoly,
    from_m_basis,
    kostka,
    m_to_schur,
    monomial_exponents,
    omega_schur,
    qsym_q,
    schur_expand,
    schur_in_x,
    skew_super_tableaux,
    super_exponents,
    syt_count,
    tableau_reading_word,
    to_m_basis,
)


def xp(nvars: int, **mono) -> XPoly:
    """Build an XPoly from exponent-string keywords like e_201=3."""
    terms = {}
    for key, coeff in mono.items():
        exps = tuple(int(ch) for ch in key.split("_")[1])
        terms[exps] = QT.term(coeff)
    return XPoly(nvars, terms)


def test_xpoly_arithmetic():
    f = xp(2, e_10=1, e_01=1)
    g = xp(2, e_10=1, e_01=-1)
    assert f + g == xp(2, e_10=2)
    assert f - g == xp(2, e_01=2)
    assert f * g == xp(2, e_20=1, e_02=-1)
    assert f.scaled(QT.q()) == XPoly(2, {(1, 0): QT.q(), (0, 1): QT.q()})
    assert (f * g).degree() == 2
    assert XPoly.zero(2).degree() == 0
    assert not XPoly.zero(3)


def test_xpoly_mul_matches_square_of_sum():
    f = xp(2, e_10=1, e_01=1)
    assert f * f == xp(2, e_20=1, e_11=2, e_02=1)
    with pytest.raises(ValueError):
        f * xp(3, e_100=1)


def test_xpoly_coefficient_and_prefix():
    f = xp(3, e_210=1, e_201=4)
    assert f.terms.get((2, 1, 0), 0) == QT.term(1)
    assert f.terms.get((0, 0, 0), 0) == QT.zero()
    assert f.prefix_part(2) == xp(2, e_21=1)


def test_xpoly_str():
    assert str(XPoly.zero(2)) == "0"
    f = XPoly(2, {(2, 0): QT.one(), (1, 1): QT.q() + QT.one()})
    assert str(f) == "x1^2 + (1 + q)*x1*x2"


def test_exponent_helpers():
    assert monomial_exponents([1, 3, 1], 4) == (2, 0, 1, 0)
    assert super_exponents([1, -2, 1, -2], 2, 2) == (2, 0, 0, 2)


def test_is_symmetric():
    assert xp(2, e_20=1, e_11=1, e_02=1).is_symmetric()
    assert not xp(2, e_20=1, e_11=1).is_symmetric()
    assert XPoly.zero(1).is_symmetric()


def test_kostka_values():
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1), (2,)) == 0
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((2, 2), (1, 1, 1, 1)) == 2


def test_syt_counts():
    assert syt_count(()) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 1)) == 3
    assert syt_count((3, 2, 1)) == 16


def test_m_in_x_and_to_m_basis_round_trip():
    f = from_m_basis({(2, 1): QT.one()}, 3)
    assert f.terms.get((2, 1, 0), 0) == QT.term(1)
    assert f.terms.get((1, 2, 0), 0) == QT.term(1)
    assert len(f.terms) == 6
    assert to_m_basis(f) == {(2, 1): QT.term(1)}


@pytest.mark.parametrize("nvars", range(1, 9))
def test_from_m_basis_writes_each_rearrangement_once(nvars):
    # each nu in its own coefficient, against the distinct permutations
    nus = [nu for n in range(7) for nu in partitions(n)]
    f = from_m_basis({nu: QT.term(k + 1) for k, nu in enumerate(nus)}, nvars)
    expected = {}
    for k, nu in enumerate(nus):
        if len(nu) <= nvars:
            padded = nu + (0,) * (nvars - len(nu))
            expected.update((e, QT.term(k + 1)) for e in set(permutations(padded)))
    assert f == XPoly(nvars, expected)


def test_to_m_basis_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        to_m_basis(xp(2, e_20=1, e_11=1))


def test_schur_in_x_has_the_eight_tableaux():
    s21 = schur_in_x((2, 1), 3)
    assert sum(c.sum_of_coefficients() for c in s21.terms.values()) == 8
    assert to_m_basis(s21) == {(2, 1): QT.term(1), (1, 1, 1): QT.term(2)}


def test_skew_super_tableaux_respects_content():
    # rows 1 2 / 3 and 1 3 / 2, bottom row first, read top row first
    words = list(skew_super_tableaux(SkewShape((2, 1)), 3, 0, content=(1, 1, 1)))
    assert sorted(words) == [(2, 1, 3), (3, 1, 2)]
    assert tableau_reading_word([[1, 2], [3]]) == (3, 1, 2)
    # a content of the wrong size, or naming a letter past the alphabet, admits nothing
    assert list(skew_super_tableaux(SkewShape((2, 1)), 3, 0, content=(1, 1))) == []
    assert list(skew_super_tableaux(SkewShape((2, 1)), 2, 0, content=(1, 1, 1))) == []


def contents(n: int, most: int):
    """Every sequence of at most `most` nonnegative parts summing to n; a zero
    part names a letter that the content leaves out."""
    for k in range(most + 1):
        yield from (c for c in product(range(n + 1), repeat=k) if sum(c) == n)


def rows_of(word, lam):
    """The rows of a tableau of straight shape lam, bottom row first, read
    back from its reading word (top row first)."""
    rows, end = [], len(word)
    for part in lam:
        rows.append(word[end - part:end])
        end -= part
    return rows


@pytest.mark.parametrize("n", range(7))
def test_content_pruning_keeps_exactly_the_tableaux_of_that_content(n):
    for lam in partitions(n):
        unpruned = {k: list(skew_super_tableaux(SkewShape(lam), k, 0)) for k in range(5)}
        for content in contents(n, 4):
            k = len(content)
            words = list(skew_super_tableaux(SkewShape(lam), k, 0, content=content))
            assert words == [w for w in unpruned[k] if monomial_exponents(w, k) == content]
            for w in words:
                rows = rows_of(w, lam)
                assert all(a <= b for row in rows for a, b in zip(row, row[1:])), (lam, w)
                assert all(a < b for lo, hi in zip(rows, rows[1:]) for a, b in zip(lo, hi)), (lam, w)
            # Kostka numbers do not depend on the order of the content
            assert len(words) == kostka(lam, tuple(sorted(filter(None, content), reverse=True)))


def test_schur_expand_inverts_schur_in_x():
    for lam in ((3,), (2, 1), (1, 1, 1), (2, 2)):
        assert schur_expand(schur_in_x(lam, 4)) == {lam: QT.term(1)}


def test_m_to_schur_known_row():
    assert m_to_schur({(1, 1): QT.term(1)}) == {(1, 1): QT.term(1)}
    assert m_to_schur({(2,): QT.term(1)}) == {
        (2,): QT.term(1),
        (1, 1): QT.term(-1),
    }


def test_omega_schur_transposes_indices():
    vec = {(2, 1): QT.q(), (3,): QT.one()}
    assert omega_schur(vec) == {(2, 1): QT.q(), (1, 1, 1): QT.one()}


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=5))
def test_monomial_exponents_sum(word):
    exps = monomial_exponents(word, 3)
    assert sum(exps) == len(word)


def test_qsym_q_small_cases():
    assert qsym_q(2, [], 2) == xp(2, e_20=1, e_11=1, e_02=1)
    assert qsym_q(2, [1], 2) == xp(2, e_11=1)
    with pytest.raises(ValueError):
        qsym_q(2, [2], 2)


def test_qsym_q_sum_over_descents_gives_schur():
    total = qsym_q(3, [1], 3) + qsym_q(3, [2], 3)
    assert total == schur_in_x((2, 1), 3)


def test_xpoly_accepts_fraction_coefficients():
    f = XPoly(1, {(1,): Fraction(1, 2)})
    assert (f + f).terms.get((1,), 0) == Fraction(1, 1)
