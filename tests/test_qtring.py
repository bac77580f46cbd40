"""Exact coefficient ring: Laurent polynomials in q and t."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macpoly.qtring import QT, elementary_coeffs

exponents = st.integers(min_value=-3, max_value=3)
coeffs = st.integers(min_value=-9, max_value=9)
qts = st.dictionaries(st.tuples(exponents, exponents), coeffs, max_size=4).map(QT)


def test_zero_one_and_generators():
    assert not QT.zero()
    assert QT.one() + QT.zero() == QT.one()
    assert QT.q(2) == QT.term(1, 2, 0)
    assert QT.t(-1) == QT.term(1, 0, -1)
    assert QT({(1, 0): 0}) == QT.zero()


def test_small_products():
    assert QT.q(1) * QT.t(1) == QT.term(1, 1, 1)
    binom = QT.one() + QT.q(1)
    assert binom * binom == QT.one() + QT.term(2, 1, 0) + QT.q(2)
    assert (QT.one() - QT.t(1)) * (QT.one() + QT.t(1)) == QT.one() - QT.t(2)


def test_pow_matches_repeated_product():
    base = QT.one() + QT.q(1) * QT.t(2)
    by_hand = QT.one()
    for _ in range(5):
        by_hand = by_hand * base
    assert base**5 == by_hand
    assert base**0 == QT.one()


@given(qts, qts, qts)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QT.zero()
    assert a * QT.one() == a


@given(qts, qts)
def test_swap_is_a_ring_involution(a, b):
    assert a.swap_qt().swap_qt() == a
    assert (a * b).swap_qt() == a.swap_qt() * b.swap_qt()
    assert (a + b).swap_qt() == a.swap_qt() + b.swap_qt()


def test_integer_coercion():
    assert QT.one() * 3 == QT.term(3, 0, 0)
    assert 1 - QT.q(1) == QT.one() - QT.q(1)
    assert QT.t(1) + 0 == QT.t(1)


def test_a_constant_hashes_like_the_int_it_equals():
    for c in (-3, -1, 0, 1, 2, 10**30):
        assert QT.term(c) == c and hash(QT.term(c)) == hash(c)
    assert hash(QT.zero()) == hash(0)
    assert len({QT.one(), 1}) == 1
    assert {QT.one(): "a"}.get(1) == "a"
    assert {0: "z"}.get(QT.zero()) == "z"
    # a term off the constant position equals no int
    assert len({QT.q(), QT.t(), 1}) == 3


def test_coefficient_lookup_and_sum():
    f = QT.term(2, 1, 0) + QT.term(-1, 0, 3)
    assert f.terms.get((1, 0), 0) == 2
    assert f.terms.get((0, 3), 0) == -1
    assert f.terms.get((5, 5), 0) == 0
    assert f.sum_of_coefficients() == 1


def test_polynomial_and_positivity_predicates():
    assert (QT.q(2) + QT.t(1)).is_polynomial()
    assert not QT.term(1, -1, 0).is_polynomial()
    assert (QT.q(1) + QT.one()).has_nonnegative_coefficients()
    assert not (QT.q(1) - QT.one()).has_nonnegative_coefficients()


def test_t_one_limit_substitutes_q():
    # q -> t^2 gives t^5 + t^3, whose value at t = 1 is 2
    f = QT.q(2) * QT.t(1) + QT.t(3)
    assert f.t_one_limit(0).at_alpha(2) == 2
    # (1 - t^alpha) / (1 - t) at t = 1 is alpha, however large
    assert (1 - QT.q(1)).t_one_limit(1) == QT.q(1)
    assert (1 - QT.q(1)).t_one_limit(1).at_alpha(3) == 3
    assert (1 - QT.q(1)).t_one_limit(1).at_alpha(10**6) == 10**6


def test_divide_by_one_minus_t_exactly():
    # (1 - t)^2 (1 + t^2) / (1 - t)^2 = 1 + t^2, which is 2 at t = 1
    one_minus_t = QT.one() - QT.t(1)
    f = one_minus_t * one_minus_t * (QT.one() + QT.t(2))
    assert f.t_one_limit(2).at_alpha(1) == 2
    assert f.t_one_limit(1).at_alpha(1) == 0
    assert f.t_one_limit(0).at_alpha(1) == 0
    assert QT.zero().t_one_limit(3).at_alpha(2) == 0


def test_eval_t_one():
    # with n = 0 nothing is divided: the limit is the value at t = 1
    f = QT.t(2) + QT.t(5) + QT.one()
    assert f.t_one_limit(0).at_alpha(1) == 3
    # f has no q, so alpha does not change it
    assert f.t_one_limit(0).at_alpha(7) == 3


nonneg_qts = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=4
).map(QT)


@given(nonneg_qts, st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=4))
def test_t_one_limit_undoes_a_power_of_one_minus_t(g, alpha, n):
    f = g * (QT.one() - QT.t(1)) ** n
    assert f.t_one_limit(n) == g.sum_of_coefficients()
    assert f.t_one_limit(n).at_alpha(alpha) == g.sum_of_coefficients()


@given(st.integers(min_value=0, max_value=4).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_t_one_limit_of_one_minus_q_powers_is_a_power_of_alpha(kn):
    # (1 - t^alpha) / (1 - t) tends to alpha, once per factor 1 - q
    k, n = kn
    f = (QT.one() - QT.q(1)) ** k * (QT.one() - QT.t(1)) ** (n - k)
    assert f.t_one_limit(n) == QT.q(k)


def test_t_one_limit_rejects_remainders():
    with pytest.raises(ValueError, match="remainder"):
        (QT.one() + QT.t(1)).t_one_limit(1)
    # q alone becomes t^alpha, which (1 - t) does not divide
    with pytest.raises(ValueError, match="remainder"):
        QT.q(1).t_one_limit(1)
    # q - t becomes t^alpha - t, which (1 - t)^3 divides at alpha = 1 alone
    with pytest.raises(ValueError, match="remainder"):
        (QT.q(1) - QT.t(1)).t_one_limit(3)
    with pytest.raises(ValueError, match="negative"):
        (QT.t(-1) + QT.one()).t_one_limit(0)
    with pytest.raises(ValueError, match="negative"):
        QT.term(1, -1, 0).t_one_limit(0)


def test_str_is_sorted_and_sparse():
    assert str(QT.zero()) == "0"
    assert str(QT.one()) == "1"
    assert str(-QT.t(2)) == "-t^2"
    assert str(QT.term(3, 2, -1) + QT.one()) == "1 + 3*q^2*t^-1"
    assert str(QT.q(1) - QT.t(1)) == "-t + q"
    assert str(QT.one() - QT.t() - QT.q() * QT.t()) == "1 - t - q*t"
    assert str(QT.term(-2) + QT.term(3, 1, 0) - QT.t()) == "-2 - t + 3*q"


def test_json_round_trip():
    f = QT.term(3, 2, -1) + QT.one() - QT.t(4)
    assert QT.from_json(f.to_json()) == f
    assert f.to_json() == [[0, 0, "1"], [0, 4, "-1"], [2, -1, "3"]]


def test_elementary_coeffs_two_cells():
    e = elementary_coeffs([(0, 0), (1, 0)])
    assert e == [QT.one(), QT.one() + QT.q(1), QT.q(1)]


def test_elementary_coeffs_empty():
    assert elementary_coeffs([]) == [QT.one()]

