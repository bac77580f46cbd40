"""Cocharge, the q = 0 face, and the Jack integral-form family."""

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macpoly.crystal import rectify
from macpoly.fillings import Filling, cocharge_word, inv, maj
from macpoly.qtring import QT
from macpoly.special import (
    cocharge,
    cocharge_schur_vector,
    eval_alpha,
    hall_littlewood_schur,
    integral_form_from_macdonald,
    integral_form_in_x,
    integral_form_m_vec,
    inv_zero_filling,
    jack_alpha_in_x,
    jack_alpha_m_vec,
    jack_limit,
)
from macpoly.shapes import partitions
from macpoly.symfunc import XPoly, to_m_basis


def test_cocharge_of_standard_words():
    assert cocharge(()) == 0
    assert cocharge((1, 2)) == 0
    assert cocharge((2, 1)) == 1
    assert cocharge((3, 2, 1)) == 3
    assert cocharge((1, 2, 3)) == 0
    assert cocharge((2, 3, 1)) == 2
    assert cocharge((3, 1, 2)) == 1


def test_cocharge_peels_repeated_letters():
    assert cocharge((2, 1, 1)) == 1
    assert cocharge((1, 1, 2)) == 0
    assert cocharge((1, 2, 1)) == 1
    assert cocharge((2, 1, 2, 1)) == 2


def test_cocharge_rejects_non_partition_content():
    with pytest.raises(ValueError):
        cocharge((2, 2, 1))
    with pytest.raises(ValueError):
        cocharge((1, 3))


SHAPES_TO_6 = [mu for n in range(1, 7) for mu in partitions(n)]


def shape_id(mu):
    return ",".join(map(str, mu))


@pytest.mark.parametrize("mu", SHAPES_TO_6, ids=shape_id)
def test_cocharge_is_constant_on_knuth_classes(mu):
    # with the tableau words, which the Hall-Littlewood check below pins,
    # Knuth invariance pins cocharge on every word
    letters = [k for k, c in enumerate(mu, 1) for _ in range(c)]
    for word in set(permutations(letters)):
        assert cocharge(word) == cocharge(rectify(word)), word


def test_inv_zero_filling_reconstructs_the_example():
    f = inv_zero_filling(
        (5, 5, 3, 1), [[1, 1, 3, 6, 7], [1, 2, 4, 4, 5], [1, 2, 3], [2]]
    )
    assert f == Filling.from_rows([[2], [3, 1, 2], [2, 4, 4, 1, 5], [1, 1, 3, 6, 7]])
    assert inv(f) == 0
    assert maj(f) == cocharge(cocharge_word(f))


def test_inv_zero_filling_validation():
    with pytest.raises(ValueError):
        inv_zero_filling((2, 1), [[1, 2]])
    with pytest.raises(ValueError):
        inv_zero_filling((2, 1), [[1], [1, 2]])
    with pytest.raises(ValueError):
        inv_zero_filling((1,), [[0]])


def test_cocharge_schur_vector_small():
    assert cocharge_schur_vector((1, 1)) == {(2,): QT.one(), (1, 1): QT.t()}
    assert cocharge_schur_vector((2,)) == {(2,): QT.one()}


def test_hall_littlewood_known_tables():
    assert hall_littlewood_schur((1, 1)) == {(2,): QT.one(), (1, 1): QT.t()}
    assert hall_littlewood_schur((2,)) == {(2,): QT.one()}
    assert hall_littlewood_schur((2, 1)) == {(3,): QT.one(), (2, 1): QT.t()}
    assert hall_littlewood_schur((1, 1, 1)) == {
        (3,): QT.one(),
        (2, 1): QT.t() + QT.t(2),
        (1, 1, 1): QT.t(3),
    }


def test_hall_littlewood_both_routes_agree_up_to_four():
    for n in (1, 2, 3, 4):
        for mu in partitions(n):
            hall_littlewood_schur(mu)


@pytest.mark.parametrize("mu", SHAPES_TO_6, ids=shape_id)
def test_hall_littlewood_both_routes_agree_up_to_six(mu):
    # raises when the cocharge sum and the q = 0 Schur column disagree
    assert hall_littlewood_schur(mu)


def test_integral_form_row_of_two():
    one, q, t = QT.one(), QT.q(), QT.t()
    m = integral_form_m_vec((2,))
    assert m[(2,)] == (one - t) * (one - q * t)
    assert m[(1, 1)] == (one + q) * (one - t) * (one - t)


def test_integral_form_column_of_two():
    one, t = QT.one(), QT.t()
    m = integral_form_m_vec((1, 1))
    assert (2,) not in m
    assert m[(1, 1)] == (one - t) * (one - t * t)


def test_integral_form_routes_agree():
    for n in (1, 2, 3):
        for mu in partitions(n):
            nv = max(n, 1)
            assert integral_form_in_x(mu, nv) == integral_form_from_macdonald(mu, nv)


SHAPES_TO_5 = [mu for n in range(1, 6) for mu in partitions(n)]


@pytest.mark.parametrize("mu", SHAPES_TO_5, ids=shape_id)
def test_signed_route_matches_the_direct_sums(mu):
    # jmu and jack run the signed route; the direct sums are their oracles
    n = sum(mu)
    assert integral_form_m_vec(mu) == to_m_basis(integral_form_in_x(mu, n))
    for nvars in range(1, n + 2):
        assert integral_form_from_macdonald(mu, nvars) == integral_form_in_x(mu, nvars), nvars
        jack = jack_alpha_in_x(mu, nvars)
        for alpha in (1, 2, 3):
            assert jack_limit(mu, nvars, alpha) == eval_alpha(jack, alpha), (nvars, alpha)


@pytest.mark.parametrize("mu", SHAPES_TO_5, ids=shape_id)
def test_jack_alpha_m_vec_matches_the_direct_sum(mu):
    n = sum(mu)
    for nvars in (n, n + 1):
        assert jack_alpha_m_vec(mu, nvars) == to_m_basis(jack_alpha_in_x(mu, nvars)), nvars


def test_jack_alpha_m_vec_in_fewer_variables_keeps_the_parts_that_fit():
    for mu in SHAPES_TO_5:
        full = jack_alpha_m_vec(mu)
        for nvars in range(1, sum(mu)):
            fitting = {nu: c for nu, c in full.items() if len(nu) <= nvars}
            assert jack_alpha_m_vec(mu, nvars) == fitting, (mu, nvars)


def test_jack_alpha_row_of_two():
    # q stands for alpha: m_2 has coefficient 1 + alpha, m_11 has 2
    m = jack_alpha_m_vec((2,))
    assert m[(2,)] == QT({(1, 0): 1, (0, 0): 1})
    assert m[(1, 1)] == QT({(0, 0): 2})


def test_jack_alpha_column_of_two():
    m = jack_alpha_m_vec((1, 1))
    assert m[(1, 1)] == QT({(0, 0): 2})
    assert (2,) not in m


def test_jack_alpha_of_a_row_of_three():
    # J_3 = (1 + alpha)(1 + 2 alpha) m_3 + 3(1 + alpha) m_21 + 6 m_111
    m = jack_alpha_m_vec((3,))
    assert m == {
        (3,): QT({(2, 0): 2, (1, 0): 3, (0, 0): 1}),
        (2, 1): QT({(1, 0): 3, (0, 0): 3}),
        (1, 1, 1): QT({(0, 0): 6}),
    }


alpha_coeffs = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=4), st.just(0)),
    st.integers(min_value=-9, max_value=9),
    max_size=4,
).map(QT)
alpha_polys = st.tuples(alpha_coeffs, alpha_coeffs).map(
    lambda cs: XPoly(1, {(0,): cs[0], (1,): cs[1]})
)


@given(alpha_polys, alpha_polys, st.integers(min_value=-3, max_value=3))
def test_alpha_evaluation_is_a_homomorphism(f, g, x):
    assert eval_alpha(f * g, x) == eval_alpha(f, x) * eval_alpha(g, x)
    assert eval_alpha(f + g, x) == eval_alpha(f, x) + eval_alpha(g, x)


def test_jack_limit_matches_alpha_evaluation():
    for mu in ((2,), (1, 1), (2, 1)):
        n = sum(mu)
        for alpha in (1, 2, 3):
            lhs = eval_alpha(jack_alpha_in_x(mu, n), alpha)
            assert lhs == jack_limit(mu, n, alpha)


def test_jack_limit_alpha_one_is_a_scaled_schur_function():
    # at alpha = 1 the integral form of a row is 2*s_2
    f = jack_limit((2,), 2, 1)
    m = to_m_basis(f)
    assert m == {(2,): 2, (1, 1): 2}
