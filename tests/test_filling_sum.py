"""The filling-sum kernel and its eight folds against a naive sum over Filling
objects that takes maj and inv from the per-filling statistics, and the
standard-filling sum against the same statistics and the positive sum."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macpoly.fillings import (
    ORDER1,
    ORDER2,
    Filling,
    attack_inversion_count,
    descent_cells,
    filling_sum,
    indicator,
    inv,
    inverse_descent_set,
    is_non_attacking,
    maj,
    shape_data,
    standard_filling_sum,
    super_fillings,
)
from macpoly.involutions import _signed_sums, is_row_bound_fixed
from macpoly.macdonald import (
    descent_class_poly,
    descent_class_polys,
    macdonald_in_x,
    one_minus_u_coeffs,
    plethysm_q_minus_one,
    plethysm_t_minus_one,
    super_macdonald_in_xy,
)
from macpoly.qtring import QT
from macpoly.shapes import partitions, weighted_size
from macpoly.special import integral_form_from_macdonald
from macpoly.symfunc import XPoly, monomial_exponents, qsym_q, super_exponents

SHAPES = [mu for n in range(5) for mu in partitions(n)]
ALPHABETS = ((1, 0), (2, 0), (0, 2), (2, 1), (2, 2))


def scrambled(x: int) -> tuple:
    """A total order on signed letters that is neither ORDER1 nor ORDER2."""
    return (x % 3, -x)


ORDERS = (ORDER1, ORDER2, scrambled)


def barred(f) -> int:
    return sum(1 for x in f.word if x < 0)


def plain(f) -> int:
    return sum(1 for x in f.word if x > 0)


def naive(mu, npos, nneg, order, nvars, term, keep=None) -> XPoly:
    """Sum over super_fillings of one (exponents, sign, q exp, t exp) term each."""
    acc = {}
    for f in super_fillings(mu, npos, nneg, order):
        if keep is None or keep(f):
            e, sign, a, b = term(f)
            acc[e] = acc.get(e, QT.zero()) + QT({(a, b): sign})
    return XPoly(nvars, acc)


def weighted_term(alphabet, order, nvars):
    """The kernel's term for one filling, built from maj and inv of the filling."""

    def term(f):
        exps, sign, a, b = [0] * nvars, 1, inv(f, order), maj(f, order)
        for x in f.word:
            var, s, da, db = alphabet[x]
            exps[var] += 1
            sign, a, b = sign * s, a + da, b + db
        return tuple(exps), sign, a, b

    return term


def test_kernel_matches_the_naive_sum():
    for mu in SHAPES:
        sd = shape_data(mu)
        for npos, nneg in ALPHABETS:
            alphabet = {k: (k - 1, 1, 1, 0) for k in range(1, npos + 1)}
            alphabet.update({-k: (npos + k - 1, -1, 0, 2) for k in range(1, nneg + 1)})
            nvars = npos + nneg
            for order in ORDERS:
                term = weighted_term(alphabet, order, nvars)
                for keep in (None, is_non_attacking):
                    got = XPoly(nvars, filling_sum(sd, alphabet, order, keep))
                    assert got == naive(mu, npos, nneg, order, nvars, term, keep), (mu, npos, nneg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_the_naive_sum_on_random_orders_and_weights(data):
    mu = data.draw(st.sampled_from(SHAPES))
    npos, nneg = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    letters = list(range(1, npos + 1)) + [-k for k in range(1, nneg + 1)]
    rank = {x: r for r, x in enumerate(data.draw(st.permutations(letters)))}
    weight = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)), st.integers(-1, 2), st.integers(-1, 2))
    alphabet = {x: data.draw(weight) for x in letters}
    nvars = 1 + max((w[0] for w in alphabet.values()), default=-1)
    term = weighted_term(alphabet, rank.__getitem__, nvars)
    got = XPoly(nvars, filling_sum(shape_data(mu), alphabet, rank.__getitem__))
    assert got == naive(mu, npos, nneg, rank.__getitem__, nvars, term)


def test_standard_sum_matches_the_statistics_and_the_positive_sum():
    for mu in [mu for n in range(6) for mu in partitions(n)]:
        n = sum(mu)
        expected = {}
        for perm in permutations(range(1, n + 1)):
            f = Filling(mu, perm)
            mask = sum(1 << (i - 1) for i in inverse_descent_set(f))
            expected[mask] = expected.get(mask, QT.zero()) + QT({(inv(f), maj(f)): 1})
        coeffs = standard_filling_sum(shape_data(mu))
        assert coeffs == expected, mu
        # the positive filling sum is the sum of c_D F_D, also in fewer than n variables
        for nvars in (1, 2, 3):
            total = XPoly.zero(nvars)
            for mask, c in coeffs.items():
                descents = [i for i in range(1, n) if mask >> (i - 1) & 1]
                total = total + qsym_q(n, descents, nvars).scaled(c)
            assert total == macdonald_in_x(mu, nvars), (mu, nvars)


def test_an_order_that_ties_two_letters_is_rejected():
    # the indicator reads a tie as 0 both ways, which no ranking reproduces
    assert indicator(1, -1, abs) == indicator(-1, 1, abs) == 0
    with pytest.raises(ValueError, match="ties"):
        filling_sum(shape_data((2,)), {1: (0, 1, 0, 0), -1: (0, 1, 0, 0)}, abs)
    with pytest.raises(ValueError, match="ties"):
        super_macdonald_in_xy((2,), 1, 1, abs)
    # abs is a total order on the plain letters alone
    assert super_macdonald_in_xy((2,), 2, 0, abs) == super_macdonald_in_xy((2,), 2, 0, ORDER1)


def test_super_macdonald_in_xy_matches_the_naive_sum():
    for mu in SHAPES:
        for npos, nneg in ALPHABETS:
            for order in ORDERS:
                expected = naive(
                    mu, npos, nneg, order, npos + nneg,
                    lambda f: (super_exponents(f.word, npos, nneg), 1, inv(f, order), maj(f, order)),
                )
                assert super_macdonald_in_xy(mu, npos, nneg, order) == expected


def test_positive_sums_and_descent_classes_match_the_naive_sums():
    for mu in SHAPES:
        for nvars in (1, 2):
            assert macdonald_in_x(mu, nvars) == naive(
                mu, nvars, 0, ORDER1, nvars,
                lambda f: (monomial_exponents(f.word, nvars), 1, inv(f), maj(f)),
            )
            classes = {}
            for f in super_fillings(mu, nvars, 0):
                by_exp = classes.setdefault(descent_cells(f), {})
                e = monomial_exponents(f.word, nvars)
                by_exp[e] = by_exp.get(e, QT.zero()) + QT.q(attack_inversion_count(f))
            expected = {des: XPoly(nvars, by_exp) for des, by_exp in classes.items()}
            assert descent_class_polys(mu, nvars) == expected
            for des, poly in expected.items():
                assert descent_class_poly(mu, des, nvars) == poly
    # a descent set no filling realizes gives the zero polynomial
    assert descent_class_poly((1, 1), [(2, 1)], 1) == XPoly.zero(1)


def test_signed_folds_match_the_naive_sums():
    for mu in SHAPES:
        nmu = weighted_size(mu)
        for nvars in (1, 2):
            def signed(f, q_exp, t_exp):
                return monomial_exponents(f.word, nvars), (-1) ** barred(f), q_exp, t_exp

            assert plethysm_q_minus_one(mu, nvars) == naive(
                mu, nvars, nvars, ORDER1, nvars,
                lambda f: signed(f, plain(f) + inv(f, ORDER1), maj(f, ORDER1)),
            )
            assert plethysm_t_minus_one(mu, nvars) == naive(
                mu, nvars, nvars, ORDER2, nvars,
                lambda f: signed(f, inv(f, ORDER2), plain(f) + maj(f, ORDER2)),
            )
            assert integral_form_from_macdonald(mu, nvars) == naive(
                mu, nvars, nvars, ORDER1, nvars,
                lambda f: signed(f, inv(f), nmu + barred(f) - maj(f)),
            )
        buckets = [QT.zero() for _ in range(sum(mu) + 1)]
        for f in super_fillings(mu, 1, 1):
            buckets[barred(f)] = buckets[barred(f)] + QT({(inv(f), maj(f)): 1})
        assert one_minus_u_coeffs(mu) == buckets


def test_signed_sums_match_the_naive_sums():
    for mu in SHAPES:
        for npos, nneg in ALPHABETS:
            nvars = max(npos, nneg)
            for order in ORDERS:
                for q_side in (True, False):
                    def term(f):
                        a, b = inv(f, order), maj(f, order)
                        a, b = (a + plain(f), b) if q_side else (a, b + plain(f))
                        return monomial_exponents(f.word, nvars), (-1) ** barred(f), a, b

                    for is_fixed in (is_non_attacking, is_row_bound_fixed):
                        total, fixed = _signed_sums(mu, npos, nneg, order, q_side, is_fixed)
                        assert total == naive(mu, npos, nneg, order, nvars, term)
                        assert fixed == naive(mu, npos, nneg, order, nvars, term, is_fixed)
