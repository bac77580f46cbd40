"""LLT polynomials on shape tuples and the two-letter diagonal recursion."""

import random
from fractions import Fraction
from importlib import import_module
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macpoly.fillings import (
    ORDER1,
    ORDER2,
    content_filling_sum,
    standardize_word,
)
from macpoly.llt import (
    beta_recursion_parts,
    binary_inversion_poly,
    check_ribbon_factorization,
    check_transpose_identity,
    check_transpose_schur,
    llt_m_vec,
    llt_poly,
    llt_super_poly,
    skew_super_tableaux,
    tableau_inversions,
    transpose_tuple,
    tuple_data,
    tuple_tableau_words,
)
from macpoly.qtring import QT
from macpoly.shapes import (
    SkewShape,
    partitions,
    ribbon_from_descents,
    ribbon_tuple,
)
from macpoly.symfunc import XPoly, schur_expand, super_exponents, to_m_basis

CELL = SkewShape((1,), ())
DOMINO_ROW = SkewShape((2,), ())
DOMINO_COL = SkewShape((1, 1), ())


def test_tuple_data_orders_cells_by_shifted_diagonal():
    td = tuple_data((CELL, CELL))
    assert td.cells == ((0, (1, 1)), (1, (1, 1)))
    assert td.attack_pairs == ((0, 1),)


def test_two_single_cells_give_one_q():
    f = llt_poly((CELL, CELL), 2)
    assert f == XPoly(
        2, {(2, 0): QT.one(), (1, 1): QT.one() + QT.q(), (0, 2): QT.one()}
    )


def test_single_component_has_no_inversions():
    assert llt_poly((DOMINO_ROW,), 2) == XPoly(
        2, {(2, 0): QT.one(), (1, 1): QT.one(), (0, 2): QT.one()}
    )
    assert llt_poly((DOMINO_COL,), 2) == XPoly(2, {(1, 1): QT.one()})


def test_skew_tableaux_counts():
    assert len(list(skew_super_tableaux(DOMINO_ROW, 2, 0))) == 3
    assert len(list(skew_super_tableaux(DOMINO_COL, 2, 0))) == 1
    assert len(list(skew_super_tableaux(SkewShape((2, 1), ()), 2, 0))) == 2
    # one barred letter may repeat up a column but not along a row
    assert list(skew_super_tableaux(DOMINO_COL, 0, 1)) == [(-1, -1)]
    assert list(skew_super_tableaux(DOMINO_ROW, 0, 1)) == []


def test_tableau_inversions_on_the_pair_of_cells():
    td = tuple_data((CELL, CELL))
    assert tableau_inversions((2, 1), td) == 1
    assert tableau_inversions((1, 2), td) == 0
    assert tableau_inversions((-1, -1), td, ORDER1) == 1


def test_standardize_word_breaks_ties_by_sign():
    assert standardize_word((1, 1, 1)) == (1, 2, 3)
    assert standardize_word((-1, -1, -1)) == (3, 2, 1)
    assert standardize_word((2, 1, -2)) == (2, 1, 3)


def test_standardization_preserves_inversions():
    shapes = (DOMINO_ROW, CELL)
    td = tuple_data(shapes)
    for word in tuple_tableau_words(shapes, 2, 0):
        std = standardize_word(word)
        assert tableau_inversions(word, td) == tableau_inversions(std, td)


def test_super_poly_restricts_to_plain():
    shapes = (CELL, DOMINO_ROW)
    f = llt_super_poly(shapes, 2, 1, ORDER1)
    assert f.prefix_part(2) == llt_poly(shapes, 2)


def inversion_sum(shapes, npos, nneg, order) -> XPoly:
    """The signed LLT sum with q counted by tableau_inversions, word by word."""
    td = tuple_data(shapes)
    acc = {}
    for word in tuple_tableau_words(shapes, npos, nneg, order):
        e = super_exponents(word, npos, nneg)
        acc[e] = acc.get(e, QT.zero()) + QT.q(tableau_inversions(word, td, order))
    return XPoly(npos + nneg, acc)


def test_coded_super_poly_matches_the_inversion_sum_on_random_ribbons():
    rng = random.Random(2004)
    for _ in range(12):
        shapes = []
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(1, 3)
            shapes.append(ribbon_from_descents(length, {i for i in range(2, length + 1) if rng.random() < 0.5}))
        shapes = tuple(shapes)
        for npos, nneg in ((2, 0), (3, 0), (2, 1), (1, 2)):
            for order in (ORDER1, ORDER2):
                got = llt_super_poly(shapes, npos, nneg, order)
                assert got == inversion_sum(shapes, npos, nneg, order), (shapes, npos, nneg, order)


@st.composite
def skew_shapes(draw):
    """An anchored skew shape with at most 3 rows and 4 columns, possibly empty."""
    outer = sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)), reverse=True)
    inner = []
    for part in outer:
        inner.append(draw(st.integers(0, min(part, inner[-1] if inner else part))))
    return SkewShape(tuple(outer), tuple(inner))


@st.composite
def skew_tuples_and_nvars(draw, max_cells=6):
    """Up to three skew shapes with at most max_cells cells in all (a shape
    that would pass the budget is dropped), and nvars in 1..cells."""
    shapes, budget = [], max_cells
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(skew_shapes())
        size = len(shape.cells())
        if size <= budget:
            shapes.append(shape)
            budget -= size
    return tuple(shapes), draw(st.integers(1, max(max_cells - budget, 1)))


@settings(max_examples=120, deadline=None)
@given(skew_tuples_and_nvars())
def test_llt_dp_matches_the_tableau_sum_on_skew_tuples(case):
    shapes, nvars = case
    assert llt_poly(shapes, nvars) == llt_super_poly(shapes, nvars, 0)


def ribbon_tuples(n_max):
    """Every ribbon tuple of every shape with at most n_max cells."""
    for n in range(n_max + 1):
        for mu in partitions(n):
            upper = [c for c in SkewShape(mu).cells() if c[0] >= 2]
            for k in range(len(upper) + 1):
                for d in combinations(upper, k):
                    yield mu, d, ribbon_tuple(mu, d)


def test_llt_dp_matches_the_tableau_sum_on_every_ribbon_tuple():
    for mu, d, shapes in ribbon_tuples(5):
        n = sum(mu)
        for nvars in range(1, n + 1):
            assert llt_poly(shapes, nvars) == llt_super_poly(shapes, nvars, 0), (mu, d, nvars)
        assert llt_m_vec(shapes, n) == to_m_basis(llt_super_poly(shapes, max(n, 1), 0)), (mu, d)


def assert_tuple_geometry(shapes):
    """tuple_data against its definition: the (component, cell) pairs sorted
    by (beta, row), beta = j/k - (i - j) for the cell (i, j) of component j
    in a k-tuple; the crossings are the p < p' with 0 < beta' - beta < 1;
    pos inverts cells, and no cell has a cell below it, an arm or a leg."""
    k = len(shapes)

    def beta(pair):
        ci, (i, j) = pair
        return Fraction(ci + 1, k) - (i - j)

    cells = sorted(
        ((ci, cell) for ci, shape in enumerate(shapes) for cell in shape.cells()),
        key=lambda pair: (beta(pair), pair[1][0]),
    )
    n = len(cells)
    td = tuple_data(shapes)
    assert td.cells == tuple(cells), shapes
    assert td.attack_pairs == tuple(
        (p, p2) for p, p2 in combinations(range(n), 2) if 0 < beta(cells[p2]) - beta(cells[p]) < 1
    ), shapes
    assert td.pos == {pair: p for p, pair in enumerate(cells)}
    assert td.row == tuple(i for _, (i, _) in cells)
    assert td.below == (-1,) * n
    assert td.arms == td.legs == (0,) * n


def test_tuple_data_matches_its_definition_on_every_ribbon_tuple():
    for _, _, shapes in ribbon_tuples(5):
        assert_tuple_geometry(shapes)


@settings(max_examples=150, deadline=None)
@given(skew_tuples_and_nvars())
def test_tuple_data_matches_its_definition_on_skew_tuples(case):
    assert_tuple_geometry(case[0])


def test_llt_symmetry_check_rejects_a_non_symmetric_expansion(monkeypatch):
    # the coefficient of x1 x2^2 disagrees with that of x1^2 x2
    def skewed(sd, content, *weights):
        c = content_filling_sum(sd, content, *weights)
        return c + QT.q() if tuple(content) == (1, 2) else c

    # the package exports the function macdonald under the module's name
    monkeypatch.setattr(import_module("macpoly.macdonald"), "content_filling_sum", skewed)
    with pytest.raises(RuntimeError, match="not symmetric"):
        llt_m_vec((CELL, DOMINO_ROW), 3)


def test_transpose_tuple_reverses_and_conjugates():
    out = transpose_tuple((DOMINO_ROW, CELL))
    assert out == (CELL, DOMINO_COL)


def test_ribbon_factorization_small_shapes(monkeypatch):
    for mu in ((2, 1), (2, 2), (3, 1)):
        assert check_ribbon_factorization(mu, 2)
    # every class is compared: dropping the one with two descents is caught
    llt = import_module("macpoly.llt")
    classes = llt.descent_class_polys
    monkeypatch.setattr(
        llt, "descent_class_polys",
        lambda mu, nvars: {d: f for d, f in classes(mu, nvars).items() if len(d) != 2},
    )
    assert not check_ribbon_factorization((2, 2), 2)


def test_transpose_identity_small_tuples():
    assert check_transpose_identity((CELL, CELL), 2)
    assert check_transpose_identity((DOMINO_ROW, CELL), 2)
    assert check_transpose_identity(ribbon_tuple((2, 2), [(2, 1)]), 2)


def test_transpose_schur_on_small_tuples():
    assert check_transpose_schur((CELL, CELL))
    assert check_transpose_schur((DOMINO_COL, CELL))


def test_schur_positivity_of_a_small_tuple():
    for c in schur_expand(llt_poly((CELL, CELL, CELL), 3)).values():
        assert c.is_polynomial() and c.has_nonnegative_coefficients()


def test_binary_inversion_poly_close_pair():
    f = binary_inversion_poly((Fraction(0), Fraction(1, 2)))
    assert f == XPoly(
        2, {(2, 0): QT.one(), (1, 1): QT.one() + QT.q(), (0, 2): QT.one()}
    )
    g = binary_inversion_poly((Fraction(0), Fraction(3, 2)))
    assert g.terms.get((1, 1), 0) == QT.term(2)
    with pytest.raises(ValueError):
        binary_inversion_poly((Fraction(1), Fraction(1)))


def test_beta_recursion_far_last_entry_factors():
    betas = (Fraction(0), Fraction(3, 2), Fraction(3))
    assert beta_recursion_parts(betas) is None
    x1_plus_x2 = XPoly(2, {(1, 0): QT.one(), (0, 1): QT.one()})
    assert binary_inversion_poly(betas) == x1_plus_x2 * binary_inversion_poly(betas[:-1])


def test_beta_recursion_parts_r_two():
    betas = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
    parts = beta_recursion_parts(betas)
    assert parts is not None
    r, alpha, gamma = parts
    assert r == 2
    assert alpha == (Fraction(0), Fraction(1, 4), Fraction(9, 8))
    assert gamma == (Fraction(1, 4),)


def test_beta_recursion_identity_holds():
    x1x2 = XPoly(2, {(1, 1): QT.one()})
    for betas in (
        (Fraction(0), Fraction(1, 4), Fraction(1, 2)),
        (Fraction(0), Fraction(1, 2), Fraction(5, 4)),
        (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2, 3)),
    ):
        parts = beta_recursion_parts(betas)
        assert parts is not None
        r, alpha, gamma = parts
        lhs = binary_inversion_poly(betas) - binary_inversion_poly(alpha)
        factor = QT.q(r) - QT.q(r - 1)
        rhs = (x1x2 * binary_inversion_poly(gamma)).scaled(factor)
        assert lhs == rhs
