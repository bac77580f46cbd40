"""The filling sum, its bases, descent classes, and hook/duality structure."""

from importlib import import_module

import pytest

from macpoly.fillings import ORDER1, ORDER2, content_filling_sum
from macpoly.macdonald import (
    _macdonald,
    check_conjugate_duality,
    descent_class_poly,
    descent_class_polys,
    descent_class_weight,
    hook_schur_coeff,
    kostka_table,
    macdonald,
    macdonald_in_x,
    one_minus_u_coeffs,
    plethysm_q_minus_one,
    plethysm_t_minus_one,
    super_macdonald_in_xy,
)
from macpoly.qtring import QT, elementary_coeffs
from macpoly.shapes import cell_biexponents, conjugate, partitions, weighted_size
from macpoly.symfunc import XPoly, from_m_basis, schur_expand, to_m_basis


def qt(text_terms: dict[tuple[int, int], int]) -> QT:
    return QT(dict(text_terms))


def test_row_shape_in_two_variables():
    f = macdonald_in_x((2,), 2)
    assert f == XPoly(2, {(2, 0): QT.one(), (0, 2): QT.one(), (1, 1): QT.one() + QT.q()})


def test_single_cell_and_empty_shape():
    assert macdonald_in_x((1,), 1) == XPoly(1, {(1,): QT.one()})
    assert macdonald_in_x((), 1) == XPoly(1, {(0,): QT.one()})


def test_known_schur_tables_for_small_shapes():
    assert macdonald((2,)).schur_vec == {(2,): QT.one(), (1, 1): QT.q()}
    assert macdonald((1, 1)).schur_vec == {(2,): QT.one(), (1, 1): QT.t()}
    assert macdonald((2, 1)).schur_vec == {
        (3,): QT.one(),
        (2, 1): QT.q() + QT.t(),
        (1, 1, 1): QT.q() * QT.t(),
    }


def test_monomial_vector_for_the_row():
    assert macdonald((2,)).m_vec == {(2,): QT.one(), (1, 1): QT.one() + QT.q()}


@pytest.mark.parametrize(
    "mu",
    [mu for n in range(1, 7) for mu in partitions(n)] + [(3, 2, 1, 1)],
    ids=lambda mu: ",".join(map(str, mu)),
)
def test_fundamental_route_matches_the_filling_sum_oracle(mu):
    oracle = macdonald_in_x(mu, sum(mu))
    res = macdonald(mu)
    assert res.m_vec == to_m_basis(oracle)
    assert res.schur_vec == schur_expand(oracle)
    # hmu --basis x writes m_vec out; fewer variables than cells drop terms
    if sum(mu) <= 5:
        for nvars in range(1, sum(mu) + 2):
            assert from_m_basis(res.m_vec, nvars) == macdonald_in_x(mu, nvars), nvars


def test_empty_shape():
    res = macdonald(())
    assert res.m_vec == {(): QT.one()}
    assert res.schur_vec == {(): QT.one()}


def test_symmetry_check_rejects_a_non_symmetric_expansion(monkeypatch):
    # the coefficient of x1 x2^2 disagrees with that of x1^2 x2
    def skewed(sd, content):
        c = content_filling_sum(sd, content)
        return c + QT.q() if tuple(content) == (1, 2) else c

    # the package exports the function macdonald under the module's name
    monkeypatch.setattr(import_module("macpoly.macdonald"), "content_filling_sum", skewed)
    with pytest.raises(RuntimeError, match="not symmetric"):
        _macdonald.__wrapped__((2, 1))


def test_kostka_table_n2():
    parts, matrix = kostka_table(2)
    assert parts == ((2,), (1, 1))
    assert matrix == [[QT.one(), QT.one()], [QT.q(), QT.t()]]


def test_kostka_table_n3_known_columns():
    parts, matrix = kostka_table(3)
    assert parts == ((3,), (2, 1), (1, 1, 1))
    col = {mu: [matrix[r][c] for r in range(3)] for c, mu in enumerate(parts)}
    assert col[(3,)] == [QT.one(), QT.q() + QT.q(2), QT.q(3)]
    assert col[(2, 1)] == [QT.one(), QT.q() + QT.t(), QT.q() * QT.t()]
    assert col[(1, 1, 1)] == [QT.one(), QT.t() + QT.t(2), QT.t(3)]


def test_omega_inversion_of_the_kostka_tables():
    # K~_{lam' mu}(q, t) = q^n(mu') t^n(mu) K~_{lam mu}(1/q, 1/t), an identity
    # the DP does not build in; 434 entries over n <= 7
    for n in range(1, 8):
        parts, matrix = kostka_table(n)
        row = {lam: r for r, lam in enumerate(parts)}
        for c, mu in enumerate(parts):
            a, b = weighted_size(conjugate(mu)), weighted_size(mu)
            for lam in parts:
                inverted = QT({(a - i, b - j): k for (i, j), k in matrix[row[lam]][c].terms.items()})
                assert matrix[row[conjugate(lam)]][c] == inverted, (lam, mu)


def test_descent_classes_reassemble_the_polynomial():
    for mu in ((2, 1), (2, 2), (3, 1)):
        n = sum(mu)
        total = {}
        for descents, m_vec in descent_class_polys(mu, n).items():
            weight = descent_class_weight(mu, descents)
            for nu, c in m_vec.items():
                total[nu] = total.get(nu, QT.zero()) + weight * c
        assert {nu: c for nu, c in total.items() if c} == to_m_basis(macdonald_in_x(mu, n))


def test_descent_class_weight_and_single_class():
    # column of height 2: the class with a descent at the top cell carries t,
    # and its quasisymmetric piece in 2 variables is x1*x2
    w = descent_class_weight((1, 1), [(2, 1)])
    assert w == QT.t()
    assert descent_class_poly((1, 1), [(2, 1)], 2) == to_m_basis(XPoly(2, {(1, 1): QT.one()}))
    with pytest.raises(ValueError):
        descent_class_weight((1, 1), [(1, 1)])


def test_super_sum_column_with_one_barred_letter():
    f = super_macdonald_in_xy((1, 1), 0, 1, ORDER1)
    assert f == XPoly(1, {(2,): QT.t()})
    g = super_macdonald_in_xy((2,), 1, 1, ORDER1)
    assert g.terms.get((2, 0), 0) == QT.one()
    assert g.terms.get((0, 2), 0) == QT.q()
    assert g.terms.get((1, 1), 0) == QT.one() + QT.q()


def test_super_sum_restricts_to_plain_sum():
    for mu in ((2, 1), (3,)):
        f = super_macdonald_in_xy(mu, 2, 1, ORDER2)
        assert f.prefix_part(2) == macdonald_in_x(mu, 2)


def test_plethysm_q_minus_one_row_of_size_two():
    f = plethysm_q_minus_one((2,), 2)
    m = to_m_basis(f)
    assert m[(1, 1)] == (QT.one() + QT.q()) * (QT.q() - QT.one()) ** 2
    assert (2,) not in m


def test_plethysm_t_minus_one_column_of_size_two():
    f = plethysm_t_minus_one((1, 1), 2)
    m = to_m_basis(f)
    assert m[(1, 1)] == (QT.one() + QT.t()) * (QT.t() - QT.one()) ** 2
    assert (2,) not in m


def test_plethysm_sides_swap_under_conjugation():
    for mu in ((2, 1), (3,), (2, 2)):
        nu = tuple(sorted(mu, reverse=True))
        f = to_m_basis(plethysm_q_minus_one(nu, sum(nu)))
        g = to_m_basis(plethysm_t_minus_one(conjugate(nu), sum(nu)))
        assert {lam: c.swap_qt() for lam, c in f.items()} == g


def test_principal_monomials_shape_322():
    monos = sorted(cell_biexponents((3, 2, 2)))
    assert monos == sorted(
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    )


def test_one_minus_u_coeffs_match_elementary_symmetric():
    for mu in ((2,), (1, 1), (2, 1), (3, 1), (2, 2)):
        coeffs = one_minus_u_coeffs(mu)
        expected = elementary_coeffs(list(cell_biexponents(mu)))
        assert coeffs == expected


def test_hook_coefficients_drop_one_unit_cell():
    # shape (2,1): monomials {1, q, t}; removing the 1 leaves {q, t}
    assert hook_schur_coeff((2, 1), 0) == QT.one()
    assert hook_schur_coeff((2, 1), 1) == QT.q() + QT.t()
    assert hook_schur_coeff((2, 1), 2) == QT.q() * QT.t()
    with pytest.raises(ValueError):
        hook_schur_coeff((2, 1), 3)
    # no hook has size 0
    with pytest.raises(ValueError, match="hook column length 0 out of range for n = 0"):
        hook_schur_coeff((), 0)


def test_hook_coefficients_agree_with_schur_rows():
    for mu in ((2, 1), (3, 1), (2, 2), (4,)):
        vec = macdonald(mu).schur_vec
        n = sum(mu)
        for d in range(n):
            hook = (n - d,) + (1,) * d
            assert vec.get(hook, QT.zero()) == hook_schur_coeff(mu, d)


def test_conjugate_duality_small():
    for mu in ((2,), (2, 1), (3, 1), (2, 2)):
        assert check_conjugate_duality(mu)


def test_kostka_entries_are_positive_with_syt_count_at_one_one():
    from macpoly.symfunc import syt_count

    for n in (2, 3, 4):
        parts, matrix = kostka_table(n)
        for r, lam in enumerate(parts):
            for c in range(len(parts)):
                entry = matrix[r][c]
                assert entry.is_polynomial()
                assert entry.has_nonnegative_coefficients()
                assert entry.sum_of_coefficients() == syt_count(lam)
