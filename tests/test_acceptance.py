"""The acceptance gate: every headline identity at its stated desk scale.

Each test covers one numbered criterion, records a single pass/fail line
(echoed in the terminal summary), and compares everything exactly; the only
tolerances are the wall-clock budgets on the two largest sweeps.
"""

import random
import time
from fractions import Fraction

from macpoly.crystal import (
    check_filling_operators,
    check_recording_preserved,
    check_unique_yamanouchi,
    check_word_axioms,
    two_column_kostka,
)
from macpoly.fillings import (
    ORDER1,
    ORDER2,
    cocharge_word,
    descent_cells,
    inv,
    maj,
    shape_data,
    super_fillings,
    word_is_non_attacking,
)
from macpoly.involutions import (
    attack_cancellation_holds,
    attack_involution,
    row_bound_cancellation_holds,
    row_bound_involution,
    word_is_row_bound_fixed,
)
from macpoly.llt import (
    beta_recursion_parts,
    binary_inversion_poly,
    check_ribbon_factorization,
    check_transpose_identity,
    check_transpose_schur,
)
from macpoly.macdonald import (
    check_conjugate_duality,
    hook_schur_coeff,
    macdonald,
    macdonald_in_x,
    one_minus_u_coeffs,
    plethysm_q_minus_one,
    plethysm_t_minus_one,
)
from macpoly.qtring import QT, elementary_coeffs
from macpoly.shapes import (
    cell_biexponents,
    conjugate,
    dominance_leq,
    partitions,
    ribbon_from_descents,
)
from macpoly.special import (
    cocharge,
    eval_alpha,
    hall_littlewood_schur,
    integral_form_from_macdonald,
    integral_form_in_x,
    inv_zero_filling,
    jack_alpha_in_x,
    jack_limit,
)
from macpoly.symfunc import XPoly, syt_count, to_m_basis

SEED = 94114


def shapes_up_to(n_max: int):
    for n in range(1, n_max + 1):
        yield from partitions(n)


def test_criterion_01_normalization(criterion):
    start = time.perf_counter()
    ok = True
    for mu in shapes_up_to(6):
        n = sum(mu)
        ok &= macdonald_in_x(mu, n).terms.get((n,) + (0,) * (n - 1), 0) == QT.one()
    criterion(
        1,
        "x1^n carries coefficient 1 on every shape of size at most 6",
        ok,
        time.perf_counter() - start,
        budget=60.0,
    )


def test_criterion_02_symmetry(criterion):
    start = time.perf_counter()
    ok = all(macdonald_in_x(mu, sum(mu)).is_symmetric() for mu in shapes_up_to(5))
    criterion(
        2,
        "filling sums are symmetric polynomials for sizes at most 5",
        ok,
        time.perf_counter() - start,
    )


def test_criterion_03_substitution_supports(criterion):
    start = time.perf_counter()
    ok = True
    for mu in shapes_up_to(5):
        n = sum(mu)
        q_support = to_m_basis(plethysm_q_minus_one(mu, n))
        ok &= all(dominance_leq(rho, conjugate(mu)) for rho in q_support)
        t_support = to_m_basis(plethysm_t_minus_one(mu, n))
        ok &= all(dominance_leq(rho, mu) for rho in t_support)
    criterion(
        3,
        "signed-substitution supports obey the dominance bounds for sizes at most 5",
        ok,
        time.perf_counter() - start,
        budget=600.0,
    )


def _plain(filling) -> int:
    return sum(1 for x in filling.word if x > 0)


def _barred(filling) -> int:
    return sum(1 for x in filling.word if x < 0)


def test_criterion_04_involutions(criterion):
    start = time.perf_counter()
    ok = True
    for mu in shapes_up_to(4):
        for f in super_fillings(mu, 3, 3):
            astep = attack_involution(f)
            ok &= attack_involution(astep.after).after == f
            ok &= astep.is_fixed == word_is_non_attacking(f.word, shape_data(mu))
            if not astep.is_fixed:
                g = astep.after
                ok &= descent_cells(f, ORDER1) == descent_cells(g, ORDER1)
                ok &= maj(f, ORDER1) == maj(g, ORDER1)
                ok &= _plain(f) + inv(f, ORDER1) == _plain(g) + inv(g, ORDER1)
                ok &= abs(_barred(f) - _barred(g)) == 1
            rstep = row_bound_involution(f)
            ok &= row_bound_involution(rstep.after).after == f
            ok &= rstep.is_fixed == word_is_row_bound_fixed(f.word, shape_data(mu))
            if not rstep.is_fixed:
                g = rstep.after
                ok &= inv(f, ORDER2) == inv(g, ORDER2)
                ok &= _plain(f) + maj(f, ORDER2) == _plain(g) + maj(g, ORDER2)
                ok &= abs(_barred(f) - _barred(g)) == 1
        ok &= attack_cancellation_holds(mu, 3, 3)
        ok &= row_bound_cancellation_holds(mu, 3, 3)
    criterion(
        4,
        "sign involutions pair, preserve weights, and cancel at alphabet 3 for sizes at most 4",
        ok,
        time.perf_counter() - start,
    )


def _random_betas(rng: random.Random, length: int) -> tuple[Fraction, ...]:
    values: set[Fraction] = set()
    while len(values) < length:
        values.add(Fraction(rng.randint(-24, 24), rng.randint(1, 6)))
    return tuple(sorted(values))


def _beta_step_holds(betas: tuple[Fraction, ...]) -> bool:
    g = binary_inversion_poly(betas)
    parts = beta_recursion_parts(betas)
    if parts is None:
        factor = XPoly(2, {(1, 0): QT.one(), (0, 1): QT.one()})
        return g == factor * binary_inversion_poly(betas[:-1])
    r, alpha, gamma = parts
    factor = XPoly(2, {(1, 1): QT.q(r) - QT.q(r - 1)})
    return g - binary_inversion_poly(alpha) == factor * binary_inversion_poly(gamma)


def test_criterion_05_descent_classes_and_recursion(criterion):
    start = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for mu in shapes_up_to(5):
        ok &= check_ribbon_factorization(mu, sum(mu))
    for _ in range(8):
        shapes = []
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(1, 3)
            des = {i for i in range(2, length + 1) if rng.random() < 0.5}
            shapes.append(ribbon_from_descents(length, des))
        shapes = tuple(shapes)
        ok &= check_transpose_identity(shapes, 2)
        ok &= check_transpose_schur(shapes, sum(s.size() for s in shapes))
    for _ in range(200):
        ok &= _beta_step_holds(_random_betas(rng, rng.randint(2, 10)))
    criterion(
        5,
        "descent classes equal ribbon tuples (sizes at most 5), transposition inverts q, and 200 two-variable recursions hold",
        ok,
        time.perf_counter() - start,
    )


def test_criterion_06_two_letter_coefficients(criterion):
    start = time.perf_counter()
    ok = True
    for mu in shapes_up_to(6):
        n = sum(mu)
        ok &= one_minus_u_coeffs(mu) == elementary_coeffs(list(cell_biexponents(mu)))
        vec = macdonald(mu).schur_vec
        for d in range(n):
            hook = (n - d,) + (1,) * d
            ok &= vec.get(hook, QT.zero()) == hook_schur_coeff(mu, d)
    criterion(
        6,
        "two-letter coefficients are elementary functions of the cell monomials, hooks included, for sizes at most 6",
        ok,
        time.perf_counter() - start,
    )


def test_criterion_07_cocharge(criterion):
    start = time.perf_counter()
    ok = True
    for mu in shapes_up_to(5):
        try:
            hall_littlewood_schur(mu)
        except RuntimeError:
            ok = False
    rng = random.Random(SEED)
    for _ in range(1000):
        n = rng.randint(1, 6)
        mu = rng.choice(partitions(n))
        rows = [[rng.randint(1, 8) for _ in range(part)] for part in mu]
        f = inv_zero_filling(mu, rows)
        ok &= inv(f) == 0
        ok &= maj(f) == cocharge(cocharge_word(f))
    criterion(
        7,
        "the q = 0 Schur column equals cocharge sums (sizes at most 5) and the major index matches cocharge on 1000 inversion-free fillings",
        ok,
        time.perf_counter() - start,
    )


def test_criterion_08_integral_forms(criterion):
    start = time.perf_counter()
    ok = True
    for mu in shapes_up_to(4):
        n = sum(mu)
        ok &= integral_form_in_x(mu, n) == integral_form_from_macdonald(mu, n)
        direct = jack_alpha_in_x(mu, n)
        for alpha in (1, 2, 3):
            ok &= eval_alpha(direct, alpha) == jack_limit(mu, n, alpha)
    criterion(
        8,
        "both integral-form routes agree and the one-parameter limit matches at alpha = 1, 2, 3 for sizes at most 4",
        ok,
        time.perf_counter() - start,
    )


def test_criterion_09_two_column_rule(criterion):
    start = time.perf_counter()
    ok = True
    for mu in shapes_up_to(6):
        if mu[0] > 2:
            continue
        vec = macdonald(mu).schur_vec
        for lam in partitions(sum(mu)):
            ok &= two_column_kostka(lam, mu) == vec.get(lam, QT.zero())
        ok &= check_filling_operators(mu, 3)
    ok &= all(
        check_word_axioms(length, alphabet)
        for length in range(1, 8)
        for alphabet in range(2, 5)
    )
    ok &= check_recording_preserved(7, 4)
    ok &= all(check_unique_yamanouchi(length, length) for length in range(1, 7))
    criterion(
        9,
        "two-column Yamanouchi sums equal Schur rows for sizes at most 6 and the crystal checks pass",
        ok,
        time.perf_counter() - start,
    )


def test_criterion_10_duality_positivity_counts(criterion):
    start = time.perf_counter()
    ok = True
    for mu in shapes_up_to(5):
        ok &= check_conjugate_duality(mu)
        for lam, c in macdonald(mu).schur_vec.items():
            ok &= c.is_polynomial() and c.has_nonnegative_coefficients()
            ok &= c.sum_of_coefficients() == syt_count(lam)
    criterion(
        10,
        "conjugation swaps the parameters, coefficients lie in N[q,t], and q = t = 1 counts standard tableaux for sizes at most 5",
        ok,
        time.perf_counter() - start,
    )
