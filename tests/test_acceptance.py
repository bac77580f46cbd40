"""The acceptance gate: every headline identity at its stated desk scale.

Each test covers one numbered criterion, records a single pass/fail line
(echoed in the terminal summary), and compares everything exactly; the only
tolerances are the wall-clock budgets on the two largest sweeps.

Criteria 5, 6, 7, 9 and 10 run the suites behind `macpoly verify`, so each
of their identities has one implementation: llt at n <= 5 with 200 recursions
of length <= 10, axioms at n <= 6 and at n <= 5, cocharge at n <= 5 with 1000
samples, crystal at n <= 6 with words of length <= 7 over 4 letters. Such a
criterion passes only when every check its suite returns passes, and its
failure names each failing check. Criteria 1-4 and 8 keep their own loops for
routes no suite takes: the brute-force `macdonald_in_x` (1, 2), the exported
`plethysm_q_minus_one` and `plethysm_t_minus_one` (3), the `Filling`-level
involutions (4), and the x-basis writers of the integral form and of Jack (8).
"""

import sys
import time

import pytest

from macpoly import verify
from macpoly.fillings import (
    ORDER1,
    ORDER2,
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
from macpoly.macdonald import (
    macdonald_in_x,
    plethysm_q_minus_one,
    plethysm_t_minus_one,
)
from macpoly.qtring import QT
from macpoly.shapes import conjugate, dominance_leq, partitions
from macpoly.special import (
    eval_alpha,
    integral_form_from_macdonald,
    integral_form_in_x,
    jack_alpha_in_x,
    jack_limit,
)
from macpoly.symfunc import to_m_basis

SEED = 94114


def shapes_up_to(n_max: int):
    for n in range(1, n_max + 1):
        yield from partitions(n)


def suite_criterion(criterion, number: int, description: str, suite, **bounds) -> None:
    """Report criterion `number` as passed only when every check that
    `suite(**bounds)` returns passes; a failure names each failing check."""
    start = time.perf_counter()
    failed = [label for label, passed in suite(**bounds) if not passed]
    criterion(number, description, not failed, time.perf_counter() - start, failed=failed)


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


def test_criterion_05_descent_classes_and_recursion(criterion):
    suite_criterion(
        criterion, 5,
        "descent classes equal ribbon tuples (sizes at most 5), transposition inverts q, and 200 two-variable recursions hold",
        verify.suite_llt, n_max=5, samples=200, beta_len=10, seed=SEED,
    )


def test_criterion_06_two_letter_coefficients(criterion):
    suite_criterion(
        criterion, 6,
        "two-letter coefficients are elementary functions of the cell monomials, hooks included, for sizes at most 6",
        verify.suite_axioms, n_max=6,
    )


def test_criterion_07_cocharge(criterion):
    suite_criterion(
        criterion, 7,
        "the q = 0 Schur column equals cocharge sums (sizes at most 5) and the major index matches cocharge on 1000 inversion-free fillings",
        verify.suite_cocharge, n_max=5, samples=1000, seed=SEED,
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
    suite_criterion(
        criterion, 9,
        "two-column Yamanouchi sums equal Schur rows for sizes at most 6 and the crystal checks pass",
        verify.suite_crystal, n_max=6, word_len=7, alphabet=4, yamanouchi_len=6,
    )


def test_criterion_10_duality_positivity_counts(criterion):
    suite_criterion(
        criterion, 10,
        "conjugation swaps the parameters, coefficients lie in N[q,t], and q = t = 1 counts standard tableaux for sizes at most 5",
        verify.suite_axioms, n_max=5,
    )


def test_a_failing_suite_check_fails_its_criterion_by_label(criterion, monkeypatch):
    # keep the forced failure out of the summary's verdict lines
    monkeypatch.setattr(sys.modules[criterion.__module__], "CRITERION_LINES", [])
    monkeypatch.setattr(verify, "check_recording_preserved", lambda word_len, alphabet: False)
    with pytest.raises(AssertionError) as failure:
        test_criterion_09_two_column_rule(criterion)
    message = str(failure.value)
    assert "[FAIL] criterion 9:" in message
    assert "raising preserves the recording tableau (length 7, alphabet 4)" in message
    assert "two-column Yamanouchi sums reproduce Schur coefficients" not in message
