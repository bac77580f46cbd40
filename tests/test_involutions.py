"""Sign-flipping involutions and the cancellation they force; the word-level
pivots against the rules on Filling objects, and mutants of the pivots that
the involutions suite must catch."""

from itertools import product

import pytest

from macpoly import verify
from macpoly.fillings import (
    ORDER1,
    ORDER2,
    Filling,
    coded_statistics,
    descent_cells,
    inv,
    letter_codes,
    maj,
    shape_data,
    super_fillings,
    super_letters,
    word_is_non_attacking,
)
from macpoly.involutions import (
    attack_cancellation_holds,
    attack_involution,
    attack_pivot,
    flip,
    row_bound_cancellation_holds,
    row_bound_involution,
    row_bound_pivot,
    word_is_row_bound_fixed,
)
from macpoly.shapes import attacks, partitions

SHAPES = ((2,), (1, 1), (2, 1))
SMALL = [mu for n in range(1, 5) for mu in partitions(n)]


def plain(filling: Filling) -> int:
    return sum(1 for x in filling.word if x > 0)


def barred(filling: Filling) -> int:
    return sum(1 for x in filling.word if x < 0)


def test_attack_involution_on_an_equal_pair():
    step = attack_involution(Filling((2,), (1, 1)))
    assert step.after == Filling((2,), (-1, 1))
    assert step.flipped_cell == (1, 1)
    assert step.pivot_value == 1
    back = attack_involution(step.after)
    assert back.after == step.before


def test_attack_involution_fixed_point():
    step = attack_involution(Filling((2,), (1, 2)))
    assert step.is_fixed
    assert step.after == step.before
    assert word_is_non_attacking(step.before.word, shape_data((2,)))


def test_attack_involution_picks_the_smallest_value():
    # values 2 and 1 both repeat; the pivot must be 1
    f = Filling((2, 2), (2, 2, 1, 1))
    step = attack_involution(f)
    assert step.pivot_value == 1
    assert step.flipped_cell in {(1, 1), (1, 2)}


def test_row_bound_involution_on_a_column():
    f = Filling.from_rows([[1], [1]])
    step = row_bound_involution(f)
    assert step.flipped_cell == (2, 1)
    assert step.pivot_value == 1
    assert step.after == Filling.from_rows([[-1], [1]])
    assert row_bound_involution(step.after).after == f


def test_row_bound_fixed_points_bound_entries_by_row():
    column = shape_data((1, 1))
    assert word_is_row_bound_fixed(Filling.from_rows([[-2], [1]]).word, column)
    assert not word_is_row_bound_fixed(Filling.from_rows([[1], [2]]).word, column)
    step = row_bound_involution(Filling.from_rows([[-2], [1]]))
    assert step.is_fixed


def test_attack_involution_is_an_involution_exhaustively():
    for mu in SHAPES:
        for f in super_fillings(mu, 2, 2, ORDER1):
            step = attack_involution(f)
            assert step.is_fixed == word_is_non_attacking(f.word, shape_data(mu))
            again = attack_involution(step.after)
            assert again.after == f
            if not step.is_fixed:
                diffs = [
                    p for p, (a, b) in enumerate(zip(f.word, step.after.word)) if a != b
                ]
                assert len(diffs) == 1
                assert f.word[diffs[0]] == -step.after.word[diffs[0]]


def test_row_bound_involution_is_an_involution_exhaustively():
    for mu in SHAPES:
        for f in super_fillings(mu, 2, 2, ORDER2):
            step = row_bound_involution(f)
            assert step.is_fixed == word_is_row_bound_fixed(f.word, shape_data(mu))
            assert row_bound_involution(step.after).after == f


def test_attack_involution_preserves_the_q_weight():
    for mu in SHAPES:
        for f in super_fillings(mu, 2, 2, ORDER1):
            step = attack_involution(f)
            if step.is_fixed:
                continue
            g = step.after
            assert (barred(f) - barred(g)) % 2 == 1
            assert descent_cells(f, ORDER1) == descent_cells(g, ORDER1)
            assert maj(f, ORDER1) == maj(g, ORDER1)
            assert plain(f) + inv(f, ORDER1) == plain(g) + inv(g, ORDER1)


def test_row_bound_involution_preserves_the_t_weight():
    for mu in SHAPES:
        for f in super_fillings(mu, 2, 2, ORDER2):
            step = row_bound_involution(f)
            if step.is_fixed:
                continue
            g = step.after
            assert (barred(f) - barred(g)) % 2 == 1
            assert inv(f, ORDER2) == inv(g, ORDER2)
            assert plain(f) + maj(f, ORDER2) == plain(g) + maj(g, ORDER2)


def test_signed_sums_collapse_to_fixed_points():
    for mu in SHAPES:
        assert attack_cancellation_holds(mu, 2, 2)
        assert row_bound_cancellation_holds(mu, 2, 2)
    assert attack_cancellation_holds((2, 2), 1, 1)
    assert row_bound_cancellation_holds((2, 2), 2, 2)


@pytest.mark.parametrize(
    "pivot_of, cancels",
    [(attack_pivot, attack_cancellation_holds), (row_bound_pivot, row_bound_cancellation_holds)],
    ids=["attack", "row-bound"],
)
def test_the_walks_fixed_set_reaches_the_kernel(pivot_of, cancels):
    # the fixed points as the involutions suite collects them: the signed sum
    # collapses onto them, and onto nothing less
    for mu in ((1, 1), (2, 1), (2, 2)):
        sd = shape_data(mu)
        fixed = {w for w in product(super_letters(2, 2), repeat=len(sd.cells)) if pivot_of(w, sd) is None}
        assert cancels(mu, 2, 2, fixed), mu
        assert not cancels(mu, 2, 2, fixed - {min(fixed)}), mu


def test_cancellation_needs_a_sign_symmetric_alphabet():
    # flipping the bar on a letter can leave the alphabet when nneg < npos
    assert not attack_cancellation_holds((2,), 2, 1)
    assert not row_bound_cancellation_holds((1, 1, 1), 2, 1)
    # shapes where every filling is already fixed collapse trivially
    assert attack_cancellation_holds((1, 1), 2, 1)
    assert row_bound_cancellation_holds((3,), 1, 2)


def rule_attack_cell(f: Filling):
    """The attack rule read off cells: the smallest value a shared by an
    attacking pair, the last cell v in reading order that is the later cell
    of such a pair, and the last cell before v that attacks v and holds a."""
    sd = shape_data(f.shape)
    a = [abs(x) for x in f.word]
    cells = sd.cells
    pairs = [(p, p2) for p in range(len(a)) for p2 in range(p + 1, len(a))
             if attacks(cells[p], cells[p2]) and a[p] == a[p2]]
    if not pairs:
        return None, None
    value = min(a[p] for p, _ in pairs)
    v = max(p2 for p, p2 in pairs if a[p] == value)
    return cells[max(p for p, p2 in pairs if p2 == v and a[p] == value)], value


def rule_row_bound_cell(f: Filling):
    """The row bound rule read off cells: the smallest |entry| below its row
    index, at the first reading-order cell holding it."""
    sd = shape_data(f.shape)
    low = [abs(x) for (i, _), x in zip(sd.cells, f.word) if abs(x) < i]
    if not low:
        return None, None
    value = min(low)
    return next(c for c, x in zip(sd.cells, f.word) if abs(x) == value), value


@pytest.mark.parametrize("alphabet", (2, 3))
def test_word_pivots_match_the_filling_maps(alphabet):
    for mu in SMALL:
        sd = shape_data(mu)
        for f in super_fillings(mu, alphabet, alphabet):
            for pivot_of, involution, rule in (
                (attack_pivot, attack_involution, rule_attack_cell),
                (row_bound_pivot, row_bound_involution, rule_row_bound_cell),
            ):
                p = pivot_of(f.word, sd)
                step = involution(f)
                assert (step.flipped_cell, step.pivot_value) == rule(f)
                if p is None:
                    assert step.is_fixed and step.after == f
                else:
                    assert step.flipped_cell == sd.cells[p]
                    assert step.pivot_value == abs(f.word[p])
                    assert step.after.word == flip(f.word, p)


@pytest.mark.parametrize("alphabet", (2, 3))
def test_coded_statistics_match_the_filling_statistics(alphabet):
    for order in (ORDER1, ORDER2):
        codes = letter_codes(super_letters(alphabet, alphabet), order)
        for mu in SMALL:
            sd = shape_data(mu)
            for f in super_fillings(mu, alphabet, alphabet):
                m, i, descents = coded_statistics([codes[x] for x in f.word], sd)
                assert (m, i) == (maj(f, order), inv(f, order))
                assert frozenset(sd.cells[p] for p in descents) == descent_cells(f, order)


def test_letter_codes_refuse_a_tying_order():
    with pytest.raises(ValueError):
        letter_codes((1, -1), abs)


def test_the_filling_statistics_refuse_a_tying_order():
    # maj, inv and descent_cells code their letters, so abs ties 2 and 2~
    f = Filling((1, 1), (2, -2))
    for statistic in (maj, inv, descent_cells):
        with pytest.raises(ValueError, match="the letter order ties two distinct letters"):
            statistic(f, abs)
    assert maj(Filling((1, 1), (2, 2)), abs) == 0


def involution_checks(monkeypatch, attribute, mutant, n_max=3) -> dict[str, bool]:
    """suite_involutions(n_max) with one of the suite's functions replaced,
    keyed by the first word of each check label."""
    monkeypatch.setattr(verify, attribute, mutant)
    return {label.split()[0]: ok for label, ok in verify.suite_involutions(n_max)}


def attack_mutant(value=min, last_v=max, last_u=max):
    """attack_pivot with the value rule and the two cell rules given."""

    def pivot(word, sd):
        a = [abs(x) for x in word]
        pairs = [(p, p2) for p, p2 in sd.attack_pairs if a[p] == a[p2]]
        if not pairs:
            return None
        k = value(a[p] for p, _ in pairs)
        v = last_v(p2 for p, p2 in pairs if a[p] == k)
        return last_u(p for p, p2 in pairs if p2 == v and a[p] == k)

    return pivot


def test_the_mutant_factory_at_its_defaults_passes(monkeypatch):
    checks = involution_checks(monkeypatch, "attack_pivot", attack_mutant())
    assert all(checks.values())


@pytest.mark.parametrize("mutant", [attack_mutant(last_v=min), attack_mutant(last_u=min)])
def test_an_attack_pivot_off_the_last_cells_breaks_the_weights(monkeypatch, mutant):
    checks = involution_checks(monkeypatch, "attack_pivot", mutant)
    assert checks["descents,"] is False


def test_the_attack_pivot_value_rule_is_a_free_choice(monkeypatch):
    # In the interleaved order, flipping k <-> k~ changes only the comparisons
    # with cells holding k or k~: any value shared by an attacking pair gives
    # a weight-keeping involution, so the largest value passes every check.
    checks = involution_checks(monkeypatch, "attack_pivot", attack_mutant(value=max), n_max=5)
    assert all(checks.values())


def test_a_row_bound_pivot_at_the_last_offender_breaks_the_weights(monkeypatch):
    def last_offender(word, sd):
        low = [p for p, (x, r) in enumerate(zip(word, sd.row)) if abs(x) < r]
        return low[-1] if low else None

    checks = involution_checks(monkeypatch, "row_bound_pivot", last_offender)
    assert checks["descents,"] is False


def test_a_fixed_point_test_that_skips_an_attacking_pair_is_caught(monkeypatch):
    def skips_the_last_pair(word, sd):
        return all(abs(word[p]) != abs(word[p2]) for p, p2 in sd.attack_pairs[:-1])

    checks = involution_checks(monkeypatch, "word_is_non_attacking", skips_the_last_pair)
    assert checks["fixed"] is False


def test_a_pivot_that_reads_the_sign_of_its_letter_is_not_an_involution(monkeypatch):
    # the suite stores each word's pivot and looks up the image's pivot: a map
    # that flips elsewhere once the pivot letter is barred must still be caught
    def sign_reading(word, sd):
        p = attack_pivot(word, sd)
        if p is None or word[p] > 0:
            return p
        return max(q for q, x in enumerate(word) if abs(x) == abs(word[p]))

    checks = involution_checks(monkeypatch, "attack_pivot", sign_reading)
    assert checks["both"] is False
