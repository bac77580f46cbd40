"""Sign-flipping involutions and the cancellation they force."""

from macpoly.fillings import (
    ORDER1,
    ORDER2,
    Filling,
    descent_cells,
    inv,
    is_non_attacking,
    maj,
    super_fillings,
)
from macpoly.involutions import (
    attack_cancellation_holds,
    attack_involution,
    is_row_bound_fixed,
    row_bound_cancellation_holds,
    row_bound_involution,
)

SHAPES = ((2,), (1, 1), (2, 1))


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
    assert is_non_attacking(step.before)


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
    assert is_row_bound_fixed(Filling.from_rows([[-2], [1]]))
    assert not is_row_bound_fixed(Filling.from_rows([[1], [2]]))
    step = row_bound_involution(Filling.from_rows([[-2], [1]]))
    assert step.is_fixed


def test_attack_involution_is_an_involution_exhaustively():
    for mu in SHAPES:
        for f in super_fillings(mu, 2, 2, ORDER1):
            step = attack_involution(f)
            assert step.is_fixed == is_non_attacking(f)
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
            assert step.is_fixed == is_row_bound_fixed(f)
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


def test_cancellation_needs_a_sign_symmetric_alphabet():
    # flipping the bar on a letter can leave the alphabet when nneg < npos
    assert not attack_cancellation_holds((2,), 2, 1)
    assert not row_bound_cancellation_holds((1, 1, 1), 2, 1)
    # shapes where every filling is already fixed collapse trivially
    assert attack_cancellation_holds((1, 1), 2, 1)
    assert row_bound_cancellation_holds((3,), 1, 2)
