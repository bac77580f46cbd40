"""Crystal operators on words and on two-column fillings."""

from itertools import permutations

import pytest

from macpoly.crystal import (
    _two_column_data,
    check_fiber_sizes,
    check_filling_operators,
    check_recording_preserved,
    check_unique_yamanouchi,
    check_word_axioms,
    crystal_lower,
    crystal_raise,
    filling_lower,
    filling_raise,
    is_yamanouchi,
    rectify,
    rsk,
    two_column_kostka,
    yamanouchi_words,
)
from macpoly.fillings import Filling, inv, maj, shape_data
from macpoly.macdonald import macdonald
from macpoly.qtring import QT
from macpoly.shapes import partitions
from macpoly.symfunc import syt_count, tableau_reading_word


def test_raise_flips_the_first_unmatched_upper_letter():
    word = (3, 4, 2, 2, 3, 3, 1, 3, 2, 1, 2, 4)
    raised = crystal_raise(word, 2)
    assert raised == (3, 4, 2, 2, 2, 3, 1, 3, 2, 1, 2, 4)
    assert crystal_lower(raised, 2) == word


def test_operators_return_none_at_the_ends():
    assert crystal_raise((1, 1), 1) is None
    assert crystal_lower((2, 2), 1) is None
    assert crystal_raise((2, 1), 1) is None  # the pair is matched
    assert crystal_lower((2, 1), 1) is None
    assert crystal_raise((1, 2), 1) == (1, 1)
    assert crystal_lower((1, 2), 1) == (2, 2)


def test_raise_and_lower_are_mutually_inverse():
    from itertools import product

    for word in product((1, 2, 3), repeat=4):
        for i in (1, 2):
            up = crystal_raise(word, i)
            if up is not None:
                assert crystal_lower(up, i) == word
            down = crystal_lower(word, i)
            if down is not None:
                assert crystal_raise(down, i) == word


def test_is_yamanouchi():
    assert is_yamanouchi(())
    assert is_yamanouchi((2, 1, 1))
    assert is_yamanouchi((1, 2, 1))
    assert not is_yamanouchi((1, 1, 2))
    assert is_yamanouchi((3, 2, 1))
    assert not is_yamanouchi((1, 2, 3))


def test_yamanouchi_words_by_content():
    assert set(yamanouchi_words((2, 1))) == {(2, 1, 1), (1, 2, 1)}
    assert set(yamanouchi_words((2, 2))) == {(2, 1, 2, 1), (2, 2, 1, 1)}
    assert set(yamanouchi_words((1,))) == {(1,)}


def test_yamanouchi_words_are_the_filtered_permutations():
    # one word per standard tableau of shape lam, with no permutation walk
    for n in range(9):
        for lam in partitions(n):
            words = list(yamanouchi_words(lam))
            assert len(words) == len(set(words)) == syt_count(lam)
            letters = [a for a, c in enumerate(lam, start=1) for _ in range(c)]
            assert set(words) == {w for w in set(permutations(letters)) if is_yamanouchi(w)}


def test_yamanouchi_words_are_the_raise_kernel():
    for word in yamanouchi_words((3, 2, 1)):
        assert all(crystal_raise(word, i) is None for i in (1, 2, 3))


def test_rsk_small_word():
    p, q = rsk((2, 1, 1))
    assert p == ((1, 1), (2,))
    assert q == ((1, 3), (2,))
    assert rsk(()) == ((), ())


def test_rectify_is_constant_on_knuth_classes():
    assert rectify((1, 2, 1)) == (2, 1, 1)
    assert rectify((2, 1, 1)) == (2, 1, 1)
    assert tableau_reading_word(((1, 1), (2,))) == (2, 1, 1)
    # rectifying a tableau word returns it unchanged
    for word in ((2, 1, 1), (3, 1, 2), (2, 3, 1, 1, 2)):
        assert rectify(rectify(word)) == rectify(word)


def test_filling_raise_corrects_inside_the_attack_zone():
    f = Filling((2, 2), (1, 2, 2, 1))
    up = filling_raise(f, 1)
    assert up is not None
    assert up.word == (1, 2, 1, 1)
    assert filling_lower(up, 1) == f
    assert maj(up) == maj(f)
    assert inv(up) == inv(f)
    # the raw word operator would flip position 1 instead
    assert crystal_raise(f.word, 1) == (1, 1, 2, 1)
    assert rectify(up.word) == rectify((1, 1, 2, 1))


def test_attack_zone_is_every_cell_after_the_one_cell_rows():
    # the closed form for k0 rests on this: the attack pairs of a shape with
    # parts <= 2 are exactly the consecutive pairs from k0 on
    shapes = 0
    for n in range(11):
        for mu in partitions(n):
            if mu and mu[0] > 2:
                continue
            _, k0 = _two_column_data(mu)
            assert shape_data(mu).attack_pairs == tuple((p, p + 1) for p in range(k0, n - 1))
            shapes += 1
    assert shapes == 36


def test_filling_operators_reject_wide_shapes():
    with pytest.raises(ValueError):
        filling_raise(Filling((3,), (1, 2, 1)), 1)
    with pytest.raises(ValueError):
        filling_lower(Filling((3, 1), (1, 1, 2, 1)), 1)


def test_filling_operators_null_together_with_word_operators():
    from itertools import product

    for word in product((1, 2), repeat=4):
        f = Filling((2, 2), word)
        for i in (1,):
            assert (filling_raise(f, i) is None) == (crystal_raise(word, i) is None)
            assert (filling_lower(f, i) is None) == (crystal_lower(word, i) is None)


def test_two_column_kostka_known_values():
    assert two_column_kostka((2, 1), (2, 1)) == QT.q() + QT.t()
    assert two_column_kostka((1, 1), (1, 1)) == QT.t()
    assert two_column_kostka((2,), (1, 1)) == QT.one()
    assert two_column_kostka((2, 2), (2, 2)) == QT.q(2) + QT.t(2)


def test_two_column_kostka_matches_schur_rows():
    for mu in ((1, 1), (2, 1), (2, 2), (2, 1, 1), (2, 2, 1)):
        vec = macdonald(mu).schur_vec
        from macpoly.shapes import partitions

        for lam in partitions(sum(mu)):
            assert two_column_kostka(lam, mu) == vec.get(lam, QT.zero())


def test_two_column_kostka_validation():
    with pytest.raises(ValueError):
        two_column_kostka((2, 1), (3,))
    with pytest.raises(ValueError):
        two_column_kostka((2,), (1, 1, 1))


def test_structural_checks_at_small_sizes():
    assert check_word_axioms(4, 3)
    assert check_recording_preserved(4, 3)
    assert check_unique_yamanouchi(4, 3)
    assert check_filling_operators((2, 2, 1), 3)
    assert check_fiber_sizes(4, 3)
