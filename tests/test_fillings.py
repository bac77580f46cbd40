"""Fillings, the signed alphabet, and the descent/inversion statistics."""

from itertools import product

import pytest

from macpoly.fillings import (
    ORDER1,
    ORDER2,
    Filling,
    attack_inversion_count,
    bottom_row_inversions,
    coded_statistics,
    cocharge_word,
    descent_cells,
    fillings,
    format_filling,
    format_letter,
    indicator,
    inv,
    inversion_triples,
    letter_codes,
    letter_key,
    maj,
    parse_filling,
    parse_letter,
    shape_data,
    standardize,
    standardize_word,
    super_fillings,
    super_letters,
    word_inverse_descent_set,
    word_is_non_attacking,
    word_statistics,
)
from macpoly.llt import tableau_inversions
from macpoly.shapes import attacks, partitions

EXAMPLE = Filling.from_rows([[6, 2], [2, 4, 8], [4, 4, 1, 3]])
SIGNED_EXAMPLE = Filling.from_rows([[6, -2], [-2, 4, -8], [-4, 4, 1, 3]])


def test_letter_orders():
    assert super_letters(2, 2, ORDER1) == (1, -1, 2, -2)
    assert super_letters(3, 3, ORDER2) == (1, 2, 3, -3, -2, -1)
    assert letter_key(2, ORDER1) > letter_key(-1, ORDER1)
    assert letter_key(-1, ORDER2) > letter_key(3, ORDER2)


def test_indicator_positive_letters():
    for order in (ORDER1, ORDER2):
        assert indicator(2, 1, order) == 1
        assert indicator(1, 2, order) == 0
        assert indicator(1, 1, order) == 0


def test_indicator_signed_letters():
    # equal barred letters always count
    assert indicator(-1, -1, ORDER1) == 1
    assert indicator(-1, -1, ORDER2) == 1
    # equal plain/barred pairs compare by position of the bar
    assert indicator(-1, 1, ORDER1) == 1
    assert indicator(1, -1, ORDER1) == 0
    assert indicator(-1, 1, ORDER2) == 1
    # the two orders disagree about distinct barred letters
    assert indicator(-1, -2, ORDER1) == 0
    assert indicator(-1, -2, ORDER2) == 1
    assert indicator(-2, 1, ORDER1) == 1
    assert indicator(1, -2, ORDER2) == 0


def test_reading_word_runs_top_down():
    assert EXAMPLE.word == (6, 2, 2, 4, 8, 4, 4, 1, 3)
    assert EXAMPLE.shape == (4, 3, 2)
    assert EXAMPLE.word[shape_data(EXAMPLE.shape).pos[(3, 1)]] == 6
    assert EXAMPLE.word[shape_data(EXAMPLE.shape).pos[(1, 4)]] == 3
    assert EXAMPLE.rows() == [[6, 2], [2, 4, 8], [4, 4, 1, 3]]


def test_filling_validation():
    with pytest.raises(ValueError):
        Filling((2, 1), (1, 2))
    with pytest.raises(ValueError):
        Filling((2, 1), (1, 0, 2))


def test_descents_of_the_worked_example():
    assert descent_cells(EXAMPLE) == frozenset({(3, 1), (2, 3)})
    assert maj(EXAMPLE) == 2


def test_inversions_of_the_worked_example():
    assert attack_inversion_count(EXAMPLE) == 7
    assert inv(EXAMPLE) == 6
    assert bottom_row_inversions(EXAMPLE) == 4
    assert inversion_triples(EXAMPLE) == 2


def test_inv_decomposes_into_bottom_row_plus_triples():
    for mu in ((3, 2), (2, 2, 1), (4,)):
        sd = shape_data(mu)
        n = len(sd.cells)
        for word in product((1, 2, 3), repeat=n):
            f = Filling(mu, word)
            assert inv(f) == bottom_row_inversions(f) + inversion_triples(f)


def scrambled(x: int) -> tuple:
    """A total order on signed letters that is neither ORDER1 nor ORDER2, as
    in tests/test_filling_sum.py."""
    return (x % 3, -x)


def test_word_statistics_follow_the_indicator_and_match_the_coded_statistics():
    # the definitions through I(x, y): the descents are the cells p above a
    # cell b with I(w_p, w_b) = 1; maj adds leg + 1 per descent, and inv counts
    # the attacking pairs with I = 1 less the arms of the descents
    letters = super_letters(2, 2)
    for n in range(1, 5):
        for mu in partitions(n):
            sd = shape_data(mu)
            for order in (ORDER1, ORDER2, scrambled):
                codes = letter_codes(letters, order)
                for word in product(letters, repeat=n):
                    descents = tuple(
                        p
                        for p, b in enumerate(sd.below)
                        if b >= 0 and indicator(word[p], word[b], order)
                    )
                    pairs = sum(
                        indicator(word[p], word[p2], order) for p, p2 in sd.attack_pairs
                    )
                    expected = (
                        sum(sd.legs[p] + 1 for p in descents),
                        pairs - sum(sd.arms[p] for p in descents),
                        descents,
                    )
                    assert word_statistics(word, sd, order) == expected
                    assert coded_statistics([codes[x] for x in word], sd) == expected


def refuses(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


def test_every_statistic_refuses_exactly_the_words_inv_refuses():
    # abs ties k and k~, so inv refuses a word holding both; the oracles and
    # standardization code the word's letters the same way and must agree
    letters = super_letters(2, 2)
    oracles = (
        attack_inversion_count,
        bottom_row_inversions,
        inversion_triples,
        lambda f, order: tableau_inversions(f.word, shape_data(f.shape), order),
        lambda f, order: standardize_word(f.word, order),
        standardize,
    )
    refused = 0
    for n in range(1, 4):
        for mu in partitions(n):
            for word in product(letters, repeat=n):
                f = Filling(mu, word)
                for order in (abs, scrambled):
                    expected = refuses(inv, f, order)
                    refused += expected
                    for oracle in oracles:
                        assert refuses(oracle, f, order) == expected, (mu, word, order, oracle)
    # abs refuses the words holding both 1 and 1~, or both 2 and 2~ (not all
    # four letters at n <= 3); scrambled ties no two letters
    assert refused == sum(
        len(partitions(n)) * 2 * (4**n - 2 * 3**n + 2**n) for n in range(1, 4)
    ) == 116


def test_attack_pairs_agree_with_the_cell_predicate():
    for mu in ((4, 3, 2), (2, 2), (1, 1, 1)):
        sd = shape_data(mu)
        pairs = {(sd.cells[p], sd.cells[p2]) for p, p2 in sd.attack_pairs}
        for a in range(len(sd.cells)):
            for b in range(a + 1, len(sd.cells)):
                u, v = sd.cells[a], sd.cells[b]
                assert ((u, v) in pairs) == attacks(u, v)


def test_standardization_of_the_signed_example():
    xi = standardize(SIGNED_EXAMPLE, ORDER1)
    assert xi.rows() == [[8, 3], [2, 5, 9], [7, 6, 1, 4]]
    assert sorted(xi.word) == list(range(1, 10))
    assert word_inverse_descent_set(xi.word) == frozenset({1, 2, 4, 6, 7})


def test_standardization_preserves_statistics_on_the_example():
    xi = standardize(SIGNED_EXAMPLE, ORDER1)
    assert descent_cells(SIGNED_EXAMPLE, ORDER1) == descent_cells(xi, ORDER1)
    assert maj(SIGNED_EXAMPLE, ORDER1) == maj(xi, ORDER1)
    assert inv(SIGNED_EXAMPLE, ORDER1) == inv(xi, ORDER1)
    assert attack_inversion_count(SIGNED_EXAMPLE, ORDER1) == attack_inversion_count(xi, ORDER1)


def test_standardization_preserves_statistics_exhaustively():
    for order in (ORDER1, ORDER2):
        for mu in ((2, 1), (2, 2), (3,)):
            for f in super_fillings(mu, 2, 2, order):
                xi = standardize(f, order)
                assert sorted(xi.word) == list(range(1, len(xi.word) + 1))
                assert descent_cells(f, order) == descent_cells(xi, order)
                assert maj(f, order) == maj(xi, order)
                assert inv(f, order) == inv(xi, order)


def test_standard_fillings_are_their_own_standardization():
    f = Filling((2, 2), (3, 1, 2, 4))
    assert standardize(f, ORDER1) == f
    assert standardize(f, ORDER2) == f


def test_letter_formatting():
    assert format_letter(3) == "3"
    assert format_letter(-3) == "3~"
    assert parse_letter("12~") == -12
    assert parse_letter("7") == 7
    with pytest.raises(ValueError):
        parse_letter("0")


def test_filling_text_round_trip():
    text = format_filling(SIGNED_EXAMPLE)
    assert text.splitlines()[0] == "6 2~"
    assert parse_filling(text) == SIGNED_EXAMPLE


def test_enumerators_count():
    assert sum(1 for _ in fillings((2, 1), 2)) == 8
    assert sum(1 for _ in fillings((), 3)) == 1
    assert sum(1 for _ in super_fillings((2,), 1, 1)) == 4


def test_non_attacking_uses_absolute_values():
    row, column = shape_data((2,)), shape_data((1, 1))
    assert not word_is_non_attacking((1, -1), row)
    assert word_is_non_attacking((1, -2), row)
    assert word_is_non_attacking((1, 1), column)


def test_cocharge_word_of_the_inversion_free_example():
    f = Filling.from_rows([[2], [3, 1, 2], [2, 4, 4, 1, 5], [1, 1, 3, 6, 7]])
    assert inv(f) == 0
    assert cocharge_word(f) == (1, 1, 2, 2, 2, 1, 3, 2, 3, 4, 1, 1, 2, 3)
