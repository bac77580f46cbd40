"""Partitions, cells, attack relation, skew shapes and ribbons."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macpoly.shapes import (
    SkewShape,
    arm,
    attacks,
    cell_biexponents,
    cell_triples,
    check_partition,
    conjugate,
    dominance_leq,
    format_partition,
    leg,
    parse_partition,
    partitions,
    ribbon_descents,
    ribbon_from_descents,
    ribbon_tuple,
    weighted_size,
)

partition_strategy = st.lists(
    st.integers(min_value=1, max_value=6), max_size=5
).map(lambda parts: tuple(sorted(parts, reverse=True)))


def test_parse_and_format_round_trip():
    assert parse_partition("4,3,2") == (4, 3, 2)
    assert parse_partition("") == ()
    assert format_partition((4, 3, 2)) == "4,3,2"
    assert format_partition(()) == ""
    with pytest.raises(ValueError):
        parse_partition("2,3")
    with pytest.raises(ValueError, match=r"part '' of partition '2,,1' is not an integer"):
        parse_partition("2,,1")
    with pytest.raises(ValueError, match=r"part '1e3' of partition '1e3' is not an integer"):
        parse_partition("1e3")
    with pytest.raises(ValueError):
        check_partition((1, 0))


@given(partition_strategy)
def test_conjugate_is_an_involution(mu):
    assert conjugate(conjugate(mu)) == mu
    assert sum(conjugate(mu)) == sum(mu)


def test_conjugate_examples():
    assert conjugate((4, 3, 2)) == (3, 3, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)


def test_reading_order_runs_top_down():
    assert SkewShape((2, 2)).cells() == ((2, 1), (2, 2), (1, 1), (1, 2))
    assert SkewShape(()).cells() == ()


def test_arm_and_leg():
    mu = (4, 3, 2)
    assert arm(mu, (1, 1)) == 3
    assert leg(mu, (1, 1)) == 2
    assert arm(mu, (2, 2)) == 1
    assert leg(mu, (2, 2)) == 1
    assert arm(mu, (3, 2)) == 0
    assert leg(mu, (3, 2)) == 0
    with pytest.raises(ValueError):
        arm(mu, (1, 5))


def test_attacks_is_symmetric_and_matches_definition():
    # same row
    assert attacks((1, 1), (1, 3))
    assert attacks((2, 1), (2, 2))
    # one row apart needs the upper cell strictly right of the lower one
    assert attacks((2, 2), (1, 1))
    assert not attacks((2, 1), (1, 1))
    assert not attacks((2, 1), (1, 2))
    assert not attacks((3, 1), (1, 2))
    assert not attacks((1, 1), (1, 1))
    # symmetry
    assert attacks((1, 1), (2, 2)) == attacks((2, 2), (1, 1))


def test_triples_pair_a_cell_its_south_neighbour_and_a_right_cell():
    trips = cell_triples((2, 2))
    assert trips == (((2, 1), (1, 1), (2, 2)),)
    assert cell_triples((2,)) == ()
    # rows 2 and 3 of (4,3,2) give C(3,2) + C(2,2) ordered pairs
    assert len(cell_triples((4, 3, 2))) == 3 + 1


def test_dominance_order():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 1), (3,))
    assert not dominance_leq((3,), (2, 1))
    assert dominance_leq((2, 2), (3, 1))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1,))


def test_partitions_enumeration_order():
    assert partitions(0) == ((),)
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(6)) == 11


def test_weighted_size():
    assert weighted_size((4, 3, 2)) == 0 * 4 + 1 * 3 + 2 * 2
    assert weighted_size(()) == 0


def test_cell_biexponents():
    assert sorted(cell_biexponents((3, 2, 2))) == sorted(
        [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    )


def test_skew_shape_normalizes_inner_zeros():
    s = SkewShape((2, 2), (1, 0))
    assert s.inner == (1,)
    assert s == SkewShape((2, 2), (1,))
    assert s.size() == 3
    assert s.cells() == ((2, 1), (2, 2), (1, 2))
    assert (1, 1) not in s
    assert (2, 1) in s


def test_skew_shape_rejects_bad_inner():
    with pytest.raises(ValueError):
        SkewShape((2,), (3,))
    with pytest.raises(ValueError):
        SkewShape((2, 2), (1, 2))
    with pytest.raises(ValueError):
        SkewShape((2,), (1, 1))


def test_content_is_row_minus_column():
    assert SkewShape.content((3, 1)) == 2
    assert SkewShape.content((1, 4)) == -3


def test_transpose_swaps_rows_and_columns():
    s = SkewShape((3, 1), (1,))
    t = s.transpose()
    assert t.outer == (2, 1, 1)
    assert t.inner == (1,)
    assert t.size() == s.size()
    assert t.transpose() == s


def test_ribbon_detection():
    assert SkewShape((2, 2), (1,)).is_ribbon()
    assert SkewShape((2, 2)).is_ribbon() is False
    assert SkewShape((1,)).is_ribbon()
    # disconnected pair of cells
    assert SkewShape((3, 1), (1,)).is_ribbon() is False


def test_ribbon_from_descents_single_row_and_column():
    row = ribbon_from_descents(3, set())
    assert row.cells() == ((4, 1), (4, 2), (4, 3))
    assert [SkewShape.content(c) for c in row.cells()] == [3, 2, 1]
    col = ribbon_from_descents(3, {2, 3})
    assert col.outer == (1, 1, 1, 1)
    assert [SkewShape.content(c) for c in col.cells()] == [3, 2, 1]


def test_ribbon_from_descents_matches_contents_and_descents():
    descents = {3, 6, 7}
    shape = ribbon_from_descents(7, descents)
    assert shape.is_ribbon()
    assert shape.size() == 7
    assert ribbon_descents(shape) == frozenset(descents)
    assert shape.outer == (4, 4, 4, 4, 4, 3, 1, 1)
    assert shape.inner == (4, 4, 4, 4, 2)
    assert [SkewShape.content(c) for c in shape.cells()] == [7, 6, 5, 4, 3, 2, 1]


def test_ribbon_from_descents_rejects_bad_input():
    with pytest.raises(ValueError):
        ribbon_from_descents(-1, set())
    with pytest.raises(ValueError):
        ribbon_from_descents(-3, [])
    with pytest.raises(ValueError):
        ribbon_from_descents(3, {1})
    with pytest.raises(ValueError):
        ribbon_from_descents(3, {4})


def test_ribbon_descents_round_trip():
    count = 0
    for length in range(1, 9):
        for k in range(length):
            for descents in combinations(range(2, length + 1), k):
                shape = ribbon_from_descents(length, descents)
                cells = shape.cells()
                assert shape.is_ribbon()
                assert shape.size() == length
                assert [SkewShape.content(c) for c in cells] == list(range(length, 0, -1))
                assert min(j for _, j in cells) == 1
                assert ribbon_descents(shape) == frozenset(descents)
                count += 1
    assert count == 255


def test_ribbon_tuple_one_ribbon_per_column():
    nu = ribbon_tuple((2, 2), [(2, 1)])
    assert len(nu) == 2
    assert [s.size() for s in nu] == [2, 2]
    assert ribbon_descents(nu[0]) == frozenset({2})
    assert ribbon_descents(nu[1]) == frozenset()
    with pytest.raises(ValueError):
        ribbon_tuple((2, 2), [(1, 1)])
    with pytest.raises(ValueError):
        ribbon_tuple((2, 2), [(3, 1)])
