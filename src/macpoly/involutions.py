"""Sign-flipping involutions on signed fillings.

Both maps flip the bar on a single pivot cell, chosen so that descents and
the relevant weight survive while the barred count changes parity; summing a
signed weight over all fillings therefore collapses onto the fixed points.

The attack involution pairs fillings that contain an attacking pair of equal
absolute value; its fixed points are the non-attacking fillings. The row
bound involution pairs fillings with some entry of absolute value smaller
than its row index; its fixed points have |entry| >= row everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fillings import (
    ORDER1,
    ORDER2,
    Cell,
    Filling,
    filling_sum,
    is_non_attacking,
    shape_data,
)
from .macdonald import plethystic_alphabet
from .shapes import Partition, check_partition
from .symfunc import XPoly


@dataclass(frozen=True)
class InvolutionStep:
    """One application: the image plus which cell (if any) changed."""

    before: Filling
    after: Filling
    flipped_cell: Cell | None
    pivot_value: int | None

    @property
    def is_fixed(self) -> bool:
        return self.flipped_cell is None


def _flip(filling: Filling, position: int) -> Filling:
    word = list(filling.word)
    word[position] = -word[position]
    return Filling(filling.shape, word)


def attack_involution(filling: Filling) -> InvolutionStep:
    """Flip the bar on the last reading-order cell attacking the last cell
    involved in an equal-absolute-value attacking pair of minimal value."""
    sd = shape_data(filling.shape)
    w = filling.word
    pivot = None
    for p, p2 in sd.attack_pairs:
        a = abs(w[p])
        if a == abs(w[p2]) and (pivot is None or a < pivot):
            pivot = a
    if pivot is None:
        return InvolutionStep(filling, filling, None, None)
    v = max(
        p2
        for p, p2 in sd.attack_pairs
        if abs(w[p]) == pivot and abs(w[p2]) == pivot
    )
    u = max(p for p in sd.attack_adj[v] if p < v and abs(w[p]) == pivot)
    return InvolutionStep(filling, _flip(filling, u), sd.cells[u], pivot)


def row_bound_involution(filling: Filling) -> InvolutionStep:
    """Flip the bar on the first reading-order cell whose absolute value is
    the smallest one occurring below its own row index."""
    sd = shape_data(filling.shape)
    w = filling.word
    offenders = [abs(x) for p, x in enumerate(w) if abs(x) < sd.row[p]]
    if not offenders:
        return InvolutionStep(filling, filling, None, None)
    pivot = min(offenders)
    u = min(p for p, x in enumerate(w) if abs(x) == pivot)
    return InvolutionStep(filling, _flip(filling, u), sd.cells[u], pivot)


def is_row_bound_fixed(filling: Filling) -> bool:
    sd = shape_data(filling.shape)
    return all(abs(x) >= sd.row[p] for p, x in enumerate(filling.word))


def _signed_sums(
    mu: Partition, npos: int, nneg: int, order, q_side: bool, is_fixed
) -> tuple[XPoly, XPoly]:
    """The signed sum over all fillings and over the fixed points only."""
    sd = shape_data(check_partition(mu))
    alphabet = plethystic_alphabet(npos, nneg, q_side)
    total, fixed = (filling_sum(sd, alphabet, order, keep) for keep in (None, is_fixed))
    return XPoly(max(npos, nneg), total), XPoly(max(npos, nneg), fixed)


def attack_cancellation_holds(mu: Partition, npos: int, nneg: int) -> bool:
    """Non-fixed fillings cancel out of the signed q^(#plain+inv) t^maj sum."""
    total, fixed = _signed_sums(mu, npos, nneg, ORDER1, True, is_non_attacking)
    return total == fixed


def row_bound_cancellation_holds(mu: Partition, npos: int, nneg: int) -> bool:
    """Non-fixed fillings cancel out of the signed q^inv t^(#plain+maj) sum."""
    total, fixed = _signed_sums(mu, npos, nneg, ORDER2, False, is_row_bound_fixed)
    return total == fixed
