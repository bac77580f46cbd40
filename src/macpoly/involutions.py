"""Sign-flipping involutions on signed fillings.

Both maps flip the bar on a single pivot cell, chosen so that descents and
the relevant weight survive while the barred count changes parity; summing a
signed weight over all fillings therefore collapses onto the fixed points.

The attack involution pairs fillings that contain an attacking pair of equal
absolute value; its fixed points are the non-attacking fillings. The row
bound involution pairs fillings with some entry of absolute value smaller
than its row index; its fixed points have |entry| >= row everywhere.

Each map is its pivot, a word-level function (attack_pivot, row_bound_pivot)
that reads the signed reading word against shape_data and names the position
to flip; attack_involution and row_bound_involution wrap them for Filling
objects. `verify involutions` walks the signed words directly, computing
each word's pivot once and finding its image by index: at n <= 5 with two
letters of each kind it checks 8,676 words per map in about 0.10 s in process
on a 2-vCPU VM (0.16 s when each image's pivot was recomputed and the full
signed sums were enumerated too, 0.59-1.05 s with a Filling per word). The
cancellation checks take the full signed sums from the content DP (the
plethysms) and hand the kernel only the fixed points the walk found.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fillings import (
    ORDER1,
    ORDER2,
    Cell,
    Filling,
    ShapeData,
    abs_alphabet,
    filling_sum,
    shape_data,
    word_is_non_attacking,
)
from .macdonald import plethysm_q_minus_one, plethysm_t_minus_one, plethystic_weights
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


def flip(word: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The word with the bar on position p flipped."""
    return word[:p] + (-word[p],) + word[p + 1 :]


def attack_pivot(word, sd: ShapeData) -> int | None:
    """The position the attack involution flips: among the attacking pairs of
    equal absolute value, take the smallest such value, the last cell v of a
    pair holding it, and the last cell before v that attacks v and holds it.
    None when no attacking pair has equal absolute values."""
    a = [abs(x) for x in word]
    equal = [(p, p2) for p, p2 in sd.attack_pairs if a[p] == a[p2]]
    if not equal:
        return None
    pivot = min(a[p] for p, _ in equal)
    return max((p2, p) for p, p2 in equal if a[p] == pivot)[1]


def row_bound_pivot(word, sd: ShapeData) -> int | None:
    """The position the row bound involution flips: take the smallest
    absolute value that some cell holds below its row index, and the first
    reading-order cell holding it. None when every |entry| is at least its
    row index."""
    a = [abs(x) for x in word]
    pivot = min((x for x, r in zip(a, sd.row) if x < r), default=None)
    return None if pivot is None else a.index(pivot)


def _step(filling: Filling, pivot_of) -> InvolutionStep:
    sd = shape_data(filling.shape)
    p = pivot_of(filling.word, sd)
    if p is None:
        return InvolutionStep(filling, filling, None, None)
    after = Filling(filling.shape, flip(filling.word, p))
    return InvolutionStep(filling, after, sd.cells[p], abs(filling.word[p]))


def attack_involution(filling: Filling) -> InvolutionStep:
    """Flip the bar on the attack_pivot cell."""
    return _step(filling, attack_pivot)


def row_bound_involution(filling: Filling) -> InvolutionStep:
    """Flip the bar on the row_bound_pivot cell."""
    return _step(filling, row_bound_pivot)


def word_is_row_bound_fixed(word, sd: ShapeData) -> bool:
    return all(abs(x) >= r for x, r in zip(word, sd.row))


def _signed_sums(
    mu: Partition, npos: int, nneg: int, order, q_side: bool, is_fixed, fixed=None
) -> tuple[XPoly, XPoly]:
    """The signed sum over all fillings and over the fixed points: the words
    in fixed, or else those is_fixed accepts. By HHL's superization the full
    sum does not depend on the letter order, so over npos == nneg letters it
    is the plethysm that the content DP gives."""
    sd = shape_data(check_partition(mu))
    alphabet = abs_alphabet(npos, nneg, *plethystic_weights(q_side))
    nvars = max(npos, nneg)
    if npos == nneg:
        total = (plethysm_q_minus_one if q_side else plethysm_t_minus_one)(sd.mu, nvars)
    else:
        total = XPoly(nvars, filling_sum(sd, alphabet, order))
    if fixed is None:
        fixed = [w for w in product(alphabet, repeat=len(sd.cells)) if is_fixed(w, sd)]
    return total, XPoly(nvars, filling_sum(sd, alphabet, order, fixed))


def attack_cancellation_holds(mu: Partition, npos: int, nneg: int, fixed: set | None = None) -> bool:
    """Non-fixed fillings cancel out of the signed q^(#plain+inv) t^maj sum.
    The fixed points are the non-attacking words, or the reading words in
    fixed when it is given (as a walk over the words found them)."""
    total, kept = _signed_sums(mu, npos, nneg, ORDER1, True, word_is_non_attacking, fixed)
    return total == kept


def row_bound_cancellation_holds(mu: Partition, npos: int, nneg: int, fixed: set | None = None) -> bool:
    """Non-fixed fillings cancel out of the signed q^inv t^(#plain+maj) sum.
    The fixed points are the row-bounded words, or those in fixed."""
    total, kept = _signed_sums(mu, npos, nneg, ORDER2, False, word_is_row_bound_fixed, fixed)
    return total == kept
