"""LLT polynomials on tuples of anchored skew shapes.

Cells of a k-tuple are merged into one list sorted by the shifted diagonal
value beta(u) = j/k - content(u), where j is the 1-based component index;
ties (same component, same diagonal) break upward. A pair of cells u before
v in this order with 0 < beta(v) - beta(u) < 1 contributes an inversion when
the entry at u dominates the entry at v, and the generating function of
semistandard tuples weighted by q^inversions is the LLT polynomial. Signed
alphabets are allowed: plain letters form horizontal strips, barred letters
vertical strips.

The plain polynomial comes from its monomial coefficients (llt_m_vec): one
content DP per m_nu (fillings.content_filling_sum), which places the letters
block by block under the semistandard placement rule and settles each
inversion pair when its larger letter is placed. llt_super_poly hands the
signed tuples (tuple_tableau_words) to the filling-sum kernel and is the DP's
test oracle. Both read the tuple as the fillings.ShapeData that tuple_data
builds: its (component, cell) pairs in content reading order, its crossings
as the attacking pairs, and no cell below another. Each component's fillings
come from the package's one tableau generator, symfunc.skew_super_tableaux.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator

from .fillings import (
    ORDER1,
    LetterOrder,
    ShapeData,
    coded_word,
    filling_sum,
    xy_alphabet,
)
from .macdonald import content_m_vec, descent_class_polys
from .qtring import QT
from .shapes import Partition, SkewShape, check_partition, ribbon_tuple
from .symfunc import XPoly, from_m_basis, m_to_schur, omega_schur, skew_super_tableaux

ShapeTuple = tuple[SkewShape, ...]


@lru_cache(maxsize=None)
def tuple_data(shapes: ShapeTuple) -> ShapeData:
    """The tuple as the geometry the filling sums read: its (component, cell)
    pairs in content reading order, its crossings (p < p' with
    0 < beta(p') - beta(p) < 1) as the attacking pairs, no cell below
    another, and no arms or legs."""
    k = len(shapes)
    tagged = sorted(
        (Fraction(ci + 1, k) - SkewShape.content(cell), cell[0], ci, cell)
        for ci, shape in enumerate(shapes)
        for cell in shape.cells()
    )
    cells = tuple((ci, cell) for _, _, ci, cell in tagged)
    n = len(cells)
    crossings = tuple(
        (p, p2) for p in range(n) for p2 in range(p + 1, n) if 0 < tagged[p2][0] - tagged[p][0] < 1
    )
    pos = {pair: p for p, pair in enumerate(cells)}
    row = tuple(i for _, (i, _) in cells)
    return ShapeData((), cells, pos, row, (0,) * n, (0,) * n, (-1,) * n, crossings)


def tableau_inversions(word, td: ShapeData, order: LetterOrder = ORDER1) -> int:
    """Inversions of an entry word aligned with the content reading order."""
    coded = coded_word(word, order)
    return sum(1 for p, p2 in td.attack_pairs if coded[p] >= coded[p2] | 1)


def tuple_tableau_words(
    shapes: ShapeTuple, npos: int, nneg: int, order: LetterOrder = ORDER1
) -> Iterator[tuple[int, ...]]:
    """Entry words (content reading order) of all signed semistandard tuples."""
    shapes = tuple(shapes)
    td = tuple_data(shapes)
    per_component = [list(skew_super_tableaux(s, npos, nneg, order)) for s in shapes]
    # each component's reading order -> position in the content reading order
    slots = [[td.pos[(ci, cell)] for cell in s.cells()] for ci, s in enumerate(shapes)]
    n = len(td.cells)
    for combo in product(*per_component):
        word = [0] * n
        for entries, positions in zip(combo, slots):
            for x, p in zip(entries, positions):
                word[p] = x
        yield tuple(word)


def llt_m_vec(shapes: Iterable[SkewShape], nvars: int) -> dict[Partition, QT]:
    """The m_nu coefficients, nu with at most nvars parts, of the LLT
    polynomial: for each nu the content DP (content_filling_sum) places the
    letters 1, 2, ... block by block on the cells in content reading order.
    An inversion pair is settled when its larger letter is placed, as an
    attacking pair is; a cell waits for the cell below it (columns are
    strict), and its left neighbour is filled or in the same block (rows are
    weak). There is no maj term."""
    td = tuple_data(tuple(shapes))
    rule = []
    for ci, (i, j) in td.cells:
        lower, left = td.pos.get((ci, (i - 1, j))), td.pos.get((ci, (i, j - 1)))
        rule.append((0 if lower is None else 1 << lower, 0 if left is None else 1 << left))
    return content_m_vec(td, nvars, (1, 0, 0), None, tuple(rule))


def llt_poly(shapes: Iterable[SkewShape], nvars: int) -> XPoly:
    """The LLT polynomial: sum of q^inversions x^T over semistandard tuples."""
    return from_m_basis(llt_m_vec(shapes, nvars), nvars)


def llt_super_poly(
    shapes: Iterable[SkewShape], npos: int, nneg: int, order: LetterOrder = ORDER1
) -> XPoly:
    """Signed-alphabet LLT sum, x block then y block of variables: the
    filling-sum kernel on the tuple's crossings (tuple_data), handed the
    signed semistandard tuples (tuple_tableau_words). Restricting the barred
    block to zero recovers the plain polynomial."""
    shapes = tuple(shapes)
    words = tuple_tableau_words(shapes, npos, nneg, order)
    return XPoly(npos + nneg, filling_sum(tuple_data(shapes), xy_alphabet(npos, nneg), order, words))


def transpose_tuple(shapes: Iterable[SkewShape]) -> ShapeTuple:
    """Conjugate every shape and reverse the tuple order."""
    return tuple(s.transpose() for s in reversed(tuple(shapes)))


def check_ribbon_factorization(mu: Partition, nvars: int) -> bool:
    """For every set D of cells of mu with a cell below them, the descent-class
    generating function of D equals the LLT polynomial of the ribbon tuple of
    D, compared as m-vectors; one content DP run gives every class."""
    mu = check_partition(mu)
    classes = descent_class_polys(mu, nvars)
    upper = [c for c in SkewShape(mu).cells() if c[0] >= 2]
    return all(
        classes.get(frozenset(d), {}) == llt_m_vec(ribbon_tuple(mu, d), nvars)
        for k in range(len(upper) + 1)
        for d in combinations(upper, k)
    )


def _shift_q(c: QT, shift: int) -> QT:
    """Multiply by q^shift and replace q by 1/q."""
    return QT({(shift - qe, te): v for (qe, te), v in c.terms.items()})


def check_transpose_identity(shapes: Iterable[SkewShape], nvars: int) -> bool:
    """Transposing the tuple matches the all-barred evaluation with q inverted
    and one q^crossings factor."""
    shapes = tuple(shapes)
    m = len(tuple_data(shapes).attack_pairs)
    lhs = llt_poly(transpose_tuple(shapes), nvars)
    rhs = llt_super_poly(shapes, 0, nvars, ORDER1).map_coefficients(lambda c: _shift_q(c, m))
    return lhs == rhs


def check_transpose_schur(shapes: Iterable[SkewShape]) -> bool:
    """Schur expansion form of the transpose identity: conjugate the labels,
    invert q, multiply by q^crossings. Both sides come from m-vectors in one
    variable per cell."""
    shapes = tuple(shapes)
    td = tuple_data(shapes)
    n = len(td.cells)
    lhs = m_to_schur(llt_m_vec(transpose_tuple(shapes), n))
    rhs = m_to_schur(llt_m_vec(shapes, n))
    return lhs == omega_schur({lam: _shift_q(c, len(td.attack_pairs)) for lam, c in rhs.items()})


def binary_inversion_poly(betas: Iterable[Fraction]) -> XPoly:
    """Generating function over words in {1, 2} indexed by a strictly
    increasing rational sequence: q counts pairs i < j with word[i] > word[j]
    and beta_j - beta_i < 1."""
    betas = tuple(Fraction(b) for b in betas)
    if any(a >= b for a, b in zip(betas, betas[1:])):
        raise ValueError("beta sequence must be strictly increasing")
    n = len(betas)
    close_pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if betas[j] - betas[i] < 1
    ]
    acc: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for word in product((1, 2), repeat=n):
        q = sum(1 for i, j in close_pairs if word[i] > word[j])
        twos = word.count(2)
        e = (n - twos, twos)
        inner = acc.setdefault(e, {})
        inner[(q, 0)] = inner.get((q, 0), 0) + 1
    return XPoly(2, {e: QT(d) for e, d in acc.items()})


def beta_recursion_parts(
    betas: Iterable[Fraction],
) -> tuple[int, tuple[Fraction, ...], tuple[Fraction, ...]] | None:
    """Data for the two-variable recursion at the last position.

    Returns None when no earlier beta lies within 1 of the last one (then the
    polynomial factors as (x1 + x2) times the shorter sequence). Otherwise
    returns (r, alpha, gamma): alpha moves the last beta just past the r-th
    closest earlier entry, gamma removes positions n-r and n.
    """
    betas = tuple(Fraction(b) for b in betas)
    n = len(betas)
    r = sum(1 for i in range(n - 1) if betas[-1] - betas[i] < 1)
    if r == 0:
        return None
    lo = betas[n - r - 1] + 1
    hi = betas[n - r] + 1
    alpha_last = (lo + hi) / 2
    if alpha_last <= betas[-2]:
        raise RuntimeError("replacement entry fails to keep the sequence increasing")
    alpha = betas[:-1] + (alpha_last,)
    gamma = tuple(b for k, b in enumerate(betas) if k not in (n - r - 1, n - 1))
    return r, alpha, gamma
