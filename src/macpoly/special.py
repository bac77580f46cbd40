"""Specializations: Hall-Littlewood via cocharge, and the Jack family.

The q = 0 face of the two-parameter family is computed along two independent
routes (killing q in the Schur table, and summing t^cocharge over tableaux)
that must agree. The tableaux of content mu come as reading words from
symfunc.skew_super_tableaux, which skips a letter once its count is spent;
cocharge is one sweep over a word's standard subwords, with each letter's
positions in an ascending list searched by bisection. The Jack
side realizes the integral form both directly as a weighted sum over
non-attacking fillings of the conjugate diagram (the oracle) and through the
signed-alphabet plethysm of the modified polynomial, whose signed sum the
content DP computes (integral_form_m_vec, behind jmu). The one-parameter
family is the t -> 1 limit of the latter at q = t^alpha, divided exactly by
(1 - t)^n, taken once per nu as a polynomial in alpha (jack_alpha_m_vec,
behind jack); its coefficients are QT values in q alone, with q standing for
alpha. Its direct sum, over the same fillings with another weight per cell,
is the oracle for that limit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import product
from typing import Iterable, Sequence

from .fillings import Filling, ShapeData, coded_statistics, letter_codes, shape_data
from .macdonald import content_m_vec, macdonald
from .qtring import QT
from .shapes import Partition, SkewShape, check_partition, conjugate, partitions, weighted_size
from .symfunc import XPoly, from_m_basis, monomial_exponents, skew_super_tableaux


def cocharge(word: Iterable[int]) -> int:
    """Lascoux-Schutzenberger cocharge of a word with partition content.

    One sweep over the standard subwords, with each letter's positions kept
    in an ascending list: a subword starts at the rightmost unused 1 and
    takes, for each next letter, its nearest unused copy to the left,
    wrapping to the rightmost copy when none is left of it. A subword on the
    letters 1..m adds m - k for every k whose k + 1 lay to its left.
    """
    where: dict[int, list[int]] = {}
    for p, x in enumerate(word):
        where.setdefault(int(x), []).append(p)
    top = len(where)
    if sorted(where) != list(range(1, top + 1)) or any(
        len(where[k]) < len(where[k + 1]) for k in range(1, top)
    ):
        content = {k: len(v) for k, v in where.items()}
        raise ValueError(f"word content must be a partition: {content}")
    total = 0
    while top:
        p = where[1].pop()
        for k in range(1, top):
            copies = where[k + 1]
            i = bisect_left(copies, p)
            if i:
                total += top - k
            p = copies.pop(i - 1)  # i = 0 pops the rightmost copy
        while top and not where[top]:
            top -= 1
    return total


def inv_zero_filling(mu: Partition, row_multisets: Sequence[Iterable[int]]) -> Filling:
    """The unique inversion-free positive filling with prescribed row contents.

    Row 1 is its multiset sorted increasingly; every higher cell receives the
    smallest unused entry of its row exceeding the entry below it, falling
    back to the smallest unused entry when none exceeds it.
    """
    mu = check_partition(mu)
    if len(row_multisets) != len(mu):
        raise ValueError("one multiset per row is required")
    rows_bottom_up: list[list[int]] = []
    for i, bag in enumerate(row_multisets):
        bag = sorted(int(x) for x in bag)
        if len(bag) != mu[i]:
            raise ValueError(f"row {i + 1} needs {mu[i]} entries, got {len(bag)}")
        if any(x <= 0 for x in bag):
            raise ValueError("entries must be positive")
        if i == 0:
            rows_bottom_up.append(bag)
            continue
        row = []
        for below in rows_bottom_up[i - 1][: mu[i]]:
            j = bisect_right(bag, below)  # past the end wraps to the smallest
            row.append(bag.pop(j % len(bag)))
        rows_bottom_up.append(row)
    return Filling.from_rows(list(reversed(rows_bottom_up)))


def cocharge_schur_vector(mu: Partition) -> dict[Partition, QT]:
    """Sum of t^cocharge over semistandard tableaux of content mu, shape by
    shape; each tableau comes as its reading word."""
    mu = check_partition(mu)
    out: dict[Partition, QT] = {}
    for lam in partitions(sum(mu)):
        terms: dict[tuple[int, int], int] = {}
        for word in skew_super_tableaux(SkewShape(lam), len(mu), 0, content=mu):
            cc = cocharge(word)
            terms[(0, cc)] = terms.get((0, cc), 0) + 1
        c = QT(terms)
        if c:
            out[lam] = c
    return out


def hall_littlewood_schur(mu: Partition) -> dict[Partition, QT]:
    """The q = 0 column of the Schur table; checked against the cocharge sum."""
    mu = check_partition(mu)
    from_table = {
        lam: QT({e: c for e, c in qt.terms.items() if e[0] == 0})
        for lam, qt in macdonald(mu).schur_vec.items()
    }
    from_table = {lam: c for lam, c in from_table.items() if c}
    from_cocharge = cocharge_schur_vector(mu)
    if from_table != from_cocharge:
        raise RuntimeError(
            f"cocharge route disagrees with the q = 0 Schur table for {mu}"
        )
    return from_table


# ---------------------------------------------------------------------------
# the Jack integral form and its one-parameter limit

def _non_attacking_sum(sd: ShapeData, nvars: int, agree, apart: QT, statistic=None) -> XPoly:
    """Sum of x^tau times a weight over the non-attacking positive fillings tau
    of the shape sd: the weight multiplies statistic(tau) (when given) by
    agree[p] for each cell p holding the letter of the cell below it and by
    apart for every other cell, bottom row included."""
    n = len(sd.cells)
    apart_powers = [QT.one()]
    for _ in range(n):
        apart_powers.append(apart_powers[-1] * apart)
    acc: dict[tuple[int, ...], QT] = {}
    for word in product(range(1, nvars + 1), repeat=n):
        if any(word[p] == word[p2] for p, p2 in sd.attack_pairs):
            continue
        weight = statistic(word) if statistic else QT.one()
        apart_cells = n
        for p, b in enumerate(sd.below):
            if b >= 0 and word[p] == word[b]:
                weight = weight * agree[p]
                apart_cells -= 1
        e = monomial_exponents(word, nvars)
        acc[e] = acc.get(e, QT.zero()) + weight * apart_powers[apart_cells]
    return XPoly(nvars, acc)


def integral_form_in_x(mu: Partition, nvars: int) -> XPoly:
    """Direct sum over non-attacking positive fillings of the conjugate shape.

    Each filling tau contributes q^maj t^(n(mu) - inv) x^tau times a product
    of (1 - q^(leg+1) t^(arm+1)) over cells agreeing with the cell below and
    (1 - t) over the remaining cells, bottom row included in the latter.
    """
    mu = check_partition(mu)
    sd = shape_data(conjugate(mu))
    nmu = weighted_size(mu)
    agree = [QT.one() - QT({(leg + 1, arm + 1): 1}) for leg, arm in zip(sd.legs, sd.arms)]
    code = letter_codes(range(1, nvars + 1)).__getitem__

    def statistic(word) -> QT:
        maj, inv, _ = coded_statistics(tuple(map(code, word)), sd)
        return QT({(maj, nmu - inv): 1})

    return _non_attacking_sum(sd, nvars, agree, QT.one() - QT.t(), statistic)


def integral_form_m_vec(mu: Partition, nvars: int | None = None) -> dict[Partition, QT]:
    """The m_nu coefficients, nu with at most nvars (default |mu|) parts, of
    the integral form through the signed-alphabet plethysm: barred letters
    carry -t x, the maj parameter is inverted, and the whole sum is rescaled
    by t^n(mu); the result must be Laurent-free. The signed sum is summed
    content by content in the interleaved order (content_m_vec)."""
    mu = check_partition(mu)
    nmu = weighted_size(mu)
    nvars = nvars if nvars is not None else max(sum(mu), 1)
    # barred letters weigh -x/t before t is inverted
    sums = content_m_vec(shape_data(mu), nvars, (1, 0, 0), (-1, 0, -1))
    m_vec = {
        nu: QT({(i, nmu - m): k for (i, m), k in c.terms.items()}) for nu, c in sums.items()
    }
    if not all(c.is_polynomial() for c in m_vec.values()):
        raise RuntimeError(f"integral form for {mu} kept a negative exponent")
    return m_vec


def integral_form_from_macdonald(mu: Partition, nvars: int) -> XPoly:
    """The integral form in nvars variables, written out from integral_form_m_vec."""
    return from_m_basis(integral_form_m_vec(mu, nvars), nvars)


def jack_alpha_in_x(mu: Partition, nvars: int) -> XPoly:
    """The one-parameter integral-form family, coefficients in Z[alpha] stored
    as QT values in q alone (q stands for alpha): non-attacking fillings of
    the conjugate shape where each cell agreeing with its southern neighbour
    contributes alpha*(leg+1) + arm + 1."""
    sd = shape_data(conjugate(check_partition(mu)))
    agree = [QT({(1, 0): leg + 1, (0, 0): arm + 1}) for leg, arm in zip(sd.legs, sd.arms)]
    return _non_attacking_sum(sd, nvars, agree, QT.one())


def jack_alpha_m_vec(mu: Partition, nvars: int | None = None) -> dict[Partition, QT]:
    """The m_nu coefficients, nu with at most nvars (default |mu|) parts, of
    the one-parameter family: the t -> 1 limit at q = t^alpha of
    integral_form_m_vec, divided by (1 - t)^|mu|, as a QT in q alone with q
    standing for alpha (QT.t_one_limit)."""
    n = sum(check_partition(mu))
    return {nu: c.t_one_limit(n) for nu, c in integral_form_m_vec(mu, nvars).items()}


def eval_alpha(f: XPoly, alpha: int) -> XPoly:
    """Evaluate Jack coefficients (QT in q alone, q standing for alpha) at an
    integer alpha."""
    return f.map_coefficients(lambda c: c.at_alpha(alpha))


def jack_limit(mu: Partition, nvars: int, alpha: int) -> XPoly:
    """The one-parameter family at an integer alpha in nvars variables,
    written out from jack_alpha_m_vec evaluated per nu."""
    vec = {nu: c.at_alpha(alpha) for nu, c in jack_alpha_m_vec(mu, nvars).items()}
    return from_m_basis(vec, nvars)
