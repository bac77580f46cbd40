"""The modified Macdonald polynomials from their filling expansion.

The central object is the generating function over all fillings of a
partition diagram weighted by q^inv t^maj. Expanding it in the monomial and
Schur bases yields the two-parameter Kostka table; signed alphabets give the
plethystic specializations and the coefficients of the principal evaluation.
The coefficient of each monomial m_nu is the sum over the fillings with
content nu, which one subset DP over the cells computes (content_filling_sum),
for the signed alphabets of the plethysms and, split by descent set, for the
descent classes too; the sums over all n^n (or (2n)^n signed) fillings,
such as macdonald_in_x, are the oracles the tests compare it with. Sizes are
not limited here: the command line guards them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .fillings import (
    ORDER1,
    LetterOrder,
    ShapeData,
    content_filling_sum,
    filling_sum,
    shape_data,
    xy_alphabet,
)
from .qtring import QT, elementary_coeffs
from .shapes import (
    Cell,
    Partition,
    arm,
    cell_biexponents,
    check_descent_cells,
    check_partition,
    conjugate,
    leg,
    partitions,
)
from .symfunc import XPoly, from_m_basis, m_to_schur


def macdonald_in_x(mu: Partition, nvars: int) -> XPoly:
    """Sum of q^inv t^maj x^sigma over all fillings with entries <= nvars."""
    sd = shape_data(check_partition(mu))
    return XPoly(nvars, filling_sum(sd, xy_alphabet(nvars, 0), ORDER1))


@dataclass(frozen=True)
class MacdonaldResult:
    """One modified Macdonald polynomial in the monomial and Schur bases."""

    mu: Partition
    m_vec: dict[Partition, QT]
    schur_vec: dict[Partition, QT]      # rows of the q,t-Kostka table


def content_m_vec(sd: ShapeData, nvars: int, *weights) -> dict[Partition, QT]:
    """The m_nu coefficients, nu with at most nvars parts, of the filling sum
    of sd.mu that content_filling_sum(sd, nu, *weights) computes. The DP does
    not assume symmetry, so each nu is checked against its parts reversed."""
    m_vec: dict[Partition, QT] = {}
    for nu in partitions(len(sd.cells)):
        if len(nu) > nvars:
            continue
        c = content_filling_sum(sd, nu, *weights)
        if nu[::-1] != nu and content_filling_sum(sd, nu[::-1], *weights) != c:
            raise RuntimeError(f"filling sum for {sd.mu or sd.cells} is not symmetric; internal bug")
        if c:
            m_vec[nu] = c
    return m_vec


@lru_cache(maxsize=None)
def _macdonald(mu: Partition) -> MacdonaldResult:
    n = sum(mu)
    m_vec = content_m_vec(shape_data(mu), n)
    if n and m_vec.get((n,)) != QT.one():
        raise RuntimeError(f"m_(n) coefficient for {mu} is not 1; internal bug")
    schur_vec = m_to_schur(m_vec)
    for c in schur_vec.values():
        if not c.is_polynomial():
            raise RuntimeError(f"negative exponent in a Schur coefficient of {mu}")
    return MacdonaldResult(mu, m_vec, schur_vec)


def macdonald(mu: Partition) -> MacdonaldResult:
    """Compute (and cache) the polynomial for mu."""
    return _macdonald(check_partition(mu))


def kostka_column(mu: Partition) -> list[QT]:
    """The q,t-Kostka column of mu: its Schur coefficients on the rows
    partitions(|mu|), zero where a row is missing."""
    vec = macdonald(mu).schur_vec
    return [vec.get(lam, QT.zero()) for lam in partitions(sum(mu))]


def kostka_table(n: int) -> tuple[tuple[Partition, ...], list[list[QT]]]:
    """All q,t-Kostka entries for partitions of n: rows lam, columns mu."""
    parts = partitions(n)
    return parts, [list(row) for row in zip(*map(kostka_column, parts))]


def super_macdonald_in_xy(
    mu: Partition, npos: int, nneg: int, order: LetterOrder = ORDER1
) -> XPoly:
    """The signed-alphabet filling sum; x-block then y-block of variables."""
    sd = shape_data(check_partition(mu))
    return XPoly(npos + nneg, filling_sum(sd, xy_alphabet(npos, nneg), order))


def descent_class_polys(mu: Partition, nvars: int) -> dict[frozenset[Cell], dict[Partition, QT]]:
    """For each descent-cell set D: the m-vector, nu with at most nvars parts,
    of the sum of q^|Inv| x^sigma over the fillings whose descent set is
    exactly D. Each class is symmetric (an LLT polynomial), so the content
    DP's m_nu coefficients, split by descent set, give it."""
    sd = shape_data(check_partition(mu))
    n = len(sd.cells)
    # leg 2^p - 1 and arm 0 on every cell p turn (inv, maj) into the number
    # of attacking inversion pairs and the bit mask of the descent cells
    masks = sd._replace(legs=tuple(2**p - 1 for p in range(n)), arms=(0,) * n)
    acc: dict[int, dict[Partition, dict[tuple[int, int], int]]] = {}
    for nu, c in content_m_vec(masks, nvars).items():
        for (pairs, mask), count in c.terms.items():
            acc.setdefault(mask, {}).setdefault(nu, {})[(pairs, 0)] = count
    return {
        frozenset(cell for p, cell in enumerate(sd.cells) if mask >> p & 1):
            {nu: QT(d) for nu, d in m_vec.items()}
        for mask, m_vec in acc.items()
    }


def descent_class_poly(mu: Partition, descents: Iterable[Cell], nvars: int) -> dict[Partition, QT]:
    """The m-vector of one descent class (q counts all attacking inversion
    pairs, with no arm correction and no t); {} when no filling has it."""
    mu = check_partition(mu)
    target = check_descent_cells(mu, descents)
    return descent_class_polys(mu, nvars).get(target, {})


def descent_class_weight(mu: Partition, descents: Iterable[Cell]) -> QT:
    """The prefactor q^-a(D) t^maj(D) tying descent classes back together:
    maj(D) sums leg+1 and a(D) sums arms over the chosen cells."""
    mu = check_partition(mu)
    chosen = check_descent_cells(mu, descents)
    maj = sum(leg(mu, c) + 1 for c in chosen)
    a = sum(arm(mu, c) for c in chosen)
    return QT({(-a, maj): 1})


def plethysm_q_minus_one(mu: Partition, nvars: int) -> XPoly:
    """Signed sum (-1)^#barred q^(#plain+inv) t^maj x^|sigma| over signed
    fillings in the interleaved order: the substitution X -> X(q-1)."""
    return _signed_plethysm(mu, nvars, q_side=True)


def plethysm_t_minus_one(mu: Partition, nvars: int) -> XPoly:
    """Signed sum (-1)^#barred q^inv t^(#plain+maj) x^|sigma| over signed
    fillings in the bars_on_top order: the substitution X -> X(t-1).

    It is computed in the interleaved order, like the q side: by HHL's
    superization the signed sum does not depend on the order chosen on the
    signed alphabet, so both orders give this polynomial."""
    return _signed_plethysm(mu, nvars, q_side=False)


def plethystic_weights(q_side: bool) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The substitution X -> X(q-1) (q_side) or X(t-1) as (plain, barred)
    letter weights (sign, q exponent, t exponent): the plain letter k stands
    for q x_k (or t x_k), the barred k~ for -x_k."""
    return ((1, 1, 0) if q_side else (1, 0, 1)), (-1, 0, 0)


def _signed_plethysm(mu: Partition, nvars: int, q_side: bool) -> XPoly:
    # the sum is symmetric, so its m-coefficients give it in any nvars
    sd = shape_data(check_partition(mu))
    return from_m_basis(content_m_vec(sd, nvars, *plethystic_weights(q_side)), nvars)


def one_minus_u_coeffs(mu: Partition) -> list[QT]:
    """Coefficients of (-u)^d, d = 0..n, in the evaluation of the polynomial
    at the two-letter alphabet {1, 1~} with the barred letter carrying -u."""
    sd = shape_data(check_partition(mu))
    n = len(sd.cells)
    # x_1 marks the plain entries and x_2 the barred ones
    sums = filling_sum(sd, {1: (0, 1, 0, 0), -1: (1, 1, 0, 0)}, ORDER1)
    return [sums.get((n - d, d), QT.zero()) for d in range(n + 1)]


def hook_schur_coeff(mu: Partition, d: int) -> QT:
    """Schur coefficient on the hook (n-d, 1^d): the d-th elementary symmetric
    function of the cell monomials with one copy of 1 removed."""
    mu = check_partition(mu)
    n = sum(mu)
    if not 0 <= d < n:
        raise ValueError(f"hook column length {d} out of range for n = {n}")
    monos = list(cell_biexponents(mu))
    monos.remove((0, 0))
    return elementary_coeffs(monos)[d]


def check_conjugate_duality(mu: Partition) -> bool:
    """Swapping q and t in every Schur coefficient matches the conjugate shape."""
    mu = check_partition(mu)
    ours = macdonald(mu).schur_vec
    theirs = macdonald(conjugate(mu)).schur_vec
    return {lam: c.swap_qt() for lam, c in ours.items()} == theirs
