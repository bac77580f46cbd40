"""Named verification suites behind the command line `verify` subcommand.

Each suite exercises one family of identities at configurable desk-scale
bounds and returns (label, passed) pairs; nothing here is needed to compute
polynomials. Randomized checks take an explicit seed so reruns are
reproducible.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from itertools import permutations, product

from .crystal import (
    check_fiber_sizes,
    check_filling_operators,
    check_recording_preserved,
    check_unique_yamanouchi,
    check_word_axioms,
    rectify,
    two_column_kostka,
)
from .fillings import (
    ORDER1,
    ORDER2,
    cocharge_word,
    coded_statistics,
    content_filling_sum,
    inv,
    letter_codes,
    maj,
    shape_data,
    super_letters,
    word_is_non_attacking,
)
from .involutions import (
    attack_cancellation_holds,
    attack_pivot,
    row_bound_cancellation_holds,
    row_bound_pivot,
    word_is_row_bound_fixed,
)
from .llt import (
    beta_recursion_parts,
    binary_inversion_poly,
    check_ribbon_factorization,
    check_transpose_identity,
    check_transpose_schur,
)
from .macdonald import (
    check_conjugate_duality,
    content_m_vec,
    descent_class_polys,
    descent_class_weight,
    hook_schur_coeff,
    macdonald,
    one_minus_u_coeffs,
    plethystic_weights,
)
from .qtring import QT, elementary_coeffs
from .shapes import (
    cell_biexponents,
    conjugate,
    dominance_leq,
    partitions,
    ribbon_from_descents,
)
from .special import (
    cocharge,
    hall_littlewood_schur,
    integral_form_in_x,
    integral_form_m_vec,
    inv_zero_filling,
    jack_alpha_in_x,
)
from .symfunc import XPoly, syt_count, to_m_basis

Check = tuple[str, bool]


def _all_partitions(n_max: int):
    for n in range(1, n_max + 1):
        yield from partitions(n)


def suite_axioms(n_max: int = 4) -> list[Check]:
    """Normalization, symmetry, positivity, duality, counting, substitutions.

    Symmetry runs the content DP on every composition of n, each permutation
    of each nu, and compares it with the m_nu coefficient. The substitution
    supports are read off the signed DP's m-vectors."""
    norm = sym = pos = counts = dual = units = hooks = qside = tside = True
    for mu in _all_partitions(n_max):
        n = sum(mu)
        res = macdonald(mu)
        sd = shape_data(mu)
        norm &= res.m_vec.get((n,)) == QT.one()
        for nu in partitions(n):
            c = res.m_vec.get(nu, QT.zero())
            sym &= all(content_filling_sum(sd, alpha) == c for alpha in set(permutations(nu)))
        for lam, c in res.schur_vec.items():
            pos &= c.is_polynomial() and c.has_nonnegative_coefficients()
            counts &= c.sum_of_coefficients() == syt_count(lam)
        dual &= check_conjugate_duality(mu)
        units &= one_minus_u_coeffs(mu) == elementary_coeffs(cell_biexponents(mu))
        for d in range(n):
            hook = (n - d,) + (1,) * d
            hooks &= res.schur_vec.get(hook, QT.zero()) == hook_schur_coeff(mu, d)
        qsupp = content_m_vec(sd, n, *plethystic_weights(True))
        qside &= all(dominance_leq(rho, conjugate(mu)) for rho in qsupp)
        tsupp = content_m_vec(sd, n, *plethystic_weights(False))
        tside &= all(dominance_leq(rho, mu) for rho in tsupp)
    return [
        (f"leading x1^n coefficient is 1 (n <= {n_max})", norm),
        (f"filling sums are symmetric polynomials (n <= {n_max})", sym),
        (f"Schur coefficients lie in N[q,t] (n <= {n_max})", pos),
        (f"Schur coefficients at q = t = 1 count standard tableaux (n <= {n_max})", counts),
        (f"conjugating the shape swaps q and t (n <= {n_max})", dual),
        (f"two-letter signed coefficients are elementary functions of the cell monomials (n <= {n_max})", units),
        (f"hook coefficients drop one unit cell monomial (n <= {n_max})", hooks),
        (f"q-substitution support dominated by the conjugate shape (n <= {n_max})", qside),
        (f"t-substitution support dominated by the shape (n <= {n_max})", tside),
    ]


def suite_involutions(n_max: int = 3, alphabet: int = 2) -> list[Check]:
    """Both sign-flipping maps: involutivity, preserved statistics, collapse.

    Each shape's signed words are listed once, in the order of product, with
    their barred counts and their letter_codes codes in both orders. Each
    map's pivot is computed once per word and stored by the word's index;
    flipping the bar at position p moves that index by a fixed amount, so
    the image of a word and its pivot are looked up, not recomputed. A word w
    and its image g are compared once per pair, from the side whose pivot
    letter is plain: descents, maj and #plain + inv in the interleaved order
    for the attack map, inv and #plain + maj in the bars-on-top order for the
    row bound map. The fixed points the walk finds are the ones the signed
    sums must collapse onto."""
    invol = fixed_sets = weights = collapse = True
    letters = super_letters(alphabet, alphabet)
    index = {x: k for k, x in enumerate(letters)}
    maps = (
        (attack_pivot, word_is_non_attacking, ORDER1, _attack_weights, attack_cancellation_holds),
        (row_bound_pivot, word_is_row_bound_fixed, ORDER2, _row_weights, row_bound_cancellation_holds),
    )
    for mu in _all_partitions(n_max):
        sd = shape_data(mu)
        n = len(sd.cells)
        words = list(product(letters, repeat=n))
        barred = list(map(sum, product([x < 0 for x in letters], repeat=n)))
        # flipping the bar of letter x at position p moves a word's index by shift[p][x]
        shift = [
            {x: (index[-x] - index[x]) * len(letters) ** (n - 1 - p) for x in letters}
            for p in range(n)
        ]
        for pivot_of, is_fixed, order, weight, cancels in maps:
            codes = letter_codes(letters, order)
            coded = list(product([codes[x] for x in letters], repeat=n))
            pivots = [pivot_of(w, sd) for w in words]
            fixed = set()
            for i, (w, p) in enumerate(zip(words, pivots)):
                fixed_sets &= (p is None) == is_fixed(w, sd)
                if p is None:
                    fixed.add(w)
                    continue
                g = i + shift[p][w[p]]
                invol &= pivots[g] == p
                if w[p] > 0:
                    weights &= weight(coded[i], barred[i], sd) == weight(coded[g], barred[g], sd)
                    weights &= abs(barred[i] - barred[g]) == 1
            collapse &= cancels(mu, alphabet, alphabet, fixed)
    return [
        (f"both maps are involutions (n <= {n_max}, alphabet {alphabet})", invol),
        (f"fixed points are the non-attacking / row-bounded fillings (n <= {n_max})", fixed_sets),
        (f"descents, majors and weights survive off the fixed sets (n <= {n_max})", weights),
        (f"signed sums collapse onto fixed points (n <= {n_max})", collapse),
    ]


def _attack_weights(coded, barred: int, sd) -> tuple:
    """What the attack map keeps: (descents, maj, #plain + inv)."""
    m, i, descents = coded_statistics(coded, sd)
    return descents, m, len(coded) - barred + i


def _row_weights(coded, barred: int, sd) -> tuple:
    """What the row bound map keeps: (inv, #plain + maj)."""
    m, i, _ = coded_statistics(coded, sd)
    return i, len(coded) - barred + m


# the values that _random_increasing_fractions draws from
BETA_VALUES = frozenset(Fraction(a, b) for a in range(-24, 25) for b in range(1, 7))


def _random_increasing_fractions(rng: random.Random, length: int) -> tuple[Fraction, ...]:
    if length > len(BETA_VALUES):
        raise ValueError(f"cannot draw {length} distinct values from {len(BETA_VALUES)}")
    values: set[Fraction] = set()
    while len(values) < length:
        values.add(Fraction(rng.randint(-24, 24), rng.randint(1, 6)))
    return tuple(sorted(values))


def _beta_step_holds(betas: tuple[Fraction, ...]) -> bool:
    if not betas:
        return True
    g = binary_inversion_poly(betas)
    parts = beta_recursion_parts(betas)
    if parts is None:
        x1_plus_x2 = XPoly(2, {(1, 0): QT.one(), (0, 1): QT.one()})
        return g == x1_plus_x2 * binary_inversion_poly(betas[:-1])
    r, alpha, gamma = parts
    factor = XPoly(2, {(1, 1): QT.q(r) - QT.q(r - 1)})
    return g - binary_inversion_poly(alpha) == factor * binary_inversion_poly(gamma)


def suite_llt(
    n_max: int = 3,
    samples: int = 50,
    beta_len: int = 8,
    seed: int = 94114,
) -> list[Check]:
    """Ribbon descent classes, tuple transposition, the two-variable recursion.
    The descent classes are m-vectors, and so is their reassembly."""
    rng = random.Random(seed)
    ribbons = reassembly = True
    for mu in _all_partitions(n_max):
        n = sum(mu)
        ribbons &= check_ribbon_factorization(mu, n)
        total: dict[tuple[int, ...], QT] = {}
        for des, m_vec in descent_class_polys(mu, n).items():
            weight = descent_class_weight(mu, des)
            for nu, c in m_vec.items():
                total[nu] = total.get(nu, QT.zero()) + weight * c
        reassembly &= {nu: c for nu, c in total.items() if c} == macdonald(mu).m_vec
    transpose = schur_form = True
    for _ in range(8):
        k = rng.randint(1, 3)
        shapes = []
        for _ in range(k):
            length = rng.randint(1, 3)
            des = {i for i in range(2, length + 1) if rng.random() < 0.5}
            shapes.append(ribbon_from_descents(length, des))
        shapes = tuple(shapes)
        ncells = sum(s.size() for s in shapes)
        transpose &= check_transpose_identity(shapes, 2)
        schur_form &= check_transpose_schur(shapes, ncells)
    betas_ok = True
    for _ in range(samples):
        length = rng.randint(2, beta_len)
        betas_ok &= _beta_step_holds(_random_increasing_fractions(rng, length))
    return [
        (f"descent classes factor through ribbon tuples (n <= {n_max})", ribbons),
        (f"descent classes reassemble the filling sum (n <= {n_max})", reassembly),
        ("transposing a tuple inverts q against the all-barred evaluation", transpose),
        ("the Schur form of the transpose identity conjugates labels", schur_form),
        (f"two-variable recursion holds on {samples} random sequences", betas_ok),
    ]


def suite_cocharge(n_max: int = 4, samples: int = 200, seed: int = 94114) -> list[Check]:
    """The t-only column and the cocharge statistic."""
    rng = random.Random(seed)
    column = True
    for mu in _all_partitions(n_max):
        try:
            hall_littlewood_schur(mu)
        except RuntimeError:
            column = False
    majors = True
    for _ in range(samples):
        n = rng.randint(1, 6)
        mu = rng.choice(partitions(n))
        rows = [[rng.randint(1, 8) for _ in range(part)] for part in mu]
        f = inv_zero_filling(mu, rows)
        if inv(f) != 0 or maj(f) != cocharge(cocharge_word(f)):
            majors = False
    plactic = True
    for _ in range(samples):
        n = rng.randint(1, 7)
        lam = rng.choice(partitions(n))
        letters = [a for a, c in enumerate(lam, start=1) for _ in range(c)]
        rng.shuffle(letters)
        plactic &= cocharge(tuple(letters)) == cocharge(rectify(letters))
    return [
        (f"q = 0 Schur column equals the cocharge sum (n <= {n_max})", column),
        (f"major index equals cocharge of the content word on {samples} inversion-free fillings", majors),
        (f"cocharge is constant on Knuth classes ({samples} samples)", plactic),
    ]


def suite_jack(n_max: int = 3) -> list[Check]:
    """Integral form routes, and the one-parameter limit of the direct
    integral form against the direct Jack sum, as polynomials in alpha; both
    compared as m-vectors."""
    routes = limits = True
    for mu in _all_partitions(n_max):
        n = sum(mu)
        integral = to_m_basis(integral_form_in_x(mu, n))
        routes &= integral == integral_form_m_vec(mu, n)
        alpha_limit = {nu: c.t_one_limit(n) for nu, c in integral.items()}
        limits &= alpha_limit == to_m_basis(jack_alpha_in_x(mu, n))
    return [
        (f"integral form: explicit product formula matches the signed route (n <= {n_max})", routes),
        (f"one-parameter limit matches the product formula at 1, 2, 3 (n <= {n_max})", limits),
    ]


def suite_crystal(
    n_max: int = 4,
    word_len: int = 5,
    alphabet: int = 3,
    yamanouchi_len: int = 5,
) -> list[Check]:
    """Word operators, recording tableaux, and the two-column rule."""
    axioms = all(
        check_word_axioms(l, a)
        for l in range(1, word_len + 1)
        for a in range(2, alphabet + 1)
    )
    recording = check_recording_preserved(word_len, alphabet)
    unique = all(
        check_unique_yamanouchi(l, l) for l in range(1, yamanouchi_len + 1)
    )
    operators = kostka = True
    for mu in _all_partitions(n_max):
        if mu[0] > 2:
            continue
        operators &= check_filling_operators(mu, 3)
        table = macdonald(mu).schur_vec
        for lam in partitions(sum(mu)):
            kostka &= two_column_kostka(lam, mu) == table.get(lam, QT.zero())
    fibers = check_fiber_sizes(min(word_len, 5), min(alphabet, 3))
    return [
        (f"raising and lowering are inverse content shifts (length <= {word_len})", axioms),
        (f"raising preserves the recording tableau (length {word_len}, alphabet {alphabet})", recording),
        (f"each recording fiber holds one Yamanouchi word (length <= {yamanouchi_len})", unique),
        (f"two-column operators pair with word operators and fix statistics (n <= {n_max})", operators),
        (f"two-column Yamanouchi sums reproduce Schur coefficients (n <= {n_max})", kostka),
        ("rectification fibers have standard-tableau cardinality", fibers),
    ]


SUITES = {
    "axioms": suite_axioms,
    "involutions": suite_involutions,
    "llt": suite_llt,
    "cocharge": suite_cocharge,
    "jack": suite_jack,
    "crystal": suite_crystal,
}


def suite_bounds(name: str) -> dict[str, object]:
    """The bounds (keyword arguments) that the named suite takes, with their
    defaults."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return {k: p.default for k, p in inspect.signature(SUITES[name]).parameters.items()}


def run_suite(name: str, **bounds) -> list[Check]:
    """Run one suite with the bounds it takes; the others, and None values,
    are dropped."""
    allowed = suite_bounds(name)
    return SUITES[name](**{k: v for k, v in bounds.items() if k in allowed and v is not None})
