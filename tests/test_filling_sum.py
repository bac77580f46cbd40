"""The filling-sum kernel and its eight folds against a naive sum over Filling
objects that takes maj and inv from the per-filling statistics; the content DP,
positive and signed, with and without placement rules, against the kernel's
monomial coefficients; and the route through Gessel's fundamental
quasisymmetric functions (F route), kept here as an oracle for sizes the
kernel cannot afford, against the same statistics, the positive sum and
macdonald()."""

from importlib import import_module
from itertools import accumulate, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macpoly.fillings import (
    ORDER1,
    ORDER2,
    Filling,
    abs_alphabet,
    attack_inversion_count,
    content_filling_sum,
    descent_cells,
    filling_sum,
    indicator,
    inv,
    letter_codes,
    maj,
    shape_data,
    super_fillings,
    word_inverse_descent_set,
    word_is_non_attacking,
)
from macpoly.involutions import _signed_sums, word_is_row_bound_fixed
from macpoly.macdonald import (
    descent_class_poly,
    descent_class_polys,
    macdonald,
    macdonald_in_x,
    one_minus_u_coeffs,
    plethysm_q_minus_one,
    plethysm_t_minus_one,
    plethystic_weights,
    super_macdonald_in_xy,
)
from macpoly.qtring import QT
from macpoly.shapes import partitions, weighted_size
from macpoly.special import integral_form_from_macdonald
from macpoly.symfunc import (
    XPoly,
    from_m_basis,
    m_to_schur,
    monomial_exponents,
    qsym_q,
    super_exponents,
    to_m_basis,
)

SHAPES = [mu for n in range(5) for mu in partitions(n)]
ALPHABETS = ((1, 0), (2, 0), (0, 2), (2, 1), (2, 2))


def scrambled(x: int) -> tuple:
    """A total order on signed letters that is neither ORDER1 nor ORDER2."""
    return (x % 3, -x)


ORDERS = (ORDER1, ORDER2, scrambled)


def barred(f) -> int:
    return sum(1 for x in f.word if x < 0)


def plain(f) -> int:
    return sum(1 for x in f.word if x > 0)


def naive(mu, npos, nneg, order, nvars, term, keep=None) -> XPoly:
    """Sum over super_fillings of one (exponents, sign, q exp, t exp) term
    each, keeping the fillings whose word passes keep(word, shape data)."""
    acc = {}
    for f in super_fillings(mu, npos, nneg, order):
        if keep is None or keep(f.word, shape_data(f.shape)):
            e, sign, a, b = term(f)
            acc[e] = acc.get(e, QT.zero()) + QT({(a, b): sign})
    return XPoly(nvars, acc)


def weighted_term(alphabet, order, nvars):
    """The kernel's term for one filling, built from maj and inv of the filling."""

    def term(f):
        exps, sign, a, b = [0] * nvars, 1, inv(f, order), maj(f, order)
        for x in f.word:
            var, s, da, db = alphabet[x]
            exps[var] += 1
            sign, a, b = sign * s, a + da, b + db
        return tuple(exps), sign, a, b

    return term


def test_kernel_matches_the_naive_sum():
    for mu in SHAPES:
        sd = shape_data(mu)
        for npos, nneg in ALPHABETS:
            alphabet = {k: (k - 1, 1, 1, 0) for k in range(1, npos + 1)}
            alphabet.update({-k: (npos + k - 1, -1, 0, 2) for k in range(1, nneg + 1)})
            nvars = npos + nneg
            for order in ORDERS:
                term = weighted_term(alphabet, order, nvars)
                # the kernel is handed signed reading words; the naive sum filters Filling objects
                non_attacking = [
                    w for w in product(alphabet, repeat=len(sd.cells)) if word_is_non_attacking(w, sd)
                ]
                for words, keep in ((None, None), (non_attacking, word_is_non_attacking)):
                    got = XPoly(nvars, filling_sum(sd, alphabet, order, words))
                    assert got == naive(mu, npos, nneg, order, nvars, term, keep), (mu, npos, nneg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_the_naive_sum_on_random_orders_and_weights(data):
    mu = data.draw(st.sampled_from(SHAPES))
    npos, nneg = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    letters = list(range(1, npos + 1)) + [-k for k in range(1, nneg + 1)]
    rank = {x: r for r, x in enumerate(data.draw(st.permutations(letters)))}
    weight = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)), st.integers(-1, 2), st.integers(-1, 2))
    alphabet = {x: data.draw(weight) for x in letters}
    nvars = 1 + max((w[0] for w in alphabet.values()), default=-1)
    term = weighted_term(alphabet, rank.__getitem__, nvars)
    got = XPoly(nvars, filling_sum(shape_data(mu), alphabet, rank.__getitem__))
    assert got == naive(mu, npos, nneg, rank.__getitem__, nvars, term)


def standard_filling_sum(sd) -> dict[int, QT]:
    """Sum of q^inv t^maj over the standard fillings of sd.mu, by inverse
    descent set: {mask: nonzero coefficient c_D}, where bit i - 1 of the mask
    is set when i + 1 comes before i in reading order.

    Standardization is a bijection from fillings to (standard filling, word
    compatible with its inverse descent set D) that keeps inv and maj, so the
    positive filling sum is the sum of c_D F_D over the n! standard fillings,
    with F_D Gessel's fundamental quasisymmetric function. On standard words
    I(x, y) is the test x > y."""
    n = len(sd.cells)
    descents = [(p, b, sd.legs[p] + 1, sd.arms[p]) for p, b in enumerate(sd.below) if b >= 0]
    counts = {}
    for where in permutations(range(n)):
        # where[v] is the position of the value v; word[p] the value at p
        word = sorted(range(n), key=where.__getitem__)
        mask = sum(1 << v for v in range(n - 1) if where[v + 1] < where[v])
        inv = maj = 0
        for p, b, lp, a in descents:
            if word[p] > word[b]:
                maj += lp
                inv -= a
        inv += sum(1 for p, p2 in sd.attack_pairs if word[p] > word[p2])
        key = (mask, inv, maj)
        counts[key] = counts.get(key, 0) + 1
    acc = {}
    for (mask, inv, maj), count in counts.items():
        acc.setdefault(mask, {})[(inv, maj)] = count
    return {mask: QT(d) for mask, d in acc.items()}


def f_route_m_vec(mu) -> dict:
    """The monomial vector of sum_D c_D F_D: the coefficient of m_nu is the sum
    of c_D over the D inside the partial sums of nu."""
    coeffs = standard_filling_sum(shape_data(mu))
    m_vec = {}
    for nu in partitions(sum(mu)):
        cuts = sum(1 << (s - 1) for s in list(accumulate(nu))[:-1])
        c = sum((c for mask, c in coeffs.items() if mask & ~cuts == 0), QT.zero())
        if c:
            m_vec[nu] = c
    return m_vec


def test_standard_sum_matches_the_statistics_and_the_positive_sum():
    for mu in [mu for n in range(6) for mu in partitions(n)]:
        n = sum(mu)
        expected = {}
        for perm in permutations(range(1, n + 1)):
            f = Filling(mu, perm)
            mask = sum(1 << (i - 1) for i in word_inverse_descent_set(perm))
            expected[mask] = expected.get(mask, QT.zero()) + QT({(inv(f), maj(f)): 1})
        coeffs = standard_filling_sum(shape_data(mu))
        assert coeffs == expected, mu
        # the positive filling sum is the sum of c_D F_D, also in fewer than n variables
        for nvars in (1, 2, 3):
            total = XPoly.zero(nvars)
            for mask, c in coeffs.items():
                descents = [i for i in range(1, n) if mask >> (i - 1) & 1]
                total = total + qsym_q(n, descents, nvars).scaled(c)
            assert total == macdonald_in_x(mu, nvars), (mu, nvars)


@pytest.mark.parametrize("mu", partitions(7), ids=lambda mu: ",".join(map(str, mu)))
def test_macdonald_matches_the_f_route_at_size_seven(mu):
    # n^n = 823,543 words per shape puts the kernel oracle out of reach here
    m_vec = f_route_m_vec(mu)
    res = macdonald(mu)
    assert res.m_vec == m_vec
    assert res.schur_vec == m_to_schur(m_vec)


@st.composite
def shapes_and_contents(draw, max_cells=5):
    """A shape with at most max_cells cells and a composition (zeros allowed),
    either of its size or of a random size."""
    mu = draw(st.sampled_from([mu for n in range(max_cells + 1) for mu in partitions(n)]))
    length = draw(st.integers(1, 4))
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, sum(mu)), min_size=length - 1, max_size=length - 1)))
        alpha = tuple(b - a for a, b in zip([0] + cuts, cuts + [sum(mu)]))
    else:
        alpha = tuple(draw(st.lists(st.integers(0, 3), min_size=length, max_size=length)))
    return mu, alpha


@settings(max_examples=80, deadline=None)
@given(shapes_and_contents())
def test_content_sum_is_the_monomial_coefficient_of_the_kernel(case):
    mu, alpha = case
    sd = shape_data(mu)
    positive = {k: (k - 1, 1, 0, 0) for k in range(1, len(alpha) + 1)}
    expected = filling_sum(sd, positive, ORDER1).get(alpha, QT.zero())
    assert content_filling_sum(sd, alpha) == expected


SIGNED_WEIGHT = st.tuples(st.sampled_from((1, -1)), st.integers(-1, 2), st.integers(-1, 2))


@settings(max_examples=80, deadline=None)
@given(shapes_and_contents(max_cells=4), SIGNED_WEIGHT, SIGNED_WEIGHT)
def test_signed_content_sum_is_the_monomial_coefficient_of_the_kernel(case, plain, bars):
    mu, alpha = case
    sd = shape_data(mu)
    m = len(alpha)
    expected = filling_sum(sd, abs_alphabet(m, m, plain, bars), ORDER1).get(alpha, QT.zero())
    assert content_filling_sum(sd, alpha, plain, bars) == expected


@st.composite
def placement_rules(draw, n):
    """One (strict, weak) pair of bit masks per cell, each of at most two other
    cells. The strict masks follow a random ranking of the cells, so that
    most rules admit some filling; the weak masks may form cycles."""
    rank = draw(st.permutations(range(n)))

    def mask(cells):
        if not cells:
            return st.just(0)
        return st.sets(st.sampled_from(cells), max_size=2).map(lambda s: sum(1 << p for p in s))

    return tuple(
        (
            draw(mask([q for q in range(n) if rank[q] < rank[p]])),
            draw(mask([q for q in range(n) if q != p])),
        )
        for p in range(n)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_content_sum_with_a_placement_rule_is_the_monomial_coefficient_of_the_kernel(data):
    # the rule admits the words whose strict cells hold smaller codes and whose
    # weak cells hold codes no larger; positive and signed letter weights
    mu, alpha = data.draw(shapes_and_contents(max_cells=5))
    sd = shape_data(mu)
    n, m = len(sd.cells), len(alpha)
    rule = data.draw(placement_rules(n))
    plain = data.draw(SIGNED_WEIGHT)
    bars = data.draw(st.none() | SIGNED_WEIGHT) if m <= 3 else None
    if bars is None:
        alphabet = {k: (k - 1, *plain) for k in range(1, m + 1)}
    else:
        alphabet = abs_alphabet(m, m, plain, bars)
    codes = letter_codes(alphabet, ORDER1)

    def admitted(word):
        c = [codes[x] for x in word]
        return all(
            c[s] < c[p] if strict >> s & 1 else c[s] <= c[p]
            for p, (strict, weak) in enumerate(rule)
            for s in range(n)
            if (strict | weak) >> s & 1
        )

    words = [w for w in product(alphabet, repeat=n) if admitted(w)]
    expected = filling_sum(sd, alphabet, ORDER1, words).get(alpha, QT.zero())
    assert content_filling_sum(sd, alpha, plain, bars, rule) == expected


@pytest.mark.parametrize(
    "mu", [mu for n in range(6) for mu in partitions(n)], ids=lambda mu: ",".join(map(str, mu)) or "empty"
)
def test_signed_sums_match_the_kernel_in_the_monomial_basis(mu):
    # the kernel sums all (2n)^n signed words, the t side in the bars_on_top order
    n = sum(mu)
    sd = shape_data(mu)
    for q_side, order, got in ((True, ORDER1, plethysm_q_minus_one), (False, ORDER2, plethysm_t_minus_one)):
        expected = XPoly(n, filling_sum(sd, abs_alphabet(n, n, *plethystic_weights(q_side)), order))
        assert to_m_basis(got(mu, n)) == to_m_basis(expected), (mu, q_side)
    nmu = weighted_size(mu)
    sums = filling_sum(sd, abs_alphabet(n, n, (1, 0, 0), (-1, 0, -1)), ORDER1)
    expected = XPoly(n, {
        e: QT({(i, nmu - m): k for (i, m), k in c.terms.items()}) for e, c in sums.items()
    })
    assert to_m_basis(integral_form_from_macdonald(mu, n)) == to_m_basis(expected)


@pytest.mark.parametrize(
    "signed_sum", [plethysm_q_minus_one, plethysm_t_minus_one, integral_form_from_macdonald]
)
def test_signed_symmetry_check_rejects_a_non_symmetric_expansion(monkeypatch, signed_sum):
    # the coefficient of x1 x2^2 disagrees with that of x1^2 x2
    def skewed(sd, content, *weights):
        c = content_filling_sum(sd, content, *weights)
        return c + QT.q() if tuple(content) == (1, 2) else c

    # the package exports the function macdonald under the module's name
    monkeypatch.setattr(import_module("macpoly.macdonald"), "content_filling_sum", skewed)
    with pytest.raises(RuntimeError, match="not symmetric"):
        signed_sum((2, 1), 3)


def test_an_order_that_ties_two_letters_is_rejected():
    # the indicator reads a tie as 0 both ways, which no ranking reproduces
    assert indicator(1, -1, abs) == indicator(-1, 1, abs) == 0
    with pytest.raises(ValueError, match="ties"):
        filling_sum(shape_data((2,)), {1: (0, 1, 0, 0), -1: (0, 1, 0, 0)}, abs)
    with pytest.raises(ValueError, match="ties"):
        super_macdonald_in_xy((2,), 1, 1, abs)
    # abs is a total order on the plain letters alone
    assert super_macdonald_in_xy((2,), 2, 0, abs) == super_macdonald_in_xy((2,), 2, 0, ORDER1)


def test_super_macdonald_in_xy_matches_the_naive_sum():
    for mu in SHAPES:
        for npos, nneg in ALPHABETS:
            for order in ORDERS:
                expected = naive(
                    mu, npos, nneg, order, npos + nneg,
                    lambda f: (super_exponents(f.word, npos, nneg), 1, inv(f, order), maj(f, order)),
                )
                assert super_macdonald_in_xy(mu, npos, nneg, order) == expected


def test_positive_sums_and_descent_classes_match_the_naive_sums():
    for mu in SHAPES:
        for nvars in sorted({1, 2, sum(mu)}):
            assert macdonald_in_x(mu, nvars) == naive(
                mu, nvars, 0, ORDER1, nvars,
                lambda f: (monomial_exponents(f.word, nvars), 1, inv(f), maj(f)),
            )
            classes = {}
            for f in super_fillings(mu, nvars, 0):
                by_exp = classes.setdefault(descent_cells(f), {})
                e = monomial_exponents(f.word, nvars)
                by_exp[e] = by_exp.get(e, QT.zero()) + QT.q(attack_inversion_count(f))
            naive_classes = {des: XPoly(nvars, by_exp) for des, by_exp in classes.items()}
            got = descent_class_polys(mu, nvars)
            # to_m_basis needs a variable per cell; below that, write the
            # m-vectors out
            if nvars >= sum(mu):
                assert got == {des: to_m_basis(f) for des, f in naive_classes.items()}
            else:
                assert {des: from_m_basis(v, nvars) for des, v in got.items()} == naive_classes
            for des in naive_classes:
                assert descent_class_poly(mu, des, nvars) == got[des]
    # a descent set no filling realizes gives the zero m-vector
    assert descent_class_poly((1, 1), [(2, 1)], 1) == {}


def test_signed_folds_match_the_naive_sums():
    for mu in SHAPES:
        nmu = weighted_size(mu)
        for nvars in (1, 2):
            def signed(f, q_exp, t_exp):
                return monomial_exponents(f.word, nvars), (-1) ** barred(f), q_exp, t_exp

            assert plethysm_q_minus_one(mu, nvars) == naive(
                mu, nvars, nvars, ORDER1, nvars,
                lambda f: signed(f, plain(f) + inv(f, ORDER1), maj(f, ORDER1)),
            )
            assert plethysm_t_minus_one(mu, nvars) == naive(
                mu, nvars, nvars, ORDER2, nvars,
                lambda f: signed(f, inv(f, ORDER2), plain(f) + maj(f, ORDER2)),
            )
            assert integral_form_from_macdonald(mu, nvars) == naive(
                mu, nvars, nvars, ORDER1, nvars,
                lambda f: signed(f, inv(f), nmu + barred(f) - maj(f)),
            )
        buckets = [QT.zero() for _ in range(sum(mu) + 1)]
        for f in super_fillings(mu, 1, 1):
            buckets[barred(f)] = buckets[barred(f)] + QT({(inv(f), maj(f)): 1})
        assert one_minus_u_coeffs(mu) == buckets


def test_signed_sums_match_the_naive_sums():
    for mu in SHAPES:
        for npos, nneg in ALPHABETS:
            nvars = max(npos, nneg)
            for order in ORDERS:
                for q_side in (True, False):
                    def term(f):
                        a, b = inv(f, order), maj(f, order)
                        a, b = (a + plain(f), b) if q_side else (a, b + plain(f))
                        return monomial_exponents(f.word, nvars), (-1) ** barred(f), a, b

                    for is_fixed in (word_is_non_attacking, word_is_row_bound_fixed):
                        total, fixed = _signed_sums(mu, npos, nneg, order, q_side, is_fixed)
                        assert total == naive(mu, npos, nneg, order, nvars, term)
                        assert fixed == naive(mu, npos, nneg, order, nvars, term, is_fixed)
