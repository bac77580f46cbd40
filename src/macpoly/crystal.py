"""Type-A crystal operators on words, RSK, and two-column filling operators.

The word operators use the usual bracket matching: scanning left to right,
each letter i+1 opens a bracket that the next free letter i closes; raising
turns the first unmatched i+1 into i, lowering turns the last unmatched i
into i+1. On fillings of two-column shapes the same moves are corrected
inside the attack zone (the two-cell rows, in which each cell attacks the
next) so that descents and inversions survive.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from .fillings import Filling, coded_statistics, letter_codes, shape_data
from .qtring import QT
from .shapes import Partition, check_partition
from .symfunc import monomial_exponents, syt_count, tableau_reading_word

Word = tuple[int, ...]


def _unmatched(word: Word, i: int) -> tuple[list[int], list[int]]:
    """Positions of unmatched letters i+1 and i, each list in reading order."""
    uppers: list[int] = []
    lowers: list[int] = []
    for p, x in enumerate(word):
        if x == i + 1:
            uppers.append(p)
        elif x == i:
            if uppers:
                uppers.pop()
            else:
                lowers.append(p)
    return uppers, lowers


def crystal_raise(word: Iterable[int], i: int) -> Word | None:
    """Turn the first unmatched i+1 into i; None at the top of the string."""
    word = tuple(word)
    uppers, _ = _unmatched(word, i)
    if not uppers:
        return None
    p = uppers[0]
    return word[:p] + (i,) + word[p + 1 :]


def crystal_lower(word: Iterable[int], i: int) -> Word | None:
    """Turn the last unmatched i into i+1; None at the bottom of the string."""
    word = tuple(word)
    _, lowers = _unmatched(word, i)
    if not lowers:
        return None
    p = lowers[-1]
    return word[:p] + (i + 1,) + word[p + 1 :]


def is_yamanouchi(word: Iterable[int]) -> bool:
    """Every final segment contains at least as many a's as (a+1)'s."""
    counts: dict[int, int] = {}
    for x in reversed(tuple(word)):
        counts[x] = counts.get(x, 0) + 1
        if x > 1 and counts[x] > counts.get(x - 1, 0):
            return False
    return True


def yamanouchi_words(content: Partition) -> Iterator[Word]:
    """The Yamanouchi words with the given partition content, each once,
    built right to left: letter a may go in front of a suffix only while the
    suffix holds fewer a's than (a-1)'s."""
    content = check_partition(content)
    n = sum(content)
    left = list(content)    # letters a still to place, at index a - 1
    suffix: list[int] = []

    def grow() -> Iterator[Word]:
        if len(suffix) == n:
            yield tuple(reversed(suffix))
            return
        for k in range(len(left)):
            # the suffix holds content[k] - left[k] letters k + 1
            if left[k] and (k == 0 or content[k] - left[k] < content[k - 1] - left[k - 1]):
                left[k] -= 1
                suffix.append(k + 1)
                yield from grow()
                suffix.pop()
                left[k] += 1

    yield from grow()


def rsk(word: Iterable[int]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Row insertion; returns (P, Q) as tuples of rows, bottom row first."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(tuple(word), start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([x])
                q_rows.append([step])
                break
            row = p_rows[r]
            k = bisect_right(row, x)
            if k == len(row):
                row.append(x)
                q_rows[r].append(step)
                break
            row[k], x = x, row[k]
            r += 1
    return tuple(tuple(r) for r in p_rows), tuple(tuple(r) for r in q_rows)


def rectify(word: Iterable[int]) -> Word:
    """Reading word of the insertion tableau (the Knuth-class representative)."""
    return tableau_reading_word(rsk(word)[0])


# ---------------------------------------------------------------------------
# filling operators on shapes with at most two columns

@lru_cache(maxsize=None)
def _two_column_data(mu: Partition):
    """The shape data of mu and k0, where its attack zone starts: the
    one-cell rows come first in reading order and no two of their cells
    attack, and from k0 on each cell attacks the next and no other."""
    if mu and mu[0] > 2:
        raise ValueError(f"filling operators require at most two columns: {mu}")
    sd = shape_data(mu)
    return sd, min(mu.count(1), len(sd.cells) - 1)


def filling_raise(filling: Filling, i: int) -> Filling | None:
    """The raising operator adjusted inside the attack zone."""
    _, k0 = _two_column_data(filling.shape)
    w = filling.word
    uppers, _ = _unmatched(w, i)
    if not uppers:
        return None
    k = uppers[0]
    n = len(w)
    new = list(w)
    if k >= k0 and k + 2 < n and w[k + 1] == i + 1 and w[k + 2] == i:
        new[k + 1] = i
        return Filling(filling.shape, new)
    j = k
    while j - 2 >= k0 and w[j - 2] == i + 1 and w[j - 1] == i:
        j -= 2
    for p in range(j, k + 1):
        new[p] = i if w[p] == i + 1 else i + 1
    return Filling(filling.shape, new)


def filling_lower(filling: Filling, i: int) -> Filling | None:
    """The lowering operator adjusted inside the attack zone."""
    _, k0 = _two_column_data(filling.shape)
    w = filling.word
    _, lowers = _unmatched(w, i)
    if not lowers:
        return None
    k = lowers[-1]
    n = len(w)
    new = list(w)
    if k - 2 >= k0 and w[k - 2] == i + 1 and w[k - 1] == i:
        new[k - 1] = i + 1
        return Filling(filling.shape, new)
    l = k
    while l + 2 < n and k >= k0 and w[l + 1] == i + 1 and w[l + 2] == i:
        l += 2
    for p in range(k, l + 1):
        new[p] = i if w[p] == i + 1 else i + 1
    return Filling(filling.shape, new)


def two_column_kostka(lam: Partition, mu: Partition) -> QT:
    """Sum of q^inv t^maj over fillings of mu whose reading word is
    Yamanouchi of content lam; mu may have at most two columns."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("lambda and mu must have equal size")
    if mu and mu[0] > 2:
        raise ValueError(f"two-column rule needs mu with at most two columns: {mu}")
    sd = shape_data(mu)
    code = letter_codes(range(1, len(lam) + 1)).__getitem__
    terms: dict[tuple[int, int], int] = {}
    for word in yamanouchi_words(lam):
        maj, inv, _ = coded_statistics(tuple(map(code, word)), sd)
        terms[(inv, maj)] = terms.get((inv, maj), 0) + 1
    return QT(terms)


# ---------------------------------------------------------------------------
# exhaustive structural checks (shared by the test suite and the CLI harness)

def check_word_axioms(length: int, alphabet: int) -> bool:
    """Raising and lowering are mutually inverse and shift content by one."""
    for word in product(range(1, alphabet + 1), repeat=length):
        for i in range(1, alphabet):
            up = crystal_raise(word, i)
            if up is not None:
                if crystal_lower(up, i) != word:
                    return False
                c0, c1 = monomial_exponents(word, alphabet), monomial_exponents(up, alphabet)
                if c1[i - 1] != c0[i - 1] + 1 or c1[i] != c0[i] - 1:
                    return False
            down = crystal_lower(word, i)
            if down is not None and crystal_raise(down, i) != word:
                return False
    return True


def check_recording_preserved(length: int, alphabet: int) -> bool:
    """Raising never changes the recording tableau."""
    for word in product(range(1, alphabet + 1), repeat=length):
        for i in range(1, alphabet):
            up = crystal_raise(word, i)
            if up is not None and rsk(up)[1] != rsk(word)[1]:
                return False
    return True


def check_unique_yamanouchi(length: int, alphabet: int) -> bool:
    """Each recording-tableau fiber holds exactly one Yamanouchi word, whose
    content is the shape of the fiber."""
    fibers: dict[tuple, list[Word]] = {}
    for word in product(range(1, alphabet + 1), repeat=length):
        fibers.setdefault(rsk(word)[1], []).append(word)
    for q, words in fibers.items():
        yam = [w for w in words if is_yamanouchi(w)]
        if len(yam) != 1:
            return False
        shape = tuple(len(r) for r in sorted(q, key=len, reverse=True))
        if monomial_exponents(yam[0], max(yam[0], default=0)) != shape:
            return False
    return True


def check_filling_operators(mu: Partition, max_entry: int) -> bool:
    """On a two-column shape: the adjusted operators pair with the word
    operators (defined together, mutually inverse), fix descents and
    inversion pairs, and act by the word operator on the Knuth class (equal
    words are not rectified). Equal descents and equal inv (the inversion
    pairs less the arms of the descents) mean equal inversion pairs."""
    mu = check_partition(mu)
    sd, _ = _two_column_data(mu)
    code = letter_codes(range(1, max_entry + 1)).__getitem__
    for word in product(range(1, max_entry + 1), repeat=sum(mu)):
        f = Filling(mu, word)
        statistics = coded_statistics(tuple(map(code, word)), sd)
        for i in range(1, max_entry):
            up_w = crystal_raise(word, i)
            up_f = filling_raise(f, i)
            if (up_w is None) != (up_f is None):
                return False
            if up_f is not None:
                if filling_lower(up_f, i) != f:
                    return False
                if coded_statistics(tuple(map(code, up_f.word)), sd) != statistics:
                    return False
                if up_f.word != up_w and rectify(up_f.word) != rectify(up_w):
                    return False
            down_w = crystal_lower(word, i)
            down_f = filling_lower(f, i)
            if (down_w is None) != (down_f is None):
                return False
            if down_f is not None:
                if filling_raise(down_f, i) != f:
                    return False
                if down_f.word != down_w and rectify(down_f.word) != rectify(down_w):
                    return False
    return True


def check_fiber_sizes(length: int, alphabet: int) -> bool:
    """Rectification fibers are Knuth classes: the fiber over a tableau word
    has one word per standard recording tableau of that shape."""
    counts: dict[Word, int] = {}
    for word in product(range(1, alphabet + 1), repeat=length):
        target = rectify(word)
        counts[target] = counts.get(target, 0) + 1
    for target, size in counts.items():
        shape = tuple(len(r) for r in rsk(target)[0])
        if size != syt_count(tuple(sorted(shape, reverse=True))):
            return False
    return True
