"""Fillings of partition diagrams and their descent/inversion statistics.

A filling assigns a letter to every cell of a partition diagram. Letters are
nonzero integers: k > 0 is the plain letter k and -k is its barred twin,
written "k~" in text form. A total order on the signed alphabet is a key
function, letter -> sort key; two named orders matter:

  ORDER1 (interleaved):  1 < 1~ < 2 < 2~ < 3 < ...
  ORDER2 (bars on top):  1 < 2 < 3 < ... < 3~ < 2~ < 1~

Any other total order can be supplied as its key function. The comparison
indicator I(x, y) is 1 when x > y, and also when x == y is barred; descents,
inversions, the major index and the inversion statistic all derive from it
through the reading order. Every sum reads its geometry from one ShapeData
record (an LLT tuple's comes from llt.tuple_data), and coded_statistics is
the one per-word loop: every statistic codes its word by coded_word first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, NamedTuple

from .qtring import QT
from .shapes import (
    Cell,
    Partition,
    SkewShape,
    arm,
    attacks,
    cell_triples,
    check_partition,
    leg,
)

LetterOrder = Callable[[int], tuple]
# (v, sign, a, b): in a filling sum the letter stands for sign * q^a t^b x_(v+1)
Weight = tuple[int, int, int, int]


def ORDER1(x: int) -> tuple:
    """Sort key of the interleaved order: 1 < 1~ < 2 < 2~ < ..."""
    return (x, 0) if x > 0 else (-x, 1)


def ORDER2(x: int) -> tuple:
    """Sort key of the bars-on-top order: 1 < 2 < ... < 2~ < 1~."""
    return (0, x) if x > 0 else (1, x)


def indicator(x: int, y: int, order: LetterOrder = ORDER1) -> int:
    """I(x, y): 1 when x > y in the order, or x == y with both barred."""
    if x == y:
        return 1 if x < 0 else 0
    return 1 if order(x) > order(y) else 0


def super_letters(npos: int, nneg: int, order: LetterOrder = ORDER1) -> tuple[int, ...]:
    """The alphabet {1..npos, -1..-nneg} sorted by the given order."""
    letters = list(range(1, npos + 1)) + [-i for i in range(1, nneg + 1)]
    return tuple(letter_codes(letters, order))


def letter_codes(letters: Iterable[int], order: LetterOrder = ORDER1) -> dict[int, int]:
    """{letter: code}, in the order, where the letter of rank r is coded 2r,
    or 2r + 1 when barred, so that I(x, y) is the test code[x] >= code[y] | 1.
    An order that ties two distinct letters raises ValueError."""
    ranked = sorted(letters, key=order)
    keys = [order(x) for x in ranked]
    if any(a == b for a, b in zip(keys, keys[1:])):
        raise ValueError("the letter order ties two distinct letters")
    return {x: 2 * r + (x < 0) for r, x in enumerate(ranked)}


class ShapeData(NamedTuple):
    """Precomputed reading-order geometry of one partition diagram, or of an
    LLT tuple (llt.tuple_data), whose crossings are its attack_pairs."""

    mu: Partition
    cells: tuple[Cell, ...]
    pos: dict[Cell, int]
    row: tuple[int, ...]
    arms: tuple[int, ...]
    legs: tuple[int, ...]
    below: tuple[int, ...]          # position of the cell directly below, or -1
    attack_pairs: tuple[tuple[int, int], ...]   # positions p < p' that attack


@lru_cache(maxsize=None)
def shape_data(mu: Partition) -> ShapeData:
    mu = check_partition(mu)
    cells = SkewShape(mu).cells()
    pos = {c: p for p, c in enumerate(cells)}
    row = tuple(i for (i, _) in cells)
    arms = tuple(arm(mu, c) for c in cells)
    legs = tuple(leg(mu, c) for c in cells)
    below = tuple(pos.get((i - 1, j), -1) for (i, j) in cells)
    n = len(cells)
    attack_pairs = tuple(
        (p, p2) for p in range(n) for p2 in range(p + 1, n) if attacks(cells[p], cells[p2])
    )
    return ShapeData(mu, cells, pos, row, arms, legs, below, attack_pairs)


class Filling:
    """Entries of a filling in reading order, bound to a partition shape."""

    __slots__ = ("shape", "word")

    def __init__(self, shape: Iterable[int], word: Iterable[int]):
        self.shape = check_partition(shape)
        self.word = tuple(int(x) for x in word)
        if len(self.word) != sum(self.shape):
            raise ValueError(
                f"word length {len(self.word)} does not match |{self.shape}|"
            )
        if any(x == 0 for x in self.word):
            raise ValueError("letters must be nonzero integers")

    @classmethod
    def from_rows(cls, rows_top_to_bottom: Iterable[Iterable[int]]) -> Filling:
        rows = [list(r) for r in rows_top_to_bottom]
        shape = tuple(len(r) for r in reversed(rows))
        return cls(shape, [x for r in rows for x in r])

    def rows(self) -> list[list[int]]:
        """Entries row by row, top row first (the reading order rows)."""
        out, k = [], 0
        for i in range(len(self.shape), 0, -1):
            out.append(list(self.word[k : k + self.shape[i - 1]]))
            k += self.shape[i - 1]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Filling):
            return NotImplemented
        return self.shape == other.shape and self.word == other.word

    def __hash__(self) -> int:
        return hash((self.shape, self.word))

    def __repr__(self) -> str:
        return f"Filling({self.shape}, {self.word})"


def format_letter(x: int) -> str:
    return str(x) if x > 0 else f"{-x}~"


def parse_letter(text: str) -> int:
    text = text.strip()
    value = -int(text[:-1]) if text.endswith("~") else int(text)
    if value == 0:
        raise ValueError("letters must be nonzero integers")
    return value


def format_filling(filling: Filling) -> str:
    """Rows top to bottom, entries space-separated, barred letters as 'k~'."""
    return "\n".join(" ".join(format_letter(x) for x in row) for row in filling.rows())


def parse_filling(text: str) -> Filling:
    rows = [[parse_letter(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]
    return Filling.from_rows(rows)


# ---------------------------------------------------------------------------
# word-level statistics

def coded_word(word, order: LetterOrder = ORDER1) -> list[int]:
    """The word's letters by the letter_codes of its distinct letters, so that
    I is the test x >= y | 1 and an order that ties two of them raises."""
    codes = letter_codes(set(word), order)
    return [codes[x] for x in word]


def word_statistics(
    word, sd: ShapeData, order: LetterOrder = ORDER1
) -> tuple[int, int, tuple[int, ...]]:
    """(maj, inv, descent positions) for a word of signed letters under the
    given order, by coded_statistics on its letter_codes; an order that ties
    two distinct letters of the word raises ValueError."""
    return coded_statistics(coded_word(word, order), sd)


def coded_statistics(coded, sd: ShapeData) -> tuple[int, int, tuple[int, ...]]:
    """(maj, inv, descent positions) in one pass, for a word of letter_codes
    codes."""
    maj = inv = 0
    descents = []
    for p, (b, lg, a) in enumerate(zip(sd.below, sd.legs, sd.arms)):
        if b >= 0 and coded[p] >= coded[b] | 1:
            descents.append(p)
            maj += lg + 1
            inv -= a
    for p, p2 in sd.attack_pairs:
        if coded[p] >= coded[p2] | 1:
            inv += 1
    return maj, inv, tuple(descents)


# ---------------------------------------------------------------------------
# filling-level statistics

def descent_cells(filling: Filling, order: LetterOrder = ORDER1) -> frozenset[Cell]:
    """Cells whose entry dominates the entry directly below (I = 1)."""
    sd = shape_data(filling.shape)
    return frozenset(sd.cells[p] for p in word_statistics(filling.word, sd, order)[2])


def maj(filling: Filling, order: LetterOrder = ORDER1) -> int:
    """Sum of leg + 1 over the descent cells."""
    return word_statistics(filling.word, shape_data(filling.shape), order)[0]


def inv(filling: Filling, order: LetterOrder = ORDER1) -> int:
    """|Inv| minus the arms of the descent cells."""
    return word_statistics(filling.word, shape_data(filling.shape), order)[1]


def attack_inversion_count(filling: Filling, order: LetterOrder = ORDER1) -> int:
    """|Inv|: attacking pairs (in reading order) whose indicator is 1."""
    w = coded_word(filling.word, order)
    return sum(1 for p, p2 in shape_data(filling.shape).attack_pairs if w[p] >= w[p2] | 1)


def bottom_row_inversions(filling: Filling, order: LetterOrder = ORDER1) -> int:
    """|Inv| inside the bottom row."""
    sd = shape_data(filling.shape)
    w = coded_word(filling.word, order)
    return sum(
        1 for p, p2 in sd.attack_pairs if sd.row[p] == sd.row[p2] == 1 and w[p] >= w[p2] | 1
    )


def inversion_triples(filling: Filling, order: LetterOrder = ORDER1) -> int:
    """Triples (upper x, lower y, right z) with I(x,z) + I(z,y) - I(x,y) = 1."""
    pos = shape_data(filling.shape).pos
    w = coded_word(filling.word, order)
    count = 0
    for u, v, r in cell_triples(filling.shape):
        x, y, z = w[pos[u]], w[pos[v]], w[pos[r]]
        if (x >= z | 1) + (z >= y | 1) - (x >= y | 1) == 1:
            count += 1
    return count


def word_is_non_attacking(word, sd: ShapeData) -> bool:
    """No attacking pair carries letters of equal absolute value."""
    a = [abs(x) for x in word]
    return all(a[p] != a[p2] for p, p2 in sd.attack_pairs)


def standardize_word(word, order: LetterOrder = ORDER1) -> tuple[int, ...]:
    """Rank the entries of a word into 1..n in the order: ties between equal
    positive letters break left to right, between equal barred letters right
    to left. An order that ties two distinct letters raises ValueError."""
    coded = coded_word(word, order)
    ranked = sorted(range(len(word)), key=lambda p: (coded[p], p if word[p] > 0 else -p))
    out = [0] * len(word)
    for rank, p in enumerate(ranked, start=1):
        out[p] = rank
    return tuple(out)


def word_inverse_descent_set(word) -> frozenset[int]:
    """For a standard word: the i whose i+1 occurs earlier in the word."""
    where = {x: p for p, x in enumerate(word)}
    if sorted(where) != list(range(1, len(word) + 1)):
        raise ValueError("inverse descent sets are defined for standard words")
    return frozenset(i for i in range(1, len(word)) if where[i + 1] < where[i])


def standardize(filling: Filling, order: LetterOrder = ORDER1) -> Filling:
    """The unique standard filling compatible with the order and tie rules
    (those of standardize_word along the reading order)."""
    return Filling(filling.shape, standardize_word(filling.word, order))


def cocharge_word(filling: Filling) -> tuple[int, ...]:
    """Row indices read off cells ordered by decreasing entry, then decreasing
    reading order; defined for positive fillings only."""
    w = filling.word
    if any(x < 0 for x in w):
        raise ValueError("cocharge words are defined for positive fillings")
    sd = shape_data(filling.shape)
    order = sorted(range(len(w)), key=lambda p: (-w[p], -p))
    return tuple(sd.row[p] for p in order)


# ---------------------------------------------------------------------------
# enumeration

def fillings(mu: Partition, max_entry: int) -> Iterator[Filling]:
    """All fillings of mu with entries in 1..max_entry."""
    mu = check_partition(mu)
    for word in product(range(1, max_entry + 1), repeat=sum(mu)):
        yield Filling(mu, word)


def super_fillings(
    mu: Partition, npos: int, nneg: int, order: LetterOrder = ORDER1
) -> Iterator[Filling]:
    """All fillings of mu over the signed alphabet {1..npos, -1..-nneg}."""
    mu = check_partition(mu)
    letters = super_letters(npos, nneg, order)
    for word in product(letters, repeat=sum(mu)):
        yield Filling(mu, word)


def filling_sum(
    sd: ShapeData,
    alphabet: dict[int, Weight],
    order: LetterOrder,
    words: Iterable[tuple[int, ...]] | None = None,
) -> dict[tuple[int, ...], QT]:
    """Sum of q^inv t^maj times the entry weights over the fillings of sd.mu
    whose signed reading words are those in words (by default, every word
    over alphabet), as {x exponent vector: nonzero coefficient}. A descent
    cell p adds sd.legs[p] + 1 to maj and takes sd.arms[p] from inv; callers
    may pass other cell weights through sd._replace, or other geometries
    (llt.tuple_data: the crossings of an LLT tuple, no cell below another).

    Each filling is a word in reading order whose letters are coded by
    letter_codes, so that I(x, y) is the test x >= y | 1. The weights of a
    word depend only on its content: they are multiplied out once per
    content."""
    codes = letter_codes(alphabet, order)
    letter = {c: x for x, c in codes.items()}
    nvars = 1 + max((w[0] for w in alphabet.values()), default=-1)
    n = len(sd.cells)
    # (p, position below p, leg + 1, arm) for every cell p with a cell below it
    descents = [(p, b, sd.legs[p] + 1, sd.arms[p]) for p, b in enumerate(sd.below) if b >= 0]
    pairs = sd.attack_pairs
    if words is None:
        coded = product(letter, repeat=n)
    else:
        coded = (tuple(map(codes.__getitem__, w)) for w in words)
    # a content as one integer: the number of entries coded v is its digit v in base n + 1
    digit = [(n + 1) ** v for v in range(2 * len(letter))]
    by_content: dict[int, tuple] = {}
    acc: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for word in coded:
        content = sum(map(digit.__getitem__, word))
        group = by_content.get(content)
        if group is None:
            exps = [0] * nvars
            sign, inv, maj = 1, 0, 0
            for v in word:
                var, s, a, b = alphabet[letter[v]]
                exps[var] += 1
                sign, inv, maj = sign * s, inv + a, maj + b
            group = by_content[content] = (acc.setdefault(tuple(exps), {}), sign, inv, maj)
        inner, sign, inv, maj = group
        for p, b, lp, a in descents:
            if word[p] >= word[b] | 1:
                maj += lp
                inv -= a
        for p, p2 in pairs:
            if word[p] >= word[p2] | 1:
                inv += 1
        key = (inv, maj)
        inner[key] = inner.get(key, 0) + sign
    return {e: c for e, d in acc.items() if (c := QT(d))}


def content_filling_sum(
    sd: ShapeData,
    content: Iterable[int],
    plain: tuple[int, int, int] = (1, 0, 0),
    barred: tuple[int, int, int] | None = None,
    rule: tuple[tuple[int, int], ...] | None = None,
) -> QT:
    """Sum of q^inv t^maj over the fillings of sd.mu with content[k - 1]
    entries equal to k, for k = 1, 2, ...: the coefficient of x^content in
    the positive filling sum. Given barred, the letters are signed and
    content[k - 1] counts the entries k and k~ together, in ORDER1: the
    coefficient of x^content in filling_sum(sd, abs_alphabet(m, m, plain,
    barred), ORDER1), m = len(content). Every plain letter multiplies the
    term by plain = (sign, q exponent, t exponent), every barred one by
    barred; without barred, plain weighs the positive letters.

    Every term of inv and maj belongs to a pair of cells (an attacking pair,
    or a cell and the cell below it) and is settled once the larger of the
    two letters is placed. So the letters go in block by block, k = 1, 2, ...
    (in ORDER1 a plain block k of any size, then a barred block k~ taking
    the rest of content[k - 1]), and the state is the bit mask of the filled
    cells, each holding a smaller letter than the new block. A new cell x
    gains one inversion for each filled cell that it attacks and precedes in
    reading order, and it is a descent (adding leg + 1 to maj and taking its
    arm from inv) when the cell below it is filled. Equal plain letters add
    nothing; equal barred letters compare as I = 1, so a barred cell also
    counts the cells of its own block as filled.

    Each cell has a (strict, weak) pair of bit masks, from rule or else empty
    (H̃_μ and the signed sums): a cell joins a block only when its strict
    cells are filled and its weak cells are filled or in the block, which is
    checked only while some admitted cell's weak mask is open. The
    semistandard tuples of llt.llt_m_vec take the cell below as the strict
    mask and the cell to the left as the weak one."""
    n = len(sd.cells)
    strict, weak = zip(*rule) if rule else ((0,) * n, (0,) * n)
    later = [0] * n
    for p, p2 in sd.attack_pairs:
        later[p] |= 1 << p2
    # (bit, strict mask, weak mask, later attackers, bit of the cell below or 0,
    # arm, leg + 1) per cell
    cells = [
        (1 << p, strict[p], weak[p], later[p], 1 << b if b >= 0 else 0, sd.arms[p], sd.legs[p] + 1)
        for p, b in enumerate(sd.below)
    ]
    full = (1 << n) - 1

    def place(states, target, exact, weight, self_comparing):
        """Every state joined by a block of target - |filled| empty cells
        (or, when not exact, of any size up to that) weighing weight each."""
        sign, da, db = weight
        step: dict[int, dict[tuple[int, int], int]] = {}
        for filled, counts in states.items():
            empty = full ^ filled
            # (bit, inv, maj) that each admitted cell adds when it joins the
            # block, and (bit, open cells) for each whose weak mask is open
            moves, gates = [], []
            for bit, s, w, lat, down, a, lp in cells:
                if bit & empty and not s & empty:
                    inv = (lat & filled).bit_count() + da
                    moves.append((bit, inv - a, db + lp) if down & filled else (bit, inv, db))
                    if w & empty:
                        gates.append((bit, w & empty))
            need = target - filled.bit_count()
            for size in (need,) if exact else range(need + 1):
                factor = sign**size
                terms = counts.items() if factor == 1 else [(k, factor * c) for k, c in counts.items()]
                for block in combinations(moves, size):
                    mask, inv, maj = filled, 0, 0
                    for bit, i, m in block:
                        mask, inv, maj = mask | bit, inv + i, maj + m
                    if gates and any(bit & mask and open_ & ~mask for bit, open_ in gates):
                        continue
                    if self_comparing:
                        new = mask ^ filled
                        for bit, _, _ in block:
                            _, _, _, lat, down, a, lp = cells[bit.bit_length() - 1]
                            inv += (lat & new).bit_count()
                            if down & new:
                                inv, maj = inv - a, maj + lp
                    acc = step.setdefault(mask, {})
                    for (i, m), c in terms:
                        key = (i + inv, m + maj)
                        acc[key] = acc.get(key, 0) + c
        return step

    states: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): 1}}
    target = 0
    for size in content:
        target += size
        states = place(states, target, barred is None, plain, False)
        if barred is not None:
            states = place(states, target, True, barred, True)
    return QT(states.get(full, {}))


def abs_alphabet(
    npos: int, nneg: int, plain: tuple[int, int, int], barred: tuple[int, int, int]
) -> dict[int, Weight]:
    """The letters 1..npos and 1~..nneg~, where k and k~ both mark x_k; k
    carries the factor plain = (sign, q exponent, t exponent), k~ barred."""
    alphabet = {k: (k - 1, *plain) for k in range(1, npos + 1)}
    alphabet.update({-k: (k - 1, *barred) for k in range(1, nneg + 1)})
    return alphabet


def xy_alphabet(npos: int, nneg: int) -> dict[int, Weight]:
    """The letters 1..npos marking x_1..x_npos and 1~..nneg~ marking the
    variables after them, with no sign, q or t (symfunc.super_exponents)."""
    return {x: (x - 1 if x > 0 else npos - x - 1, 1, 0, 0) for x in super_letters(npos, nneg)}
