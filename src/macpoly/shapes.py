"""Partitions and Young diagrams in the French convention.

Cells are 1-based pairs (i, j) with i the row (row 1 at the bottom) and j the
column, so the diagram of mu holds (i, j) exactly when j <= mu[i-1]. The
reading order lists cells row by row, top row first, left to right within a
row; this single convention drives every statistic in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

Cell = tuple[int, int]
Partition = tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize a partition given as any iterable of parts."""
    mu = tuple(int(p) for p in parts)
    for a, b in zip(mu, mu[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing: {mu}")
    if mu and mu[-1] <= 0:
        raise ValueError(f"parts must be strictly positive: {mu}")
    return mu


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition such as '4,3,2'; '' is the empty one."""
    text = text.strip()
    if not text:
        return ()
    parts = []
    for part in text.split(","):
        try:
            parts.append(int(part))
        except ValueError:
            raise ValueError(f"part {part.strip()!r} of partition {text!r} is not an integer") from None
    return check_partition(parts)


def format_partition(mu: Partition) -> str:
    return ",".join(str(p) for p in mu)


def conjugate(mu: Partition) -> Partition:
    """Transpose of the diagram: column lengths become row lengths."""
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p >= j) for j in range(1, mu[0] + 1))


def contains(mu: Partition, cell: Cell) -> bool:
    i, j = cell
    return 1 <= i <= len(mu) and 1 <= j <= mu[i - 1]


def arm(mu: Partition, cell: Cell) -> int:
    """Number of cells strictly right of `cell` in its row."""
    i, j = cell
    if not contains(mu, cell):
        raise ValueError(f"cell {cell} lies outside the diagram of {mu}")
    return mu[i - 1] - j


def leg(mu: Partition, cell: Cell) -> int:
    """Number of cells strictly above `cell` in its column."""
    i, j = cell
    if not contains(mu, cell):
        raise ValueError(f"cell {cell} lies outside the diagram of {mu}")
    return sum(1 for r in range(i, len(mu)) if mu[r] >= j)


def attacks(u: Cell, v: Cell) -> bool:
    """True when two distinct cells attack: same row, or consecutive rows
    with the upper cell strictly to the right of the lower one."""
    if u == v:
        return False
    (i1, j1), (i2, j2) = u, v
    if i1 == i2:
        return True
    if i1 == i2 + 1:
        return j2 < j1
    if i2 == i1 + 1:
        return j1 < j2
    return False


def cell_triples(mu: Partition) -> tuple[tuple[Cell, Cell, Cell], ...]:
    """Triples (u, v, w): v directly below u, w strictly right of u in its row."""
    out = []
    for i in range(2, len(mu) + 1):
        for j in range(1, mu[i - 1] + 1):
            for jj in range(j + 1, mu[i - 1] + 1):
                out.append(((i, j), (i - 1, j), (i, jj)))
    return tuple(out)


def dominance_leq(mu: Partition, nu: Partition) -> bool:
    """Dominance order: every prefix sum of mu is at most that of nu."""
    if sum(mu) != sum(nu):
        raise ValueError("dominance compares partitions of equal size")
    s_mu = s_nu = 0
    for k in range(max(len(mu), len(nu))):
        s_mu += mu[k] if k < len(mu) else 0
        s_nu += nu[k] if k < len(nu) else 0
        if s_mu > s_nu:
            return False
    return True


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order.

    This order linearly extends dominance (larger in dominance comes first),
    which is what the triangular basis conversions rely on.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, cap: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    return tuple(gen(n, n))


def weighted_size(mu: Partition) -> int:
    """The statistic n(mu) = sum over cells of leg length = sum (i-1)*mu_i."""
    return sum(i * p for i, p in enumerate(mu))


def cell_biexponents(mu: Partition) -> tuple[tuple[int, int], ...]:
    """The multiset {(j-1, i-1) : (i,j) in mu} as sorted (q_exp, t_exp) pairs."""
    return tuple(
        sorted((j - 1, i - 1) for i in range(1, len(mu) + 1) for j in range(1, mu[i - 1] + 1))
    )


@dataclass(frozen=True)
class SkewShape:
    """An anchored skew diagram outer/inner; coordinates are absolute.

    Anchoring matters: the content i - j of each cell is part of the data, so
    two translates of the same cell pattern are different SkewShapes.
    """

    outer: Partition
    inner: Partition = ()

    def __post_init__(self):
        outer = check_partition(self.outer)
        inner = tuple(int(p) for p in self.inner)
        if any(p < 0 for p in inner) or any(a < b for a, b in zip(inner, inner[1:])):
            raise ValueError(f"inner parts must be weakly decreasing and nonnegative: {inner}")
        inner = tuple(p for p in inner if p > 0)
        if len(inner) > len(outer):
            raise ValueError("inner shape has more rows than outer shape")
        if any(inner[k] > outer[k] for k in range(len(inner))):
            raise ValueError("inner shape is not contained in outer shape")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

    def inner_at(self, i: int) -> int:
        return self.inner[i - 1] if i <= len(self.inner) else 0

    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def cells(self) -> tuple[Cell, ...]:
        """Cells in reading order (top row first, left to right)."""
        return tuple(
            (i, j)
            for i in range(len(self.outer), 0, -1)
            for j in range(self.inner_at(i) + 1, self.outer[i - 1] + 1)
        )

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return 1 <= i <= len(self.outer) and self.inner_at(i) < j <= self.outer[i - 1]

    @staticmethod
    def content(cell: Cell) -> int:
        i, j = cell
        return i - j

    def transpose(self) -> SkewShape:
        return SkewShape(conjugate(self.outer), conjugate(self.inner))

    def is_ribbon(self) -> bool:
        """Connected and containing no 2x2 block of cells."""
        cells = set(self.cells())
        if not cells:
            return False
        for (i, j) in cells:
            if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells:
                return False
        seen = {next(iter(sorted(cells)))}
        frontier = list(seen)
        while frontier:
            i, j = frontier.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        return seen == cells


def ribbon_from_descents(length: int, descents: Iterable[int]) -> SkewShape:
    """The ribbon with cells of content 1..length whose descent set is given.

    Walking from the lower-right cell (content 1), the cell of content c+1
    sits above the cell of content c when c+1 is a descent and to its left
    otherwise: each row holds the contents from one descent to the next,
    right to left. The lower-right cell is placed so the leftmost column is
    1, and the empty rows below it keep outer = inner so contents survive.
    """
    descents = set(descents)
    if length < 0:
        raise ValueError(f"ribbon length must be nonnegative: {length}")
    if not descents <= set(range(2, length + 1)):
        raise ValueError(f"descents must lie in 2..{length}: {sorted(descents)}")
    if length == 0:
        return SkewShape((), ())
    lefts = length - 1 - len(descents)
    outer = [lefts + 1] * (lefts + 1)
    inner = list(outer)
    right, low = lefts + 1, 1
    for high in sorted(descents) + [length + 1]:
        # this row holds the contents low..high-1
        outer.append(right)
        inner.append(right - (high - low))
        right, low = inner[-1] + 1, high
    return SkewShape(tuple(outer), tuple(inner))


def ribbon_descents(shape: SkewShape) -> frozenset[int]:
    """Contents c of ribbon cells whose cell directly below is also present."""
    cells = set(shape.cells())
    return frozenset(shape.content((i, j)) for (i, j) in cells if (i - 1, j) in cells)


def check_descent_cells(mu: Partition, cells: Iterable[Cell]) -> frozenset[Cell]:
    """The cells as a set, each checked to lie in mu with a cell below it."""
    chosen = frozenset((int(i), int(j)) for (i, j) in cells)
    for cell in chosen:
        if not contains(mu, cell):
            raise ValueError(f"descent cell {cell} lies outside {mu}")
        if cell[0] < 2:
            raise ValueError(f"descent cell {cell} has no cell below it")
    return chosen


def ribbon_tuple(mu: Partition, descent_cells: Iterable[Cell]) -> tuple[SkewShape, ...]:
    """One ribbon per column of mu, encoding a choice of descent cells.

    Column j yields a ribbon of length mu'_j whose descent set records which
    cells (i, j) with i >= 2 were selected in that column.
    """
    mu = check_partition(mu)
    chosen = check_descent_cells(mu, descent_cells)
    heights = conjugate(mu)
    return tuple(
        ribbon_from_descents(heights[j - 1], {i for (i, jj) in chosen if jj == j})
        for j in range(1, len(heights) + 1)
    )
