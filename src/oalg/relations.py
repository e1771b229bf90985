"""Small helpers for plain binary relations stored as sets of pairs.

Transitive closures run Warshall's algorithm over bitmask rows (bit j of
row i stands for the pair (i, j)).  The closures that record a derivation
for each pair are in `closure.py`.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Sequence

from .errors import ValidationError

Pair = tuple[Hashable, Hashable]


def identity(elements: Iterable) -> frozenset:
    return frozenset((x, x) for x in elements)


def inverse(pairs: Iterable[Pair]) -> frozenset:
    return frozenset((b, a) for (a, b) in pairs)


def to_rows(pairs: Iterable[Pair], index: dict) -> list[int]:
    """The bitmask rows of a relation on the keys of `index`."""
    rows = [0] * len(index)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return rows


def from_rows(rows: Sequence[int], names: Sequence) -> frozenset:
    """The pairs of bitmask rows, each position read as `names[position]`."""
    n = len(rows)
    return frozenset((names[i], names[j]) for i, row in enumerate(rows)
                     for j in range(n) if row >> j & 1)


def class_rows(classes: Sequence[int]) -> list[int]:
    """The bitmask rows of the equivalence relating i, j if classes[i] == classes[j]."""
    return [sum(1 << j for j, c in enumerate(classes) if c == r) for r in classes]


def warshall(rows: list[int]) -> list[int]:
    """The transitive closure of bitmask rows (Warshall, JACM 9, 1962)."""
    for k in range(len(rows)):
        bit, row = 1 << k, rows[k]
        rows = [r | row if r & bit else r for r in rows]
    return rows


def symmetric_part(rows: list[int]) -> list[int]:
    """The rows of r & r^-1 for the relation r of `rows`."""
    return [row & sum(1 << j for j, other in enumerate(rows) if other >> i & 1)
            for i, row in enumerate(rows)]


def transitive_closure(pairs: Iterable[Pair]) -> frozenset:
    pairs = list(pairs)
    names = list(dict.fromkeys(itertools.chain.from_iterable(pairs)))
    return from_rows(warshall(to_rows(pairs, {x: i for i, x in enumerate(names)})), names)


def reflexive_transitive_closure(pairs: Iterable[Pair], elements: Iterable) -> frozenset:
    return transitive_closure(itertools.chain(pairs, identity(elements)))


def is_reflexive(pairs: frozenset, elements: Iterable) -> bool:
    return all((x, x) in pairs for x in elements)


def is_transitive(pairs: frozenset) -> bool:
    return transitive_closure(pairs) == pairs


def is_antisymmetric(pairs: frozenset) -> bool:
    return all(a == b for (a, b) in pairs if (b, a) in pairs)


def partial_order(pairs: Iterable[Pair], elements: Iterable) -> frozenset:
    """The reflexive-transitive closure of `pairs` on `elements`, checked
    to be a finite partial order.

    Raises `ValidationError` on a repeated element, a pair outside the
    elements, or a cycle (two distinct elements below each other).
    """
    elements = list(elements)
    known = set(elements)
    if len(known) != len(elements):
        repeated = next(x for x in elements if elements.count(x) > 1)
        raise ValidationError(f"repeated element {repeated!r}")
    pairs = frozenset(pairs)
    for (a, b) in pairs:
        if a not in known or b not in known:
            raise ValidationError(f"order pair {(a, b)} outside the elements")
    closed = reflexive_transitive_closure(pairs, elements)
    cycle = sorted((a, b) for (a, b) in closed if a != b and (b, a) in closed)
    if cycle:
        a, b = cycle[0]
        raise ValidationError(f"order is not antisymmetric: {a} <= {b} <= {a}")
    return closed


def all_partitions(elements: list) -> list[list[list]]:
    """Every partition of `elements`, deterministically ordered."""
    if not elements:
        return [[]]
    head, rest = elements[0], elements[1:]
    out = []
    for part in all_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[head] + part[i]] + part[i + 1:])
        out.append([[head]] + part)
    return out


def partition_to_pairs(partition: Iterable[Iterable]) -> frozenset:
    pairs = set()
    for block in partition:
        block = list(block)
        for a in block:
            for b in block:
                pairs.add((a, b))
    return frozenset(pairs)
