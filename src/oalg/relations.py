"""Small helpers for binary relations stored as sets of pairs.

`close` is the one closure engine: a worklist that adds transitive
composites and, through a caller-supplied `extend`, any further images
of each pair (one-slot operation compatibility, for the algebra closures
in `closure.py`).  It indexes the known pairs by their endpoints, so a
popped pair meets only the pairs it composes with (semi-naive
evaluation) instead of a rescan of the whole relation.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from .errors import ValidationError

Pair = tuple[Hashable, Hashable]


def identity(elements: Iterable) -> frozenset:
    return frozenset((x, x) for x in elements)


def inverse(pairs: Iterable[Pair]) -> frozenset:
    return frozenset((b, a) for (a, b) in pairs)


def compose(r: Iterable[Pair], s: Iterable[Pair]) -> frozenset:
    by_left: dict = {}
    for (a, b) in s:
        by_left.setdefault(a, []).append(b)
    return frozenset((a, c) for (a, b) in r for c in by_left.get(b, ()))


def close(seeds: Iterable[tuple[Pair, tuple]],
          extend: Callable[[Pair], Iterable[tuple[Pair, tuple]]] | None = None) -> dict:
    """Least relation containing the seeds, closed under transitivity and
    under `extend`; maps each pair to the derivation it was first found by.

    `seeds` yields `(pair, derivation)`; a transitive composite is derived
    as `("trans", left, right)`, and `extend(pair)` yields further
    `(pair, derivation)` images.  The dict is in discovery order, which is
    deterministic: the worklist is LIFO, and a popped pair (x, y) first
    meets the pairs known when it is popped, in the order they were found
    (a pair (a, x) gives (a, y), then a pair (y, b) gives (x, b)), and
    then its `extend` images.
    """
    found: dict = {}
    todo: list[Pair] = []
    ending: dict = {}       # v -> [(seq, (a, v)), ...] in discovery order
    starting: dict = {}     # v -> [(seq, (v, b)), ...] in discovery order

    def add(pair: Pair, derivation: tuple) -> None:
        entry = (len(found), pair)
        found[pair] = derivation
        ending.setdefault(pair[1], []).append(entry)
        starting.setdefault(pair[0], []).append(entry)
        todo.append(pair)

    for pair, derivation in seeds:
        if pair not in found:
            add(pair, derivation)
    while todo:
        pair = todo.pop()
        x, y = pair
        for _, (a, b) in sorted(ending.get(x, []) + starting.get(y, [])):
            if b == x and (a, y) not in found:
                add((a, y), ("trans", (a, x), pair))
            if a == y and (x, b) not in found:
                add((x, b), ("trans", pair, (y, b)))
        if extend is not None:
            for image, derivation in extend(pair):
                if image not in found:
                    add(image, derivation)
    return found


def transitive_closure(pairs: Iterable[Pair]) -> frozenset:
    return frozenset(close((p, ("seed",)) for p in pairs))


def reflexive_transitive_closure(pairs: Iterable[Pair], elements: Iterable) -> frozenset:
    return transitive_closure(set(pairs) | set(identity(elements)))


def is_reflexive(pairs: frozenset, elements: Iterable) -> bool:
    return all((x, x) in pairs for x in elements)


def is_transitive(pairs: frozenset) -> bool:
    return compose(pairs, pairs) <= pairs


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
