"""Terms over a signature: trees, leaf machinery, skeletons, regularization.

A term is either a leaf (variable or constant symbol) or an operation node
whose child count matches the symbol's arity.  The canonical external form
is the prefix word; `f(x1,x2)` style input is a parser convenience.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import IndexOutOfRange, ParseError, ValidationError
from .signature import Signature

# The deepest nesting `parse_term` accepts: the term functions recurse
# once or twice per level, and Python's default limit is 1000 frames.
MAX_TERM_DEPTH = 200


@dataclass(frozen=True)
class Term:
    """Equality is structural; the hash, the same value as the hash of
    (label, children), is computed once per node from the children's."""

    label: str
    children: tuple["Term", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.label, self.children)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild rather than copy the cached hash: string hashes differ
        # between interpreter runs.
        return Term, (self.label, self.children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self):
        return f"Term({print_term(self)!r})"


def leaf(label: str) -> Term:
    return Term(label, ())


def node(op: str, *children: Term) -> Term:
    return Term(op, tuple(children))


def _tokenize(word: str) -> list[str]:
    for ch in "(),":
        word = word.replace(ch, f" {ch} ")
    return word.split()


def parse_term(sig: Signature, variables: Iterable[str], word: str) -> Term:
    """Parse a prefix word (or functional notation) into a unique Term,
    nested at most MAX_TERM_DEPTH operations deep."""
    vars_set = set(variables)
    for v in vars_set:
        if sig.has(v):
            raise ValidationError(f"variable {v!r} clashes with a signature symbol")
    tokens = _tokenize(word)
    if not tokens:
        raise ParseError("empty term")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def read(depth: int = 0) -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("term ended early (arity underflow)")
        if depth > MAX_TERM_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} operations")
        tok = tokens[pos]
        pos += 1
        if tok in "(),":
            raise ParseError(f"unexpected {tok!r}")
        if tok in vars_set:
            return leaf(tok)
        if sig.has(tok):
            k = sig.arity(tok)
            if k == 0:
                return leaf(tok)
            if peek() == "(":
                pos += 1
                children = [read(depth + 1)]
                while peek() == ",":
                    pos += 1
                    children.append(read(depth + 1))
                if peek() != ")":
                    raise ParseError(f"expected ')' after arguments of {tok!r}")
                pos += 1
                if len(children) != k:
                    raise ParseError(f"{tok!r} takes {k} arguments, got {len(children)}")
                return Term(tok, tuple(children))
            return Term(tok, tuple(read(depth + 1) for _ in range(k)))
        raise ParseError(f"unknown token {tok!r}")

    t = read()
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after term: {' '.join(tokens[pos:])!r}")
    return t


def print_term(t: Term, notation: str = "prefix") -> str:
    if notation == "prefix":
        return " ".join(n.label for n in preorder(t))
    if notation == "functional":
        if t.is_leaf:
            return t.label
        args = ",".join(print_term(c, "functional") for c in t.children)
        return f"{t.label}({args})"
    raise ValueError(f"unknown notation {notation!r}")


def preorder(t: Term) -> Iterator[Term]:
    stack = [t]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def leaves(t: Term) -> tuple[str, ...]:
    """The leaf labels, left to right."""
    return tuple(n.label for n in preorder(t) if n.is_leaf)


def leaf_count(t: Term) -> int:
    return sum(1 for n in preorder(t) if n.is_leaf)


def op_count(t: Term) -> int:
    return sum(1 for n in preorder(t) if not n.is_leaf)


def var_seq(t: Term, sig: Signature) -> tuple[str, ...]:
    """Leaf labels with constant symbols removed; empty for constant-only terms."""
    return tuple(l for l in leaves(t) if not sig.has(l))


def skeleton(t: Term) -> tuple:
    """The tree with leaf labels erased, as nested tuples: () for a leaf,
    (label, children's skeletons) for an operation node."""
    if t.is_leaf:
        return ()
    return (t.label, tuple(map(skeleton, t.children)))


def formal_var(i: int) -> str:
    return f"z{i}"


def regularize(t: Term) -> tuple[Term, tuple[str, ...]]:
    """Split a term into a constant-free template over z1..zn plus its leaves.

    Substituting the returned leaf sequence back into the template
    reproduces the term; the template has the same operation count.
    A bare leaf regularizes to the template z1 with a one-label assignment.
    """
    labels = leaves(t)
    return substitute_leaves(t, map(formal_var, range(1, len(labels) + 1))), labels


def substitute_leaves(template: Term, fills: Iterable[Union[str, Term]]) -> Term:
    """Replace template leaves left-to-right by the given labels or terms."""
    fills = list(fills)
    if len(fills) != leaf_count(template):
        raise IndexOutOfRange(
            f"expected {leaf_count(template)} fills, got {len(fills)}")
    it = iter(fills)

    def build(n: Term) -> Term:
        if n.is_leaf:
            f = next(it)
            return f if isinstance(f, Term) else leaf(f)
        return Term(n.label, tuple(build(c) for c in n.children))

    return build(template)


def is_regular(t: Term, sig: Signature) -> tuple[bool, int | None]:
    """True when var(t) = (z1,...,zn) for some n >= 1 and t is constant free."""
    seq = leaves(t)
    for i, l in enumerate(seq, start=1):
        if l != formal_var(i):
            return False, None
    if any(sig.has(l) for l in seq):
        return False, None
    return True, len(seq)


def leaf_subst(t: Term, j: int, u: Union[str, Term]) -> Term:
    """Replace leaf j (1-based, left to right) by a label or a whole term."""
    return replace_at(t, path_of_leaf(t, j), u if isinstance(u, Term) else leaf(u))


# Tree positions.  A path is a tuple of child indices from the root; paths
# let the rewriting engine talk about subterm occurrences unambiguously
# even when leaf spans coincide (possible with unary symbols).

Path = tuple[int, ...]


def subterm_at(t: Term, path: Path) -> Term:
    for i in path:
        t = t.children[i]
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    if not path:
        return new
    i = path[0]
    kids = list(t.children)
    kids[i] = replace_at(kids[i], path[1:], new)
    return Term(t.label, tuple(kids))


def all_paths(t: Term) -> list[Path]:
    """All node paths in preorder."""
    out: list[Path] = []

    def walk(n: Term, p: Path):
        out.append(p)
        for i, c in enumerate(n.children):
            walk(c, p + (i,))

    walk(t, ())
    return out


def leaf_paths(t: Term) -> list[Path]:
    return [p for p in all_paths(t) if subterm_at(t, p).is_leaf]


def leaf_span(t: Term, path: Path) -> tuple[int, int]:
    """1-based inclusive range of leaf positions covered by the subterm at path."""
    start = 1
    cur = t
    for i in path:
        for c in cur.children[:i]:
            start += leaf_count(c)
        cur = cur.children[i]
    return start, start + leaf_count(cur) - 1


def path_of_leaf(t: Term, j: int) -> Path:
    """Path of the j-th leaf (1-based)."""
    if not 1 <= j <= leaf_count(t):
        raise IndexOutOfRange(f"leaf index {j} out of range")
    cur = t
    path: list[int] = []
    while not cur.is_leaf:
        for i, c in enumerate(cur.children):
            n = leaf_count(c)
            if j <= n:
                path.append(i)
                cur = c
                break
            j -= n
    return tuple(path)


def enumerate_terms(sig: Signature, labels: list[str], max_ops: int) -> list[Term]:
    """All terms over the given leaf labels with at most max_ops operation nodes.

    Deterministic order: by operation count, then by construction order.
    """
    by_ops: list[list[Term]] = [[leaf(l) for l in labels]]
    for n in range(1, max_ops + 1):
        layer: list[Term] = []
        for op_name, k in sig.operations():
            for split in compositions(n - 1, k):
                pools = [by_ops[m] for m in split]
                layer.extend(Term(op_name, kids) for kids in itertools.product(*pools))
        by_ops.append(layer)
    return [t for layer in by_ops for t in layer]


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every way to write `total` as an ordered sum of `parts` naturals,
    in lexicographic order: how operation counts split over children."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest
