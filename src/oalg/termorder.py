"""The order on terms over a poset of variables and ordered constants.

Two terms are comparable exactly when they share a skeleton and every leaf
pair is related inside its own namespace (variables with variables,
constant symbols with constant symbols).  The generated-quasiorder view of
the same relation is an independent oracle, in `oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import relations
from .algebra import OrderedAlgebra, evaluate, validate_algebra
from .errors import NotMonotone, ValidationError
from .signature import Signature
from .terms import Term


@dataclass(frozen=True)
class VarPoset:
    names: tuple[str, ...]
    order: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "order", relations.partial_order(self.order, self.names))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order


def check_disjoint(sig: Signature, xp: VarPoset) -> None:
    clash = [v for v in xp.names if sig.has(v)]
    if clash:
        raise ValidationError(f"variables clash with symbols: {clash}")


def leaf_leq(sig: Signature, xp: VarPoset, a: str, b: str) -> bool:
    """Order on leaf labels: the disjoint union of the variable poset and
    the constant order.  A label in neither is a `ValidationError`."""
    if (a, b) in xp.order or (a, b) in sig.const_order:
        return True
    for x in (a, b):
        if (x, x) not in xp.order and (x, x) not in sig.const_order:
            raise ValidationError(f"unknown leaf label {x!r}")
    return False


def term_leq(sig: Signature, xp: VarPoset, s: Term, t: Term) -> bool:
    """The term order, in one walk: one skeleton, each leaf of s below t's."""
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        if a.children:
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        elif b.children or not leaf_leq(sig, xp, a.label, b.label):
            return False
    return True


def extend_monotone_map(xp: VarPoset, target: OrderedAlgebra,
                        alpha: dict[str, str]) -> Callable[[Term], str]:
    """Extend a monotone map on variables to an evaluator on all terms:
    the unique homomorphic extension, memoized over the evaluator's life.

    The target must belong to the constant-inequality variety; violations
    of either precondition are reported with a concrete witness.
    """
    sig = target.sig
    check_disjoint(sig, xp)
    bad = validate_algebra(target)
    if bad:
        raise ValidationError(f"target algebra outside the variety: {bad[0]}")
    missing = [x for x in xp.names if x not in alpha]
    if missing:
        raise NotMonotone(f"assignment missing variables {missing}")
    for (x, y) in xp.order:
        if not target.leq(alpha[x], alpha[y]):
            raise NotMonotone(f"assignment breaks {x} <= {y}: "
                              f"{alpha[x]} !<= {alpha[y]}")
    return partial(evaluate, target, env=dict(alpha), memo={})
