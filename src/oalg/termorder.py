"""The order on terms over a poset of variables and ordered constants.

Two terms are comparable exactly when they share a skeleton and every leaf
pair is related inside its own namespace (variables with variables,
constant symbols with constant symbols).  The generated-quasiorder view of
the same relation is kept as an independent oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import relations
from .algebra import OrderedAlgebra, evaluate, validate_algebra
from .errors import NotMonotone, ValidationError
from .signature import Signature
from .terms import (
    Term,
    enumerate_terms,
    leaf,
    leaf_paths,
    leaves,
    op_count,
    replace_at,
    skeleton,
    subterm_at,
)


def parse_var_poset(text: str) -> "VarPoset":
    """Parse `var x1` / `varorder x1 <= x2` lines into a variable poset."""
    from .errors import ParseError

    names: list[str] = []
    order: set[tuple[str, str]] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "var" and len(tokens) == 2:
            names.append(tokens[1])
        elif tokens[0] == "varorder" and len(tokens) == 4 and tokens[2] == "<=":
            order.add((tokens[1], tokens[3]))
        else:
            raise ParseError(f"unknown variable line {line!r}")
    return VarPoset(tuple(names), frozenset(order))


@dataclass(frozen=True)
class VarPoset:
    names: tuple[str, ...]
    order: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValidationError("duplicate variable names")
        closed = relations.reflexive_transitive_closure(self.order, self.names)
        bad = relations.antisymmetry_violations(closed)
        if bad:
            raise ValidationError(f"variable order not antisymmetric: {bad[0]}")
        for (a, b) in closed:
            if a not in self.names or b not in self.names:
                raise ValidationError(f"order pair {(a, b)} on unknown variable")
        object.__setattr__(self, "order", closed)

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order


def check_disjoint(sig: Signature, xp: VarPoset) -> None:
    clash = [v for v in xp.names if sig.has(v)]
    if clash:
        raise ValidationError(f"variables clash with symbols: {clash}")


def leaf_leq(sig: Signature, xp: VarPoset, a: str, b: str) -> bool:
    """Order on leaf labels: the disjoint union of the two posets."""
    if sig.has(a) and sig.has(b):
        return sig.const_leq(a, b)
    if a in xp.names and b in xp.names:
        return xp.leq(a, b)
    return False


def term_leq(sig: Signature, xp: VarPoset, t1: Term, t2: Term) -> bool:
    """Equal skeletons and leafwise comparable labels."""
    if skeleton(t1) != skeleton(t2):
        return False
    return all(leaf_leq(sig, xp, a, b) for a, b in zip(leaves(t1), leaves(t2)))


def single_raises(sig: Signature, xp: VarPoset, t: Term) -> list[Term]:
    """All terms obtained by raising exactly one leaf label strictly.

    Each raise is one generated-order step under the identity-filled
    one-hole context at that leaf; chaining raises to a fixpoint therefore
    computes the full generated up-set of t.
    """
    out = []
    for path in leaf_paths(t):
        a = subterm_at(t, path).label
        if sig.has(a):
            ups = [b for b in sig.constants() if a != b and sig.const_leq(a, b)]
        else:
            ups = [b for b in xp.names if a != b and xp.leq(a, b)]
        for b in ups:
            raised = replace_at(t, path, leaf(b))
            assert skeleton(raised) == skeleton(t)
            out.append(raised)
    return out


def generated_up_set(sig: Signature, xp: VarPoset, t: Term) -> set[Term]:
    """Up-set of t in the quasiorder generated from the leaf orders.

    Breadth-first closure under single-leaf raises; finite because both
    leaf posets are finite and raises never revisit a lower label.
    """
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for u in frontier:
            for v in single_raises(sig, xp, u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def characterized_up_set(sig: Signature, xp: VarPoset, t: Term) -> set[Term]:
    """Up-set of t under the skeleton-plus-leafwise characterization."""
    import itertools

    paths = leaf_paths(t)
    choices = []
    for path in paths:
        a = subterm_at(t, path).label
        if sig.has(a):
            choices.append([b for b in sig.constants() if sig.const_leq(a, b)])
        else:
            choices.append([b for b in xp.names if xp.leq(a, b)])
    out = set()
    for combo in itertools.product(*choices):
        u = t
        for path, b in zip(paths, combo):
            u = replace_at(u, path, leaf(b))
        out.add(u)
    return out


def verify_partial_order(sig: Signature, xp: VarPoset, depth: int) -> list[dict]:
    """Exhaustively check the term order on all terms with at most `depth`
    operation symbols.

    Checks reflexivity, transitivity, antisymmetry, operation
    compatibility, and equality with the generated-quasiorder oracle
    (whose up-sets are computed by chained single-leaf raises, one scheme
    step per raise).  Discrepancies come back as report entries.
    """
    if depth > 4:
        raise ValidationError("depth capped at 4")
    check_disjoint(sig, xp)
    labels = list(xp.names) + sig.constants()
    pool = enumerate_terms(sig, labels, depth)
    report: list[dict] = []
    up_cache: dict[Term, set[Term]] = {}
    for t in pool:
        up_cache[t] = generated_up_set(sig, xp, t)
    for t in pool:
        if not term_leq(sig, xp, t, t):
            report.append({"kind": "reflexivity", "term": t})
        generated = up_cache[t]
        if generated != characterized_up_set(sig, xp, t):
            report.append({"kind": "oracle-mismatch", "term": t})
        for u in generated:
            if u != t and t in up_cache[u]:
                report.append({"kind": "antisymmetry", "pair": (t, u)})
            if not up_cache[u] <= generated:
                report.append({"kind": "transitivity", "pair": (t, u)})
    report.extend(_check_op_compat(sig, xp, pool, depth))
    return report


def _check_op_compat(sig: Signature, xp: VarPoset, pool: list[Term],
                     depth: int) -> list[dict]:
    report = []
    labels = list(xp.names) + sig.constants()
    small = [t for t in pool if op_count(t) + 1 <= depth]
    for f, k in sig.ops.items():
        if k == 0:
            continue
        for t in small:
            for u in generated_up_set(sig, xp, t):
                for i in range(k):
                    fills_t = [leaf(labels[0])] * k
                    fills_u = [leaf(labels[0])] * k
                    fills_t[i] = t
                    fills_u[i] = u
                    big_t = Term(f, tuple(fills_t))
                    big_u = Term(f, tuple(fills_u))
                    if not term_leq(sig, xp, big_t, big_u):
                        report.append({"kind": "op-compatibility",
                                       "op": f, "pair": (t, u)})
    return report


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
