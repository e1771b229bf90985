"""Amalgams of ordered algebras, their pushout, dominions, and epi checks.

The pushout of two algebras over a shared subalgebra is never materialized
(its carrier is a quotient of an infinite term algebra); every question
about it is answered by a budgeted certificate search.  A found scheme is
a checkable proof; exhausting the budget is reported as Unknown and never
as a refutation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path as FsPath

from . import relations
from .algebra import (
    _codes,
    _image,
    _monotone_maps,
    _order_quotient,
    Homomorphism,
    OrderedAlgebra,
    all_congruences,
    all_homomorphisms,
    check_homomorphism,
    evaluate,
    generated_subalgebra,
    load_algebra,
    require_monotone_hom,
    subalgebra,
    validate_algebra,
)
from .errors import (
    CommutationFailure,
    NotAHomomorphism,
    ParseError,
    PreconditionFailed,
    TheoremContradiction,
    ValidationError,
    WitnessInconsistency,
)
from .schemes import (
    IneqStep,
    Scheme,
    Step,
    assert_valid,
    make_rel,
)
from .syntax import match, records
from .terms import (
    Term,
    compositions,
    leaf,
    leaves,
    op_count,
    replace_at,
)
from .termorder import VarPoset, extend_monotone_map, leaf_leq, term_leq


def side_tag(name: str, side: int) -> str:
    return f"{name}<{side}>"


def tag_algebra(alg: OrderedAlgebra, side: int) -> tuple[OrderedAlgebra, dict[str, str]]:
    """A disjoint copy with every element name suffixed by the side marker."""
    ren = {e: side_tag(e, side) for e in alg.carrier}
    return _image(alg, list(ren.values()), alg.coded.rows, name=side_tag(alg.name, side))[0], ren


class Amalgam:
    """Two ordered algebras embedding a shared one; carriers kept disjoint
    by automatic side tagging of element names."""

    def __init__(self, center: OrderedAlgebra, a1: OrderedAlgebra,
                 a2: OrderedAlgebra, phi1: dict[str, str], phi2: dict[str, str]):
        self.sig = center.sig
        self.c = center
        self.a1, ren1 = tag_algebra(a1, 1)
        self.a2, ren2 = tag_algebra(a2, 2)
        # The untagged algebras, whose coded tables the unfold pool counts.
        self.untagged = {1: a1, 2: a2}
        self.phi1 = {c: ren1[phi1[c]] for c in center.carrier}
        self.phi2 = {c: ren2[phi2[c]] for c in center.carrier}
        self._img1 = {v: k for k, v in self.phi1.items()}
        # Each shared image: the glue tag that leaves it and its other copy.
        self.glue: dict[str, tuple[str, str]] = {}
        for z in center.carrier:
            self.glue[self.phi1[z]] = ("GLUE", self.phi2[z])
            self.glue[self.phi2[z]] = ("GLUEINV", self.phi1[z])
        self._side_env = {i: {e: e for e in self.side(i).carrier} for i in (1, 2)}
        # One leaf term per side element, shared by every search move.
        self.leaf_of = {e: leaf(e) for e in self.variables()}
        # Leaves are side elements, ordered within their side, and constants.
        self.poset = VarPoset(tuple(self.variables()), self.a1.order | self.a2.order)
        self.leaf_leq = partial(leaf_leq, self.sig, self.poset)
        self.term_leq = partial(term_leq, self.sig, self.poset)

    # -- amalgam-level term helpers ------------------------------------------

    def variables(self) -> list[str]:
        return self.a1.carrier + self.a2.carrier

    def label_class(self, label: str) -> int:
        """1 or 2 for side elements, 0 for constant symbols."""
        if label in self.a1.index:
            return 1
        if label in self.a2.index:
            return 2
        if self.sig.has(label) and self.sig.arity(label) == 0:
            return 0
        raise ValidationError(f"unknown leaf label {label!r}")

    def side(self, i: int) -> OrderedAlgebra:
        return self.a1 if i == 1 else self.a2

    def term_class(self, t: Term) -> int | None:
        """1 or 2 when all element leaves lie on one side, 0 for none, None if mixed."""
        sides = {self.label_class(l) for l in leaves(t)} - {0}
        if not sides:
            return 0
        if len(sides) == 1:
            return sides.pop()
        return None

    def eval_in_side(self, t: Term, i: int) -> str:
        return evaluate(self.side(i), t, self._side_env[i])

    def glue_tag(self, a: str, b: str) -> str | None:
        if a == b:
            return "ID"
        partner = self.glue.get(a)
        return partner[0] if partner is not None and partner[1] == b else None

    def transport(self, label: str, side: int) -> str:
        """Map a glue-image label onto the requested side, if possible."""
        cls = self.label_class(label)
        if cls == side or cls == 0:
            return label
        partner = self.glue.get(label)
        if partner is None:
            raise WitnessInconsistency(
                f"{label!r} is not a shared image and cannot switch sides")
        return partner[1]

    def in_relation(self, tag: str, u: Term, v: Term) -> bool:
        if tag == "ID":
            return u == v
        if tag in ("GLUE", "GLUEINV"):
            return (u.is_leaf and v.is_leaf
                    and self.glue_tag(u.label, v.label) == tag)
        if tag in ("EV1INV", "EV2INV"):
            tag, u, v = tag.removesuffix("INV"), v, u
        if tag in ("EV1", "EV2"):
            i = 1 if tag == "EV1" else 2
            if not v.is_leaf or self.term_class(u) not in (i, 0):
                return False
            return self.eval_in_side(u, i) == v.label
        return False


def validate_amalgam(am: Amalgam) -> list[dict]:
    """Check the embeddings and variety membership; the side tags keep the
    two carriers disjoint."""
    report = []
    for alg in (am.c, am.a1, am.a2):
        for item in validate_algebra(alg):
            report.append({"kind": "variety", "algebra": alg.name,
                           "violation": item.pop("kind"), **item})
    for label, phi, target in (("phi1", am.phi1, am.a1), ("phi2", am.phi2, am.a2)):
        h = Homomorphism(am.c, target, phi)
        flags = check_homomorphism(h)
        if not flags["is_hom"]:
            report.append({"kind": "embedding", "map": label, "problem": "not a homomorphism"})
        if not flags["is_monotone"]:
            report.append({"kind": "embedding", "map": label, "problem": "not monotone"})
        if not flags["reflects_order"]:
            report.append({"kind": "embedding", "map": label,
                           "problem": "does not reflect the order"})
        if len(set(phi.values())) != len(phi):
            report.append({"kind": "embedding", "map": label, "problem": "not injective"})
    return report


class SpecialAmalgam(Amalgam):
    """Two tagged copies of one algebra glued along a subalgebra."""

    def __init__(self, base: OrderedAlgebra, center_subset: list[str]):
        center = subalgebra(base, center_subset, name=f"{base.name}|C")
        ident = {e: e for e in center.carrier}
        super().__init__(center, base, base, ident, ident)
        self.base = base
        self.alpha1 = {e: side_tag(e, 1) for e in base.carrier}
        self.alpha2 = {e: side_tag(e, 2) for e in base.carrier}
        self.nu = {side_tag(e, 1): side_tag(e, 2) for e in base.carrier}
        self.nu_inv = {v: k for k, v in self.nu.items()}
        self._collapse_env = {e: self.to_side1(e) for e in self.variables()}

    def transport(self, label: str, side: int) -> str:
        cls = self.label_class(label)
        if cls == side or cls == 0:
            return label
        return self.nu[label] if side == 2 else self.nu_inv[label]

    def to_side1(self, label: str) -> str:
        """The copy-collapsing map: side-2 elements through the isomorphism."""
        cls = self.label_class(label)
        if cls == 1:
            return label
        if cls == 2:
            return self.nu_inv[label]
        return self.a1.const(label)

    def collapse_eval(self, t: Term, memo: dict[Term, str] | None = None) -> str:
        """Evaluate a mixed term in side 1 after collapsing the copies.

        Any scheme from s to t forces collapse_eval(s) <= collapse_eval(t),
        which is what makes this map a sound search prune.  `memo` is
        passed on to `evaluate`.
        """
        return evaluate(self.a1, t, self._collapse_env, memo)

    def center_of_side1(self, label: str) -> str | None:
        return self._img1.get(label)


def make_special(base: OrderedAlgebra, seed) -> SpecialAmalgam:
    """Special amalgam over the subalgebra generated by the seed."""
    return SpecialAmalgam(base, generated_subalgebra(base, seed))


# -- The pushout search --------------------------------------------------------

@dataclass
class Budget:
    """Search budget.  The first two fields bound what a witness may look
    like; the last two bound the work spent looking for one.  Exceeding a
    work cap is folded into Unknown together with the statistics.  Deeper
    unfoldings than max_unfold_ops are still reachable through several
    consecutive unfold steps.

    max_nodes bounds the candidates generated, pruned ones included.  The
    search decides the unfolds of one leaf path to one value as a group,
    but counts every member of it, and a group that crosses the cap counts
    only the members up to it; so the cap falls where it would if each
    candidate were decided alone.  The terms of the unfold pool are built
    only for the members that the search expands and the one member a goal
    test finds, so a wide max_unfold_ops costs counts, once per base
    algebra, not terms, until the search takes the members up."""

    max_term_ops: int = 4
    max_scheme_len: int = 8
    max_nodes: int = 20_000
    max_unfold_ops: int = 2


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    nodes_generated: int = 0
    depth_reached: int = 0
    capped: bool = False
    pruned: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def merged(self, other: SearchStats) -> SearchStats:
        """The statistics of two searches together: counters summed, the
        deeper depth, capped if either was."""
        combine = {"depth_reached": max, "capped": operator.or_}
        return SearchStats(**{f.name: combine.get(f.name, operator.add)(
            getattr(self, f.name), getattr(other, f.name)) for f in fields(self)})


@dataclass
class Proven:
    scheme: Scheme
    stats: SearchStats

    @property
    def proven(self) -> bool:
        return True


@dataclass
class Unknown:
    stats: SearchStats

    @property
    def proven(self) -> bool:
        return False


def _achievable_values(am: Amalgam, t: Term, side: int) -> dict[str, Term]:
    """Values reachable by raising leaves of t and evaluating on `side`,
    with one witness raised term per value.  Symbol leaves stay fixed.

    A composite term's map is built from its children's, taken from
    `_achievable_cached`, so each subterm's values are worked out once
    per amalgam and side; a side leaf's witnesses are the amalgam's
    shared leaves."""
    alg = am.side(side)
    if t.is_leaf:
        cls = am.label_class(t.label)
        if cls == 0:
            return {alg.const(t.label): t}
        if cls != side:
            return {}
        return {b: am.leaf_of[b] for b in alg.up_set(t.label)}
    child_items = [_achievable_cached(am, c, side) for c in t.children]
    if not all(child_items):
        return {}
    table = alg.op_tables[t.label]
    out: dict[str, Term] = {}
    for combo in itertools.product(*child_items):
        value = table[tuple(v for v, _ in combo)]
        if value not in out:
            out[value] = Term(t.label, tuple(w for _, w in combo))
    return out


def _unfold_counts(alg: OrderedAlgebra, n: int) -> dict[int, int]:
    """For each value index of the composite terms over alg's elements
    with exactly n operations, how many such terms there are, in the order
    the values first occur.  One pass over each coded table per split of
    the other n - 1 operations, each entry weighted by its children's
    counts; no term is built.  Cached on alg, which both copies of a
    special amalgam's base share."""
    cache = alg.__dict__.setdefault("_unfold_counts", {})
    counts = cache.get(n)
    if counts is None:
        weights = [[1] * len(alg.carrier)]
        for m in range(1, n):
            lower = _unfold_counts(alg, m)
            weights.append([lower.get(v, 0) for v in range(len(alg.carrier))])
        counts = {}
        for f, k in alg.sig.operations():
            table = alg.coded.tables[f]
            for split in compositions(n - 1, k):
                # The entries' weights in code order, as `_codes` builds codes.
                sizes = [1]
                for m in split:
                    sizes = [x * y for x in sizes for y in weights[m]]
                for size, value in zip(sizes, table):
                    if size:
                        counts[value] = counts.get(value, 0) + size
        cache[n] = counts
    return counts


def _unfold_shapes(alg: OrderedAlgebra, n: int) -> dict[int, list[tuple]]:
    """The shapes of the composite terms over alg's elements with exactly
    n operations, by value index, in pool order: `(op, split, vals)` for
    each operation, split of its other n - 1 operations over the children,
    and children's value indices (in carrier order, among the values that
    terms with that many operations take).  Built in one walk and cached
    on alg."""
    cache = alg.__dict__.setdefault("_unfold_shapes", {})
    shapes = cache.get(n)
    if shapes is None:
        size = len(alg.carrier)
        present = [range(size)] + [sorted(_unfold_counts(alg, m)) for m in range(1, n)]
        shapes = {}
        for f, k in alg.sig.operations():
            table = alg.coded.tables[f]
            for split in compositions(n - 1, k):
                digits = [present[m] for m in split]
                for vals, code in zip(itertools.product(*digits), _codes(digits, size)):
                    shapes.setdefault(table[code], []).append((f, split, vals))
        cache[n] = shapes
    return shapes


def _unfold_layer(am: Amalgam, side: int, n: int, value: str) -> list[Term]:
    """The composite terms over one side's elements with exactly n
    operations and the given value, in pool order: by shape, then by the
    children's terms.  Built on first use and cached per amalgam, so
    every width and every search on the amalgam shares them."""
    cache = am.__dict__.setdefault("_unfold_cache", {})
    key = (side, n, value)
    terms = cache.get(key)
    if terms is None:
        alg, terms = am.side(side), []
        for f, split, vals in _unfold_shapes(am.untagged[side], n).get(alg.index[value], ()):
            options = [[am.leaf_of[alg.carrier[v]]] if m == 0
                       else _unfold_layer(am, side, m, alg.carrier[v]) for m, v in zip(split, vals)]
            terms.extend(Term(f, kids) for kids in itertools.product(*options))
        cache[key] = terms
    return terms


def _first_below(am: Amalgam, side: int, n: int, value: int, ctx: Term) -> tuple[int, Term | None]:
    """The position in `_unfold_layer(am, side, n, carrier[value])` of its
    first term below ctx, and that term; or the layer's size and None.
    Read off the shapes: a term `f(kids)` is below ctx exactly when f is
    ctx's label and each kid is below ctx's child, so within one shape the
    first hit takes each child's first hit.  Only the term found is built."""
    alg, carrier = am.untagged[side], am.side(side).carrier
    lower = [None] + [_unfold_counts(alg, m) for m in range(1, n)]
    at = 0
    for f, split, vals in _unfold_shapes(alg, n)[value]:
        if f == ctx.label and len(split) == len(ctx.children):
            pos, kids = 0, []
            for m, v, c in zip(split, vals, ctx.children):
                if m == 0:
                    kid = am.leaf_of[carrier[v]]
                    if c.children or not am.leaf_leq(kid.label, c.label):
                        break
                else:
                    p, kid = _first_below(am, side, m, v, c) if op_count(c) == m else (0, None)
                    if kid is None:
                        break
                    pos = pos * lower[m][v] + p
                kids.append(kid)
            else:
                return at + pos, Term(f, tuple(kids))
        at += math.prod([lower[m][v] for m, v in zip(split, vals) if m])
    return at, None


class _UnfoldGroup:
    """The unfold pool's terms of one value on one side, with one to
    `len(sizes)` operations, in pool order; `sizes[n - 1]` members have n
    operations.  The sizes come from `_unfold_counts`; the terms are
    built, a layer at a time, only when they are iterated.  `size` may
    exceed what `len()` can return.  Every member is a composite term."""

    __slots__ = ("am", "side", "value", "sizes", "size")

    def __init__(self, am: Amalgam, side: int, value: str, sizes: tuple[int, ...]):
        self.am, self.side, self.value, self.sizes = am, side, value, sizes
        self.size = sum(sizes)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        for n in range(1, len(self.sizes) + 1):
            yield from _unfold_layer(self.am, self.side, n, self.value)

    def first_below(self, ctx: Term) -> tuple[int, Term | None]:
        """The position of the first member below ctx and that member, or
        the group's size and None.  A member is below ctx only if it has
        as many operations, so only that layer is read, from its shapes."""
        n = op_count(ctx)
        if 1 <= n <= len(self.sizes) and self.sizes[n - 1]:
            at, new = _first_below(self.am, self.side, n,
                                   self.am.side(self.side).index[self.value], ctx)
            if new is not None:
                return sum(self.sizes[:n - 1]) + at, new
        return self.size, None


def _unfold_groups(am: Amalgam, side: int, width: int) -> dict[str, _UnfoldGroup]:
    """One lazy group per value that a composite term of at most `width`
    operations over one side's elements takes, in the order the values
    first occur.  Cached per amalgam."""
    cache = am.__dict__.setdefault("_unfold_groups", {})
    key = (side, width)
    if key not in cache:
        layers = [_unfold_counts(am.untagged[side], n) for n in range(1, width + 1)]
        carrier = am.side(side).carrier
        values = dict.fromkeys(v for counts in layers for v in counts)
        cache[key] = {carrier[v]: _UnfoldGroup(am, side, carrier[v],
                                               tuple(counts.get(v, 0) for counts in layers))
                      for v in values}
    return cache[key]


def _achievable_cached(am: Amalgam, sub: Term, side: int) -> list[tuple[str, Term]]:
    """The items of `_achievable_values`, sorted by value.  Cached per
    amalgam, one entry per subterm and side: the maps of a subterm's
    children, leaves included, are entries too."""
    cache = am.__dict__.setdefault("_achievable_cache", {})
    key = (sub, side)
    items = cache.get(key)
    if items is None:
        items = cache[key] = sorted(_achievable_values(am, sub, side).items())
    return items


def _nodes(am: Amalgam, u: Term, t: Term, top: frozenset[str] | None,
           memo: dict[Term, str]) -> list[tuple]:
    """`(path, subterm, accepted, context)` for every node of u, in
    preorder (the order of `terms.all_paths`), from one walk down from
    the root.

    `accepted`: the side-1 values that, put at the path, give u a
    collapsed value in `top`; None when `top` is (no prune).  The root
    accepts `top`, a child what its parent's table, with the siblings'
    collapsed values from `memo`, maps into what its parent accepts.

    `context`: t's subterm at the path if u agrees with t off the path
    (the labels along it are the same and every subterm beside it is
    below t's), else None.  Then `replace_at(u, path, new)` is below t
    exactly when `new` is below the context.  One sibling comparison
    decides each child.
    """
    if top is not None:
        am.collapse_eval(u, memo)
    a1 = am.a1
    out = []
    todo = [((), u, top, t)]
    while todo:
        node = todo.pop()
        out.append(node)
        path, sub, accepted, ctx = node
        kids = sub.children
        if not kids:
            continue
        if accepted is not None:
            # Its own slot loop: reading `a1.translations` here was slower.
            table = a1.op_tables[sub.label]
            args = [memo[c] for c in kids]
        agrees = ctx is not None and sub.label == ctx.label and len(kids) == len(ctx.children)
        if agrees:
            below = [am.term_leq(a, b) for a, b in zip(kids, ctx.children)]
            misses = below.count(False)
        for i in range(len(kids) - 1, -1, -1):
            ok = None
            if accepted is not None:
                row = list(args)
                hits = []
                for x in a1.carrier:
                    row[i] = x
                    if table[tuple(row)] in accepted:
                        hits.append(x)
                ok = frozenset(hits)
            inner = (ctx.children[i] if agrees and (misses == 0 or misses == 1 and not below[i])
                     else None)
            todo.append((path + (i,), kids[i], ok, inner))
    return out


def _moves(am: Amalgam, nodes: list[tuple], budget: Budget):
    """Candidate successors of u, given as its `_nodes`, each a raise
    step fused with one relation step, in groups.  Deterministic order:
    folds on side 1 then side 2, glue swaps, unfolds.

    A group is `(node, witness, tag, news)`: the subterm of u at the
    node's path is raised to `witness`, which `tag` rewrites to each
    member `new` of `news`.  A member's successor is
    `replace_at(u, path, new)`, since both rewrites act at the same path.
    Folds and glue swaps come one to a group, `news` a 1-tuple holding a
    leaf.  Unfolds come as one group per (side, leaf path, unfolded
    value): `witness` is the leaf of that value and `news` an
    `_UnfoldGroup`, whose size is known without its terms and whose
    members, composite terms, are built only when it is iterated.  No
    successor term is built here: the search decides a group from its
    node and witness, builds a successor when it expands it, and
    `_fused_steps` builds the steps of the path found.  On a special
    amalgam every member has its witness's collapsed value.

    What does not depend on u is cached per amalgam: the fold values of
    each subterm and side (`_achievable_cached`) and the unfold groups
    (`_unfold_groups`); the up-sets are the sides' tables, the glue
    partners the amalgam's.
    """
    leaf_of = am.leaf_of
    composite = [node for node in nodes if node[1].children]
    # Folds of raised subterms, sides 1 then 2.
    for side, tag in ((1, "EV1"), (2, "EV2")):
        for node in composite:
            for value, witness in _achievable_cached(am, node[1], side):
                yield node, witness, tag, (leaf_of[value],)
    ops_left = budget.max_term_ops - len(composite)
    # The side leaves: (node, label, side).
    side_leaves = []
    for node in nodes:
        sub = node[1]
        if not sub.children:
            cls = am.label_class(sub.label)
            if cls:
                side_leaves.append((node, sub.label, cls))
    # Glue swaps at raised leaves.
    glue = am.glue
    for node, a, cls in side_leaves:
        for b in am.side(cls).up_set(a):
            partner = glue.get(b)
            if partner is not None:
                yield node, leaf_of[b], partner[0], (leaf_of[partner[1]],)
    # Unfolds at raised leaves, cheapest terms first.
    if ops_left > 0:
        width = min(ops_left, budget.max_unfold_ops)
        for side, tag in ((1, "EV1INV"), (2, "EV2INV")):
            groups = _unfold_groups(am, side, width)
            for node, a, cls in side_leaves:
                if cls != side:
                    continue
                for b in am.side(side).up_set(a):
                    group = groups.get(b)
                    if group is not None:
                        yield node, leaf_of[b], tag, group


def _fused_steps(u: Term, path: tuple[int, ...], witness: Term, tag: str,
                 new: Term) -> list[Step]:
    """The certificate steps of one move out of u: the raise of the subterm
    at `path` to `witness`, unless it is trivial, then the relation step."""
    raised = replace_at(u, path, witness)
    steps: list[Step] = [IneqStep(u, raised)] if raised != u else []
    steps.append(make_rel(tag, raised, path, new))
    return steps


def pushout_leq(am: Amalgam, s: Term, t: Term,
                budget: Budget | None = None) -> Proven | Unknown:
    """Search for a certificate that s precedes t in the pushout order.

    Breadth-first over fused raise-and-rewrite moves.  Each reached state
    remembers only the move that reached it; the steps of the one path
    found are built at the end and returned as a validated scheme.
    Unknown covers both a genuinely exhausted budget and hitting the node
    cap; the stats say which.

    Candidates are decided a group of `_moves` at a time: a fold or glue
    swap alone, the unfolds of one leaf path to one value together.  The
    statistics are those of deciding every member one at a time:
    `nodes_generated` and `pruned` count each member, and a group that
    crosses the node cap counts only the members up to it.  The frontier
    holds groups, not terms: a successor's term is built when the search
    takes its group up for expansion, member by member, and dropped there
    if it repeats a reached term, in the same breadth-first order as if
    it were built when generated.  So the same states are expanded, and
    a candidate that is never expanded costs no term.

    Each expanded state u is walked once (`_nodes`), and a move reads
    the prune values and goal context of its path off its node.  A move
    keeps u's subterms beside its path, so both tests are decided from
    the path and the new subterm alone, before its term is built.  Only
    a candidate that reaches t has its term built.  An unfold group is
    goal-tested from its shapes (`_UnfoldGroup.first_below`), which
    builds only the member found; a group's size is read from `size`,
    which may exceed what `len()` can return.

    On a special amalgam, a candidate whose collapsed value is not below
    t's is pruned.  The new subterm's value is read from the group's
    leaf side: an unfold's new subterm is a composite term, but its
    witness is a leaf with the same collapsed value, so one lookup
    decides the whole group.  Every reached state passed the prune, so a
    pruned candidate is never a repeat.  One memo of collapsed subterm
    values serves the whole search; it starts with the amalgam's shared
    leaves, which the groups carry.
    """
    budget = budget or Budget()
    stats = SearchStats()
    prune = getattr(am, "collapse_eval", None)
    memo: dict[Term, str] = {}
    top = None
    if prune:
        for one_leaf in am.leaf_of.values():
            prune(one_leaf, memo)
        target = prune(t, memo)
        top = frozenset(x for x in am.a1.carrier if am.a1.leq(x, target))
    back: dict[Term, tuple | None] = {s: None}

    def finish(u: Term) -> Proven:
        steps: list[Step] = []
        cur = u
        while back[cur] is not None:
            steps = _fused_steps(*back[cur]) + steps
            cur = back[cur][0]
        if u != t:
            steps.append(IneqStep(u, t))
        sch = Scheme(s, t, tuple(steps))
        assert_valid(am, sch, "search result")
        return Proven(sch, stats)

    def capped(pruned: int) -> Unknown:
        # A group crossed the node cap; `pruned` of its members came before.
        stats.nodes_generated = budget.max_nodes + 1
        stats.pruned += pruned
        stats.capped = True
        return Unknown(stats)

    def taken_up(entry: tuple | None):
        # The states a frontier entry reaches for the first time.
        if entry is None:
            yield s
            return
        u, path, witness, tag, news = entry
        for new in news:
            v = replace_at(u, path, new)
            if v not in back:
                back[v] = (u, path, witness, tag, new)
                yield v

    if prune and prune(s, memo) not in top:
        return Unknown(stats)
    if am.term_leq(s, t):
        return finish(s)
    # The start, then groups (u, path, witness, tag, news) out of expanded
    # states; a member's successor is replace_at(u, path, new).
    frontier: list[tuple | None] = [None]
    for depth in range(1, budget.max_scheme_len + 1):
        new_frontier: list[tuple | None] = []
        for entry in frontier:
            for u in taken_up(entry):
                stats.depth_reached = depth
                stats.nodes_expanded += 1
                for node, witness, tag, news in _moves(am, _nodes(am, u, t, top, memo), budget):
                    path, _, accepted, ctx = node
                    room = budget.max_nodes - stats.nodes_generated
                    group = isinstance(news, _UnfoldGroup)
                    size = news.size if group else 1
                    one_leaf = witness if witness.is_leaf else news[0]
                    if accepted is not None and memo[one_leaf] not in accepted:
                        if size > room:
                            return capped(room)
                        stats.nodes_generated += size
                        stats.pruned += size
                        continue
                    if ctx is not None:
                        at, new = (news.first_below(ctx) if group
                                   else (0, news[0]) if am.term_leq(news[0], ctx) else (1, None))
                        if new is not None and at < room:
                            stats.nodes_generated += at + 1
                            v = replace_at(u, path, new)
                            back[v] = (u, path, witness, tag, new)
                            return finish(v)
                    if size > room:
                        return capped(0)
                    stats.nodes_generated += size
                    new_frontier.append((u, path, witness, tag, news))
        if stats.depth_reached < depth:
            # The level had no entry, or each repeated a reached term.
            return Unknown(stats)
        frontier = new_frontier
    return Unknown(stats)


@dataclass
class ProvenEqual:
    forward: Scheme
    backward: Scheme
    stats: SearchStats

    @property
    def proven(self) -> bool:
        return True


def pushout_equal(am: Amalgam, s: Term, t: Term,
                  budget: Budget | None = None) -> ProvenEqual | Unknown:
    """Both directions of pushout_leq; equality of classes needs both."""
    fwd = pushout_leq(am, s, t, budget)
    if not fwd.proven:
        return Unknown(fwd.stats)
    bwd = pushout_leq(am, t, s, budget)
    merged = fwd.stats.merged(bwd.stats)
    if not bwd.proven:
        return Unknown(merged)
    return ProvenEqual(fwd.scheme, bwd.scheme, merged)


# -- Mediating morphism ---------------------------------------------------------

class Mediator:
    """The universal map out of the pushout, applied on representatives."""

    def __init__(self, am: Amalgam, target: OrderedAlgebra,
                 gamma1: dict[str, str], gamma2: dict[str, str]):
        self.am = am
        self.target = target
        alpha = {}
        alpha.update({e: gamma1[e] for e in am.a1.carrier})
        alpha.update({e: gamma2[e] for e in am.a2.carrier})
        self.beta = extend_monotone_map(am.poset, target, alpha)

    def __call__(self, representative: Term) -> str:
        return self.beta(representative)

    def check_scheme(self, sch: Scheme) -> None:
        """A valid scheme must transport to a chain of target inequalities
        from its source's value to its target's, whose relation steps
        become equalities."""
        prev_val = self.beta(sch.source)
        for s in sch.steps:
            lv, rv = self.beta(s.left), self.beta(s.right)
            if lv != prev_val:
                raise WitnessInconsistency("scheme transport lost the chain")
            if isinstance(s, IneqStep):
                if not self.target.leq(lv, rv):
                    raise WitnessInconsistency("inequality step broke under the mediator")
            else:
                if lv != rv:
                    raise WitnessInconsistency("relation step not collapsed by the mediator")
            prev_val = rv
        if prev_val != self.beta(sch.target):
            raise WitnessInconsistency("scheme transport stops short of the target")

    def check_pair(self, result: ProvenEqual) -> None:
        self.check_scheme(result.forward)
        self.check_scheme(result.backward)
        if self.beta(result.forward.source) != self.beta(result.forward.target):
            raise WitnessInconsistency("mediator disagrees on a proven equality")


def mediate(am: Amalgam, target: OrderedAlgebra, gamma1: dict[str, str],
            gamma2: dict[str, str]) -> Mediator:
    """Mediating map for a commuting cocone; commutation checked pointwise."""
    h1 = Homomorphism(am.a1, target, gamma1)
    h2 = Homomorphism(am.a2, target, gamma2)
    for h, label in ((h1, "gamma1"), (h2, "gamma2")):
        require_monotone_hom(CommutationFailure(
            f"{label} is not a homomorphism of ordered algebras"), h)
    for z in am.c.carrier:
        if gamma1[am.phi1[z]] != gamma2[am.phi2[z]]:
            raise CommutationFailure(
                f"cocone does not commute at {z}: "
                f"{gamma1[am.phi1[z]]} != {gamma2[am.phi2[z]]}")
    return Mediator(am, target, gamma1, gamma2)


# -- Dominions and epis -----------------------------------------------------------

def dominion_special(sp: SpecialAmalgam, budget: Budget | None = None) -> dict[str, dict]:
    """Status of every base element against the pushout intersection.

    Shared-subalgebra elements are in the dominion outright; for the rest
    the certificate search must come back empty, and a found certificate
    is a contradiction with the theory, reported as a hard error.  The
    theory speaks only of the variety, so the base must lie in it.
    """
    if validate_algebra(sp.base):
        raise PreconditionFailed(f"{sp.base.name} is not in the variety")
    out = {}
    for x in sp.base.carrier:
        if x in sp.c.index:
            out[x] = {"status": "InC"}
            continue
        res = pushout_equal(sp, leaf(sp.alpha1[x]), leaf(sp.alpha2[x]), budget)
        if res.proven:
            raise TheoremContradiction(
                f"certificate equates the two copies of {x} outside the core")
        out[x] = {"status": "NoWitnessFound", "stats": res.stats.as_dict()}
    return out


@dataclass
class Separator:
    codomain: OrderedAlgebra
    f: Homomorphism
    g: Homomorphism
    element: str


def _separator_memo(alg: OrderedAlgebra) -> dict[tuple[int, ...], list]:
    """The per-base memo both separator stages read, in `all_congruences` order."""
    if "_separator_memo" not in alg.__dict__:
        alg.__dict__["_separator_memo"] = {theta: [] for theta in all_congruences(alg)}
    return alg.__dict__["_separator_memo"]


def separator_candidates(alg: OrderedAlgebra, max_size: int):
    """The codomains tried by the separator search before the complete one,
    with the homomorphisms into each: the regular quotients in the variety
    within the cap, lazily, in `all_congruences` order (fewest classes first),
    each kept in the memo (None outside the variety) with the maps into it.
    The walk stops at the first congruence with more classes than the cap, so
    no quotient above it is built.  Repeats come again, and having the first
    copy's maps they separate nothing new."""
    for theta, kept in _separator_memo(alg).items():
        if len(set(theta)) > max_size:
            return
        if not kept:
            quotient = _order_quotient(alg, relations.class_rows(theta))
            kept.append(None if quotient is None or validate_algebra(quotient[0])
                        else quotient[0])
        if kept[0] is not None:
            if len(kept) == 1:
                kept.append(all_homomorphisms(alg, kept[0]))
            yield kept[0], kept[1]


def _require_outside(alg: OrderedAlgebra, center: list[str], x: str) -> None:
    """Raise `PreconditionFailed` unless x lies outside the subalgebra center."""
    if x not in alg.index:
        raise PreconditionFailed(f"{x!r} is not in the carrier of {alg.name}")
    if x in center:
        raise PreconditionFailed(f"{x} already lies in the subalgebra")
    if set(center) - alg.index.keys() or set(generated_subalgebra(alg, center)) != set(center):
        raise PreconditionFailed(f"{sorted(center)} is not a subalgebra: not closed under the "
                                 f"operations or missing a constant")


def separator_search(alg: OrderedAlgebra, center: list[str], x: str,
                     max_size: int) -> Separator | None:
    """A pair of homomorphisms agreeing on the subalgebra but not at x.

    Regular quotients first (they give readable witnesses fast), then the
    complete joint search over all codomains up to the size cap, which
    alone decides whether a separator exists.  None means no separator
    exists at the cap; it never asserts that x is dominated.  Either
    stage's maps are rechecked as monotone homomorphisms before return.
    """
    _require_outside(alg, center, x)
    for cod, homs in separator_candidates(alg, max_size):
        by_restriction: dict[tuple, list[Homomorphism]] = {}
        for h in homs:
            key = tuple(h.map[c] for c in center)
            by_restriction.setdefault(key, []).append(h)
        for group in by_restriction.values():
            for f, g in itertools.combinations(group, 2):
                if f.map[x] != g.map[x]:
                    require_monotone_hom(WitnessInconsistency(
                        "regular separator produced a bad map"), f, g)
                    return Separator(cod, f, g, x)
    return exhaustive_separator(alg, center, x, max_size)


def _forced_table(cells: set[tuple[int, int]], arity: int, size: int,
                  rows: list[int]) -> list[int] | None:
    """A coded table on `size` elements, monotone for the bitmask `rows`,
    that holds the forced `(code, value)` cells, or None (also when two of
    them force one code): the first completion in `itertools.product`
    order over the free cells, by `_monotone_maps` with each cell paired
    with the cells above it.
    """
    forced = dict(cells)
    if len(forced) < len(cells):
        return None
    ups = [[j for j in range(size) if row >> j & 1] for row in rows]
    pairs_at: list[list[tuple[int, int]]] = [[] for _ in range(size ** arity)]
    for i, cell in enumerate(itertools.product(range(size), repeat=arity)):
        for j in _codes([ups[a] for a in cell], size):
            if j != i:
                pairs_at[max(i, j)].append((i, j))
    domains = [[forced[i]] if i in forced else range(size) for i in range(size ** arity)]
    return next(_monotone_maps(domains, pairs_at, rows), None)


def _first_maps(alg: OrderedAlgebra, max_size: int):
    """The congruences of at most max_size classes, labelled by first occurrence, in
    sorted class-tuple order: the `itertools.product` order of the labellings."""
    for theta in sorted(t for t in _separator_memo(alg) if len(set(t)) <= max_size):
        yield tuple(map(sorted(set(theta)).index, theta))


def _second_maps(alg: OrderedAlgebra, h1: tuple, core: list[int], ix: int, max_size: int):
    """The maps into range(max_size) agreeing with h1 on the core but not at ix whose kernel
    is a congruence, in `itertools.product` order: `_monotone_maps` over the prefixes of the
    memo's class tuples, a core class read as its label and any other as -1 - its least index."""
    labels, keys = {h1[i] for i in core}, set()
    for theta in _separator_memo(alg):
        if len(fixed := {theta[i]: h1[i] for i in core}) == len(labels):  # one core class a label
            keys.update(itertools.accumulate((fixed.get(r, -1 - r),) for r in theta))
    domains = [[v] if i in core else [u for u in range(max_size) if i != ix or u != v]
               for i, v in enumerate(h1)]
    return map(tuple, _monotone_maps(domains, [()] * len(h1), (), lambda i, h2: tuple(
        v if v in labels else -1 - h2.index(v) for v in h2[:i + 1]) in keys))


def exhaustive_separator(alg: OrderedAlgebra, center: list[str], x: str,
                         max_size: int) -> Separator | None:
    """Complete search over all codomains of at most max_size elements,
    the separator search's last stage after the regular quotients.

    Enumerates the two maps jointly: the first over `_first_maps` (the rest either
    force two values into one table cell or relabel the codomain), the second over
    `_second_maps`, the same congruences labelled to agree with the first only on
    the core, which x lies outside.  The codomain's order can be taken as the least
    quasiorder making both maps monotone and ordering the constants as the signature
    does, and its tables as any monotone completion of the entries the homomorphism
    conditions force.  Any separator at the cap is found this way.  The maps, order
    and tables are coded; the codomain is named d0, d1, ... once it is found.
    """
    _require_outside(alg, center, x)
    names, identity = [f"d{i}" for i in range(max_size)], [1 << v for v in range(max_size)]
    consts = {c: alg.index[alg.const(c)] for c in alg.sig.constants()}
    const_pairs = [(consts[c], consts[d]) for c, d in alg.sig.const_order if c != d]
    core, ix = [alg.index[e] for e in center], alg.index[x]
    strict = [pair for pairs in alg.hom_plan[0] for pair in pairs]

    def cells(h, f, k):
        """The `(code, value)` cells of f's table that h commuting with f forces."""
        return {(c, h[v]) for c, v in zip(_codes([h] * k, max_size), alg.coded.tables[f])}

    for h1 in _first_maps(alg, max_size):
        forced = {f: cells(h1, f, k) for f, k in alg.sig.operations()}
        for h2 in _second_maps(alg, h1, core, ix, max_size):
            rows = list(identity)
            for h, pairs in ((h1, strict), (h2, strict), (h1, const_pairs)):
                for a, b in pairs:
                    rows[h[a]] |= 1 << h[b]
            rows = relations.warshall(rows)
            if relations.symmetric_part(rows) != identity:
                continue
            tables = {}
            for f, k in alg.sig.operations():
                tables[f] = _forced_table(forced[f] | cells(h2, f, k), k, max_size, rows)
                if tables[f] is None:
                    break
            else:
                cod = OrderedAlgebra(alg.sig, names, relations.from_rows(rows, names),
                                     {f: dict(zip(itertools.product(names, repeat=k),
                                                  map(names.__getitem__, tables[f])))
                                      for f, k in alg.sig.operations()},
                                     {c: names[h1[i]] for c, i in consts.items()},
                                     name=f"S{max_size}")
                if validate_algebra(cod):
                    raise WitnessInconsistency("exhaustive separator built a bad codomain")
                f_hom, g_hom = (Homomorphism(alg, cod, {e: names[v] for e, v in
                                                        zip(alg.carrier, h)}) for h in (h1, h2))
                require_monotone_hom(WitnessInconsistency(
                    "exhaustive separator produced a bad map"), f_hom, g_hom)
                return Separator(cod, f_hom, g_hom, x)
    return None


@dataclass
class EpiReport:
    verdict: str                      # Surjective | NotEpi | Inconclusive
    separator: Separator | None = None
    missing: list[str] = field(default_factory=list)


def epi_check(h: Homomorphism, max_size: int) -> EpiReport:
    """Surjectivity, or an explicit pair of morphisms splitting the image.

    A separator found for any element outside the image shows the map is
    not an epimorphism; trivial-order algebras are supported unchanged.
    Both algebras must lie in the variety, and the map must be a
    monotone homomorphism.
    """
    for alg in (h.dom, h.cod):
        if validate_algebra(alg):
            raise PreconditionFailed(f"{alg.name} is not in the variety")
    require_monotone_hom(NotAHomomorphism("epi check needs a monotone homomorphism"), h)
    image = h.image()
    missing = [e for e in h.cod.carrier if e not in image]
    if not missing:
        return EpiReport("Surjective")
    for x in missing:
        sep = separator_search(h.cod, image, x, max_size)
        if sep is not None:
            return EpiReport("NotEpi", separator=sep, missing=missing)
    return EpiReport("Inconclusive", missing=missing)


# -- File format ------------------------------------------------------------------

def parse_amalgam(text: str, base_dir: str | FsPath = ".") -> Amalgam:
    """Parse the `.amalgam` format.

    Either a single `special over <oalg> seed e0 e1 ...` line, or `left`,
    `right`, `center` file references plus `embed phi1: c -> e` lines.
    """
    algs: dict[str, OrderedAlgebra] = {}
    phi1: dict[str, str] = {}
    phi2: dict[str, str] = {}
    for tokens, line in records(text):
        if tokens[0] == "special":
            base_file, = match("special over _", tokens[:3], line)
            if tokens[3:4] not in ([], ["seed"]):
                raise ParseError(f"malformed special line: {line!r}")
            base = load_algebra(FsPath(base_dir) / base_file)
            seed = tokens[4:]
            unknown = [e for e in seed if e not in base.index]
            if unknown:
                raise ParseError(f"seed elements {unknown} not in the carrier")
            return make_special(base, seed)
        if tokens[0] in ("left", "right", "center"):
            path, = match(f"{tokens[0]} _", tokens, line)
            algs[tokens[0]] = load_algebra(FsPath(base_dir) / path)
        elif tokens[0] == "embed":
            name, c, e = match("embed _ _ -> _", tokens, line)
            if name not in ("phi1:", "phi2:"):
                raise ParseError(f"malformed embed line: {line!r}")
            phi = phi1 if name == "phi1:" else phi2
            if c in phi:
                raise ParseError(f"second embed line for {c}: {line!r}")
            phi[c] = e
        else:
            raise ParseError(f"unknown line {line!r}")
    if len(algs) < 3:
        raise ParseError("amalgam needs left, right and center algebras")
    left, right, center = algs["left"], algs["right"], algs["center"]
    if not left.sig == right.sig == center.sig:
        raise ParseError("left, right and center are not over one signature")
    missing = [c for c in center.carrier if c not in phi1 or c not in phi2]
    if missing:
        raise ParseError(f"embeddings not total on {missing}")
    for name, phi, side in (("phi1", phi1, left), ("phi2", phi2, right)):
        outside = [c for c in phi if c not in center.index]
        if outside:
            raise ParseError(f"{name} sources {outside} not in the center {center.name}")
        outside = [e for e in phi.values() if e not in side.index]
        if outside:
            raise ParseError(f"{name} values {outside} not in {side.name}")
    return Amalgam(center, left, right, phi1, phi2)


def load_amalgam(path: str | FsPath) -> Amalgam:
    p = FsPath(path)
    return parse_amalgam(p.read_text(), base_dir=p.parent)
