"""Amalgams of ordered algebras, their pushout, dominions, and epi checks.

The pushout of two algebras over a shared subalgebra is never materialized
(its carrier is a quotient of an infinite term algebra); every question
about it is answered by a budgeted certificate search.  A found scheme is
a checkable proof; exhausting the budget is reported as Unknown and never
as a refutation.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import asdict, dataclass, field, fields
from functools import cache, partial, reduce
from pathlib import Path as FsPath

from . import algebra, relations
from .algebra import (
    _codes,
    _image,
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
    SizeLimit,
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
    leaf,
    leaves,
    replace_at,
    skeleton,
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

    def collapse_eval(self, t: Term) -> str:
        """Evaluate a mixed term in side 1 after collapsing the copies.

        Any scheme from s to t forces collapse_eval(s) <= collapse_eval(t),
        which is what makes this map a sound check at the root of the
        search.
        """
        return evaluate(self.a1, t, self._collapse_env)

    def center_of_side1(self, label: str) -> str | None:
        return self._img1.get(label)


def make_special(base: OrderedAlgebra, seed) -> SpecialAmalgam:
    """Special amalgam over the subalgebra generated by the seed."""
    return SpecialAmalgam(base, generated_subalgebra(base, seed))


# -- The pushout search --------------------------------------------------------

@dataclass
class Budget:
    """Search budget.  max_scheme_len bounds the moves of a certificate,
    both ends of the search together (each raise or lower fused with one
    relation step; the inequality where the ends meet is free); max_nodes
    bounds the candidates generated over both ends, repeats included.
    Exceeding the node cap is folded into Unknown together with the
    statistics.

    No search reads max_term_ops or max_unfold_ops, since no move makes
    a term larger; they keep their defaults because the benchmark's
    workloads build a Budget with both, until that pin is dropped."""

    max_term_ops: int = 4
    max_scheme_len: int = 8
    max_nodes: int = 20_000
    max_unfold_ops: int = 2


@dataclass
class SearchStats:
    """What a search did, over both of its ends: `nodes_expanded` counts
    the states whose moves were generated, `nodes_generated` the moves,
    repeats of a reached state included (max_nodes + 1 when the cap ended
    the search); `depth_reached` is the deeper end's depth, at most
    max_scheme_len; `capped` says that the node cap ended the search.
    `pruned` reads 0, since nothing is pruned below the root; the
    benchmark's workloads sum it, until that pin is dropped."""

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


def _achievable_values(am: Amalgam, t: Term, side: int, up: bool) -> dict[str, Term]:
    """Values reachable by raising leaves of t (lowering, when not `up`)
    and evaluating on `side`, with one witness raised term per value.
    Symbol leaves stay fixed.

    A composite term's map is built from its children's, taken from
    `_achievable_cached`, so each subterm's values are worked out once
    per amalgam, side and direction; a side leaf's witnesses are the
    amalgam's shared leaves."""
    alg = am.side(side)
    if t.is_leaf:
        cls = am.label_class(t.label)
        if cls == 0:
            return {alg.const(t.label): t}
        if cls != side:
            return {}
        return {b: am.leaf_of[b] for b in (alg.up_set if up else alg.down_set)(t.label)}
    child_items = [_achievable_cached(am, c, side, up) for c in t.children]
    if not all(child_items):
        return {}
    table = alg.op_tables[t.label]
    out: dict[str, Term] = {}
    for combo in itertools.product(*child_items):
        value = table[tuple(v for v, _ in combo)]
        if value not in out:
            out[value] = Term(t.label, tuple(w for _, w in combo))
    return out


def _achievable_cached(am: Amalgam, sub: Term, side: int, up: bool) -> list[tuple[str, Term]]:
    """The items of `_achievable_values`, sorted by value.  Cached per
    amalgam, one entry per subterm, side and direction: the maps of a
    subterm's children, leaves included, are entries too."""
    cache = am.__dict__.setdefault("_achievable_cache", {})
    key = (sub, side, up)
    items = cache.get(key)
    if items is None:
        items = cache[key] = sorted(_achievable_values(am, sub, side, up).items())
    return items


def _subterms(u: Term) -> list[tuple[tuple[int, ...], Term]]:
    """`(path, subterm)` for every node of u, in preorder (the order of
    `terms.all_paths`), from one walk down from the root."""
    out, todo = [], [((), u)]
    while todo:
        path, sub = todo.pop()
        out.append((path, sub))
        todo.extend((path + (i,), c) for i, c in reversed(tuple(enumerate(sub.children))))
    return out


def _moves(am: Amalgam, u: Term, up: bool):
    """The moves out of u, `(path, witness, tag, new)`: the subterm of u at
    `path` is raised to `witness` (lowered, when not `up`), which `tag`
    rewrites to the leaf `new`; the successor is `replace_at(u, path, new)`.
    Deterministic order: folds on side 1 then side 2, each over u's
    composite subterms in preorder and their values in carrier order, then
    glue swaps at side leaves in preorder.  No move makes a term larger.

    Lowered moves are the order dual, read from the same amalgam's
    down-sets: they are the backward search's, whose steps are reversed
    when its certificate is built.  The fold values of each subterm, side
    and direction are cached per amalgam (`_achievable_cached`); the up-
    and down-sets are the sides' tables, the glue partners the amalgam's.
    """
    leaf_of, nodes = am.leaf_of, _subterms(u)
    for side, tag in ((1, "EV1"), (2, "EV2")):
        for path, sub in nodes:
            if sub.children:
                for value, witness in _achievable_cached(am, sub, side, up):
                    yield path, witness, tag, leaf_of[value]
    for path, sub in nodes:
        if not sub.children:
            cls = am.label_class(sub.label)
            if cls:
                alg = am.side(cls)
                for b in alg.up_set(sub.label) if up else alg.down_set(sub.label):
                    partner = am.glue.get(b)
                    if partner is not None:
                        yield path, leaf_of[b], partner[0], leaf_of[partner[1]]


# The relation read backwards: a fold is an unfold, a glue swap the other.
_INVERSE = {"EV1": "EV1INV", "EV2": "EV2INV", "GLUE": "GLUEINV", "GLUEINV": "GLUE"}


def _fused_steps(u: Term, path: tuple[int, ...], witness: Term, tag: str,
                 new: Term, up: bool) -> list[Step]:
    """The certificate steps of one move out of u: the raise of the subterm
    at `path` to `witness`, unless it is trivial, then the relation step.
    A lowered move is read backwards, from its successor to u: the inverse
    relation step to `witness`, then the inequality up to u."""
    moved = replace_at(u, path, witness)
    ineq = [IneqStep(u, moved) if up else IneqStep(moved, u)] if moved != u else []
    if up:
        return ineq + [make_rel(tag, moved, path, new)]
    return [make_rel(_INVERSE[tag], replace_at(u, path, new), path, witness)] + ineq


def pushout_leq(am: Amalgam, s: Term, t: Term,
                budget: Budget | None = None) -> Proven | Unknown:
    """Search for a certificate that s precedes t in the pushout order.

    A search from both ends (Pohl, *Bi-directional search*, 1971) over the
    fused moves of `_moves`, which only fold and glue: the forward end
    grows from s by raising moves, the backward end from t by lowering
    ones, the order dual.  Each step expands one whole level of the end
    whose frontier is smaller (the forward end on a tie), and each end may
    go to depth `max_scheme_len`.  Every reached state remembers only the
    move that first reached it.  The ends meet at the first new state f of
    the forward end below (`term_leq`) a state b of the backward end of
    the same skeleton, or b above such an f, where f's depth plus b's is
    at most `max_scheme_len`; the certificate is f's steps, the inequality
    f <= b, then b's steps reversed (`_fused_steps`), checked by
    `assert_valid`.  No move makes a term larger, so both ends are finite.
    Unknown covers both ends exhausted and the node cap hit; the stats say
    which.

    On a special amalgam, collapse(s) not below collapse(t) (both copies
    mapped to the first, `SpecialAmalgam.collapse_eval`) ends the search
    at the root, since no scheme can then reach t.
    """
    budget = budget or Budget()
    stats = SearchStats()
    collapse = getattr(am, "collapse_eval", None)
    if collapse and not am.a1.leq(collapse(s), collapse(t)):
        return Unknown(stats)
    # Per end (forward, backward): each reached state's move and depth,
    # the reached states by skeleton, the frontier and its depth.
    back: tuple[dict, dict] = ({s: None}, {t: None})
    depth: tuple[dict, dict] = ({s: 0}, {t: 0})
    shapes: tuple[dict, dict] = ({skeleton(s): [s]}, {skeleton(t): [t]})
    frontier, level = [[s], [t]], [0, 0]

    def finish(f: Term, b: Term) -> Proven:
        steps: list[Step] = [IneqStep(f, b)] if f != b else []
        for end, cur in enumerate((f, b)):
            while back[end][cur] is not None:
                part = _fused_steps(*back[end][cur], up=not end)
                steps = part + steps if end == 0 else steps + part
                cur = back[end][cur][0]
        sch = Scheme(s, t, tuple(steps))
        assert_valid(am, sch, "search result")
        return Proven(sch, stats)

    if am.term_leq(s, t):
        return finish(s, t)
    while True:
        open_ends = [end for end in (0, 1)
                     if frontier[end] and level[end] < budget.max_scheme_len]
        if not open_ends:
            return Unknown(stats)
        end = min(open_ends, key=lambda e: len(frontier[e]))
        other, d = 1 - end, level[end] + 1
        level[end] = d
        stats.depth_reached = max(stats.depth_reached, d)
        reached, grown = back[end], []
        for u in frontier[end]:
            stats.nodes_expanded += 1
            for path, witness, tag, new in _moves(am, u, end == 0):
                if stats.nodes_generated == budget.max_nodes:
                    stats.nodes_generated += 1
                    stats.capped = True
                    return Unknown(stats)
                stats.nodes_generated += 1
                v = replace_at(u, path, new)
                if v in reached:
                    continue
                reached[v] = (u, path, witness, tag, new)
                depth[end][v] = d
                grown.append(v)
                key = skeleton(v)
                shapes[end].setdefault(key, []).append(v)
                for w in shapes[other].get(key, ()):
                    if depth[other][w] + d <= budget.max_scheme_len:
                        f, b = (v, w) if end == 0 else (w, v)
                        if am.term_leq(f, b):
                            return finish(f, b)
        frontier[end] = grown


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


def separator_candidates(alg: OrderedAlgebra, max_size: int):
    """The codomains of the separator's regular stage, with the homomorphisms
    into each: the regular quotients in the variety within the cap, lazily, in
    `all_congruences` order (fewest classes first).  The per-base memo
    `alg.__dict__["_separator_memo"]` maps each congruence to a list holding
    its quotient (None outside the variety) once a walk reaches it, then the
    maps into it.  The walk stops at the first congruence with more classes
    than the cap, so no quotient above it is built.  Repeats come again, and
    having the first copy's maps they separate nothing new."""
    memo = alg.__dict__.get("_separator_memo")
    if memo is None:
        memo = alg.__dict__["_separator_memo"] = {theta: [] for theta in all_congruences(alg)}
    for theta, kept in memo.items():
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
    """A pair of homomorphisms agreeing on the subalgebra but not at x, into
    a regular quotient of alg of at most max_size elements.

    The quotients come fewest classes first, so a separator found is a
    smallest separating quotient.  None means that no regular quotient
    within the cap separates x; it never asserts that x is dominated, and
    `exhaustive_separator` separates every such x.  The maps are rechecked
    as monotone homomorphisms before return.
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
    return None


def glued_completion(am: Amalgam) -> tuple[OrderedAlgebra, Homomorphism, Homomorphism]:
    """A cocone (L, g1, g2) of a valid amalgam A1 <- C -> A2 into which both
    sides order-embed and in which they meet exactly in C: the glued
    Dedekind–MacNeille completion (MacNeille, *Partially ordered sets*, 1937).

    D0 is A1 followed by A2 outside phi2(C), iota_i placing side i, under the
    transitive closure of both orders.  A cut is an intersection of principal
    down-sets, D0 included, held as a bitmask; L is the algebra of cuts under
    inclusion generated by the principal ones, where f(X) is the cut closure
    of the iota_i(f_i(a)) over the tuples a of either side with each
    iota_i(a_j) in X_j, and g_i(a) is the down-set of iota_i(a).  A chain in
    D0 between the sides passes through C, and the phi_i reflect the order,
    so D0 is a partial order that keeps each side's order; iota_1(x) <=
    iota_2(y) through c gives f_1(x) <= f_1(c) = f_2(c) <= f_2(y), so each g_i
    is a homomorphism; the operations are monotone, and the constants lie in
    C.  An operation reads each argument only through its part on each side,
    so the values come from a memo keyed by those parts.  Raises
    `PreconditionFailed` unless `validate_amalgam(am)` is empty, and
    `SizeLimit` as soon as D0 or L would pass `algebra.MAX_CARRIER`; L and
    both maps are rechecked before return.
    """
    if validate_amalgam(am):
        raise PreconditionFailed(f"{am.a1.name} <- {am.c.name} -> {am.a2.name} "
                                 f"is not a valid amalgam")
    sides, names = (am.a1, am.a2), list(am.a1.carrier)
    place = {am.phi2[z]: am.a1.index[am.phi1[z]] for z in am.c.carrier}
    iotas = (list(range(len(names))), [])
    for e in am.a2.carrier:
        if e not in place:
            place[e] = len(names)
            names.append(e)
        iotas[1].append(place[e])
    size, limit, full = len(names), algebra.MAX_CARRIER, (1 << len(names)) - 1
    if size > limit:
        raise SizeLimit(f"the glued poset has {size} elements (> {limit})")
    rows = [1 << d for d in range(size)]
    for side, iota in zip(sides, iotas):
        for a, row in zip(iota, side.coded.rows):
            rows[a] |= sum(1 << b for j, b in enumerate(iota) if row >> j & 1)
    rows = relations.warshall(rows)
    downs = [sum(1 << e for e in range(size) if rows[e] >> d & 1) for d in range(size)]

    @cache
    def closure(upper: int) -> int:
        return reduce(operator.and_, (downs[d] for d in range(size) if upper >> d & 1), full)

    @cache
    def upper(f: str, i: int, parts: tuple) -> int:
        """The common upper bounds of f's values on side i's tuples from parts."""
        table, n = sides[i].coded.tables[f], len(sides[i].carrier)
        return reduce(operator.and_, (rows[iotas[i][table[c]]] for c in _codes(parts, n)), full)

    pos = {cut: i for i, cut in enumerate(downs)}
    parts: tuple[list, list] = ([], [])       # each cut's elements on each side
    tables: dict[str, dict] = {f: {} for f, _ in am.sig.operations()}
    done = 0
    while done < len(pos):
        for iota, part in zip(iotas, parts):
            part += [tuple(j for j, d in enumerate(iota) if cut >> d & 1)
                     for cut in list(pos)[len(part):]]
        reached = len(pos)
        for f, k in am.sig.operations():
            for args in itertools.product(range(reached), repeat=k):
                if max(args) >= done:
                    cut = closure(upper(f, 0, tuple(parts[0][a] for a in args))
                                  & upper(f, 1, tuple(parts[1][a] for a in args)))
                    if cut not in pos and len(pos) == limit:
                        raise SizeLimit(f"the glued completion passes {limit} elements")
                    tables[f][args] = pos.setdefault(cut, len(pos))
        done = reached
    cuts = list(pos)
    names += ["{" + ",".join(names[d] for d in range(size)
                             if cut >> d & 1 and rows[d] & cut == 1 << d) + "}"
              for cut in cuts[size:]]
    L = OrderedAlgebra(am.sig, names, {(names[i], names[j]) for i, a in enumerate(cuts)
                                       for j, b in enumerate(cuts) if a & ~b == 0},
                       {f: {tuple(map(names.__getitem__, args)): names[v]
                            for args, v in table.items()} for f, table in tables.items()},
                       {c: names[am.a1.index[am.a1.const(c)]] for c in am.sig.constants()},
                       name="L")
    g1, g2 = (Homomorphism(side, L, {e: names[d] for e, d in zip(side.carrier, iota)})
              for side, iota in zip(sides, iotas))
    if (validate_algebra(L) or not all(all(check_homomorphism(g).values()) for g in (g1, g2))
            or any(g1.map[am.phi1[z]] != g2.map[am.phi2[z]] for z in am.c.carrier)):
        raise WitnessInconsistency("the glued completion failed its recheck")
    return L, g1, g2


def exhaustive_separator(alg: OrderedAlgebra, center: list[str], x: str) -> Separator:
    """The separator's complete stage: the glued completion of the special
    amalgam of alg over the subalgebra center, through both copies.  It
    separates every element outside center, so it needs no cap; it raises
    `SizeLimit` where the completion does, and `PreconditionFailed` unless
    alg lies in the variety and x outside the subalgebra center.
    """
    _require_outside(alg, center, x)
    sp = SpecialAmalgam(alg, center)
    L, g1, g2 = glued_completion(sp)
    f, g = (Homomorphism(alg, L, {e: gi.map[alpha[e]] for e in alg.carrier})
            for gi, alpha in ((g1, sp.alpha1), (g2, sp.alpha2)))
    if f.map[x] == g.map[x] or any(f.map[z] != g.map[z] for z in center):
        raise WitnessInconsistency(f"the glued completion does not separate {x}")
    return Separator(L, f, g, x)


@dataclass
class EpiReport:
    verdict: str                      # Surjective | NotEpi | Inconclusive
    separator: Separator | None = None
    missing: list[str] = field(default_factory=list)


def epi_check(h: Homomorphism, max_size: int) -> EpiReport:
    """Surjectivity, or an explicit pair of morphisms splitting the image.

    Every element outside the image is first offered to the regular stage
    (`separator_search` within max_size); if none is separated there, the
    glued completion separates the first missing element, whatever the cap.
    So a map that is not surjective is NotEpi, with the separator found, and
    the verdict is Inconclusive only when the completion passes
    `algebra.MAX_CARRIER`.  Trivial-order algebras are supported unchanged.
    Both algebras must lie in the variety, and the map must be a monotone
    homomorphism.
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
    try:
        sep = exhaustive_separator(h.cod, image, missing[0])
    except SizeLimit:
        return EpiReport("Inconclusive", missing=missing)
    return EpiReport("NotEpi", separator=sep, missing=missing)


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
