"""Seeded random instances: posets, monotone tables, algebras, amalgams,
and padded certificates for exercising the normalizer.

Everything is driven by an explicit random.Random so identical seeds give
identical corpora.
"""

from __future__ import annotations

import itertools
import random

from . import relations
from .algebra import (
    OrderedAlgebra,
    all_homomorphisms,
    chain,
    validate_algebra,
)
from .amalgam import SpecialAmalgam, make_special
from .schemes import IneqStep, RelStep, Scheme, Step, make_rel, validate_scheme
from .signature import Signature
from .terms import Term, compositions, leaf, subterm_at
from .termorder import VarPoset


def random_partial_order(rng: random.Random, elements: list[str]) -> frozenset:
    """A random partial order: random edges, closed, resampled on cycles."""
    n = len(elements)
    while True:
        pairs = set()
        for a in elements:
            for b in elements:
                if a != b and rng.random() < 1.5 / max(1, n):
                    pairs.add((a, b))
        closed = relations.reflexive_transitive_closure(pairs, elements)
        if relations.is_antisymmetric(closed):
            return closed


def random_monotone_table(rng: random.Random, carrier: list[str], order: frozenset,
                          arity: int, retries: int = 40) -> dict[tuple[str, ...], str]:
    """A random operation table monotone for the given order.

    Tuples are filled along a linear extension; each value is drawn from
    the common up-set of the already-assigned lower neighbours.  Falls
    back to a constant table when sampling keeps dead-ending.
    """
    index = {e: i for i, e in enumerate(carrier)}
    rank = {e: (sum(1 for x in carrier if (x, e) in order), index[e]) for e in carrier}
    tuples = sorted(itertools.product(carrier, repeat=arity),
                    key=lambda t: (sum(rank[x][0] for x in t), t))
    for _ in range(retries):
        table: dict[tuple[str, ...], str] = {}
        ok = True
        for args in tuples:
            lower = [table[other] for other in table
                     if all((o, a) in order for o, a in zip(other, args))]
            candidates = [v for v in carrier
                          if all((lo, v) in order for lo in lower)]
            if not candidates:
                ok = False
                break
            table[args] = rng.choice(candidates)
        if ok:
            return table
    bottom = min(carrier, key=lambda e: rank[e])
    return {args: bottom for args in itertools.product(carrier, repeat=arity)}


def random_algebra(rng: random.Random, sig: Signature, size: int,
                   name: str = "R") -> OrderedAlgebra:
    """A random algebra in the constant-inequality variety.

    Mixes three strategies for diversity: trivial order with arbitrary
    tables, a chain with random monotone tables, and a random poset with
    random monotone tables.
    """
    carrier = [f"e{i}" for i in range(size)]
    strategy = rng.randrange(3)
    if strategy == 0:
        order = relations.identity(carrier)
    elif strategy == 1:
        order = frozenset((a, b) for i, a in enumerate(carrier)
                          for b in carrier[i:])
    else:
        order = random_partial_order(rng, carrier)
    tables = {}
    for f, k in sig.operations():
        if strategy == 0:
            tables[f] = {args: rng.choice(carrier)
                         for args in itertools.product(carrier, repeat=k)}
        else:
            tables[f] = random_monotone_table(rng, carrier, order, k)
    consts = {}
    names = sorted(sig.constants())
    for c in names:
        consts[c] = rng.choice(carrier)
    # Re-draw constants until the declared inequalities hold.
    for _ in range(200):
        if all(c == d or (consts[c], consts[d]) in order
               for (c, d) in sig.const_order):
            break
        for c in names:
            consts[c] = rng.choice(carrier)
    else:
        bottom = carrier[0]
        consts = {c: bottom for c in names}
    alg = OrderedAlgebra(sig, carrier, order, tables, consts, name=name)
    assert not validate_algebra(alg)
    return alg


def random_relation(rng: random.Random, carrier: list[str], max_pairs: int) -> frozenset:
    k = rng.randrange(max_pairs + 1)
    pairs = set()
    for _ in range(k):
        pairs.add((rng.choice(carrier), rng.choice(carrier)))
    return frozenset(pairs)


def join_chain_algebra(rng: random.Random, sig: Signature, size: int,
                       name: str = "J") -> OrderedAlgebra:
    """A chain with join operations and randomly placed ordered constants."""
    base = chain(size, sig)
    names = sorted(sig.constants())
    consts = {c: rng.choice(base.carrier) for c in names}
    while not all(c == d or base.leq(consts[c], consts[d]) for (c, d) in sig.const_order):
        consts = {c: rng.choice(base.carrier) for c in names}
    return OrderedAlgebra(sig, base.carrier, base.order, base.op_tables, consts, name=name)


def random_special_amalgam(rng: random.Random, sig: Signature,
                           max_size: int) -> SpecialAmalgam:
    """Special amalgam over a random base with a random generated core.

    The base mix leans on trivially ordered and chain-shaped algebras:
    sparse random posets often have no separating codomain at the desk
    size cap at all (verified by exhaustive search), so they appear at a
    lower rate to keep separator statistics meaningful.
    """
    size = rng.randrange(2, max_size + 1)
    style = rng.random()
    if style < 0.25:
        base = join_chain_algebra(rng, sig, size, name=f"J{size}")
    else:
        # Proper non-chain posets need at least three elements.
        strategies = [0, 1] if style < 0.85 or size < 3 else [2]
        base = _random_algebra_styled(rng, sig, size, strategies, name=f"B{size}")
    seed_count = rng.randrange(0, size)
    seed = rng.sample(base.carrier, seed_count)
    return make_special(base, seed)


def _random_algebra_styled(rng: random.Random, sig: Signature, size: int,
                           strategies: list[int], name: str) -> OrderedAlgebra:
    while True:
        alg = random_algebra(rng, sig, size, name=name)
        strict = {p for p in alg.order if p[0] != p[1]}
        chain_like = all((a, b) in alg.order or (b, a) in alg.order
                         for a in alg.carrier for b in alg.carrier)
        style = 0 if not strict else (1 if chain_like else 2)
        if style in strategies:
            return alg


def random_var_poset(rng: random.Random, count: int) -> VarPoset:
    names = tuple(f"x{i}" for i in range(1, count + 1))
    return VarPoset(names, random_partial_order(rng, list(names)))


def random_monotone_map(rng: random.Random, xp: VarPoset,
                        target: OrderedAlgebra, retries: int = 400) -> dict[str, str] | None:
    for _ in range(retries):
        alpha = {x: rng.choice(target.carrier) for x in xp.names}
        if all(target.leq(alpha[a], alpha[b]) for (a, b) in xp.order):
            return alpha
    return None


def commuting_cocones(rng: random.Random, sp: SpecialAmalgam, count: int,
                      max_size: int = 4) -> list[tuple[OrderedAlgebra, dict, dict]]:
    """Pairs of homomorphisms out of the two copies agreeing on the core.

    Always includes the copy-collapsing cocone into the base algebra, then
    adds randomly sampled ones into random variety algebras.
    """
    out = []
    untag = lambda e: e.split("<")[0]
    g1 = {e: untag(e) for e in sp.a1.carrier}
    g2 = {e: untag(e) for e in sp.a2.carrier}
    out.append((sp.base, g1, g2))
    attempts = 0
    while len(out) < count and attempts < count * 30:
        attempts += 1
        target = random_algebra(rng, sp.sig, rng.randrange(1, max_size + 1), name="D")
        homs1 = all_homomorphisms(sp.a1, target)
        if not homs1:
            continue
        h1 = rng.choice(homs1)
        needed = {sp.phi2[z]: h1.map[sp.phi1[z]] for z in sp.c.carrier}
        homs2 = [h for h in all_homomorphisms(sp.a2, target)
                 if all(h.map[k] == v for k, v in needed.items())]
        if not homs2:
            continue
        h2 = rng.choice(homs2)
        out.append((target, h1.map, h2.map))
    return out


# -- Padded certificates -------------------------------------------------------

def unfold_pool(alg: OrderedAlgebra, width: int) -> dict[str, list[Term]]:
    """Every composite term of 1 to width operations over alg's elements,
    by value, each list by operation count, then operation, split of the
    other operations over the children, children's values in carrier order
    and children's terms.  Each count's terms of one value are built once,
    from a shape (operation, split, children's values) at a time."""
    layers: dict[tuple[int, str], list[Term]] = {(0, e): [leaf(e)] for e in alg.carrier}
    for n in range(1, width + 1):
        for f, k in alg.sig.operations():
            for split in compositions(n - 1, k):
                for vals in itertools.product(alg.carrier, repeat=k):
                    kids = [layers.get((m, v)) for m, v in zip(split, vals)]
                    if all(kids):
                        layers.setdefault((n, alg.op(f, vals)), []).extend(
                            Term(f, ks) for ks in itertools.product(*kids))
    pool: dict[str, list[Term]] = {}
    for (n, value), terms in layers.items():
        if n:
            pool.setdefault(value, []).extend(terms)
    return pool


def _glue_step(sp: SpecialAmalgam, t: Term, path) -> RelStep:
    tag, other = sp.glue[subterm_at(t, path).label]
    return make_rel(tag, t, path, leaf(other))


def padded_glue_scheme(rng: random.Random, sp: SpecialAmalgam, z: str,
                       recipe: str) -> Scheme | None:
    """A valid certificate for the glue pair of z with a synthetic detour.

    Recipes: "proper" unfolds and refolds in place; "nested" folds an
    inner subterm first; "disjoint" interleaves two unrelated positions;
    "cross" carries the unfolded term across the glue leafwise.  Returns
    None when the amalgam offers no unfolding for the needed value.
    """
    def unfolds(value: str, width: int) -> list[Term]:
        """The side-1 terms of value with 1 to width operations."""
        pools = sp.__dict__.setdefault("_unfold_pools", {})
        if width not in pools:
            pools[width] = unfold_pool(sp.a1, width)
        return pools[width].get(value, [])

    x1 = sp.phi1[z]
    x2 = sp.phi2[z]
    pool = unfolds(x1, 2)
    base_glue = make_rel("GLUE", leaf(x1), (), leaf(x2))
    if recipe == "proper":
        if not pool:
            return None
        w = rng.choice(pool)
        steps = (make_rel("EV1INV", leaf(x1), (), w),
                 make_rel("EV1", w, (), leaf(x1)),
                 base_glue)
    elif recipe == "nested":
        shallow = [t for t in pool if not t.is_leaf]
        if not shallow:
            return None
        w = rng.choice(shallow)
        idx = rng.randrange(len(w.children))
        child = w.children[idx]
        sub_pool = unfolds(child.label, 1) if child.is_leaf else []
        if not sub_pool:
            return None
        deep = Term(w.label, tuple(rng.choice(sub_pool) if i == idx else ch
                                   for i, ch in enumerate(w.children)))
        steps = (make_rel("EV1INV", leaf(x1), (), deep),
                 make_rel("EV1", deep, (idx,), child),
                 make_rel("EV1", w, (), leaf(x1)),
                 base_glue)
    elif recipe == "disjoint":
        two_wide = [t for t in pool if len(t.children) >= 2
                    and all(c.is_leaf for c in t.children)]
        if not two_wide:
            return None
        w = rng.choice(two_wide)
        p0, p1 = 0, len(w.children) - 1
        pool0 = unfolds(w.children[p0].label, 1)
        pool1 = unfolds(w.children[p1].label, 1)
        if not pool0 or not pool1:
            return None
        sub0, sub1 = rng.choice(pool0), rng.choice(pool1)
        t1 = w
        t2 = Term(w.label, tuple(sub1 if i == p1 else c for i, c in enumerate(w.children)))
        t3 = Term(w.label, tuple(sub0 if i == p0 else (sub1 if i == p1 else c)
                                 for i, c in enumerate(w.children)))
        t4 = Term(w.label, tuple(sub0 if i == p0 else c for i, c in enumerate(w.children)))
        steps = (make_rel("EV1INV", leaf(x1), (), t1),
                 make_rel("EV1INV", t1, (p1,), sub1),
                 make_rel("EV1INV", t2, (p0,), sub0),
                 make_rel("EV1", t3, (p1,), w.children[p1]),
                 make_rel("EV1", t4, (p0,), w.children[p0]),
                 make_rel("EV1", w, (), leaf(x1)),
                 base_glue)
    elif recipe == "cross":
        core_terms = [t for t in pool
                      if all(c.is_leaf and sp.center_of_side1(c.label) is not None
                             for c in t.children) and not t.is_leaf]
        if not core_terms:
            return None
        w = rng.choice(core_terms)
        steps_list: list[Step] = [make_rel("EV1INV", leaf(x1), (), w)]
        cur = w
        for i in range(len(cur.children)):
            step = _glue_step(sp, cur, (i,))
            steps_list.append(step)
            cur = step.right
        steps_list.append(make_rel("EV2", cur, (), leaf(sp.eval_in_side(cur, 2))))
        end = steps_list[-1].right
        if end.label != x2:
            if not sp.a2.leq(end.label, x2):
                return None
            steps_list.append(IneqStep(end, leaf(x2)))
        steps = tuple(steps_list)
    else:
        raise ValueError(f"unknown recipe {recipe!r}")
    sch = Scheme(leaf(x1), leaf(x2), steps)
    if validate_scheme(sp, sch):
        return None
    return sch
