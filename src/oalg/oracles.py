"""Independent oracles, used only by the command line, the acceptance suite
and the tests: the congruences, homomorphisms and variety membership by
brute-force filters, the homomorphism flags by a walk over the name-keyed
tables, and compatibility, the generated quasiorder (by
breadth-first search over translated generator steps) and a recheck of
closure witnesses by raw walks over the tables, sharing no code with
`closure.py` or `OrderedAlgebra.translations`; the term order as the
quasiorder generated by single-leaf raises, and an exhaustive check of
`termorder.term_leq`; the padded schemes' unfold pool built eagerly,
layer by layer, and the pushout search's moves generated path by path.
"""

from __future__ import annotations

import itertools

from . import relations
from .algebra import Homomorphism, OrderedAlgebra
from .errors import ValidationError, WitnessInconsistency
from .schemes import IDENTITY_TRANSLATION, IneqStep, RelStep, Scheme, Translation
from .signature import Signature
from .termorder import VarPoset, check_disjoint, term_leq
from .terms import (Term, all_paths, compositions, enumerate_terms, formal_var, leaf,
                    leaf_count, leaf_paths, op_count, regularize, replace_at, skeleton,
                    subterm_at)

Pair = tuple[str, str]


# -- Congruences and homomorphisms ----------------------------------------------

def compatible_by_table_walk(alg: OrderedAlgebra, rel: frozenset) -> bool:
    """Whether each table maps rel-related arguments in one slot, others fixed,
    to rel-related values, entry by entry: the reference for `algebra._compatible`."""
    carrier = alg.carrier
    for f, k in alg.sig.operations():
        for args in itertools.product(carrier, repeat=k):
            for i in range(k):
                for b in carrier:
                    if (args[i], b) in rel:
                        other = args[:i] + (b,) + args[i + 1:]
                        if (alg.op(f, args), alg.op(f, other)) not in rel:
                            return False
    return True


def congruences_by_partition_filter(alg: OrderedAlgebra) -> list[frozenset]:
    """Every congruence of the unordered reduct, by filtering all Bell(n)
    partitions in `relations.all_partitions` order: the reference for
    `algebra.all_congruences`, which lists the same congruences sorted by
    number of classes, then class tuple.

    A partition's pairs are an equivalence by construction, so only
    compatibility is tested.
    """
    thetas = map(relations.partition_to_pairs, relations.all_partitions(alg.carrier))
    return [theta for theta in thetas if compatible_by_table_walk(alg, theta)]


def homomorphisms_by_product_filter(dom: OrderedAlgebra,
                                    cod: OrderedAlgebra) -> list[Homomorphism]:
    """Every homomorphism, by filtering all |cod|^|dom| maps: the reference
    for `algebra.all_homomorphisms`, same order."""
    out = []
    strict_order = [(a, b) for (a, b) in dom.order if a != b]
    op_items = dom.sig.operations()
    consts = dom.sig.constants()
    tuples_by_op = {f: list(itertools.product(dom.carrier, repeat=k))
                    for f, k in op_items}
    for values in itertools.product(cod.carrier, repeat=len(dom.carrier)):
        m = dict(zip(dom.carrier, values))
        if any(m[dom.const(c)] != cod.const(c) for c in consts):
            continue
        if any((m[a], m[b]) not in cod.order for (a, b) in strict_order):
            continue
        good = True
        for f, _ in op_items:
            tbl_d, tbl_c = dom.op_tables[f], cod.op_tables[f]
            for args in tuples_by_op[f]:
                if m[tbl_d[args]] != tbl_c[tuple(m[x] for x in args)]:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(Homomorphism(dom, cod, m))
    return out


def homomorphism_flags_by_table_walk(h: Homomorphism) -> dict[str, bool]:
    """The flags of `algebra.check_homomorphism`, by a walk over every entry
    of the name-keyed tables and every pair of the name-keyed orders: the
    reference for the check on the coded form."""
    a, b, m = h.dom, h.cod, h.map
    is_hom = (all(m[v] == b.const_vals[c] for c, v in a.const_vals.items())
              and all(m[v] == b.op_tables[f][tuple(m[x] for x in args)]
                      for f, tbl in a.op_tables.items() for args, v in tbl.items()))
    is_monotone = all(b.leq(m[x], m[y]) for x, y in a.order)
    reflects = all(a.leq(x, y) for x in a.carrier for y in a.carrier if b.leq(m[x], m[y]))
    return {"is_hom": is_hom, "is_monotone": is_monotone, "reflects_order": reflects}


def variety_report_by_pair_filter(alg: OrderedAlgebra) -> list[dict]:
    """The membership report of `algebra.validate_algebra`, same entries in
    the same order, by testing every pair of argument tuples of each
    operation for comparability: |A|^(2k) pairs for a k-ary one."""
    report = []
    for f, k in alg.sig.operations():
        tbl = alg.op_tables[f]
        for xs in itertools.product(alg.carrier, repeat=k):
            for ys in itertools.product(alg.carrier, repeat=k):
                if all(alg.leq(x, y) for x, y in zip(xs, ys)):
                    if not alg.leq(tbl[xs], tbl[ys]):
                        report.append({"kind": "monotonicity", "op": f,
                                       "lhs": xs, "rhs": ys,
                                       "lhs_val": tbl[xs], "rhs_val": tbl[ys]})
    for (c, d) in sorted(alg.sig.const_order):
        if c != d and not alg.leq(alg.const(c), alg.const(d)):
            report.append({"kind": "constant", "left": c, "right": d,
                           "left_val": alg.const(c), "right_val": alg.const(d)})
    return report


# -- Generated compatible quasiorders -------------------------------------------

def _apply(alg: OrderedAlgebra, trans: Translation, value: str) -> str:
    """A translation's value at a carrier element: one raw table lookup per
    template node, the template's leaves z1..zn read off the fillers."""
    env = {formal_var(i): e for i, e in enumerate(trans.fills_with(value), start=1)}

    def walk(t: Term) -> str:
        if t.children:
            return alg.op_tables[t.label][tuple(walk(c) for c in t.children)]
        return env[t.label]

    return walk(trans.template)


def enumerate_translations(alg: OrderedAlgebra, x_labels: list[str],
                           max_ops: int) -> list[Translation]:
    """All one-hole contexts with at most max_ops template operations.

    Fillers range over the given labels plus the interpreted constants;
    the zero-op case contributes only the identity context.
    """
    labels = list(dict.fromkeys(list(x_labels)
                                + [alg.const(c) for c in alg.sig.constants()]))
    out = [IDENTITY_TRANSLATION]
    templates = [regularize(t)[0] for t in enumerate_terms(alg.sig, ["_"], max_ops)
                 if not t.is_leaf]
    for template in templates:
        n = leaf_count(template)
        for slot in range(1, n + 1):
            for fillers in itertools.product(labels, repeat=n - 1):
                out.append(Translation(template, slot, tuple(fillers)))
    return out


def step_relation(alg: OrderedAlgebra, x_labels: list[str],
                  hyp: frozenset[Pair], max_ops: int) -> frozenset[Pair]:
    """One translated generator step: pairs (p(u), p(v)) for (u, v) in H."""
    out = set()
    full = len(alg.carrier) ** 2
    for trans in enumerate_translations(alg, x_labels, max_ops):
        for (u, v) in hyp:
            out.add((_apply(alg, trans, u), _apply(alg, trans, v)))
        if len(out) == full:
            break
    return frozenset(out)


def one_slot_step_relation(alg: OrderedAlgebra, hyp: frozenset[Pair],
                           depth: int) -> frozenset[Pair]:
    """The same relation computed by chained one-slot extensions.

    A translation template deeper than one operation acts on a finite
    algebra exactly like a chain of single-operation contexts whose side
    arguments are pre-evaluated elements, so this agrees with the literal
    template enumeration at equal depth.
    """
    current = set(hyp)
    out = set(hyp)
    for _ in range(depth):
        nxt = set()
        for (x, y) in current:
            for f, k in alg.sig.operations():
                for fillers in itertools.product(alg.carrier, repeat=k - 1):
                    for slot in range(1, k + 1):
                        args_x = fillers[: slot - 1] + (x,) + fillers[slot - 1:]
                        args_y = fillers[: slot - 1] + (y,) + fillers[slot - 1:]
                        pair = (alg.op(f, args_x), alg.op(f, args_y))
                        if pair not in out:
                            nxt.add(pair)
        out.update(nxt)
        current = nxt
        if not current:
            break
    return frozenset(out)


def bfs_over_step_relation(alg: OrderedAlgebra, rel: frozenset[Pair],
                           max_len: int) -> frozenset[Pair]:
    """Alternate order moves with steps from rel, at most max_len steps."""
    succ: dict[str, set[str]] = {}
    for (a, b) in rel:
        succ.setdefault(a, set()).add(b)
    out = set()
    for c in alg.carrier:
        reach = set(alg.up_set(c))
        for _ in range(max_len):
            nxt = set(reach)
            for a in reach:
                for b in succ.get(a, ()):
                    nxt.update(alg.up_set(b))
            if nxt == reach:
                break
            reach = nxt
        out.update((c, b) for b in reach)
    return frozenset(out)


def bfs_generated_quasiorder(alg: OrderedAlgebra, hyp, max_ops: int,
                             max_len: int) -> frozenset[Pair]:
    """Breadth-first search over translated generator steps.

    The step relation is the chained one-slot form, which equals the
    literal template enumeration (`step_relation`) at equal depth and is
    much cheaper at depth three and beyond.
    """
    rel = one_slot_step_relation(alg, frozenset(hyp), max_ops)
    return bfs_over_step_relation(alg, rel, max_len)


def check_generated_scheme(alg: OrderedAlgebra, hyp, sch: Scheme,
                           allow_inverse: bool) -> None:
    """Recheck a closure witness: chaining, inequalities, translated steps."""
    hyp = frozenset(hyp)
    hyp_inv = relations.inverse(hyp)
    prev = sch.source
    for s in sch.steps:
        if s.left != prev:
            raise WitnessInconsistency("steps do not chain")
        prev = s.right
        if isinstance(s, IneqStep):
            if (s.left.label, s.right.label) not in alg.order:
                raise WitnessInconsistency(f"bad inequality {s}")
        elif isinstance(s, RelStep):
            pair = (s.u.label, s.v.label)
            if s.tag == "HYP":
                if pair not in hyp:
                    raise WitnessInconsistency(f"pair {pair} not a generator")
            elif s.tag == "HYPINV":
                if not allow_inverse or pair not in hyp_inv:
                    raise WitnessInconsistency(f"pair {pair} not an inverse generator")
            else:
                raise WitnessInconsistency(f"unexpected tag {s.tag}")
            if _apply(alg, s.trans, s.u.label) != s.left.label:
                raise WitnessInconsistency("left side does not evaluate")
            if _apply(alg, s.trans, s.v.label) != s.right.label:
                raise WitnessInconsistency("right side does not evaluate")
        else:
            raise WitnessInconsistency("closure witnesses use single steps only")
    if prev != sch.target:
        raise WitnessInconsistency("endpoint mismatch")


# -- The term order -------------------------------------------------------------

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
    for f, k in sig.operations():
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


# -- The unfold pool ------------------------------------------------------------

def unfold_pool_by_layers(alg: OrderedAlgebra, max_ops: int) -> dict[str, list[Term]]:
    """Every composite term of at most max_ops operations over the
    carrier, grouped by value, each layer of one more operation built in
    full from the ones below: the reference for `generators.unfold_pool`,
    same lists in the same order (by operation count, then operation,
    split of the operations over the children, children's values in
    carrier order, children's terms)."""
    by_ops: list[dict[str, list[Term]]] = [{e: [leaf(e)] for e in alg.carrier}]
    for n in range(1, max_ops + 1):
        layer: dict[str, list[Term]] = {}
        for f, k in alg.sig.operations():
            for split in compositions(n - 1, k):
                pools = [by_ops[m] for m in split]
                keys = [sorted(p.keys(), key=alg.index.get) for p in pools]
                for vals in itertools.product(*keys):
                    res = alg.op(f, vals)
                    for kids in itertools.product(*[p[v] for p, v in zip(pools, vals)]):
                        layer.setdefault(res, []).append(Term(f, kids))
        by_ops.append(layer)
    pool: dict[str, list[Term]] = {}
    for layer in by_ops[1:]:
        for val, ts in layer.items():
            pool.setdefault(val, []).extend(ts)
    return pool


# -- The search's moves ---------------------------------------------------------

def _up_set_by_filter(alg: OrderedAlgebra, a: str, up: bool) -> list[str]:
    """The elements above a (below a, when not `up`), in carrier order,
    filtered from the order."""
    return [b for b in alg.carrier if ((a, b) if up else (b, a)) in alg.order]


def _fold_values_by_recursion(am, t: Term, side: int, up: bool) -> dict[str, Term]:
    """Values reachable by raising (lowering, when not `up`) the side
    leaves of t within their up-sets (down-sets) and evaluating on `side`,
    with the first witness per value in the order of the children's sorted
    values; every child's map is recomputed and every witness built
    afresh."""
    alg = am.side(side)
    if t.is_leaf:
        cls = am.label_class(t.label)
        if cls == 0:
            return {alg.const(t.label): t}
        if cls != side:
            return {}
        return {b: leaf(b) for b in _up_set_by_filter(alg, t.label, up)}
    child_maps = [_fold_values_by_recursion(am, c, side, up) for c in t.children]
    if any(not m for m in child_maps):
        return {}
    out: dict[str, Term] = {}
    for combo in itertools.product(*[sorted(m.items()) for m in child_maps]):
        value = alg.op(t.label, tuple(v for v, _ in combo))
        if value not in out:
            out[value] = Term(t.label, tuple(w for _, w in combo))
    return out


def moves_by_path_walk(am, u: Term, up: bool) -> list[tuple]:
    """The search's moves out of u, `(path, witness, tag, new)`, raising
    (lowering, when not `up`), generated path by path: every subterm
    looked up from the root, the fold values recomputed and the up-sets
    (down-sets) filtered from the order.  The reference for
    `amalgam._moves`, same moves in the same order."""
    out = []
    for side, tag in ((1, "EV1"), (2, "EV2")):
        for path in all_paths(u):
            sub = subterm_at(u, path)
            if sub.is_leaf:
                continue
            for value, witness in sorted(_fold_values_by_recursion(am, sub, side, up).items()):
                out.append((path, witness, tag, leaf(value)))
    for path in leaf_paths(u):
        a = subterm_at(u, path).label
        cls = am.label_class(a)
        if cls == 0:
            continue
        phi, other = (am.phi1, am.phi2) if cls == 1 else (am.phi2, am.phi1)
        images = {v: z for z, v in phi.items()}
        tag = "GLUE" if cls == 1 else "GLUEINV"
        for b in _up_set_by_filter(am.side(cls), a, up):
            z = images.get(b)
            if z is not None:
                out.append((path, leaf(b), tag, leaf(other[z])))
    return out
