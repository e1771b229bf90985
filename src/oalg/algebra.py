"""Finite ordered algebras: validation, evaluation, homomorphisms, quotients.

Carriers are ordered lists of element names.  Wherever a quotient has to
name a class, the representative is the earliest-listed element, so all
outputs are deterministic and diffable.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path as FsPath
from typing import NamedTuple, Sequence

from . import relations
from .errors import (
    NotACongruence,
    NotAHomomorphism,
    NotCompatibleQuasiorder,
    NotOrderCongruence,
    ParseError,
    PreconditionFailed,
    SizeLimit,
    UnboundVariable,
    ValidationError,
)
from .signature import Signature, parse_signature
from .syntax import match, records
from .terms import Term

MAX_CARRIER = 64
MAX_PRODUCT = 10_000

Rel = frozenset


class Coded(NamedTuple):
    """An algebra's integer-coded form, as in UACalc: each table as one flat tuple
    of value indices at the mixed-radix code of the argument indices (first one
    most significant: `itertools.product` order); the order as one bitmask row
    per element (bit j of row i when i <= j)."""
    tables: dict[str, tuple[int, ...]]
    rows: tuple[int, ...]


def _codes(digits, radix: int) -> list[int]:
    """The codes of the tuples of `itertools.product(*digits)`, in its order."""
    codes = [0]
    for ds in digits:
        codes = [c * radix + d for c in codes for d in ds]
    return codes


class OrderedAlgebra:
    """A finite carrier with a partial order, total op tables and constants."""

    def __init__(self, sig: Signature, carrier: list[str], order,
                 op_tables: dict[str, dict[tuple[str, ...], str]],
                 const_vals: dict[str, str], name: str = "A"):
        if len(carrier) > MAX_CARRIER:
            raise SizeLimit(f"carrier too large ({len(carrier)} > {MAX_CARRIER})")
        self.order: Rel = relations.partial_order(order, carrier)
        self.sig = sig
        self.carrier = list(carrier)
        self.name = name
        self.index = {e: i for i, e in enumerate(carrier)}
        self.op_tables = {f: dict(tbl) for f, tbl in op_tables.items()}
        self.const_vals = dict(const_vals)
        self._check_totality()
        # The elements above each element, in carrier order.
        self._up_sets = {a: [b for b in self.carrier if (a, b) in self.order]
                         for a in self.carrier}

    def _check_totality(self):
        for f, k in self.sig.ops.items():
            if k == 0:
                if f not in self.const_vals:
                    raise ValidationError(f"constant {f!r} has no value")
                if self.const_vals[f] not in self.index:
                    raise ValidationError(f"constant {f!r} maps outside the carrier")
                continue
            tbl = self.op_tables.get(f)
            if tbl is None:
                raise ValidationError(f"missing table for {f!r}")
            for args in itertools.product(self.carrier, repeat=k):
                if args not in tbl:
                    raise ValidationError(f"table of {f!r} missing entry {args}")
                if tbl[args] not in self.index:
                    raise ValidationError(f"table of {f!r} maps {args} outside the carrier")

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order

    def op(self, f: str, args: tuple[str, ...]) -> str:
        return self.op_tables[f][args]

    def const(self, c: str) -> str:
        return self.const_vals[c]

    def up_set(self, a: str) -> list[str]:
        return self._up_sets[a]

    @cached_property
    def coded(self) -> Coded:
        """The coded form, built on first use and then kept."""
        index = self.index
        return Coded({f: tuple([index[self.op_tables[f][args]]
                                for args in itertools.product(self.carrier, repeat=k)])
                      for f, k in self.sig.operations()},
                     tuple(relations.to_rows(self.order, index)))

    @cached_property
    def translations(self) -> dict[tuple[str, tuple[str, ...], int], tuple[int, ...]]:
        """The one-slot translations x -> f(fillers with x at slot, from 1):
        `(f, fillers, slot)` to the indices of the carrier's images, in
        op / fillers / slot order; each is a slice of the coded table."""
        out, n = {}, len(self.carrier)
        for f, k in self.sig.operations():
            table = self.coded.tables[f]
            for code, fillers in enumerate(itertools.product(self.carrier, repeat=k - 1)):
                for slot in range(1, k + 1):
                    w = n ** (k - slot)         # the weight of the slot's digit
                    start = code // w * w * n + code % w
                    out[(f, fillers, slot)] = table[start:start + w * n:w]
        return out

    @cached_property
    def hom_plan(self) -> tuple[list, list]:
        """The domain's side of `all_homomorphisms`, built once: the strict order pairs and
        the table entries (op, argument columns, values), grouped by the largest index named."""
        n = len(self.carrier)
        strict = [(a, b) for a, b in relations.from_rows(self.coded.rows, range(n)) if a != b]
        pairs_at = [[pair for pair in strict if max(pair) == i] for i in range(n)]
        table_at: list[list] = [[] for _ in range(n)]
        for f, k in self.sig.operations():
            entries: list[list] = [[] for _ in range(n)]
            for args, v in zip(itertools.product(range(n), repeat=k), self.coded.tables[f]):
                entries[max(*args, v)].append(args + (v,))
            for at, group in zip(table_at, entries):
                if group:
                    at.append((f, *zip(*group)))
        return pairs_at, table_at

    def __repr__(self):
        return f"OrderedAlgebra({self.name}, |{len(self.carrier)}|)"


@dataclass
class Homomorphism:
    dom: OrderedAlgebra
    cod: OrderedAlgebra
    map: dict[str, str]

    def image(self) -> list[str]:
        seen = set(self.map.values())
        return [e for e in self.cod.carrier if e in seen]


def validate_algebra(alg: OrderedAlgebra) -> list[dict]:
    """Exhaustive membership report for the constant-inequality variety.

    Each entry records one violated monotonicity instance or one violated
    constant inequality.  An empty report means the algebra belongs to the
    variety.  Violations are data, not exceptions: the tool is a checker.
    """
    report, carrier, (tables, rows) = [], alg.carrier, alg.coded
    n = len(carrier)
    ups = [[j for j in range(n) if row >> j & 1] for row in rows]
    for f, k in alg.sig.operations():
        table = tables[f]
        for code, xs in enumerate(itertools.product(range(n), repeat=k)):
            # The tuples above xs, in the order of all k-tuples.
            above = [ups[x] for x in xs]
            for ys, c in zip(itertools.product(*above), _codes(above, n)):
                if not rows[table[code]] >> table[c] & 1:
                    lhs, rhs = (tuple(carrier[i] for i in t) for t in (xs, ys))
                    report.append({"kind": "monotonicity", "op": f, "lhs": lhs, "rhs": rhs,
                                   "lhs_val": carrier[table[code]], "rhs_val": carrier[table[c]]})
    for (c, d) in sorted(alg.sig.const_order):
        if c != d and not alg.leq(alg.const(c), alg.const(d)):
            report.append({"kind": "constant", "left": c, "right": d,
                           "left_val": alg.const(c), "right_val": alg.const(d)})
    return report


def evaluate(alg: OrderedAlgebra, t: Term, env: dict[str, str],
             memo: dict[Term, str] | None = None) -> str:
    """Evaluate a term; variables come from env, constants from the algebra.

    This is the one term evaluator: the unique homomorphic extension of
    env.  `memo`, if given, holds the values of terms already evaluated
    under the same algebra and env, and is filled in.
    """
    if memo is None:
        memo = {}
    value = memo.get(t)
    if value is None:
        l = t.label
        if t.children:
            value = alg.op_tables[l][tuple([evaluate(alg, c, env, memo)
                                            for c in t.children])]
        elif alg.sig.has(l):
            value = alg.const_vals[l]
        elif l in env:
            value = env[l]
        else:
            raise UnboundVariable(f"variable {l!r} not bound")
        memo[t] = value
    return value


def check_homomorphism(h: Homomorphism) -> dict[str, bool]:
    a, b = h.dom, h.cod
    m = [b.index[h.map[x]] for x in a.carrier]
    is_hom = (all(m[a.index[a.const(c)]] == b.index[b.const(c)] for c in a.sig.constants())
              and all([b.coded.tables[f][c] for c in _codes([m] * k, len(b.carrier))]
                      == [m[v] for v in a.coded.tables[f]] for f, k in a.sig.operations()))
    # Row i of `pulled`: the j with m(i) <= m(j).
    pulled = [sum(1 << j for j, mj in enumerate(m) if b.coded.rows[mi] >> mj & 1) for mi in m]
    is_monotone = all(row & ~p == 0 for row, p in zip(a.coded.rows, pulled))
    reflects_order = all(p & ~row == 0 for row, p in zip(a.coded.rows, pulled))
    return {"is_hom": is_hom, "is_monotone": is_monotone, "reflects_order": reflects_order}


def require_monotone_hom(error: Exception, *maps: Homomorphism) -> None:
    """Raise `error` unless every map is a monotone homomorphism."""
    for h in maps:
        flags = check_homomorphism(h)
        if not (flags["is_hom"] and flags["is_monotone"]):
            raise error


def directed_kernel(h: Homomorphism) -> Rel:
    """All pairs the codomain orders after mapping; a compatible quasiorder."""
    require_monotone_hom(NotAHomomorphism("directed kernel needs a monotone homomorphism"), h)
    return frozenset((x, y)
                     for x in h.dom.carrier for y in h.dom.carrier
                     if h.cod.leq(h.map[x], h.map[y]))


def kernel(h: Homomorphism) -> Rel:
    k = directed_kernel(h)
    return k & relations.inverse(k)


def _compatible(alg: OrderedAlgebra, rel: Rel) -> bool:
    """Whether every one-slot translation maps each pair of rel into rel."""
    rows = relations.to_rows(rel, alg.index)
    pairs = [(alg.index[a], alg.index[b]) for (a, b) in rel]
    return all(rows[t[i]] >> t[j] & 1
               for t in alg.translations.values() for i, j in pairs)


def _check_carrier(alg: OrderedAlgebra, rel: Rel) -> None:
    """Raise `ValidationError` unless rel relates only carrier elements."""
    outside = sorted({e for pair in rel for e in pair if e not in alg.index}, key=repr)
    if outside:
        raise ValidationError(f"relation names {outside[0]!r}, outside the carrier of {alg.name}")


def is_congruence(alg: OrderedAlgebra, theta: Rel) -> bool:
    """Equivalence compatible with the ops of the unordered reduct."""
    _check_carrier(alg, theta)
    return (relations.is_reflexive(theta, alg.carrier)
            and theta == relations.inverse(theta)
            and relations.is_transitive(theta)
            and _compatible(alg, theta))


def leq_theta(alg: OrderedAlgebra, theta: Rel) -> Rel:
    """Smallest quasiorder containing the order and the congruence.

    Computed as the transitive closure of their union, which equals the
    alternating-chain description because both relations are reflexive.
    """
    if not is_congruence(alg, theta):
        raise NotACongruence("relation is not a congruence of the reduct")
    return relations.transitive_closure(alg.order | theta)


def is_order_congruence(alg: OrderedAlgebra, theta: Rel) -> bool:
    """Closed chain condition: mutually leq-theta-related elements are glued."""
    if not is_congruence(alg, theta):
        raise NotACongruence("relation is not a congruence of the reduct")
    return _order_quotient(alg, relations.to_rows(theta, alg.index)) is not None


def is_compatible_quasiorder(alg: OrderedAlgebra, sigma: Rel) -> bool:
    _check_carrier(alg, sigma)
    return (relations.is_reflexive(sigma, alg.carrier)
            and relations.is_transitive(sigma)
            and alg.order <= sigma
            and _compatible(alg, sigma))


def _image(alg: OrderedAlgebra, names: list[str], rows: Sequence[int],
           name: str) -> tuple[OrderedAlgebra, Homomorphism]:
    """The algebra on the values of `names`, a map of the carrier by
    position, with the map onto it: each table read at the earliest-listed
    element of each value, the order that of `rows` mapped through names."""
    first: dict[str, int] = {}
    for i, v in enumerate(names):
        first.setdefault(v, i)
    tables = {f: dict(zip(itertools.product(first, repeat=k),
                          [names[alg.coded.tables[f][c]]
                           for c in _codes([list(first.values())] * k, len(names))]))
              for f, k in alg.sig.operations()}
    consts = {c: names[alg.index[v]] for c, v in alg.const_vals.items()}
    img = OrderedAlgebra(alg.sig, list(first), relations.from_rows(rows, names),
                         tables, consts, name=name)
    return img, Homomorphism(alg, img, dict(zip(alg.carrier, names)))


def _quotient_algebra(alg: OrderedAlgebra, eq: list[int], rows: list[int],
                      name: str) -> tuple[OrderedAlgebra, Homomorphism]:
    """Quotient carrier and tables, each class (a row of eq) named by its
    earliest-listed element; order projected from `rows`."""
    names = [f"[{alg.carrier[(row & -row).bit_length() - 1]}]" for row in eq]
    return _image(alg, names, rows, name)


def _order_quotient(alg: OrderedAlgebra, eq: list[int]):
    """The regular quotient by the congruence with bitmask rows eq, and its
    natural map, or None if eq fails the closed chain condition, which for
    a congruence (not rechecked here) reads `lt & lt^-1 == eq`."""
    lt = relations.warshall([a | b for a, b in zip(alg.coded.rows, eq)])
    if relations.symmetric_part(lt) != eq:
        return None
    return _quotient_algebra(alg, eq, lt, name=f"{alg.name}/theta")


def regular_quotient(alg: OrderedAlgebra, theta: Rel) -> tuple[OrderedAlgebra, Homomorphism]:
    """Quotient by an order-congruence, ordered by the projected chain relation.

    The projected order is the coarsest compatible order making the natural
    map monotone; the closed chain condition makes it antisymmetric.
    """
    if not is_congruence(alg, theta):
        raise NotOrderCongruence("not a congruence")
    quotient = _order_quotient(alg, relations.to_rows(theta, alg.index))
    if quotient is None:
        raise NotOrderCongruence("congruence fails the closed chain condition")
    return quotient


def nonregular_quotient(alg: OrderedAlgebra, sigma: Rel) -> OrderedAlgebra:
    """Quotient by a compatible quasiorder; classes of sigma & sigma^-1, order from sigma."""
    if not is_compatible_quasiorder(alg, sigma):
        raise NotCompatibleQuasiorder("relation is not a compatible quasiorder")
    rows = relations.to_rows(sigma, alg.index)
    return _quotient_algebra(alg, relations.symmetric_part(rows), rows,
                             name=f"{alg.name}/sigma")[0]


def factor_through(f: Homomorphism, theta: Rel) -> Homomorphism:
    """The unique map g from the quotient with g after the natural map = f."""
    alg = f.dom
    missing = sorted(leq_theta(alg, theta) - directed_kernel(f))
    if missing:
        raise PreconditionFailed(f"leq-theta pair {missing[0]} is not in the directed kernel")
    quotient = _order_quotient(alg, relations.to_rows(theta, alg.index))
    if quotient is None:
        raise NotOrderCongruence("congruence fails the closed chain condition")
    # theta lies in the kernel of f now, so f is constant on each class.
    q, nat = quotient
    return Homomorphism(q, f.cod, {nat.map[e]: f.map[e] for e in alg.carrier})


def product(algebras: list[OrderedAlgebra]) -> OrderedAlgebra:
    """Componentwise product; the empty product is the one-element algebra."""
    if not algebras:
        raise ValueError("need a signature for the empty product; use terminal(sig)")
    sig = algebras[0].sig
    for a in algebras[1:]:
        if a.sig != sig:
            raise ValidationError("product factors have different signatures")
    size = 1
    for a in algebras:
        size *= len(a.carrier)
    if size > MAX_PRODUCT:
        raise SizeLimit(f"product carrier would have {size} elements")
    tuples = list(itertools.product(*[a.carrier for a in algebras]))
    name_of = {t: "(" + ",".join(t) + ")" for t in tuples}
    carrier = [name_of[t] for t in tuples]
    order = {(name_of[s], name_of[t])
             for s in tuples for t in tuples
             if all(a.leq(x, y) for a, x, y in zip(algebras, s, t))}
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    for f, k in sig.operations():
        tbl = {}
        for args in itertools.product(tuples, repeat=k):
            res = tuple(a.op(f, tuple(arg[i] for arg in args))
                        for i, a in enumerate(algebras))
            tbl[tuple(name_of[x] for x in args)] = name_of[res]
        tables[f] = tbl
    consts = {c: name_of[tuple(a.const(c) for a in algebras)]
              for c in sig.constants()}
    return OrderedAlgebra(sig, carrier, order, tables, consts,
                          name="x".join(a.name for a in algebras))


def terminal(sig: Signature) -> OrderedAlgebra:
    """One-element algebra; the empty product."""
    e = "()"
    tables = {f: {tuple([e] * k): e} for f, k in sig.operations()}
    consts = {c: e for c in sig.constants()}
    return OrderedAlgebra(sig, [e], {(e, e)}, tables, consts, name="1")


def generated_subalgebra(alg: OrderedAlgebra, seed) -> list[str]:
    """Closure of seed plus all constants under every operation table."""
    outside = [e for e in seed if e not in alg.index]
    if outside:
        raise PreconditionFailed(f"seed elements {outside} not in the carrier of {alg.name}")
    current = {alg.index[e] for e in itertools.chain(seed, map(alg.const, alg.sig.constants()))}
    size = 0
    while size < len(current):
        size = len(current)
        current.update([alg.coded.tables[f][c] for f, k in alg.sig.operations()
                        for c in _codes([current] * k, len(alg.carrier))])
    return [e for i, e in enumerate(alg.carrier) if i in current]


def subalgebra(alg: OrderedAlgebra, subset: list[str], name: str | None = None) -> OrderedAlgebra:
    """The subalgebra on a closed subset, with the restricted order."""
    sub = set(subset)
    carrier = [e for e in alg.carrier if e in sub]
    order = {(a, b) for (a, b) in alg.order if a in sub and b in sub}
    tables = {}
    for f, k in alg.sig.operations():
        tbl = {}
        for args in itertools.product(carrier, repeat=k):
            v = alg.op(f, args)
            if v not in sub:
                raise ValidationError(f"subset not closed: {f}{args} = {v}")
            tbl[args] = v
        tables[f] = tbl
    consts = {}
    for c in alg.sig.constants():
        v = alg.const(c)
        if v not in sub:
            raise ValidationError(f"subset misses the constant value {v}")
        consts[c] = v
    return OrderedAlgebra(alg.sig, carrier, order, tables, consts,
                          name=name or f"{alg.name}|{len(carrier)}")


def _merge(theta: list[int], pairs) -> list[tuple[int, int]]:
    """Merge the classes of each pair in turn, in an equivalence given by
    each element's least class member; returns the pairs that merged two."""
    merged = []
    for i, j in pairs:
        a, b = theta[i], theta[j]
        if a != b:
            low, high = (a, b) if a < b else (b, a)
            theta[:] = [low if c == high else c for c in theta]
            merged.append((i, j))
    return merged


def _principal(columns: list[tuple[int, ...]], a: int, b: int) -> tuple[int, ...]:
    """Cg(a, b) by closure under the translations, given as `columns`
    (column x holds every translation's value at x).  Only pairs that
    merged two classes are pushed; they generate the equivalence, so
    translating them suffices."""
    theta = list(range(len(columns)))
    todo = _merge(theta, [(a, b)])
    while todo:
        x, y = todo.pop()
        todo += _merge(theta, set(zip(columns[x], columns[y])))
    return tuple(theta)


def all_congruences(alg: OrderedAlgebra) -> list[tuple[int, ...]]:
    """Every congruence of the unordered reduct as its class tuple (each index
    to the least index in its class), fewest classes first, then by class tuple.

    Each congruence is the join of the principal congruences of its pairs, each a
    closure under the distinct one-slot translations, and a join of congruences is
    their join as equivalences (Freese, Computing congruences efficiently, Algebra
    Universalis 59, 2008).  So the lattice is the least set holding the identity and
    closed under joining with each principal congruence.
    """
    n = len(alg.carrier)
    columns = list(zip(*dict.fromkeys(alg.translations.values()))) or [()] * n
    principals = dict.fromkeys(_principal(columns, a, b)
                               for a in range(n) for b in range(a + 1, n))
    lattice = {tuple(range(n))}
    for p in principals:
        pairs = [(i, r) for i, r in enumerate(p) if i != r]
        # A copy of theta that merges nothing already lies above p.
        lattice.update([tuple(theta) for theta in map(list, lattice) if _merge(theta, pairs)])
    return sorted(lattice, key=lambda theta: (len(set(theta)), theta))


def _monotone_maps(domains, pairs_at, rows, check=None):
    """Each choice of one value index per position from `domains`, in
    lexicographic order, with values[a] <= values[b] under the bitmask
    `rows` for each pair of `pairs_at[i]` and `check(i, values)` true, both tested at the
    position i where the last value they read is chosen.  Yields one list,
    refilled.  Domains are first narrowed against the one-value domains
    (forward checking, Haralick and Elliott, AI 14, 1980); the search
    keeps a stack of iterators, so it has no recursion limit.
    """
    domains = list(domains)
    for a, b in itertools.chain.from_iterable(pairs_at):
        if len(domains[a]) == 1:
            domains[b] = [v for v in domains[b] if rows[domains[a][0]] >> v & 1]
        if len(domains[b]) == 1:
            domains[a] = [v for v in domains[a] if rows[v] >> domains[b][0] & 1]
    if not all(domains):
        return
    values = [None] * len(domains)

    def consistent(i: int):
        for v in domains[i]:
            values[i] = v
            if (all(rows[values[a]] >> values[b] & 1 for a, b in pairs_at[i])
                    and (check is None or check(i, values))):
                yield True

    stack = [iter([True])]      # stack[i + 1] chooses the value at position i
    while stack:
        if not next(stack[-1], False):
            stack.pop()
        elif len(stack) > len(values):
            yield values
        else:
            stack.append(consistent(len(stack) - 1))


def all_homomorphisms(dom: OrderedAlgebra, cod: OrderedAlgebra) -> list[Homomorphism]:
    """Every homomorphism of ordered algebras between two small carriers,
    in the order of `itertools.product(cod.carrier, repeat=len(dom.carrier))`.

    `_monotone_maps` over the domain in carrier order, values in codomain order, the
    constants' images fixed: each strict order pair and table entry is tested once the
    last element it mentions has a value, as the domain's `hom_plan` groups them.
    """
    n, m = len(dom.carrier), len(cod.carrier)
    domains = [range(m)] * n
    for c in dom.sig.constants():
        i, v = dom.index[dom.const(c)], cod.index[cod.const(c)]
        domains[i] = [u for u in domains[i] if u == v]
    pairs_at, plan_at = dom.hom_plan
    table_at = [[(cod.coded.tables[f].__getitem__, *rest) for f, *rest in at] for at in plan_at]

    def commutes(i: int, values: list[int]) -> bool:
        get = values.__getitem__
        for table, *columns, results in table_at[i]:
            codes = map(get, columns[0])
            for column in columns[1:]:
                codes = map(operator.add, map(operator.mul, codes, itertools.repeat(m)),
                            map(get, column))
            if not all(map(operator.eq, map(table, codes), map(get, results))):
                return False
        return True

    return [Homomorphism(dom, cod, dict(zip(dom.carrier, map(cod.carrier.__getitem__, values))))
            for values in _monotone_maps(domains, pairs_at, cod.coded.rows, commutes)]


# File format support (.oalg and .hom).

def parse_algebra(text: str, base_dir: str | FsPath = ".") -> OrderedAlgebra:
    """Parse the `.oalg` format; the referenced `.sig` file is loaded too."""
    sig = None
    name = "A"
    carrier: list[str] = []
    order: set[tuple[str, str]] = set()
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    consts: dict[str, str] = {}
    repeated: list[str] = []
    for tokens, line in records(text):
        kind = tokens[0]
        if kind == "algebra":
            name, sig_file = match("algebra _ over _", tokens, line)
            sig = parse_signature((FsPath(base_dir) / sig_file).read_text())
        elif kind == "elements":
            carrier.extend(tokens[1:])
        elif kind == "order":
            order.add(tuple(match("order _ <= _", tokens, line)))
        elif kind == "op":
            # op f: (e0,e1) -> e1
            try:
                fname, mapping = line[len("op"):].split(":", 1)
                lhs, rhs = mapping.split("->")
            except ValueError as exc:
                raise ParseError(f"malformed op line: {line!r}") from exc
            fname = fname.strip()
            args = tuple(a.strip() for a in lhs.strip().strip("()").split(",") if a.strip())
            tbl = tables.setdefault(fname, {})
            if args in tbl:
                repeated.append(f"second op line for {fname} {args}: {line!r}")
            tbl[args] = rhs.strip()
        elif kind == "const":
            c, value = match("const _ = _", tokens, line)
            if c in consts:
                repeated.append(f"second const line for {c}: {line!r}")
            consts[c] = value
        else:
            raise ParseError(f"unknown line {line!r}")
    if sig is None:
        raise ParseError("no signature: need an `algebra <name> over <sigfile>` line")
    if not carrier:
        # The tables of an empty carrier have no entries, so no `op` lines.
        tables = {f: {} for f, _ in sig.operations()} | tables
    elements = set(carrier)
    if len(elements) < len(carrier):
        first = next(e for e in carrier if carrier.count(e) > 1)
        raise ParseError(f"repeated element {first!r}")
    outside = sorted({e for pair in order for e in pair} - elements)
    if outside:
        raise ParseError(f"order lines name {outside}, not in the carrier")
    for fname, tbl in tables.items():
        if not sig.has(fname) or sig.arity(fname) == 0:
            raise ParseError(f"op line for unknown operation {fname!r}")
        k = sig.arity(fname)
        for args, value in tbl.items():
            if len(args) != k:
                raise ParseError(f"op {fname} has arity {k}, got the arguments {args}")
            outside = sorted({*args, value} - elements)
            if outside:
                raise ParseError(f"op {fname} entry {args} -> {value}: "
                                 f"{outside} not in the carrier")
    unknown = sorted(c for c in consts if not sig.has(c) or sig.arity(c) != 0)
    if unknown:
        raise ParseError(f"const lines for {unknown}: not constants of the signature")
    if repeated:
        raise ParseError(repeated[0])
    return OrderedAlgebra(sig, carrier, order, tables, consts, name=name)


def load_algebra(path: str | FsPath) -> OrderedAlgebra:
    p = FsPath(path)
    return parse_algebra(p.read_text(), base_dir=p.parent)


def print_algebra(alg: OrderedAlgebra, sig_file: str) -> str:
    lines = [f"algebra {alg.name} over {sig_file}",
             "elements " + " ".join(alg.carrier)]
    for (a, b) in sorted(alg.order, key=lambda p: (alg.index[p[0]], alg.index[p[1]])):
        if a != b:
            lines.append(f"order {a} <= {b}")
    for f in alg.op_tables:
        for args in itertools.product(alg.carrier, repeat=alg.sig.arity(f)):
            lines.append(f"op {f}: ({','.join(args)}) -> {alg.op(f, args)}")
    for c in alg.sig.constants():
        lines.append(f"const {c} = {alg.const(c)}")
    return "\n".join(lines) + "\n"


def parse_homomorphism(text: str, base_dir: str | FsPath = ".") -> Homomorphism:
    """Parse the `.hom` format: a header line plus one `map` line per element."""
    dom = cod = None
    mapping: dict[str, str] = {}
    for tokens, line in records(text):
        if tokens[0] == "hom":
            dom_file, cod_file = match("hom from _ to _", tokens, line)
            dom = load_algebra(FsPath(base_dir) / dom_file)
            cod = load_algebra(FsPath(base_dir) / cod_file)
        elif tokens[0] == "map":
            a, b = match("map _ -> _", tokens, line)
            if a in mapping:
                raise ParseError(f"second map line for {a}: {line!r}")
            mapping[a] = b
        else:
            raise ParseError(f"unknown line {line!r}")
    if dom is None or cod is None:
        raise ParseError("missing `hom from <dom.oalg> to <cod.oalg>` line")
    if dom.sig != cod.sig:
        raise ParseError(f"{dom.name} and {cod.name} are over different signatures")
    missing = [e for e in dom.carrier if e not in mapping]
    if missing:
        raise ParseError(f"map not total, missing {missing}")
    outside = [e for e in mapping if e not in dom.index]
    if outside:
        raise ParseError(f"map sources {outside} not in the domain {dom.name}")
    outside = [v for v in mapping.values() if v not in cod.index]
    if outside:
        raise ParseError(f"map values {outside} not in the codomain {cod.name}")
    return Homomorphism(dom, cod, mapping)


# Worked instances used across tests and demos.

def chain(n: int, sig: Signature, name: str | None = None) -> OrderedAlgebra:
    """Chain e0 < ... < e{n-1} with join operations and extremal constants."""
    carrier = [f"e{i}" for i in range(n)]
    idx = {e: i for i, e in enumerate(carrier)}
    order = {(a, b) for a in carrier for b in carrier if idx[a] <= idx[b]}
    tables = {}
    for f, k in sig.operations():
        tables[f] = {args: carrier[max(idx[a] for a in args)]
                     for args in itertools.product(carrier, repeat=k)}
    consts = {}
    names = sorted(sig.constants())
    for c in names:
        consts[c] = carrier[0]
    # Respect declared constant inequalities by pushing maximal constants up.
    for c in names:
        if any(c != d and (d, c) in sig.const_order for d in names):
            consts[c] = carrier[-1]
    return OrderedAlgebra(sig, carrier, order, tables, consts,
                          name=name or f"CH{n}")


def with_trivial_order(alg: OrderedAlgebra) -> OrderedAlgebra:
    return OrderedAlgebra(alg.sig, alg.carrier, relations.identity(alg.carrier),
                          alg.op_tables, alg.const_vals, name=alg.name + "=")
