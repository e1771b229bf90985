"""Checks of the program's outputs, written apart from the program.

Nothing here calls the program's own validators (`validate_scheme`,
`check_homomorphism`, `mediate`) or its evaluators: terms are read as
trees through their `label` and `children`, and every meaning is taken
from the raw tables in `inputs.Base`.  Each check returns a list of
problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import itertools

from inputs import OPS, Base, closure

ARITY = {**OPS, "c": 0, "d": 0}


def tree(t) -> tuple:
    """A term as a nested (label, children) tuple."""
    return (t.label, tuple(tree(c) for c in t.children))


def leaf_labels(t: tuple) -> list:
    label, kids = t
    return [label] if not kids else [l for c in kids for l in leaf_labels(c)]


def shape(t: tuple):
    label, kids = t
    return None if not kids else (label, tuple(shape(c) for c in kids))


def copy_of(label: str) -> tuple:
    """("e1", 2) for "e1<2>"; (label, 0) for a constant symbol."""
    if label.endswith(">") and "<" in label:
        name, side = label[:-1].rsplit("<", 1)
        return name, int(side)
    return label, 0


def leaf_leq(base: Base, a: str, b: str) -> bool:
    (x, i), (y, j) = copy_of(a), copy_of(b)
    if i != j:
        return False
    if i == 0:
        return x == y or (x, y) == ("c", "d")
    return base.leq(x, y)


def evaluate(base: Base, t: tuple, side: int) -> str | None:
    """The value of t on one copy, or None if a leaf lies on the other copy."""
    label, kids = t
    if not kids:
        x, i = copy_of(label)
        if i == 0:
            return base.consts.get(x)
        return x if i == side and x in base.carrier else None
    args = tuple(evaluate(base, c, side) for c in kids)
    if None in args or label not in OPS or len(args) != OPS[label]:
        return None
    return base.tables[label][args]


def substitute(template: tuple, fills: list) -> tuple:
    it = iter(fills)

    def build(n):
        label, kids = n
        return next(it) if not kids else (label, tuple(build(c) for c in kids))

    return build(template)


def _context_problems(step, u: tuple, v: tuple, left: tuple, right: tuple) -> list:
    template = tree(step.trans.template)
    names = leaf_labels(template)
    if names != [f"z{i}" for i in range(1, len(names) + 1)]:
        return ["template is not regular"]
    if any(ARITY.get(lbl) != len(kids) for lbl, kids in _nodes(template) if kids):
        return ["template uses an unknown operation"]
    fillers = [(f, ()) for f in step.trans.fillers]
    slot = step.trans.slot
    if len(fillers) != len(names) - 1 or not 1 <= slot <= len(names):
        return ["context has the wrong number of fillers"]
    if any(f.startswith("z") and f[1:].isdigit() for f, _ in fillers):
        return ["a filler is a formal variable"]
    out = []
    if substitute(template, fillers[:slot - 1] + [u] + fillers[slot - 1:]) != left:
        out.append("context applied to u is not the left term")
    if substitute(template, fillers[:slot - 1] + [v] + fillers[slot - 1:]) != right:
        out.append("context applied to v is not the right term")
    return out


def _nodes(t: tuple):
    yield t
    for c in t[1]:
        yield from _nodes(c)


def _relation_holds(base: Base, core: set, tag: str, u: tuple, v: tuple) -> bool:
    if tag == "ID":
        return u == v
    if tag in ("GLUE", "GLUEINV"):
        if u[1] or v[1]:
            return False
        (x, i), (y, j) = copy_of(u[0]), copy_of(v[0])
        want = (1, 2) if tag == "GLUE" else (2, 1)
        return x == y and x in core and (i, j) == want
    if tag in ("EV1", "EV2", "EV1INV", "EV2INV"):
        side = int(tag[2])
        term, value = (u, v) if len(tag) == 3 else (v, u)
        if value[1]:
            return False
        y, j = copy_of(value[0])
        return j == side and evaluate(base, term, side) == y
    return False


def scheme_problems(base: Base, core, scheme, source, target) -> list:
    """Recheck a certificate that `source` precedes `target` in the pushout
    of two copies of `base` glued along `core`, step by step."""
    core = set(core)
    out = []
    if tree(scheme.source) != tree(source) or tree(scheme.target) != tree(target):
        out.append("scheme has the wrong endpoints")
    prev = tree(source)
    for n, step in enumerate(scheme.steps):
        left, right = tree(step.left), tree(step.right)
        if left != prev:
            out.append(f"step {n} does not start where step {n - 1} ended")
        prev = right
        kind = type(step).__name__
        if kind == "IneqStep":
            if shape(left) != shape(right) or not all(
                    leaf_leq(base, a, b) for a, b in zip(leaf_labels(left), leaf_labels(right))):
                out.append(f"step {n}: inequality does not hold leafwise")
        elif kind == "RelStep":
            u, v = tree(step.u), tree(step.v)
            out += [f"step {n}: {p}" for p in _context_problems(step, u, v, left, right)]
            if not _relation_holds(base, core, step.tag, u, v):
                out.append(f"step {n}: {step.tag} does not relate u and v")
        elif kind == "MultiStep":
            ls, rs = leaf_labels(left), leaf_labels(right)
            if not (shape(left) == shape(right) and len(step.tags) == len(ls) and all(
                    tg in ("GLUE", "GLUEINV", "ID")
                    and _relation_holds(base, core, tg, (a, ()), (b, ()))
                    for a, b, tg in zip(ls, rs, step.tags))):
                out.append(f"step {n}: leafwise glue step does not hold")
        else:
            out.append(f"step {n}: unknown step kind {kind}")
    if prev != tree(target):
        out.append("the last step does not end at the target")
    return out


def stats_problems(stats: dict, budget) -> list:
    out = []
    if stats["depth_reached"] > budget.max_scheme_len:
        out.append("search went deeper than max_scheme_len")
    if stats["capped"] and stats["nodes_generated"] <= budget.max_nodes:
        out.append("search reported capped below the node cap")
    return out


def dominion_problems(base: Base, seed, statuses: dict, budget) -> list:
    """The copies must meet exactly in the generated core (the paper's
    theorem), so every element outside it must come back without a witness."""
    core = set(closure(base, seed))
    out = []
    if set(statuses) != set(base.carrier):
        out.append("statuses do not cover the carrier")
    in_c = {x for x, info in statuses.items() if info["status"] == "InC"}
    if in_c != core:
        out.append(f"InC elements {sorted(in_c)} differ from the core {sorted(core)}")
    for x, info in statuses.items():
        if x in core:
            continue
        if info["status"] != "NoWitnessFound":
            out.append(f"{x} outside the core reported {info['status']}")
        else:
            out += [f"{x}: {p}" for p in stats_problems(info["stats"], budget)]
    return out


def _is_order(order: set, carrier) -> bool:
    return (all((a, a) in order for a in carrier)
            and all(a == b for (a, b) in order if (b, a) in order)
            and all((a, d) in order for (a, b) in order for (c, d) in order if b == c))


def _monotone(table: dict, carrier, order: set, k: int) -> bool:
    """Monotone in each argument separately, which is monotone componentwise."""
    return all((table[args[:i] + (a,) + args[i:]], table[args[:i] + (b,) + args[i:]]) in order
               for args in itertools.product(carrier, repeat=k - 1)
               for i in range(k) for (a, b) in order)


def separator_problems(base: Base, core, x: str, sep) -> list:
    """A separator is a codomain D in the variety and two monotone
    homomorphisms into it that agree on the core and differ at x."""
    d = sep.codomain
    dc, order = list(d.carrier), set(d.order)
    out = []
    if sep.element != x:
        out.append("separator is for another element")
    if not _is_order(order, dc) or any(a not in dc or b not in dc for a, b in order):
        out.append("codomain order is not a partial order on its carrier")
    for op, k in OPS.items():
        table = d.op_tables.get(op, {})
        if any(table.get(args) not in dc for args in itertools.product(dc, repeat=k)):
            out.append(f"codomain table {op} is not total")
            continue
        if not _monotone(table, dc, order, k):
            out.append(f"codomain table {op} is not monotone")
    if (d.const_vals.get("c"), d.const_vals.get("d")) not in order:
        out.append("codomain constants are not ordered")
    for name, h in (("f", sep.f.map), ("g", sep.g.map)):
        if any(h.get(e) not in dc for e in base.carrier):
            out.append(f"{name} is not a map into the codomain")
            continue
        if any((h[a], h[b]) not in order for (a, b) in base.order):
            out.append(f"{name} is not monotone")
        if any(h[base.consts[c]] != d.const_vals.get(c) for c in base.consts):
            out.append(f"{name} does not keep the constants")
        if any(h[v] != d.op_tables[op][tuple(h[a] for a in args)]
               for op, table in base.tables.items() for args, v in table.items()):
            out.append(f"{name} is not a homomorphism")
    if not out:
        if any(sep.f.map[z] != sep.g.map[z] for z in core):
            out.append("separator moves the core")
        if sep.f.map[x] == sep.g.map[x]:
            out.append("separator does not separate x")
    return out
