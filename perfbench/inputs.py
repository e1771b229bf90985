"""Seeded inputs for the three workloads, as plain tables.

Every base algebra is drawn here, from `random.Random(seed)`, by code of
the benchmark's own, over the signature f/2, g/3, c, d with c <= d.  The
program only receives the finished tables.  Each round of a workload has
a fixed make-up (a list of cells: base style, size, core size, query
shape) and the seed fills every cell with a fresh random instance.  The
fixed make-up keeps the amount of work nearly the same from seed to seed,
so that run-to-run spread measures the program and not the draw.

A cell's core is drawn first, and the tables are then drawn so that the
core is closed under them and holds both constants; the seed handed to
the program is the core itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

OPS = {"f": 2, "g": 3}


@dataclass(frozen=True)
class Base:
    """A finite ordered algebra as raw tables; `order` is reflexive and
    transitive, `tables[op][args]` is total."""

    name: str
    carrier: tuple
    order: frozenset
    tables: dict
    consts: dict

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.order


def closure(base: Base, seed) -> list:
    """The seed plus the constants, closed under every table, in carrier order."""
    current = set(seed) | set(base.consts.values())
    while True:
        new = {tbl[args] for op, tbl in base.tables.items()
               for args in itertools.product(sorted(current), repeat=OPS[op])}
        if new <= current:
            return [e for e in base.carrier if e in current]
        current |= new


def _chain(carrier) -> frozenset:
    return frozenset((a, b) for i, a in enumerate(carrier) for b in carrier[i:])


def _random_poset(rng: random.Random, carrier) -> frozenset:
    """A random order that is neither total nor discrete."""
    n = len(carrier)
    while True:
        # Edges only go from lower to higher index, so the closure is antisymmetric.
        order = {(a, a) for a in carrier} | {
            (a, b) for i, a in enumerate(carrier) for b in carrier[i + 1:]
            if rng.random() < 1.5 / n}
        while True:
            extra = {(a, d) for (a, b) in order for (c, d) in order if b == c} - order
            if not extra:
                break
            order |= extra
        strict = any(a != b for a, b in order)
        total = all((a, b) in order or (b, a) in order for a in carrier for b in carrier)
        if strict and not total:
            return frozenset(order)


def _monotone_tables(rng: random.Random, carrier, order, core) -> dict | None:
    """Random tables monotone for `order` that keep `core` closed, or None
    on a dead end.  Argument tuples are filled in order of their rank sum;
    each value is drawn from the common up-set of the values below it."""
    rank = {e: sum((a, e) in order for a in carrier) for e in carrier}
    tables = {}
    for op, k in OPS.items():
        table: dict = {}
        for args in sorted(itertools.product(carrier, repeat=k),
                           key=lambda t: (sum(rank[a] for a in t), t)):
            lower = [v for other, v in table.items()
                     if all((o, a) in order for o, a in zip(other, args))]
            pool = core if all(a in core for a in args) else carrier
            choices = [v for v in pool if all((lo, v) in order for lo in lower)]
            if not choices:
                return None
            table[args] = rng.choice(choices)
        tables[op] = table
    return tables


def draw_base(rng: random.Random, style: str, n: int, core_size: int,
              top: int | None = None) -> tuple[Base, tuple]:
    """A base of `style` on e0..e(n-1) with a closed core of `core_size`
    elements holding both constants; with `top`, e{top} is the core's
    largest element.

    Styles: "join", a chain whose operations take the maximum;
    "semilattice", the same tables with the discrete order; "trivial",
    arbitrary tables with the discrete order; "chain" and "poset", random
    monotone tables on a chain or on a random partial order.
    """
    carrier = tuple(f"e{i}" for i in range(n))
    while True:
        if top is None:
            core = rng.sample(carrier, core_size)
        else:
            core = rng.sample(carrier[:top], core_size - 1) + [carrier[top]]
        core = [e for e in carrier if e in core]
        if style in ("semilattice", "trivial"):
            order = frozenset((a, a) for a in carrier)
        else:
            order = _random_poset(rng, carrier) if style == "poset" else _chain(carrier)
        if style in ("join", "semilattice"):
            tables = {op: {args: max(args, key=carrier.index)
                           for args in itertools.product(carrier, repeat=k)}
                      for op, k in OPS.items()}
        elif style == "trivial":
            tables = {op: {args: rng.choice(core if all(a in core for a in args) else carrier)
                           for args in itertools.product(carrier, repeat=k)}
                      for op, k in OPS.items()}
        else:
            tables = _monotone_tables(rng, carrier, order, core)
            if tables is None:
                continue
        c, d = rng.choice(sorted((a, b) for a, b in order if a in core and b in core))
        base = Base(f"{style[0].upper()}{n}", carrier, order, tables, {"c": c, "d": d})
        return base, tuple(core)


# -- Workloads ------------------------------------------------------------------

@dataclass(frozen=True)
class DominionQuery:
    base: Base
    core: tuple        # also the seed of the special amalgam


@dataclass(frozen=True)
class ProveQuery:
    base: Base
    core: tuple
    op: str
    args: tuple        # core elements, one per argument
    sides: tuple       # the copy (1 or 2) each argument is taken from
    value_side: int    # the copy of the term's value on the other side


@dataclass(frozen=True)
class SeparateQuery:
    base: Base
    core: tuple
    outside: tuple     # the elements x asked about, one separator_search each
    max_size: int


# (style, carrier size, core size).  On join chains and on trivially
# ordered bases with arbitrary tables every search outside the core runs
# to the node cap, at a cost per amalgam that varies by about a tenth
# from draw to draw.  On the other styles a search either hits the cap or
# ends early, depending on the draw, so dominion leaves them to prove,
# where each shape keeps one style.
DOMINION_CELLS = [
    ("join", 2, 1), ("join", 3, 1), ("join", 3, 2), ("join", 4, 2), ("join", 5, 3),
    ("trivial", 2, 1), ("trivial", 3, 1), ("trivial", 3, 2), ("trivial", 4, 3),
]

# (operation, copy of each argument, copy of the value, base style): every
# side pattern of both operations against both copies of the value, each
# on one base style.  A shape's outcome (proven, or Unknown at the node
# cap) depends on the style; each shape is paired with a style on which
# its outcome did not change over five draws, so that `decided` and the
# time of a round depend little on the seed.  7 of the 24 end Unknown.
PROVE_CELLS = [
    ("f", (1, 1), 1, "join"), ("f", (1, 1), 2, "chain"), ("f", (1, 2), 1, "trivial"),
    ("f", (1, 2), 2, "join"), ("f", (2, 1), 1, "poset"), ("f", (2, 1), 2, "trivial"),
    ("f", (2, 2), 1, "chain"), ("f", (2, 2), 2, "poset"),
    ("g", (1, 1, 1), 1, "join"), ("g", (1, 1, 1), 2, "chain"), ("g", (1, 1, 2), 1, "trivial"),
    ("g", (1, 1, 2), 2, "poset"), ("g", (1, 2, 1), 1, "join"), ("g", (1, 2, 1), 2, "chain"),
    ("g", (1, 2, 2), 1, "poset"), ("g", (1, 2, 2), 2, "trivial"), ("g", (2, 1, 1), 1, "chain"),
    ("g", (2, 1, 1), 2, "join"), ("g", (2, 1, 2), 1, "poset"), ("g", (2, 1, 2), 2, "trivial"),
    ("g", (2, 2, 1), 1, "join"), ("g", (2, 2, 1), 2, "trivial"), ("g", (2, 2, 2), 1, "chain"),
    ("g", (2, 2, 2), 2, "poset"),
]
# (style, carrier size, core size) of the prove bases.
PROVE_STYLES = {"join": ("join", 3, 2), "chain": ("chain", 4, 2),
                "trivial": ("trivial", 3, 1), "poset": ("poset", 4, 2)}

# (style, carrier size, core size, top, elements asked, codomain size cap).
# On a join chain, with either order, two threshold maps into a
# two-element quotient separate every element above the core, so the
# structured candidates succeed and much of the time goes to enumerating
# the Bell(n) partitions.  On the chains the core is the initial segment
# e0..e{top} and the asked elements lie above it: the candidates come in
# partition order, not by size, and how many larger quotients (|q|^n maps
# each) come before a separating one depends on where the core lies; on
# eight elements a core {e0, e3, e5} instead of e0..e3 makes a call nine
# times slower.  The small proper posets are where the structured
# candidates often fail and the exhaustive search over all codomains of
# at most three elements decides.
SEPARATE_CELLS = [
    ("join", 8, 4, 3, 2, 8), ("semilattice", 8, 4, 3, 2, 8), ("join", 7, 4, 3, 2, 7),
    ("semilattice", 7, 4, 3, 2, 7), ("join", 6, 3, 2, 2, 6), ("semilattice", 6, 3, 2, 2, 6),
    ("poset", 4, 2, None, 1, 3), ("poset", 4, 2, None, 1, 3), ("poset", 4, 2, None, 1, 3),
]

# Queries per round.  A round cycles through its workload's cells, each
# time on a fresh draw, and takes about 25 s on the machine the README
# reports; more distinct queries per round make the round's total depend
# less on the seed.
ROUND = {"dominion": 18, "prove": 36, "separate": 27}


def dominion_queries(seed: int) -> list[DominionQuery]:
    rng = random.Random(seed)
    return [DominionQuery(*draw_base(rng, *DOMINION_CELLS[i % len(DOMINION_CELLS)]))
            for i in range(ROUND["dominion"])]


def prove_queries(seed: int) -> list[ProveQuery]:
    rng = random.Random(seed)
    out = []
    for i in range(ROUND["prove"]):
        op, sides, vs, style = PROVE_CELLS[i % len(PROVE_CELLS)]
        base, core = draw_base(rng, *PROVE_STYLES[style])
        args = tuple(rng.choice(core) for _ in sides)
        out.append(ProveQuery(base, core, op, args, sides, vs))
    return out


def separate_queries(seed: int) -> list[SeparateQuery]:
    rng = random.Random(seed)
    out = []
    for i in range(ROUND["separate"]):
        style, n, k, top, count, max_size = SEPARATE_CELLS[i % len(SEPARATE_CELLS)]
        base, core = draw_base(rng, style, n, k, top)
        above = base.carrier[base.carrier.index(core[-1]) + 1:]
        asked = [e for e in (base.carrier if top is None else above) if e not in core]
        out.append(SeparateQuery(base, core, tuple(rng.sample(asked, count)), max_size))
    return out


QUERIES = {"dominion": dominion_queries, "prove": prove_queries,
           "separate": separate_queries}
