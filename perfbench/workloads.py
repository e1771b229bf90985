"""The three workloads: build the program's objects, call it, check it.

`PREPARE[workload](query)` builds the program's objects for one query
from `inputs` and returns a list of (call, verify) pairs: `call` is the
timed call into the program, and `verify(output)` hands its output to the
independent checks and returns an `Outcome`.  The benchmark prepares the
objects fresh for every round, so that the program's per-object caches
start cold, as they do for a user of the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from oalg import Budget, OrderedAlgebra, SIG1, dominion_special, leaf, make_special, \
    node, pushout_equal, separator_search

import checks
import inputs

# Today's default search budget, pinned so that a change of the program's
# defaults does not silently change the workloads.
BUDGET = dict(max_term_ops=4, max_scheme_len=8, max_nodes=20_000, max_unfold_ops=2)


@dataclass
class Outcome:
    """What one timed call gave: how many queries it decided, the search
    statistics the program returned, and the problems the checks found."""

    decided: int = 0
    stats: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def algebra(base: inputs.Base) -> OrderedAlgebra:
    return OrderedAlgebra(SIG1, list(base.carrier), set(base.order),
                          base.tables, base.consts, name=base.name)


def add_stats(total: dict, stats: dict) -> None:
    """Sum SearchStats fields; `capped` counts the capped searches."""
    for key in ("nodes_expanded", "nodes_generated", "pruned", "capped"):
        total[key] = total.get(key, 0) + int(stats[key])
    total["searches"] = total.get("searches", 0) + 1


def dominion(q: inputs.DominionQuery):
    """`dominion_special` at the default budget, one call per amalgam."""
    sp = make_special(algebra(q.base), list(q.core))
    budget = Budget(**BUDGET)

    def verify(statuses) -> Outcome:
        out = Outcome(problems=checks.dominion_problems(q.base, q.core, statuses, budget))
        out.decided = sum(info["status"] == "InC" for info in statuses.values())
        for info in statuses.values():
            if "stats" in info:
                add_stats(out.stats, info["stats"])
        return out

    return [(lambda: dominion_special(sp, budget), verify)]


def prove_terms(q: inputs.ProveQuery):
    s = node(q.op, *(leaf(f"{a}<{side}>") for a, side in zip(q.args, q.sides)))
    t = leaf(f"{q.base.tables[q.op][q.args]}<{q.value_side}>")
    return s, t


def prove(q: inputs.ProveQuery):
    """`pushout_equal` between a one-operation term over core images from
    both copies and a copy of its value, which is true by construction."""
    sp = make_special(algebra(q.base), list(q.core))
    budget = Budget(**BUDGET)
    s, t = prove_terms(q)

    def verify(res) -> Outcome:
        stats = res.stats.as_dict()
        out = Outcome(problems=checks.stats_problems(stats, budget))
        add_stats(out.stats, stats)
        if res.proven:
            out.decided = 1
            out.problems += checks.scheme_problems(q.base, q.core, res.forward, s, t)
            out.problems += checks.scheme_problems(q.base, q.core, res.backward, t, s)
        return out

    return [(lambda: pushout_equal(sp, s, t, budget), verify)]


def separate(q: inputs.SeparateQuery):
    """`separator_search` for each asked outside element of one base; the
    calls share the base object, as the elements of one epi check do."""
    alg = algebra(q.base)
    core = list(q.core)

    def pair(x: str):
        def verify(sep) -> Outcome:
            if sep is None:
                return Outcome()
            return Outcome(decided=1, stats={"codomain_size": len(sep.codomain.carrier)},
                           problems=checks.separator_problems(q.base, q.core, x, sep))

        return (lambda: separator_search(alg, core, x, q.max_size)), verify

    return [pair(x) for x in q.outside]


PREPARE = {"dominion": dominion, "prove": prove, "separate": separate}
