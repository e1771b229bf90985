"""Tests of the benchmark itself: its checks reject corrupted outputs, and
two runs on fresh objects do identical work."""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Run  # noqa: E402

SEED = 7


def _first(workload: str, pick):
    """The first query of a workload (at SEED) that `pick` accepts, prepared."""
    q = next(q for q in inputs.QUERIES[workload](SEED) if pick(q))
    return q, workloads.PREPARE[workload](q)


def test_bell_numbers():
    assert [tracing._bell(n) for n in range(1, 9)] == [1, 2, 5, 15, 52, 203, 877, 4140]


def test_prove_check_rejects_a_broken_step():
    q, [(call, verify)] = _first("prove", lambda q: q.sides == (1, 1) and q.value_side == 2)
    res = call()
    assert res.proven and verify(res).problems == []
    s, t = workloads.prove_terms(q)
    steps = list(res.forward.steps)
    rel = next(i for i, st in enumerate(steps) if type(st).__name__ == "RelStep")
    wrong = {"EV1": "EV2", "EV2": "EV1", "GLUE": "GLUEINV", "GLUEINV": "GLUE",
             "EV1INV": "EV2INV", "EV2INV": "EV1INV"}[steps[rel].tag]
    steps[rel] = dataclasses.replace(steps[rel], tag=wrong)
    broken = dataclasses.replace(res.forward, steps=tuple(steps))
    assert checks.scheme_problems(q.base, q.core, broken, s, t)
    shortened = dataclasses.replace(res.forward, steps=res.forward.steps[:-1])
    assert checks.scheme_problems(q.base, q.core, shortened, s, t)


def test_separate_check_rejects_a_separator_that_moves_the_core():
    q, pairs = _first("separate", lambda q: q.base.name.startswith("J") and q.max_size <= 6)
    call, verify = pairs[0]
    sep = call()
    assert sep is not None and verify(sep).problems == []
    z = q.core[0]
    other = next(e for e in sep.codomain.carrier if e != sep.g.map[z])
    moved = dataclasses.replace(sep, g=dataclasses.replace(sep.g, map={**sep.g.map, z: other}))
    assert checks.separator_problems(q.base, q.core, sep.element, moved)
    same = dataclasses.replace(sep, g=sep.f)
    assert "separator does not separate x" in checks.separator_problems(
        q.base, q.core, sep.element, same)


def test_dominion_check_rejects_wrong_statuses():
    q = inputs.DominionQuery(*inputs.draw_base(random.Random(0), "join", 4, 2))
    budget = workloads.Budget(**workloads.BUDGET)
    good = {x: {"status": "InC"} if x in q.core else
            {"status": "NoWitnessFound", "stats": {"depth_reached": 2, "capped": True,
                                                    "nodes_generated": 20_001}}
            for x in q.base.carrier}
    assert checks.dominion_problems(q.base, q.core, good, budget) == []
    outside = next(x for x in q.base.carrier if x not in q.core)
    claimed = {**good, outside: {"status": "InC"}}
    assert checks.dominion_problems(q.base, q.core, claimed, budget)
    early_cap = {**good, outside: {"status": "NoWitnessFound", "stats": {
        "depth_reached": 2, "capped": True, "nodes_generated": 5}}}
    assert checks.dominion_problems(q.base, q.core, early_cap, budget)


def test_two_runs_do_identical_work():
    """Fresh objects each round: same search statistics, decided counts
    and separator codomains, whatever the caches held before."""
    picks = [("prove", 3, lambda q: q.value_side == 2 and set(q.sides) == {2} or q.sides == (1, 1)),
             ("dominion", 1, lambda q: q.base.name == "J2"),
             ("separate", 4, lambda q: q.max_size <= 6)]
    selected = [(w, q) for w, count, pick in picks
                for q in [q for q in inputs.QUERIES[w](SEED) if pick(q)][:count]]

    def one_run():
        run, tracer = Run(), tracing.Tracer()
        run.round([pair for w, q in selected for pair in workloads.PREPARE[w](q)], tracer)
        rnd = run.rounds[0]
        assert run.failed == 0, run.problems
        return (Run.search_totals(rnd), [r["decided"] for r in rnd],
                tracer.counts["amalgam.separator_candidates.codomains"])

    first, second = one_run(), one_run()
    assert first == second
    assert first[2] > 0 and first[0]["searches"] > 0
