"""Run one workload in this process and print its result as one JSON line.

Started by run.py, once per workload, with PYTHONHASHSEED fixed:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        [--spawned-at T] [--setup-only]

`--spawned-at` is the parent's time.monotonic() just before it started
this process (the clock is shared by all processes of the machine), so
that set-up time covers interpreter start, import, input generation and
building the program's objects.  `--setup-only` stops there.

Every timed call is also expressed in reference units: the reference
kernel, a fixed pure-Python loop, is timed just before and just after
the call, and the call's seconds are divided by the mean of the two.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class _Node:
    """A term node of the reference kernel, built like the program's terms."""

    label: str
    children: tuple = ()


_LEAVES = tuple(_Node(f"e{i}<{side}>") for i in range(5) for side in (1, 2))


def _replace(t: _Node, path: tuple, new: _Node) -> _Node:
    if not path:
        return new
    kids = list(t.children)
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return _Node(t.label, tuple(kids))


def _labels(t: _Node) -> list:
    return [t.label] if not t.children else [x for c in t.children for x in _labels(c)]


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like the
    program's: tuple keys into a dictionary of ten thousand entries, then
    frozen term trees rebuilt along a path, hashed into a dictionary and
    walked.  Of the kernels tried it tracked the calls' speed best (see
    README.md).  The collector is off while it runs: a collection would
    scan the heap the program left behind, and the kernel would time that
    heap instead of the interpreter.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(10_000):
            key = ((i * 7919) & 65535, i % 13, "e%d" % (i & 7))
            table[key] = table.get(key, 0) + 1
        for i in range(10_000):
            table.get(((i * 104729) & 65535, i % 13, "e1"))
        seen: dict = {}
        base = _Node("g", (_LEAVES[0], _Node("f", (_LEAVES[1], _LEAVES[2])), _LEAVES[3]))
        for i in range(1_000):
            t = _replace(base, (1, i & 1), _LEAVES[i % 10])
            t = _replace(t, (0,), _Node("f", (_LEAVES[(i * 7) % 10], _LEAVES[(i * 3) % 10])))
            seen[t] = tuple(_labels(t))
            seen.get(_replace(t, (2,), _LEAVES[i % 9]))
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Run:
    """The measurements of one run: one record per timed call, per round."""

    def __init__(self):
        self.rounds: list[list[dict]] = []
        self.kernels: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def round(self, calls, tracer=None) -> float:
        """Make every call of one round; returns the round's wall seconds."""
        records = []
        for qid, (call, verify) in enumerate(calls):
            gc.collect()
            k0 = reference_kernel()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = call()
                else:
                    with tracer.query(qid):
                        output = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                t1 = time.perf_counter()
                self.failed += 1
                self.problems.append(f"query {qid}: {type(exc).__name__}: {exc}")
                verify = None
            else:
                t1 = time.perf_counter()
            k1 = reference_kernel()
            self.kernels += [k0, k1]
            record = {"wall": t1 - t0, "ref": (t1 - t0) / ((k0 + k1) / 2)}
            if verify is not None:
                try:
                    outcome = verify(output)
                    decided, stats, problems = outcome.decided, outcome.stats, outcome.problems
                except Exception as exc:  # an output the checks cannot read is rejected
                    decided, stats, problems = 0, {}, [f"check raised {type(exc).__name__}: {exc}"]
                self.problems += [f"query {qid}: {p}" for p in problems]
                record.update(decided=decided, stats=stats, rejected=bool(problems))
                self.failed += bool(problems)
            records.append(record)
        self.rounds.append(records)
        return sum(r["wall"] for r in records)

    @staticmethod
    def busy_ref(rnd) -> float:
        return sum(r["ref"] for r in rnd)

    @staticmethod
    def decided(rnd) -> int:
        return sum(r.get("decided", 0) for r in rnd)

    @staticmethod
    def search_totals(rnd) -> dict:
        total: dict = {}
        for r in rnd:
            for key, value in r.get("stats", {}).items():
                total[key] = total.get(key, 0) + value
        return total


def end_to_end(run: Run, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "busy_ref": (statistics.median(Run.busy_ref(r) for r in run.rounds), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "decided": (statistics.median(Run.decided(r) for r in run.rounds), "count"),
    }


def per_layer(run: Run, tracer, traced_rounds: int) -> dict:
    from tracing import LAYERS

    base = run.rounds[0]
    traced = run.rounds[1:]
    totals = tracer.layer_totals()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (totals[f"{layer}.calls"] / traced_rounds, "count")
        out[f"{layer}.self_s"] = (totals[f"{layer}.self_s"] / traced_rounds, "s")
    for key in ("algebra.all_congruences.partitions", "algebra.all_homomorphisms.maps",
                "amalgam.separator_candidates.codomains"):
        out[key] = (totals.get(key, 0) / traced_rounds, "count")
    search = Run.search_totals(base)
    generated = search.get("nodes_generated", 0)
    for key in ("nodes_generated", "nodes_expanded", "pruned", "capped"):
        out[f"amalgam.search.{key}"] = (search.get(key, 0), "count")
    out["amalgam.search.pruned_per_generated"] = (
        search.get("pruned", 0) / generated if generated else 0.0, "ratio")
    out["amalgam.search.nodes_per_s"] = (generated / sum(r["wall"] for r in base), "1/s")
    out["trace.overhead_ref"] = (
        statistics.median(Run.busy_ref(r) for r in traced) - Run.busy_ref(base), "ref")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["dominion", "prove", "separate"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    spawned = time.monotonic() if args.spawned_at is None else args.spawned_at

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import oalg
    except ImportError:
        print(f"no oalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not Path(oalg.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"oalg imported from {oalg.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import inputs
    import workloads

    queries = inputs.QUERIES[args.workload](args.seed)
    prepare = workloads.PREPARE[args.workload]

    def fresh_calls():
        return [pair for q in queries for pair in prepare(q)]

    calls = fresh_calls()
    setup_s = time.monotonic() - spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = Run()
    start = time.monotonic()
    tracer = None
    if args.trace:
        from tracing import Tracer

        run.round(calls)                  # untraced, the base for the overhead
        tracer = Tracer()
        calls = fresh_calls()
    traced_rounds = 0
    while True:
        last = run.round(calls, tracer)
        traced_rounds += 1
        if time.monotonic() - start + last > args.seconds:
            break
        calls = fresh_calls()
    attempted = sum(len(r) for r in run.rounds)

    if args.trace:
        metrics = per_layer(run, tracer, traced_rounds)
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        path = results / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        spans = tracer.write(path)
        print(f"trace: {spans} spans in {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(run, setup_s)
    kernels = sorted(run.kernels)
    q1, med, q3 = statistics.quantiles(kernels, n=4)
    for p in run.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(r.get("rejected") for rnd in run.rounds for r in rnd),
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": len(run.rounds),
        "reference_kernel": {"mean_ms": 1000 * statistics.fmean(kernels),
                             "spread": (q3 - q1) / med, "samples": len(kernels)},
        "search": Run.search_totals(run.rounds[0]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
