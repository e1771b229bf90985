"""Spans at the boundaries between the program's modules.

Only the traced run uses this.  While a query runs, the names through
which one module of the program calls another's public functions are
replaced by wrappers that record a span each: its name, start, end,
parent span and query id.  Spans are kept in memory and written out when
the run ends.  A layer's self time is its spans' duration minus the part
covered by their child spans.  A call into a layer from inside a span of
the same layer (recursion, or one `relations` helper calling another) is
folded into the outer span.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import oalg.amalgam as amalgam
import oalg.closure as closure
import oalg.relations as relations
import oalg.schemes as schemes

TERM_HELPERS = ("replace_at", "subterm_at", "all_paths", "leaf_paths", "regularize",
                "leaf_span", "skeleton", "leaves", "op_count")


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


# (owner, attribute, layer, extra count from the arguments or None)
BOUNDARIES = [
    (amalgam, "make_rel", "schemes.make_rel", None),
    (amalgam, "assert_valid", "schemes.assert_valid", None),
    (amalgam, "pushout_leq", "amalgam.pushout_leq", None),
    (amalgam.SpecialAmalgam, "collapse_eval", "amalgam.collapse_eval", None),
    (amalgam, "exhaustive_separator", "amalgam.exhaustive_separator", None),
    (amalgam, "all_congruences", "algebra.all_congruences",
     ("partitions", lambda alg: _bell(len(alg.carrier)))),
    (amalgam, "all_homomorphisms", "algebra.all_homomorphisms",
     ("maps", lambda dom, cod: len(cod.carrier) ** len(dom.carrier))),
    (closure, "all_compatible_quasiorders", "closure.all_compatible_quasiorders", None),
    (closure, "compatible_closure", "closure.compatible_closure", None),
] + [(m, name, "terms", None) for m in (amalgam, schemes) for name in TERM_HELPERS
     if hasattr(m, name)] + [
    (relations, name, "relations", None) for name, fn in vars(relations).items()
    if callable(fn) and not name.startswith("_") and fn.__module__ == relations.__name__]

LAYERS = sorted({layer for _, _, layer, _ in BOUNDARIES})


class Tracer:
    """Spans of one run, kept in flat arrays; self time and call counts
    are summed per layer as spans close."""

    def __init__(self):
        self.names = ["query"] + LAYERS
        self.name_of = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("b")
        self.span_parent = array("l")
        self.span_query = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []      # [span id, name index, child seconds]
        self.query_id = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _open(self, idx: int) -> list:
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_query.append(self.query_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, idx, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        self.stack.pop()
        sid, idx, child = frame
        self.span_start[sid] = t0
        self.span_end[sid] = t1
        self.calls[idx] += 1
        self.self_s[idx] += (t1 - t0) - child
        if self.stack:
            self.stack[-1][2] += t1 - t0

    def wrap(self, layer: str, fn, extra=None):
        idx = self.name_of[layer]

        def traced(*args, **kwargs):
            if self.stack and self.stack[-1][1] == idx:
                return fn(*args, **kwargs)
            if extra is not None:
                self.counts[f"{layer}.{extra[0]}"] += extra[1](*args, **kwargs)
            frame = self._open(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, t0, perf_counter())

        return traced

    def counted(self, key: str, gen_fn):
        def counting(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                self.counts[key] += 1
                yield item

        return counting

    @contextmanager
    def query(self, query_id: int):
        """Wrap the module boundaries for the duration of one query."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in BOUNDARIES]
        saved.append((amalgam, "separator_candidates", amalgam.separator_candidates))
        for owner, attr, layer, extra in BOUNDARIES:
            setattr(owner, attr, self.wrap(layer, vars(owner)[attr], extra))
        amalgam.separator_candidates = self.counted(
            "amalgam.separator_candidates.codomains", amalgam.separator_candidates)
        self.query_id = query_id
        frame = self._open(0)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, perf_counter())
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def layer_totals(self) -> dict:
        out = {}
        for layer in LAYERS:
            idx = self.name_of[layer]
            out[f"{layer}.calls"] = self.calls[idx]
            out[f"{layer}.self_s"] = self.self_s[idx]
        out.update(self.counts)
        return out

    def write(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            for sid in range(len(self.span_name)):
                fh.write(f"{sid}\t{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid]:.7f}\t{self.span_end[sid]:.7f}\t"
                         f"{self.span_parent[sid]}\t{self.span_query[sid]}\n")
        return len(self.span_name)

