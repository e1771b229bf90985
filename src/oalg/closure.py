"""Generated compatible quasiorders and order-congruences on finite algebras.

Both closures run the one engine `_close`: a worklist that interleaves
transitivity with one-slot operation compatibility and records how each
pair was first derived.  Scheme witnesses are reconstructed on demand
from those derivations.  The independent breadth-first oracle over
translated generator steps is in `oracles.py`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import relations
from .algebra import OrderedAlgebra
from .schemes import (
    IDENTITY_TRANSLATION,
    IneqStep,
    RelStep,
    Scheme,
    Step,
    Translation,
    compose,
    merge_steps,
)
from .terms import Term, formal_var, leaf

Pair = tuple[str, str]


def _single_op_translation(alg: OrderedAlgebra, op: str, fillers: tuple[str, ...],
                           slot: int) -> Translation:
    k = alg.sig.arity(op)
    template = Term(op, tuple(leaf(formal_var(i)) for i in range(1, k + 1)))
    return Translation(template, slot, fillers)


def _close(alg: OrderedAlgebra, seeds) -> dict[Pair, tuple]:
    """Least relation containing the seeds, closed under transitivity and
    under the algebra's one-slot translations; maps each pair to the
    derivation it was first found by.

    `seeds` yields `(pair, derivation)`.  A transitive composite is derived
    as `("trans", left, right)`, and the image (t(x), t(y)) of a pair under
    the translation t at `(f, fillers, slot)` as `("op", f, fillers, slot,
    pair)`.  The dict is in discovery order, which is deterministic: the
    worklist is LIFO, and a popped pair (x, y) first meets the pairs known
    when it is popped, in the order they were found (a pair (a, x) gives
    (a, y), then a pair (y, b) gives (x, b)), and then its images, in
    `alg.translations` order.  The known pairs are indexed by their
    endpoints, so a popped pair meets only the pairs it composes with
    (semi-naive evaluation) instead of a rescan of the whole relation.
    """
    translations, index, carrier = alg.translations.items(), alg.index, alg.carrier
    found: dict[Pair, tuple] = {}
    todo: list[Pair] = []
    ending: dict = {}       # v -> [(seq, (a, v)), ...] in discovery order
    starting: dict = {}     # v -> [(seq, (v, b)), ...] in discovery order

    def add(pair: Pair, derivation: tuple) -> None:
        entry = (len(found), pair)
        found[pair] = derivation
        ending.setdefault(pair[1], []).append(entry)
        starting.setdefault(pair[0], []).append(entry)
        todo.append(pair)

    for pair, derivation in seeds:
        if pair not in found:
            add(pair, derivation)
    while todo:
        pair = todo.pop()
        x, y = pair
        for _, (a, b) in sorted(ending.get(x, []) + starting.get(y, [])):
            if b == x and (a, y) not in found:
                add((a, y), ("trans", (a, x), pair))
            if a == y and (x, b) not in found:
                add((x, b), ("trans", pair, (y, b)))
        i, j = index[x], index[y]
        for (f, fillers, slot), t in translations:
            image = (carrier[t[i]], carrier[t[j]])
            if image not in found:
                add(image, ("op", f, fillers, slot, pair))
    return found


class GeneratedClosure:
    """Least compatible quasiorder containing the order and a relation H.

    `witness(c, c')` rebuilds an alternating inequality / translated-step
    certificate from the recorded provenance; translated steps carry the
    generator pair they rewrite and the one-hole context they act under.
    """

    def __init__(self, alg: OrderedAlgebra, hyp: frozenset[Pair],
                 symmetric: bool = False):
        self.alg = alg
        self.hyp = frozenset(hyp)
        self.symmetric = symmetric
        self.hyp_all = self.hyp | relations.inverse(self.hyp) if symmetric else self.hyp
        def by_position(p: Pair):
            return (alg.index[p[0]], alg.index[p[1]])

        seeds = ([(p, ("base",)) for p in sorted(alg.order, key=by_position)]
                 + [(p, ("hyp", p)) for p in sorted(self.hyp_all, key=by_position)])
        self._prov: dict[Pair, tuple] = _close(alg, seeds)
        self.relation = frozenset(self._prov)
        self._memo: dict[Pair, tuple[Step, ...]] = {}

    def witness(self, c: str, c2: str) -> Scheme | None:
        if (c, c2) not in self.relation:
            return None
        steps = self._steps_for((c, c2))
        return Scheme(leaf(c), leaf(c2), merge_steps(steps))

    def _steps_for(self, pair: Pair) -> tuple[Step, ...]:
        if pair in self._memo:
            return self._memo[pair]
        prov = self._prov[pair]
        a, b = pair
        if prov[0] == "base":
            steps: tuple[Step, ...] = (IneqStep(leaf(a), leaf(b)),)
        elif prov[0] == "hyp":
            tag = "HYP" if pair in self.hyp or not self.symmetric else "HYPINV"
            steps = (RelStep(tag, IDENTITY_TRANSLATION, leaf(a), leaf(b),
                             leaf(a), leaf(b)),)
        elif prov[0] == "trans":
            steps = self._steps_for(prov[1]) + self._steps_for(prov[2])
        else:
            _, f, fillers, slot, inner = prov
            trans = _single_op_translation(self.alg, f, fillers, slot)
            images = self.alg.translations[(f, fillers, slot)]
            steps = tuple(self._transport(s, trans, images) for s in self._steps_for(inner))
        self._memo[pair] = steps
        return steps

    def _transport(self, step: Step, trans: Translation, images: tuple[int, ...]) -> Step:
        """The step under `trans`, whose values' indices on the carrier are `images`."""
        index, carrier = self.alg.index, self.alg.carrier
        left, right = (leaf(carrier[images[index[s.label]]]) for s in (step.left, step.right))
        if isinstance(step, IneqStep):
            return IneqStep(left, right)
        assert isinstance(step, RelStep)
        return RelStep(step.tag, compose(trans, step.trans), step.u, step.v, left, right)


def gen_compatible_quasiorder(alg: OrderedAlgebra, hyp) -> GeneratedClosure:
    """Least compatible quasiorder containing the order and H, with witnesses."""
    return GeneratedClosure(alg, frozenset(hyp), symmetric=False)


def compatible_closure(alg: OrderedAlgebra, pairs) -> frozenset[Pair]:
    """Least compatible quasiorder containing the order and the pairs."""
    seeds = [(p, ("seed",)) for p in itertools.chain(alg.order, pairs)]
    return frozenset(_close(alg, seeds))


def all_compatible_quasiorders(alg: OrderedAlgebra) -> list[frozenset[Pair]]:
    """Every compatible quasiorder, enumerated as closures of generator sets.

    Breadth-first over the closure join-semilattice: start from the order
    itself and keep adjoining single pairs until nothing new appears.
    """
    base = compatible_closure(alg, ())
    seen = {base}
    frontier = [base]
    all_pairs = [(a, b) for a in alg.carrier for b in alg.carrier if a != b]
    while frontier:
        nxt = []
        for rel in frontier:
            for p in all_pairs:
                if p in rel:
                    continue
                bigger = compatible_closure(alg, rel | {p})
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(seen, key=lambda r: (len(r), sorted(r)))


@dataclass
class GeneratedOrderCongruence:
    closure: GeneratedClosure

    @property
    def leq(self) -> frozenset[Pair]:
        return self.closure.relation

    @property
    def theta(self) -> frozenset[Pair]:
        return self.closure.relation & relations.inverse(self.closure.relation)

    def witness(self, c: str, c2: str) -> Scheme | None:
        return self.closure.witness(c, c2)


def gen_order_congruence(alg: OrderedAlgebra, hyp) -> GeneratedOrderCongruence:
    """Order-congruence generated by H: close H together with its inverse."""
    return GeneratedOrderCongruence(GeneratedClosure(alg, frozenset(hyp),
                                                     symmetric=True))
