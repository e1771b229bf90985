"""Generated compatible quasiorders and order-congruences on finite algebras.

Both closures run the one engine `relations.close`, with
`_one_slot_images` as its extension: transitivity interleaved with
one-slot operation compatibility.  Scheme witnesses are reconstructed on
demand from the derivations the engine records.  A literal breadth-first
search over translated generator steps serves as the independent oracle;
it keeps its own loops and shares no code with the engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import relations
from .algebra import OrderedAlgebra, evaluate
from .errors import WitnessInconsistency
from .schemes import (
    IDENTITY_TRANSLATION,
    IneqStep,
    RelStep,
    Scheme,
    Step,
    Translation,
    compose,
)
from .terms import Term, enumerate_terms, formal_var, leaf, leaf_count, regularize

Pair = tuple[str, str]


def _single_op_translation(alg: OrderedAlgebra, op: str, fillers: tuple[str, ...],
                           slot: int) -> Translation:
    k = alg.sig.arity(op)
    template = Term(op, tuple(leaf(formal_var(i)) for i in range(1, k + 1)))
    return Translation(template, slot, fillers)


def _eval_translation(alg: OrderedAlgebra, trans: Translation, value: str) -> str:
    """Evaluate a translation at a carrier element; fillers are elements."""
    return evaluate(alg, trans.template, {formal_var(i): e for i, e in
                                          enumerate(trans.fills_with(value), start=1)})


def _one_slot_images(alg: OrderedAlgebra):
    """The `extend` of `relations.close` for compatible closures: for a pair
    (x, y), every (f(..x..), f(..y..)) with x and y in one argument slot
    and fixed fillers elsewhere, in op / fillers / slot order."""
    ops = [(f, k, list(itertools.product(alg.carrier, repeat=k - 1)))
           for f, k in alg.sig.ops.items() if k > 0]

    def images(pair: Pair):
        x, y = pair
        for f, k, all_fillers in ops:
            table = alg.op_tables[f]
            for fillers in all_fillers:
                for slot in range(1, k + 1):
                    args_x = fillers[: slot - 1] + (x,) + fillers[slot - 1:]
                    args_y = fillers[: slot - 1] + (y,) + fillers[slot - 1:]
                    yield (table[args_x], table[args_y]), ("op", f, fillers, slot, pair)

    return images


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
        self._prov: dict[Pair, tuple] = relations.close(seeds, _one_slot_images(alg))
        self.relation = frozenset(self._prov)
        self._memo: dict[Pair, tuple[Step, ...]] = {}

    def witness(self, c: str, c2: str) -> Scheme | None:
        if (c, c2) not in self.relation:
            return None
        steps = self._steps_for((c, c2))
        return Scheme(leaf(c), leaf(c2), _canonical_steps(leaf(c), leaf(c2), steps))

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
            steps = _join_steps(self._steps_for(prov[1]), self._steps_for(prov[2]))
        else:
            _, f, fillers, slot, inner = prov
            trans = _single_op_translation(self.alg, f, fillers, slot)
            steps = tuple(self._transport(s, trans) for s in self._steps_for(inner))
        self._memo[pair] = steps
        return steps

    def _transport(self, step: Step, trans: Translation) -> Step:
        if isinstance(step, IneqStep):
            return IneqStep(leaf(_eval_translation(self.alg, trans, step.left.label)),
                            leaf(_eval_translation(self.alg, trans, step.right.label)))
        assert isinstance(step, RelStep)
        combined = compose(trans, step.trans)
        return RelStep(step.tag, combined, step.u, step.v,
                       leaf(_eval_translation(self.alg, trans, step.left.label)),
                       leaf(_eval_translation(self.alg, trans, step.right.label)))


def _join_steps(first: tuple[Step, ...], second: tuple[Step, ...]) -> tuple[Step, ...]:
    if first and second and isinstance(first[-1], IneqStep) and isinstance(second[0], IneqStep):
        merged = IneqStep(first[-1].left, second[0].right)
        return first[:-1] + (merged,) + second[1:]
    return first + second


def _canonical_steps(source: Term, target: Term, steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """Merge adjacent inequalities and drop trivial ones."""
    out: list[Step] = []
    for s in steps:
        if isinstance(s, IneqStep):
            if s.left == s.right:
                continue
            if out and isinstance(out[-1], IneqStep):
                out[-1] = IneqStep(out[-1].left, s.right)
                continue
        out.append(s)
    return tuple(out)


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
            out.add((_eval_translation(alg, trans, u),
                     _eval_translation(alg, trans, v)))
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
            for f, k in alg.sig.ops.items():
                if k == 0:
                    continue
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


def gen_compatible_quasiorder(alg: OrderedAlgebra, hyp) -> GeneratedClosure:
    """Least compatible quasiorder containing the order and H, with witnesses."""
    return GeneratedClosure(alg, frozenset(hyp), symmetric=False)


def compatible_closure(alg: OrderedAlgebra, pairs) -> frozenset[Pair]:
    """Least compatible quasiorder containing the order and the pairs."""
    seeds = [(p, ("seed",)) for p in itertools.chain(alg.order, pairs)]
    return frozenset(relations.close(seeds, _one_slot_images(alg)))


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
    """Independent oracle: breadth-first over translated generator steps.

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
            if _eval_translation(alg, s.trans, s.u.label) != s.left.label:
                raise WitnessInconsistency("left side does not evaluate")
            if _eval_translation(alg, s.trans, s.v.label) != s.right.label:
                raise WitnessInconsistency("right side does not evaluate")
        else:
            raise WitnessInconsistency("closure witnesses use single steps only")
    if prev != sch.target:
        raise WitnessInconsistency("endpoint mismatch")
