"""Zigzag schemes as first-class certificates, plus the rewriting engine
that normalizes a scheme between single-leaf endpoints down to one whose
terms are all single nodes.

A scheme alternates inequality steps with tagged relation steps.  Relation
steps carry the one-hole context they act under as an explicit translation
(constant-free regular template, slot index, label fillers), so every
certificate can be rechecked without trusting the producer.

The normalizer resolves one unfold ... fold valley at a time: the glue and
inequality steps between the two contract leaf column by leaf column into
inequality, MULTI, inequality; one push moves the unfold right and one
moves the fold left past the inequalities; and the pair is rewritten by
how its two positions cover each other.

Tags:
  EV1 / EV2        evaluate a subterm over one side to its value there
  EV1INV / EV2INV  unfold a value into a term that evaluates to it
  GLUE / GLUEINV   swap a shared-subalgebra image between the two sides
  ID               diagonal; kept only transiently
  MULTI            simultaneous leafwise GLUE/GLUEINV/ID rewrite
  HYP / HYPINV     generator pair of a finite-algebra closure
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import (
    NotApplicable,
    NotClosedChain,
    ParseError,
    SkeletonMismatch,
    TheoremContradiction,
    WitnessInconsistency,
)
from .signature import Signature, is_formal_variable
from .syntax import records
from .terms import (
    Path,
    Term,
    leaf,
    leaf_count,
    leaf_span,
    leaves,
    op_count,
    parse_term,
    path_of_leaf,
    print_term,
    regularize,
    replace_at,
    skeleton,
    substitute_leaves,
    subterm_at,
    is_regular,
)

EV_TAGS = ("EV1", "EV2")
EVINV_TAGS = ("EV1INV", "EV2INV")
GLUE_TAGS = ("GLUE", "GLUEINV", "ID")
HYP_TAGS = ("HYP", "HYPINV")
ALL_TAGS = EV_TAGS + EVINV_TAGS + GLUE_TAGS + HYP_TAGS


def tag_side(tag: str) -> int:
    if tag in ("EV1", "EV1INV"):
        return 1
    if tag in ("EV2", "EV2INV"):
        return 2
    raise ValueError(f"tag {tag!r} has no side")


@dataclass(frozen=True)
class Translation:
    """A one-hole context: template with the slot leaf left open, the other
    leaf positions filled by fixed labels."""

    template: Term
    slot: int
    fillers: tuple[str, ...]

    def fills_with(self, u: Union[str, Term]) -> list:
        out: list = list(self.fillers[: self.slot - 1])
        out.append(u)
        out.extend(self.fillers[self.slot - 1:])
        return out

    def apply(self, u: Union[str, Term]) -> Term:
        return substitute_leaves(self.template, self.fills_with(u))

    def hole_path(self) -> Path:
        return path_of_leaf(self.template, self.slot)


IDENTITY_TRANSLATION = Translation(leaf("z1"), 1, ())


def compose(outer: Translation, inner: Translation) -> Translation:
    """The translation computing outer(inner(u))."""
    merged = replace_at(outer.template, outer.hole_path(), inner.template)
    template, _ = regularize(merged)
    slot = outer.slot - 1 + inner.slot
    fillers = (outer.fillers[: outer.slot - 1]
               + inner.fillers
               + outer.fillers[outer.slot - 1:])
    return Translation(template, slot, fillers)


def context_translation(t: Term, path: Path) -> Translation:
    """The one-hole context of the subterm occurrence at `path` inside t."""
    slot = leaf_span(t, path)[0]
    stripped = replace_at(t, path, leaf("__slot__"))
    template, labels = regularize(stripped)
    fillers = tuple(l for i, l in enumerate(labels, start=1) if i != slot)
    return Translation(template, slot, fillers)


@dataclass(frozen=True)
class IneqStep:
    left: Term
    right: Term


@dataclass(frozen=True)
class RelStep:
    tag: str
    trans: Translation
    u: Term
    v: Term
    left: Term
    right: Term

    def hole_path(self) -> Path:
        return self.trans.hole_path()


@dataclass(frozen=True)
class MultiStep:
    """Leafwise rewrite on a shared skeleton; one tag per leaf column."""

    left: Term
    right: Term
    tags: tuple[str, ...]


Step = Union[IneqStep, RelStep, MultiStep]


@dataclass(frozen=True)
class Scheme:
    source: Term
    target: Term
    steps: tuple[Step, ...]

    def __len__(self):
        return len(self.steps)

    def ev_load(self) -> int:
        """Total operation count of terms sitting under EV-family tags.

        This is the termination measure of the normalizer: case rewrites
        never increase it and the shrinking cases strictly decrease it.
        """
        total = 0
        for s in self.steps:
            if isinstance(s, RelStep) and s.tag in EV_TAGS:
                total += op_count(s.u)
            elif isinstance(s, RelStep) and s.tag in EVINV_TAGS:
                total += op_count(s.v)
        return total


def make_rel(tag: str, whole: Term, path: Path, new_sub: Term) -> RelStep:
    """Relation step rewriting the subterm of `whole` at `path` to `new_sub`."""
    u = subterm_at(whole, path)
    return RelStep(tag, context_translation(whole, path), u, new_sub,
                   whole, replace_at(whole, path, new_sub))


def validate_scheme(am, sch: Scheme) -> list[dict]:
    """Recheck every invariant of a certificate against an amalgam.

    Returns a report of violations; empty means the certificate is valid.
    """
    report = []
    prev = sch.source
    for idx, s in enumerate(sch.steps):
        if s.left != prev:
            report.append({"kind": "chain", "step": idx,
                           "expected": print_term(prev), "got": print_term(s.left)})
        prev = s.right
        if isinstance(s, IneqStep):
            if not am.term_leq(s.left, s.right):
                report.append({"kind": "ineq", "step": idx,
                               "left": print_term(s.left), "right": print_term(s.right)})
        elif isinstance(s, RelStep):
            flag, _ = is_regular(s.trans.template, am.sig)
            if not flag:
                report.append({"kind": "template", "step": idx})
            if any(is_formal_variable(f) for f in s.trans.fillers):
                report.append({"kind": "fillers", "step": idx})
            if s.trans.apply(s.u) != s.left or s.trans.apply(s.v) != s.right:
                report.append({"kind": "application", "step": idx})
            if not am.in_relation(s.tag, s.u, s.v):
                report.append({"kind": "relation", "step": idx, "tag": s.tag,
                               "u": print_term(s.u), "v": print_term(s.v)})
        elif isinstance(s, MultiStep):
            if skeleton(s.left) != skeleton(s.right):
                report.append({"kind": "multi-skeleton", "step": idx})
                continue
            ls, rs = leaves(s.left), leaves(s.right)
            if len(s.tags) != len(ls):
                report.append({"kind": "multi-tags", "step": idx})
                continue
            for col, (a, b, tg) in enumerate(zip(ls, rs, s.tags)):
                if tg not in GLUE_TAGS or am.glue_tag(a, b) != tg:
                    report.append({"kind": "multi-pair", "step": idx,
                                   "column": col + 1, "pair": (a, b), "tag": tg})
    if prev != sch.target:
        report.append({"kind": "endpoint", "expected": print_term(sch.target),
                       "got": print_term(prev)})
    return report


def assert_valid(am, sch: Scheme, where: str = "") -> Scheme:
    report = validate_scheme(am, sch)
    if report:
        raise WitnessInconsistency(f"invalid scheme {where}: {report[:3]}")
    return sch


# -- Covering ----------------------------------------------------------------

def covering(left_path: Path, right_path: Path) -> str:
    """How the unfolded occurrence at left_path relates to the folded one at
    right_path on their shared skeleton: "proper" (the same occurrence),
    "covers" (left contains right), "covered_by" (right contains left) or
    "disjoint".  Two positions in one tree nest or are disjoint."""
    if left_path == right_path:
        return "proper"
    if right_path[: len(left_path)] == left_path:
        return "covers"
    if left_path[: len(right_path)] == right_path:
        return "covered_by"
    return "disjoint"


# -- Lemma-style single pushes ----------------------------------------------

def push_rel_inv_right(am, sch: Scheme, i: int) -> Scheme:
    """Move an unfold step rightward past the inequality that follows it.

    The unfolded subterm is re-evaluated at the raised leaf labels, so the
    inequality happens first on folded terms and the unfold happens last.
    """
    steps = sch.steps
    if i + 1 >= len(steps):
        raise NotApplicable("no following step")
    a, b = steps[i], steps[i + 1]
    if not (isinstance(a, RelStep) and a.tag in EVINV_TAGS and isinstance(b, IneqStep)):
        raise NotApplicable("expected an unfold followed by an inequality")
    side = tag_side(a.tag)
    path = a.hole_path()
    raised_sub = subterm_at(b.right, path)
    folded_val = am.eval_in_side(raised_sub, side)
    mid = replace_at(b.right, path, leaf(folded_val))
    new_ineq = IneqStep(a.left, mid)
    new_rel = make_rel(a.tag, mid, path, raised_sub)
    if not am.term_leq(new_ineq.left, new_ineq.right):
        raise WitnessInconsistency("push produced a bad inequality")
    out = Scheme(sch.source, sch.target,
                 steps[:i] + (new_ineq, new_rel) + steps[i + 2:])
    return out


def push_rel_left(am, sch: Scheme, i: int) -> Scheme:
    """Move a fold step leftward past the inequality that precedes it."""
    steps = sch.steps
    if i + 1 >= len(steps):
        raise NotApplicable("no following step")
    a, b = steps[i], steps[i + 1]
    if not (isinstance(a, IneqStep) and isinstance(b, RelStep) and b.tag in EV_TAGS):
        raise NotApplicable("expected an inequality followed by a fold")
    side = tag_side(b.tag)
    path = b.hole_path()
    low_sub = subterm_at(a.left, path)
    folded_val = am.eval_in_side(low_sub, side)
    new_rel = make_rel(b.tag, a.left, path, leaf(folded_val))
    new_ineq = IneqStep(new_rel.right, b.right)
    if not am.term_leq(new_ineq.left, new_ineq.right):
        raise WitnessInconsistency("push produced a bad inequality")
    return Scheme(sch.source, sch.target,
                  steps[:i] + (new_rel, new_ineq) + steps[i + 2:])


# -- Grid contraction ---------------------------------------------------------

def grid_contract(am, sch: Scheme, i: int, j: int) -> Scheme:
    """Contract a same-skeleton segment into inequality, MULTI, inequality.

    Each step of steps[i..j] is an inequality or a glue step, and reads as
    one tag per leaf column, None for an inequality.  A column with no glue
    pairs collapses to its bottom value; with an even number of glue pairs,
    side transport shows top and bottom agree up to inequalities and the
    column also collapses; with an odd count, the last glue pair survives
    as the column's MULTI entry.
    """
    segment = sch.steps[i:j + 1]
    if not segment:
        raise NotApplicable("empty segment")
    skel = skeleton(segment[0].left)
    rows = [leaves(segment[0].left)]
    columns: list[tuple[str, ...] | None] = []
    for s in segment:
        if skeleton(s.left) != skel or skeleton(s.right) != skel:
            raise SkeletonMismatch("segment steps change the skeleton")
        if isinstance(s, IneqStep):
            columns.append(None)
        elif isinstance(s, MultiStep):
            columns.append(s.tags)
        elif isinstance(s, RelStep) and s.tag in GLUE_TAGS:
            # A glue step rewrites one leaf, the one at its slot.
            columns.append(tuple(s.tag if c == s.trans.slot else "ID"
                                 for c in range(1, len(rows[0]) + 1)))
        else:
            raise SkeletonMismatch(f"step tag outside the grid fragment: {s}")
        rows.append(leaves(s.right))
    top, bottom = rows[0], rows[-1]
    mid_from: list[str] = []
    mid_to: list[str] = []
    mid_tags: list[str] = []
    for col in range(len(top)):
        values = [row[col] for row in rows]
        tags = [None if c is None else c[col] for c in columns]
        glue_positions = [k for k, tg in enumerate(tags) if tg in ("GLUE", "GLUEINV")]
        if len(glue_positions) % 2 == 0:
            _check_column_chain(am, values, tags, len(values) - 1)
            mid_from.append(bottom[col])
            mid_to.append(bottom[col])
            mid_tags.append("ID")
        else:
            k = glue_positions[-1]
            _check_column_chain(am, values, tags, k)
            if any(tg not in (None, "ID") for tg in tags[k + 1:]):
                raise WitnessInconsistency("glue pair after the pivot")
            mid_from.append(values[k])
            mid_to.append(values[k + 1])
            mid_tags.append(tags[k])
    template, _ = regularize(sch.steps[i].left)
    t_top = substitute_leaves(template, top)
    t_from = substitute_leaves(template, mid_from)
    t_to = substitute_leaves(template, mid_to)
    t_bottom = substitute_leaves(template, bottom)
    new_steps: tuple[Step, ...] = (IneqStep(t_top, t_from),
                                   MultiStep(t_from, t_to, tuple(mid_tags)),
                                   IneqStep(t_to, t_bottom))
    return Scheme(sch.source, sch.target,
                  sch.steps[:i] + new_steps + sch.steps[j + 1:])


def _check_column_chain(am, values: list[str], tags: list[str | None], upto: int) -> None:
    """Verify that a column prefix chains after transport to its first side.

    `tags[k]` is the column's tag in the step from values[k] to
    values[k + 1], None for an inequality.  Transporting across the
    isomorphism maps glue pairs to equalities and keeps inequalities, so
    the prefix composes to values[0] <= values[upto] in the order of the
    first value's side.
    """
    home = am.label_class(values[0])

    def to_home(w: str) -> str:
        return am.transport(w, home)

    for k in range(upto):
        a, b = values[k], values[k + 1]
        if tags[k] is None:
            if not am.leaf_leq(a, b) or not am.leaf_leq(to_home(a), to_home(b)):
                raise WitnessInconsistency(f"column chain breaks at {(a, b)}")
        elif tags[k] != "ID" and to_home(a) != to_home(b):
            raise WitnessInconsistency(f"glue pair {(a, b)} does not transport away")
    if not am.leaf_leq(values[0], to_home(values[upto])):
        raise WitnessInconsistency("column prefix does not chain")


# -- Simplification -----------------------------------------------------------

def simplify(am, sch: Scheme) -> Scheme:
    """Drop trivial steps, read single-leaf MULTI steps as glue steps and
    merge adjacent inequalities."""
    return Scheme(sch.source, sch.target,
                  merge_steps(_as_glue(am, s) for s in sch.steps))


def _as_glue(am, s: Step) -> Step:
    """A single-leaf MULTI step as its glue step; any other step as is."""
    if isinstance(s, MultiStep) and s.left.is_leaf and s.left != s.right:
        tag = am.glue_tag(s.left.label, s.right.label)
        if tag is None:
            raise WitnessInconsistency("bad single-leaf MULTI step")
        return make_rel(tag, s.left, (), s.right)
    return s


def merge_steps(steps: Iterable[Step]) -> tuple[Step, ...]:
    """Drop trivial steps and merge adjacent inequalities."""
    out: list[Step] = []
    for s in steps:
        if (s.u == s.v) if isinstance(s, RelStep) else (s.left == s.right):
            continue
        if out and isinstance(s, IneqStep) and isinstance(out[-1], IneqStep):
            out[-1] = IneqStep(out[-1].left, s.right)
        else:
            out.append(s)
    return tuple(out)


# -- The normalizer -----------------------------------------------------------

@dataclass
class NormalizeResult:
    status: str              # "case1" or "stuck"
    scheme: Scheme
    iterations: int
    trace: list[str] = field(default_factory=list)
    reason: str | None = None

    @property
    def is_case1(self) -> bool:
        return self.status == "case1"


def is_case1(sch: Scheme) -> bool:
    """All terms single nodes; only inequality and glue steps remain."""
    if not (sch.source.is_leaf and sch.target.is_leaf):
        return False
    for s in sch.steps:
        if isinstance(s, MultiStep):
            return False
        if not (s.left.is_leaf and s.right.is_leaf):
            return False
        if isinstance(s, RelStep) and s.tag not in GLUE_TAGS:
            return False
    return True


def _find_core(sch: Scheme) -> tuple[int, int] | None:
    """The first fold and the last unfold before it, or None."""
    steps = sch.steps
    j = next((k for k, s in enumerate(steps)
              if isinstance(s, RelStep) and s.tag in EV_TAGS), None)
    if j is None:
        return None
    i = next((k for k in range(j - 1, -1, -1)
              if isinstance(steps[k], RelStep) and steps[k].tag in EVINV_TAGS), None)
    if i is None:
        return None
    return i, j


def _multi_between(am, left_term: Term, right_term: Term) -> MultiStep | None:
    """Build the MULTI step for two same-skeleton terms, or None if equal."""
    if left_term == right_term:
        return None
    if skeleton(left_term) != skeleton(right_term):
        raise WitnessInconsistency("MULTI endpoints have different skeletons")
    tags = []
    for a, b in zip(leaves(left_term), leaves(right_term)):
        tag = am.glue_tag(a, b)
        if tag is None:
            raise TheoremContradiction(f"column pair {(a, b)} is not a glue pair")
        tags.append(tag)
    return MultiStep(left_term, right_term, tuple(tags))


def _resolve_core(am, sch: Scheme, i: int, j: int, trace: list[str]) -> Scheme:
    """Rewrite the innermost unfold ... fold pair by the covering case analysis.

    After contraction and simplification at most [Ineq, MULTI, Ineq] lies
    between the two, with no two inequalities adjacent, so one push of the
    unfold right and one of the fold left leave at most the MULTI step.
    An unfold or fold rewrites u to v != u, so simplification keeps both
    and each re-find finds the same pair.
    """
    if j > i + 1:
        sch = simplify(am, grid_contract(am, sch, i + 1, j - 1))
        i, j = _find_core(sch)
    if isinstance(sch.steps[i + 1], IneqStep):
        sch = simplify(am, push_rel_inv_right(am, sch, i))
        i, j = _find_core(sch)
    if isinstance(sch.steps[j - 1], IneqStep):
        sch = simplify(am, push_rel_left(am, sch, j - 1))
        i, j = _find_core(sch)
    steps = sch.steps
    unfold = steps[i]
    fold = steps[j]
    mid: MultiStep | None = None
    if j == i + 2 and isinstance(steps[i + 1], MultiStep):
        mid = steps[i + 1]
    elif j != i + 1:
        raise WitnessInconsistency("core segment failed to canonicalize")
    t1, t2 = unfold.right, fold.left
    if mid is None and t1 != t2:
        raise WitnessInconsistency("unfold and fold terms differ without a MULTI step")
    left_path, right_path = unfold.hole_path(), fold.hole_path()
    verdict = covering(left_path, right_path)
    side_l = tag_side(unfold.tag)
    side_r = tag_side(fold.tag)
    t0, t3 = unfold.left, fold.right
    prefix, suffix = steps[:i], steps[j + 1:]
    trace.append(f"case({verdict}) at {left_path}/{right_path}")

    def splice(new_steps: Iterable[Step | None]) -> Scheme:
        body = tuple(s for s in new_steps if s is not None)
        return simplify(am, Scheme(sch.source, sch.target, prefix + body + suffix))

    if verdict == "proper":
        # Both the unfold and the fold vanish; the collapsed column becomes
        # a glue (or diagonal) pair between the two evaluated values.
        return splice([_multi_between(am, t0, t3)])
    if verdict == "covers":
        inner = subterm_at(t1, right_path)
        w_left = am.eval_in_side(inner, side_l)
        reduced = replace_at(t1, right_path, leaf(w_left))
        new_unfold = make_rel(unfold.tag, t0, left_path,
                              subterm_at(reduced, left_path))
        new_multi = _multi_between(am, reduced, t3)
        return splice([new_unfold, new_multi])
    if verdict == "covered_by":
        inner = subterm_at(t2, left_path)
        w_right = am.eval_in_side(inner, side_r)
        reduced = replace_at(t2, left_path, leaf(w_right))
        new_multi = _multi_between(am, t0, reduced)
        new_fold = make_rel(fold.tag, reduced, right_path, leaf(am.eval_in_side(
            subterm_at(reduced, right_path), side_r)))
        if new_fold.right != t3:
            raise WitnessInconsistency("dual shrink changed the segment endpoint")
        return splice([new_multi, new_fold])
    # disjoint: fold first, unfold later; both survive but commute.
    u1 = replace_at(t2, left_path, subterm_at(t0, left_path))
    multi_a = _multi_between(am, t0, u1)
    fold_b = make_rel(fold.tag, u1, right_path, leaf(am.eval_in_side(
        subterm_at(u1, right_path), side_r)))
    u2 = fold_b.right
    unfold_c = make_rel(unfold.tag, u2, left_path, subterm_at(t1, left_path))
    multi_d = _multi_between(am, unfold_c.right, t3)
    return splice([multi_a, fold_b, unfold_c, multi_d])


def normalize(am, sch: Scheme, max_iters: int | None = None) -> NormalizeResult:
    """Drive a scheme between single-leaf endpoints to its single-node form.

    Each iteration takes the first fold and the last unfold before it,
    contracts the glue and inequality steps between them into one MULTI
    step, pushes the unfold right and the fold left past the inequalities
    left over, and resolves the pair by the covering case analysis.  Runs
    that exceed the iteration cap stop with a diagnosis instead of looping;
    they are never silently wrong.  An invalid scheme is stuck at once,
    with its first violation as the reason.
    """
    report = validate_scheme(am, sch)
    if report:
        return NormalizeResult("stuck", sch, 0, [], f"invalid scheme: {report[0]}")
    if not (sch.source.is_leaf and sch.target.is_leaf):
        return NormalizeResult("stuck", sch, 0, [], "endpoints are not single leaves")
    if max_iters is None:
        max_iters = 10 * max(1, len(sch.steps))
    trace: list[str] = []
    cur = simplify(am, sch)
    for s in cur.steps:
        if isinstance(s, RelStep) and s.tag in EV_TAGS + EVINV_TAGS:
            term = s.u if s.tag in EV_TAGS else s.v
            if term.is_leaf and am.sig.has(term.label):
                return NormalizeResult("stuck", cur, 0, trace,
                                       "single-node constant-symbol evaluation step")
    load = cur.ev_load()
    it = 0                      # case rewrites done
    while not is_case1(cur):
        if it >= max_iters:
            return NormalizeResult("stuck", cur, it, trace, "iteration cap reached")
        pair = _find_core(cur)
        if pair is None:
            cur = simplify(am, cur)
            if is_case1(cur):
                break
            return NormalizeResult("stuck", cur, it, trace,
                                   "no unfold/fold pair but not single-node")
        it += 1
        try:
            cur = _resolve_core(am, cur, pair[0], pair[1], trace)
        except (TheoremContradiction, WitnessInconsistency, NotApplicable) as exc:
            return NormalizeResult("stuck", cur, it, trace, f"{type(exc).__name__}: {exc}")
        assert_valid(am, cur, "after case rewrite")
        new_load = cur.ev_load()
        if new_load > load:
            return NormalizeResult("stuck", cur, it, trace, "termination measure increased")
        load = new_load
    return NormalizeResult("case1", cur, it, trace)


def extract_center(sp, fwd: Scheme, rev: Scheme) -> str:
    """From a single-node scheme pair for x in side 1 and y in side 2,
    recover the shared-subalgebra element z with phi1(z) = x, phi2(z) = y.

    Transporting the side-2 inequalities to side 1 turns both schemes into
    chains whose antisymmetry forces every intermediate value to coincide.
    """
    if not (is_case1(fwd) and is_case1(rev)):
        raise NotClosedChain("both schemes must be in single-node form")
    x = fwd.source.label
    y = fwd.target.label
    if rev.source.label != y or rev.target.label != x:
        raise NotClosedChain("reverse scheme endpoints do not match")

    def transported_chain(sch: Scheme) -> list[str]:
        vals = [sp.to_side1(sch.source.label)]
        for s in sch.steps:
            vals.append(sp.to_side1(s.right.label))
        return vals

    chain_fwd = transported_chain(fwd)
    chain_rev = transported_chain(rev)
    for chain in (chain_fwd, chain_rev):
        for a, b in zip(chain, chain[1:]):
            if not sp.a1.leq(a, b):
                raise NotClosedChain(f"transported chain breaks at {(a, b)}")
    if chain_fwd[0] != chain_rev[-1] or chain_fwd[-1] != chain_rev[0]:
        raise NotClosedChain("chains do not close")
    lo, hi = chain_fwd[0], chain_fwd[-1]
    if not (sp.a1.leq(lo, hi) and sp.a1.leq(hi, lo)):
        raise NotClosedChain("endpoints are not mutually comparable")
    # Antisymmetry: the whole chain is constant.
    base = chain_fwd[0]
    for v in chain_fwd + chain_rev:
        if v != base:
            raise NotClosedChain(f"chain value {v} differs from {base}")
    z = sp.center_of_side1(base)
    if z is None or sp.phi1[z] != x or sp.phi2[z] != y:
        raise NotClosedChain("endpoints are not images of a shared element")
    return z


# -- Serialization -------------------------------------------------------------

def scheme_to_lines(sch: Scheme) -> list[str]:
    lines = []
    if not sch.steps:
        lines.append(f"INEQ {print_term(sch.source)} <= {print_term(sch.target)}")
        return lines
    for s in sch.steps:
        if isinstance(s, IneqStep):
            lines.append(f"INEQ {print_term(s.left)} <= {print_term(s.right)}")
        elif isinstance(s, RelStep):
            fills = " ".join(s.trans.fillers)
            body = f"REL {s.tag} {print_term(s.trans.template)} {s.trans.slot}"
            if fills:
                body += f" {fills}"
            lines.append(f"{body} {print_term(s.u)} -> {print_term(s.v)}")
        else:
            tags = ",".join(s.tags)
            lines.append(f"REL MULTI:{tags} {print_term(s.left)} -> {print_term(s.right)}")
    return lines


def scheme_from_lines(sig: Signature, variables: list[str], lines: Iterable[str]) -> Scheme:
    """Parse the line format produced by scheme_to_lines, one step per
    line; the lines may keep their line breaks, as a text file's do."""
    steps: list[Step] = []
    z_vars = [f"z{i}" for i in range(1, 65)]
    for tokens, line in records("\n".join(lines)):
        if tokens[0] == "INEQ":
            body = line[len("INEQ"):]
            if "<=" not in body:
                raise ParseError(f"malformed INEQ line: {line!r}")
            l, r = body.split("<=", 1)
            left = parse_term(sig, variables, l.strip())
            right = parse_term(sig, variables, r.strip())
            steps.append(IneqStep(left, right))
        elif tokens[0] == "REL":
            parts = line[len("REL"):].split(None, 1)
            if len(parts) != 2 or "->" not in parts[1]:
                raise ParseError(f"malformed REL line: {line!r}")
            tag, rest = parts
            lhs, rhs = rest.rsplit("->", 1)
            if tag.startswith("MULTI:"):
                tags = tuple(tag[len("MULTI:"):].split(","))
                left = parse_term(sig, variables, lhs.strip())
                right = parse_term(sig, variables, rhs.strip())
                steps.append(MultiStep(left, right, tags))
                continue
            tokens = lhs.split()
            template, used = _read_prefix(sig, z_vars, tokens)
            n = leaf_count(template)
            slot_token = tokens[used] if used < len(tokens) else ""
            if not (slot_token.isdecimal() and 1 <= int(slot_token) <= n):
                raise ParseError(f"REL line needs a slot in 1..{n} after the template: {line!r}")
            slot = int(slot_token)
            fills = tuple(tokens[used + 1: used + n])
            u_tokens = tokens[used + n:]
            u = parse_term(sig, variables, " ".join(u_tokens))
            v = parse_term(sig, variables, rhs.strip())
            trans = Translation(template, slot, fills)
            steps.append(RelStep(tag, trans, u, v, trans.apply(u), trans.apply(v)))
        else:
            raise ParseError(f"unknown scheme line {line!r}: a step starts with INEQ or REL")
    if not steps:
        raise ParseError("empty scheme file")
    if len(steps) == 1 and isinstance(steps[0], IneqStep) and steps[0].left == steps[0].right:
        return Scheme(steps[0].left, steps[0].right, ())
    return Scheme(steps[0].left, steps[-1].right, tuple(steps))


def _read_prefix(sig: Signature, variables: list[str], tokens: list[str]) -> tuple[Term, int]:
    """Read one self-delimiting prefix word from the head of a token list."""
    need = 1
    used = 0
    for tok in tokens:
        used += 1
        if sig.has(tok):
            need += sig.arity(tok) - 1
        else:
            need -= 1
        if need == 0:
            return parse_term(sig, variables, " ".join(tokens[:used])), used
    raise ParseError("prefix word ended early")
