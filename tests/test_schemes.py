import hashlib
import random
from collections import Counter

import pytest

import oalg.schemes as schemes
from oalg.algebra import chain, evaluate
from oalg.amalgam import make_special, pushout_equal
from oalg.errors import NotApplicable, NotClosedChain, SkeletonMismatch
from oalg.generators import padded_glue_scheme, random_special_amalgam
from oalg.schemes import (
    IDENTITY_TRANSLATION,
    IneqStep,
    MultiStep,
    Scheme,
    Translation,
    compose,
    context_translation,
    covering,
    extract_center,
    grid_contract,
    is_case1,
    make_rel,
    normalize,
    push_rel_inv_right,
    push_rel_left,
    scheme_from_lines,
    scheme_to_lines,
    simplify,
    validate_scheme,
)
from oalg.signature import SIG1
from oalg.terms import Term, enumerate_terms, leaf, leaf_paths, node, parse_term, print_term, \
    replace_at, subterm_at

CH3 = chain(3, SIG1)
SP = make_special(CH3, [])  # core {e0, e2}

E01, E11, E21 = leaf("e0<1>"), leaf("e1<1>"), leaf("e2<1>")
E02, E12, E22 = leaf("e0<2>"), leaf("e1<2>"), leaf("e2<2>")


def glue(x1, x2):
    return make_rel("GLUE", x1, (), x2)


def test_translation_apply_and_compose():
    t1 = Translation(parse_term(SIG1, ["z1", "z2"], "f z1 z2"), 1, ("e0<1>",))
    assert print_term(t1.apply(leaf("e2<1>"))) == "f e2<1> e0<1>"
    t2 = Translation(parse_term(SIG1, ["z1", "z2", "z3"], "g z1 z2 z3"), 2,
                     ("e1<1>", "e2<1>"))
    both = compose(t1, t2)
    for u in (leaf("e0<1>"), node("f", E01, E21)):
        assert both.apply(u) == t1.apply(t2.apply(u))
    assert IDENTITY_TRANSLATION.apply(E01) == E01


def test_context_translation_roundtrip():
    t = node("f", node("g", E01, E11, E21), E01)
    for path in [(), (0,), (0, 1), (1,)]:
        trans = context_translation(t, path)
        assert trans.apply(subterm_at(t, path)) == t


def test_validate_empty_and_single():
    empty = Scheme(E01, E01, ())
    assert validate_scheme(SP, empty) == []
    one = Scheme(E01, E02, (glue(E01, E02),))
    assert validate_scheme(SP, one) == []


def test_validate_catches_chain_breaks():
    broken = Scheme(E01, E02, (IneqStep(E01, E21), glue(E01, E02)))
    report = validate_scheme(SP, broken)
    assert any(item["kind"] == "chain" for item in report)
    bad_ineq = Scheme(E21, E01, (IneqStep(E21, E01),))
    assert any(item["kind"] == "ineq" for item in validate_scheme(SP, bad_ineq))
    bad_rel = Scheme(E01, E12, (make_rel("GLUE", E01, (), E12),))
    assert any(item["kind"] == "relation" for item in validate_scheme(SP, bad_rel))


def unfold_fold_scheme():
    w = node("f", E01, E01)
    return Scheme(E01, E02, (
        make_rel("EV1INV", E01, (), w),
        make_rel("EV1", w, (), E01),
        glue(E01, E02),
    ))


def test_push_rel_inv_right():
    w = node("f", E01, E21)  # evaluates to e2 on side 1
    raised = node("f", E21, E21)
    sch = Scheme(E21, E21, (
        make_rel("EV1INV", E21, (), w),
        IneqStep(w, raised),
        make_rel("EV1", raised, (), E21),
    ))
    assert validate_scheme(SP, sch) == []
    pushed = push_rel_inv_right(SP, sch, 0)
    assert validate_scheme(SP, pushed) == []
    assert isinstance(pushed.steps[0], IneqStep)
    assert pushed.steps[1].tag == "EV1INV"
    # identity inequality: the push is the identity rewrite
    sch2 = Scheme(E21, E21, (
        make_rel("EV1INV", E21, (), w),
        IneqStep(w, w),
        make_rel("EV1", w, (), E21),
    ))
    pushed2 = push_rel_inv_right(SP, sch2, 0)
    assert pushed2.steps[1].right == w
    with pytest.raises(NotApplicable):
        push_rel_inv_right(SP, unfold_fold_scheme(), 2)


def test_push_rel_left():
    w = node("f", E01, E21)
    raised = node("f", E21, E21)
    sch = Scheme(E01, E21, (
        make_rel("EV1INV", E01, (), node("f", E01, E01)),
        IneqStep(node("f", E01, E01), raised),
        make_rel("EV1", raised, (), E21),
    ))
    assert validate_scheme(SP, sch) == []
    pushed = push_rel_left(SP, sch, 1)
    assert validate_scheme(SP, pushed) == []
    assert pushed.steps[1].tag == "EV1"
    assert isinstance(pushed.steps[2], IneqStep)


def test_grid_contract_rejects_a_skeleton_change():
    with pytest.raises(SkeletonMismatch):
        grid_contract(SP, unfold_fold_scheme(), 0, 1)


def test_grid_contract_all_diagonal():
    w1 = node("f", E01, E01)
    w2 = node("f", E21, E01)
    sch = Scheme(w1, w2, (IneqStep(w1, w2),))
    out = grid_contract(SP, sch, 0, 0)
    assert validate_scheme(SP, out) == []
    assert out.source == w1 and out.target == w2


def test_grid_contract_even_column():
    # glue across and back: even count, collapses to the bottom value
    w1 = node("f", E01, E01)
    w2 = node("f", E02, E01)
    sch = Scheme(w1, w1, (
        make_rel("GLUE", w1, (0,), E02),
        make_rel("GLUEINV", w2, (0,), E01),
    ))
    assert validate_scheme(SP, sch) == []
    out = grid_contract(SP, sch, 0, 1)
    assert validate_scheme(SP, out) == []
    multis = [s for s in out.steps if isinstance(s, MultiStep)]
    assert len(multis) == 1 and multis[0].tags == ("ID", "ID")
    assert simplify(SP, out).steps == ()


def test_grid_contract_odd_column():
    w1 = node("f", E01, E01)
    sch = Scheme(w1, node("f", E02, E01), (
        make_rel("GLUE", w1, (0,), E02),
    ))
    out = grid_contract(SP, sch, 0, 0)
    assert validate_scheme(SP, out) == []
    multis = [s for s in out.steps if isinstance(s, MultiStep)]
    assert len(multis) == 1 and multis[0].tags == ("GLUE", "ID")


def test_covering_verdicts():
    assert covering((), ()) == covering((1, 0), (1, 0)) == "proper"
    assert covering((), (1,)) == covering((1,), (1, 0, 2)) == "covers"
    assert covering((0,), ()) == covering((1, 0, 2), (1,)) == "covered_by"
    assert covering((0,), (1,)) == covering((1, 0), (1, 1, 0)) == "disjoint"


def test_normalize_already_case1():
    one = Scheme(E01, E02, (glue(E01, E02),))
    for cap in (None, 0):
        res = normalize(SP, one, max_iters=cap)
        assert res.is_case1 and res.iterations == 0 and res.scheme.steps == one.steps


def test_normalize_unfold_fold():
    res = normalize(SP, unfold_fold_scheme())
    assert res.is_case1
    assert res.scheme.ev_load() == 0
    assert validate_scheme(SP, res.scheme) == []
    # A cap of exactly the rewrites needed still ends in case 1.
    assert normalize(SP, unfold_fold_scheme(), max_iters=res.iterations) == res


def test_normalize_nested_trace():
    inner = node("f", E01, E01)
    big = node("f", E21, inner)
    mid = node("f", E21, E01)
    sch = Scheme(E21, E22, (
        make_rel("EV1INV", E21, (), big),
        make_rel("EV1", big, (1,), E01),
        make_rel("EV1", mid, (), E21),
        glue(E21, E22),
    ))
    assert validate_scheme(SP, sch) == []
    res = normalize(SP, sch)
    assert res.is_case1
    assert any("covers" in step for step in res.trace)


def test_normalize_iteration_cap():
    res = normalize(SP, unfold_fold_scheme(), max_iters=0)
    assert res.status == "stuck" and "cap" in res.reason


def test_normalize_reports_an_invalid_scheme_as_stuck():
    # Both relation steps claim that the leaf e2<1> evaluates to another element.
    sch = Scheme(E21, E01, (make_rel("EV1INV", E21, (), E11), IneqStep(E11, E21),
                            make_rel("EV1", E21, (), E01)))
    first = validate_scheme(SP, sch)[0]
    res = normalize(SP, sch)
    assert (res.status, res.scheme, res.iterations) == ("stuck", sch, 0)
    assert res.reason == f"invalid scheme: {first}"


def test_is_case1():
    assert is_case1(Scheme(E01, E01, ()))
    assert not is_case1(unfold_fold_scheme())


def test_extract_center():
    res = pushout_equal(SP, E01, E02)
    fwd = normalize(SP, res.forward).scheme
    rev = normalize(SP, res.backward).scheme
    assert extract_center(SP, fwd, rev) == "e0"
    with pytest.raises(NotClosedChain):
        extract_center(SP, fwd, fwd)


def test_extract_center_needs_case1():
    with pytest.raises(NotClosedChain):
        extract_center(SP, unfold_fold_scheme(), unfold_fold_scheme())


def test_scheme_serialization_roundtrip():
    for sch in (unfold_fold_scheme(),
                Scheme(E01, E02, (glue(E01, E02),)),
                Scheme(E01, E01, ())):
        lines = scheme_to_lines(sch)
        again = scheme_from_lines(SIG1, SP.variables(), lines)
        assert again.source == sch.source and again.target == sch.target
        assert len(again.steps) == len(sch.steps)
        assert validate_scheme(SP, again) == validate_scheme(SP, sch)


def test_multi_step_serialization():
    w1 = node("f", E01, E01)
    w2 = node("f", E02, E01)
    sch = Scheme(w1, w2, (MultiStep(w1, w2, ("GLUE", "ID")),))
    assert validate_scheme(SP, sch) == []
    again = scheme_from_lines(SIG1, SP.variables(), scheme_to_lines(sch))
    assert again.steps[0] == sch.steps[0]


# sha256 of normalize at max_iters None, 0, 1 and 2 (status, iterations,
# reason, trace and the result's lines) on: both pushout_equal
# certificates of every shared pair and the four padded recipes, over 40
# random special amalgams; random valleys, a leaf unfolded into a term
# with constants whose leaves are raised and glued before a fold at the
# root; and two hand-built schemes on SP.  No other test's normalize run
# reaches the covered_by case or either push.  A change to the normalizer
# that keeps its answers leaves this alone.
NORMALIZER_DIGEST = "862d522f9536aad0efb97e6fedb238f6bd5d821d41968732c0b2e70eda411304"


POOLS: dict[tuple[str, ...], list[Term]] = {}


def valley_schemes(rng, sp, count):
    """Unfold a side-1 leaf into a term with constants, raise and glue some
    of its element leaves, then fold at the root on the side they reach."""
    labels = tuple(sp.a1.carrier + sorted(sp.sig.constants()))
    if labels not in POOLS:
        POOLS[labels] = [t for t in enumerate_terms(sp.sig, list(labels), 2) if not t.is_leaf]
    pool = POOLS[labels]
    env = {e: e for e in sp.a1.carrier}
    out = []
    for _ in range(count):
        w = rng.choice(pool)
        steps = [make_rel("EV1INV", leaf(evaluate(sp.a1, w, env)), (), w)]
        cross = rng.random() < 0.5

        def raise_leaf(cur, path):
            a = subterm_at(cur, path).label
            side = sp.side(sp.label_class(a))
            above = [b for b in side.carrier if b != a and side.leq(a, b)]
            if not above or rng.random() < 0.5:
                return cur
            steps.append(IneqStep(cur, replace_at(cur, path, leaf(rng.choice(above)))))
            return steps[-1].right

        cur = w
        for path in leaf_paths(w):
            if sp.label_class(subterm_at(cur, path).label) == 0:
                continue
            cur = raise_leaf(cur, path)
            partner = sp.glue.get(subterm_at(cur, path).label)
            if cross and partner is not None:
                steps.append(make_rel(partner[0], cur, path, leaf(partner[1])))
                cur = raise_leaf(steps[-1].right, path)
        side = sp.term_class(cur)
        if side is None:
            continue
        side = side or 1
        steps.append(make_rel(f"EV{side}", cur, (), leaf(sp.eval_in_side(cur, side))))
        sch = Scheme(steps[0].left, steps[-1].right, tuple(steps))
        assert validate_scheme(sp, sch) == []
        out.append(sch)
    return out


def test_normalizer_outputs_are_pinned(monkeypatch):
    ran = Counter()
    for name in ("grid_contract", "push_rel_inv_right", "push_rel_left"):
        def counted(*args, _name=name, _fn=getattr(schemes, name)):
            ran[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(schemes, name, counted)
    corpus = [
        # Glued leafwise, raised on side 2, folded there: a push left.
        (SP, Scheme(E01, E12, (
            make_rel("EV1INV", E01, (), node("f", E01, E01)),
            make_rel("GLUE", node("f", E01, E01), (0,), E02),
            make_rel("GLUE", node("f", E02, E01), (1,), E02),
            IneqStep(node("f", E02, E02), node("f", E12, E02)),
            make_rel("EV2", node("f", E12, E02), (), E12),
        ))),
        # An unfold inside the unfolded term, folded at the root: covered_by.
        (SP, Scheme(E11, E11, (
            make_rel("EV1INV", E11, (), node("f", E11, E01)),
            make_rel("EV1INV", node("f", E11, E01), (0,), node("f", E01, E11)),
            make_rel("EV1", node("f", node("f", E01, E11), E01), (), E11),
        ))),
    ]
    rng = random.Random(21)
    for _ in range(40):
        sp = random_special_amalgam(rng, SIG1, 4)
        for z in sp.c.carrier:
            res = pushout_equal(sp, leaf(sp.phi1[z]), leaf(sp.phi2[z]))
            corpus += [(sp, res.forward), (sp, res.backward)]
            for recipe in ("proper", "nested", "disjoint", "cross"):
                sch = padded_glue_scheme(rng, sp, z, recipe)
                if sch is not None:
                    corpus.append((sp, sch))
        corpus += [(sp, sch) for sch in valley_schemes(rng, sp, 8)]
    for _, sch in corpus[:2]:
        assert validate_scheme(SP, sch) == []
    digest = hashlib.sha256()
    verdicts, returned = set(), set()
    for sp, sch in corpus:
        for cap in (None, 0, 1, 2):
            res = normalize(sp, sch, max_iters=cap)
            returned.add((sp, res.scheme))
            verdicts.update(line.split(")")[0] for line in res.trace)
            digest.update(repr((res.status, res.iterations, res.reason, res.trace,
                                scheme_to_lines(res.scheme))).encode())
    assert verdicts == {"case(proper", "case(covers", "case(covered_by", "case(disjoint"}
    assert all(ran[name] for name in ("grid_contract", "push_rel_inv_right", "push_rel_left")), ran
    assert all(validate_scheme(sp, sch) == [] for sp, sch in returned)
    assert digest.hexdigest() == NORMALIZER_DIGEST
