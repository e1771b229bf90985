import pytest

from oalg.algebra import chain
from oalg.amalgam import make_special, pushout_equal
from oalg.errors import NotApplicable, NotClosedChain, SkeletonMismatch
from oalg.schemes import (
    IDENTITY_TRANSLATION,
    IneqStep,
    MultiStep,
    RelStep,
    Scheme,
    Translation,
    build_grid,
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
from oalg.terms import Term, leaf, node, parse_term, print_term, subterm_at

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


def test_build_grid():
    seg = Scheme(E01, E02, (glue(E01, E02),))
    grid = build_grid(seg, 0, 0)
    assert grid.columns == 1 and len(grid.rows) == 2
    w1 = node("f", E01, E21)
    w2 = node("f", E02, E21)
    two = Scheme(w1, w2, (make_rel("GLUE", w1, (0,), E02),))
    grid2 = build_grid(two, 0, 0)
    assert grid2.columns == 2
    assert grid2.transitions[0][1] == ("GLUE", "ID")
    mixed = unfold_fold_scheme()
    with pytest.raises(SkeletonMismatch):
        build_grid(mixed, 0, 1)


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
    final = simplify(SP, out)
    assert all(not isinstance(s, (RelStep,)) or s.u == s.v for s in final.steps) or \
        all(isinstance(s, (IneqStep, MultiStep)) for s in final.steps)


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
    w = node("f", node("f", E01, E01), node("f", E01, E01))
    sch = Scheme(E21, E21, (
        make_rel("EV1INV", E21, (), w),
        make_rel("EV1", w, (), E21),
    ))
    cov = covering(sch, 0, 1)
    assert cov.verdict == "proper"
    assert cov.left_span == cov.right_span == (1, 4)
    sch2 = Scheme(E21, node("f", node("f", E01, E01), leaf(SP.eval_in_side(node("f", E01, E01), 1))), (
        make_rel("EV1INV", E21, (), w),
        make_rel("EV1", w, (1,), leaf(SP.eval_in_side(node("f", E01, E01), 1))),
    ))
    cov2 = covering(sch2, 0, 1)
    assert cov2.verdict == "covers"
    assert cov2.right_span == (3, 4)


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
