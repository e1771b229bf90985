import random

import pytest

from oalg.algebra import chain, terminal
from oalg.errors import NotMonotone, ValidationError
from oalg.generators import random_algebra, random_monotone_map, random_var_poset
from oalg.signature import SIG1
from oalg.oracles import (
    characterized_up_set,
    generated_up_set,
    single_raises,
    verify_partial_order,
)
from oalg.terms import enumerate_terms, parse_term
from oalg.termorder import VarPoset, extend_monotone_map, term_leq

XP = VarPoset(("x1", "x2"), frozenset({("x1", "x2")}))
CH3 = chain(3, SIG1)


def p(word, names=("x1", "x2")):
    return parse_term(SIG1, list(names), word)


def test_term_leq_examples():
    assert term_leq(SIG1, XP, p("f c x1"), p("f d x2"))
    wide = VarPoset(("x1", "x2", "x4"), frozenset({("x1", "x2")}))
    t = p("f g x2 x1 c f x1 x4", names=("x1", "x2", "x4"))
    assert term_leq(SIG1, wide, t, t)
    r = p("g c f x2 x1 f x1 x4", names=("x1", "x2", "x4"))
    assert not term_leq(SIG1, wide, t, r)


def test_cross_namespace_incomparable():
    assert not term_leq(SIG1, XP, p("x1"), p("c"))
    assert not term_leq(SIG1, XP, p("c"), p("x1"))


def test_verify_partial_order_chain():
    assert verify_partial_order(SIG1, XP, 2) == []


def test_verify_partial_order_antichain_is_equality():
    anti = VarPoset(("x1", "x2"))
    assert verify_partial_order(SIG1, anti, 1) == []
    # without constants ordered... SIG1 still has c <= d, so only variable
    # leaves are frozen; build a genuinely discrete case:
    from oalg.signature import Signature
    plain = Signature({"f": 2, "c": 0})
    assert verify_partial_order(plain, anti, 2) == []
    for t in enumerate_terms(plain, ["x1", "x2", "c"], 1):
        ups = generated_up_set(plain, anti, t)
        assert ups == {t}


def test_verify_single_variable_no_ops():
    from oalg.signature import Signature
    tiny = Signature({"u": 1})
    xp = VarPoset(("x1",))
    assert verify_partial_order(tiny, xp, 2) == []


def test_generated_matches_characterized():
    for t in enumerate_terms(SIG1, ["x1", "x2", "c", "d"], 2)[:600]:
        assert generated_up_set(SIG1, XP, t) == characterized_up_set(SIG1, XP, t)


def test_depth_cap():
    with pytest.raises(ValidationError):
        verify_partial_order(SIG1, XP, 5)


def test_variable_clash_rejected():
    with pytest.raises(ValidationError):
        verify_partial_order(SIG1, VarPoset(("f",)), 1)


def test_extend_monotone_map_examples():
    beta = extend_monotone_map(XP, CH3, {"x1": "e0", "x2": "e1"})
    assert beta(p("f x1 x2")) == "e1"
    assert beta(p("c")) == "e0"
    one = terminal(SIG1)
    beta1 = extend_monotone_map(XP, one, {"x1": "()", "x2": "()"})
    assert beta1(p("g x1 x2 c")) == "()"
    with pytest.raises(NotMonotone):
        extend_monotone_map(XP, CH3, {"x1": "e2", "x2": "e0"})
    with pytest.raises(NotMonotone):
        extend_monotone_map(XP, CH3, {"x1": "e0"})


def test_extension_is_monotone_for_term_order():
    rng = random.Random(21)
    done = 0
    while done < 30:
        xp = random_var_poset(rng, 2)
        target = random_algebra(rng, SIG1, rng.randrange(1, 5))
        alpha = random_monotone_map(rng, xp, target)
        if alpha is None:
            continue
        done += 1
        beta = extend_monotone_map(xp, target, alpha)
        labels = list(xp.names) + SIG1.constants()
        for t in enumerate_terms(SIG1, labels, 1):
            for u in single_raises(SIG1, xp, t):
                assert target.leq(beta(t), beta(u))
