import random

import pytest

from oalg.algebra import Homomorphism, chain, subalgebra, with_trivial_order
from oalg.amalgam import (
    Amalgam,
    Budget,
    SpecialAmalgam,
    dominion_special,
    epi_check,
    make_special,
    mediate,
    parse_amalgam,
    pushout_equal,
    pushout_leq,
    separator_search,
    validate_amalgam,
)
from oalg.errors import CommutationFailure, PreconditionFailed
from oalg.generators import random_algebra, random_special_amalgam
from oalg.schemes import validate_scheme
from oalg.signature import SIG1, Signature
from oalg.terms import leaf, node, parse_term

CH3 = chain(3, SIG1)
SP = make_special(CH3, [])


def test_make_special_examples():
    assert SP.c.carrier == ["e0", "e2"]
    assert SP.a1.carrier == ["e0<1>", "e1<1>", "e2<1>"]
    full = make_special(CH3, CH3.carrier)
    assert full.c.carrier == CH3.carrier
    tiny = make_special(chain(1, Signature({"f": 2, "c": 0})), [])
    assert len(tiny.base.carrier) == 1


def test_validate_amalgam():
    assert validate_amalgam(SP) == []
    bad = Amalgam(SP.c, CH3, CH3,
                  {"e0": "e0", "e2": "e0"},
                  {"e0": "e0", "e2": "e2"})
    report = validate_amalgam(bad)
    assert any(item["kind"] == "embedding" for item in report)


def test_label_classes_and_order():
    assert SP.label_class("e1<1>") == 1
    assert SP.label_class("e1<2>") == 2
    assert SP.label_class("c") == 0
    assert SP.leaf_leq("e0<1>", "e2<1>")
    assert not SP.leaf_leq("e0<1>", "e2<2>")
    assert SP.leaf_leq("c", "d")


def test_glue_tags():
    assert SP.glue_tag("e0<1>", "e0<2>") == "GLUE"
    assert SP.glue_tag("e2<2>", "e2<1>") == "GLUEINV"
    assert SP.glue_tag("e1<1>", "e1<1>") == "ID"
    assert SP.glue_tag("e1<1>", "e1<2>") is None


def test_pushout_leq_reflexive():
    res = pushout_leq(SP, leaf("e1<1>"), leaf("e1<1>"))
    assert res.proven and len(res.scheme.steps) == 0


def test_pushout_leq_within_side_order():
    res = pushout_leq(SP, leaf("e0<1>"), leaf("e2<1>"))
    assert res.proven
    res2 = pushout_leq(SP, leaf("e2<1>"), leaf("e0<1>"))
    assert not res2.proven


def test_pushout_glue_pair():
    res = pushout_leq(SP, leaf("e0<1>"), leaf("e0<2>"))
    assert res.proven and len(res.scheme.steps) == 1


def test_pushout_middle_unknown():
    res = pushout_equal(SP, leaf("e1<1>"), leaf("e1<2>"),
                        Budget(max_scheme_len=8, max_term_ops=4))
    assert not res.proven


def test_pushout_equal_via_evaluation():
    term = node("f", leaf("e0<1>"), leaf("e2<1>"))
    res = pushout_equal(SP, term, leaf("e2<1>"))
    assert res.proven
    assert validate_scheme(SP, res.forward) == []
    assert validate_scheme(SP, res.backward) == []


def test_order_reflection_of_copy_embeddings():
    for (x, y) in [("e0", "e1"), ("e0", "e2"), ("e1", "e2")]:
        assert pushout_leq(SP, leaf(f"{x}<1>"), leaf(f"{y}<1>")).proven
    for (x, y) in [("e1", "e0"), ("e2", "e0"), ("e2", "e1")]:
        assert not pushout_leq(SP, leaf(f"{x}<1>"), leaf(f"{y}<1>")).proven


def test_mediate():
    untag = lambda e: e.split("<")[0]
    g1 = {e: untag(e) for e in SP.a1.carrier}
    g2 = {e: untag(e) for e in SP.a2.carrier}
    med = mediate(SP, CH3, g1, g2)
    assert med(leaf("e1<1>")) == "e1"
    res = pushout_equal(SP, leaf("e2<1>"), leaf("e2<2>"))
    med.check_pair(res)
    from oalg.algebra import terminal
    one = terminal(SIG1)
    med1 = mediate(SP, one, {e: "()" for e in SP.a1.carrier},
                   {e: "()" for e in SP.a2.carrier})
    assert med1(node("f", leaf("e0<1>"), leaf("e2<2>"))) == "()"
    bad_g2 = dict(g2)
    bad_g2["e0<2>"] = "e1"
    with pytest.raises(CommutationFailure):
        mediate(SP, CH3, g1, bad_g2)


def test_dominion_examples():
    statuses = dominion_special(SP)
    assert statuses["e0"]["status"] == "InC"
    assert statuses["e2"]["status"] == "InC"
    assert statuses["e1"]["status"] == "NoWitnessFound"
    full = make_special(CH3, CH3.carrier)
    assert all(v["status"] == "InC" for v in dominion_special(full).values())


def test_separator_search_examples():
    sep = separator_search(CH3, ["e0", "e2"], "e1", 3)
    assert sep is not None
    assert sep.f.map["e1"] != sep.g.map["e1"]
    assert all(sep.f.map[z] == sep.g.map[z] for z in ["e0", "e2"])
    with pytest.raises(PreconditionFailed):
        separator_search(CH3, ["e0", "e2"], "e0", 3)
    assert separator_search(CH3, ["e0", "e2"], "e1", 1) is None


def test_separator_search_tries_quotients_differing_only_in_constants():
    rng = random.Random(40)
    alg = random_algebra(rng, SIG1, rng.randrange(3, 6))
    sep = separator_search(alg, ["e0", "e3"], "e1", 4)
    assert sep.codomain.carrier == ["[e0]", "[e1]"]
    assert sep.codomain.const_vals == {"c": "[e0]", "d": "[e0]"}
    assert sep.f.map["e1"] != sep.g.map["e1"]
    assert all(sep.f.map[e] == sep.g.map[e] for e in ("e0", "e3"))


def test_epi_check_examples():
    ident = Homomorphism(CH3, CH3, {e: e for e in CH3.carrier})
    assert epi_check(ident, 3).verdict == "Surjective"
    sub = subalgebra(CH3, ["e0", "e2"])
    incl = Homomorphism(sub, CH3, {"e0": "e0", "e2": "e2"})
    rep = epi_check(incl, 3)
    assert rep.verdict == "NotEpi" and rep.separator.element == "e1"
    tight = epi_check(incl, 1)
    assert tight.verdict == "Inconclusive"


def test_epi_check_trivial_order():
    plain = Signature({"f": 2, "g": 3, "c": 0, "d": 0})
    base = with_trivial_order(chain(3, plain))
    sub = subalgebra(base, ["e0", "e2"])
    incl = Homomorphism(sub, base, {"e0": "e0", "e2": "e2"})
    rep = epi_check(incl, 3)
    assert rep.verdict == "NotEpi"


def test_random_dominion_consistency():
    rng = random.Random(31)
    for _ in range(8):
        sp = random_special_amalgam(rng, SIG1, 3)
        statuses = dominion_special(sp, Budget(max_scheme_len=5, max_nodes=4000))
        for x, info in statuses.items():
            assert (info["status"] == "InC") == (x in sp.c.index)


def test_amalgam_file_forms(tmp_path):
    sig = tmp_path / "s.sig"
    sig.write_text("op f 2\nop g 3\nconst c\nconst d\norder c <= d\n")
    from oalg.algebra import print_algebra
    (tmp_path / "b.oalg").write_text(print_algebra(CH3, "s.sig"))
    sp = parse_amalgam("special over b.oalg seed e0 e2", tmp_path)
    assert isinstance(sp, SpecialAmalgam)
    assert sp.c.carrier == ["e0", "e2"]
    sub = subalgebra(CH3, ["e0", "e2"], name="C")
    (tmp_path / "c.oalg").write_text(print_algebra(sub, "s.sig"))
    text = "\n".join([
        "left b.oalg",
        "right b.oalg",
        "center c.oalg",
        "embed phi1: e0 -> e0",
        "embed phi1: e2 -> e2",
        "embed phi2: e0 -> e0",
        "embed phi2: e2 -> e2",
    ])
    am = parse_amalgam(text, tmp_path)
    assert validate_amalgam(am) == []
    assert am.phi1["e0"] == "e0<1>" and am.phi2["e0"] == "e0<2>"


def test_mediate_into_first_copy():
    # the copy-collapsing cocone: identity on the first copy, the inverse
    # isomorphism on the second
    g1 = {e: e for e in SP.a1.carrier}
    g2 = {e: SP.nu_inv[e] for e in SP.a2.carrier}
    med = mediate(SP, SP.a1, g1, g2)
    for x in SP.a1.carrier:
        assert med(leaf(x)) == x
    res = pushout_equal(SP, leaf("e0<1>"), leaf("e0<2>"))
    med.check_pair(res)
