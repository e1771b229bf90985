import hashlib
import itertools
import random
import sys
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, strategies as st

import oalg.algebra as algebra
import oalg.amalgam as amalgam
import oalg.closure as closure
from oalg.algebra import Homomorphism, OrderedAlgebra, chain, check_homomorphism, \
    directed_kernel, generated_subalgebra, regular_quotient, subalgebra, validate_algebra, \
    with_trivial_order
from oalg.amalgam import (
    Amalgam,
    Budget,
    ProvenEqual,
    SearchStats,
    SpecialAmalgam,
    dominion_special,
    epi_check,
    exhaustive_separator,
    glued_completion,
    make_special,
    mediate,
    parse_amalgam,
    pushout_equal,
    pushout_leq,
    separator_search,
    validate_amalgam,
)
from oalg.errors import CommutationFailure, NotAHomomorphism, NotOrderCongruence, \
    PreconditionFailed, SizeLimit, UnboundVariable, WitnessInconsistency
from oalg.generators import random_algebra, random_special_amalgam, unfold_pool
from oalg.oracles import congruences_by_partition_filter, homomorphisms_by_product_filter, \
    moves_by_path_walk, unfold_pool_by_layers
from oalg.schemes import IDENTITY_TRANSLATION, IneqStep, RelStep, Scheme, scheme_to_lines, \
    validate_scheme
from oalg.signature import SIG1, Signature
from oalg.terms import Term, enumerate_terms, leaf, leaves, node, op_count, parse_term, \
    replace_at, skeleton, substitute_leaves
from oalg.termorder import VarPoset, extend_monotone_map, term_leq

CH3 = chain(3, SIG1)
SP = make_special(CH3, [])


def test_make_special_examples():
    assert SP.c.carrier == ["e0", "e2"]
    assert SP.a1.carrier == ["e0<1>", "e1<1>", "e2<1>"]
    full = make_special(CH3, CH3.carrier)
    assert full.c.carrier == CH3.carrier
    tiny = make_special(chain(1, Signature({"f": 2, "c": 0})), [])
    assert len(tiny.base.carrier) == 1
    with pytest.raises(PreconditionFailed, match="not in the carrier"):
        make_special(CH3, ["e0", "zz"])


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


def test_dominion_needs_a_base_in_the_variety():
    # The trivial order breaks c <= d (c = e0, d = e2); without the check
    # the search would run and report e1 NoWitnessFound.
    flat = make_special(with_trivial_order(CH3), ["e0"])
    with pytest.raises(PreconditionFailed, match="not in the variety"):
        dominion_special(flat)


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


def _algebra_key(d: OrderedAlgebra) -> tuple:
    """Carrier, order, tables and constants: equal exactly for equal algebras."""
    return (d.carrier, sorted(d.order),
            sorted((f, sorted(tbl.items())) for f, tbl in d.op_tables.items()),
            sorted(d.const_vals.items()))


def _separator_digest(sep) -> str | None:
    """A hash of the codomain's `_algebra_key` and both maps."""
    if sep is None:
        return None
    pinned = _algebra_key(sep.codomain) + (sorted(sep.f.map.items()), sorted(sep.g.map.items()))
    return hashlib.sha256(repr(pinned).encode()).hexdigest()[:16]


# For each element outside the constants' subalgebra of 60 random
# algebras: the separator of separator_search with codomains of at most two
# elements, or where it finds none, the glued completion's.
GOLDEN_SEPARATORS = {
    'G0 e0': 'c9e0624960bba83b',
    'G0 e1': '17c59c1a16699316',
    'G1 e1': '2db9ba7e2d7fb69c',
    'G2 e0': '533bf3a920206b0b',
    'G2 e1': '0715b3ff78119919',
    'G5 e1': '75fca8ae486d4a3a',
    'G6 e0': 'cb490e4f525f87b0',
    'G8 e1': '85b947aaaa607c3e',
    'G13 e0': '533bf3a920206b0b',
    'G13 e1': '94e65bdfacf8b47d',
    'G16 e0': 'c9e0624960bba83b',
    'G16 e1': '17c59c1a16699316',
    'G18 e0': '168cb8c8872d5497',
    'G19 e1': '8e4335189848e27d',
    'G20 e0': '1adc0af4b7013d20',
    'G28 e0': 'ead1cbcb1d5f930d',
    'G28 e3': 'ead1cbcb1d5f930d',
    'G29 e0': '35f78831c927c22b',
    'G29 e1': '648160a8ede5d437',
    'G30 e0': '533bf3a920206b0b',
    'G34 e1': 'c13702b09f53bc85',
    'G35 e0': 'cb490e4f525f87b0',
    'G40 e0': 'cb490e4f525f87b0',
    'G40 e1': '544f22e064b73908',
    'G41 e0': 'c9e0624960bba83b',
    'G41 e1': '17c59c1a16699316',
    'G41 e2': '3babdbbc6b12763c',
    'G45 e0': '731c7082d2558f7f',
    'G45 e2': '731c7082d2558f7f',
    'G48 e0': 'ca9d48be5a784ccb',
    'G48 e1': 'ca9d48be5a784ccb',
    'G48 e2': 'ca9d48be5a784ccb',
    'G49 e1': '8ed838eb887c7275',
    'G50 e0': '83a6fe6d0aae59b1',
    'G55 e2': 'b0e0869e425526ff',
    'G57 e0': 'c94dc3a9168cca1f',
    'G57 e3': 'c94dc3a9168cca1f',
}


def test_separators_golden():
    rng = random.Random(5)
    got, regular = {}, 0
    for i in range(60):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5), name=f"G{i}")
        core = generated_subalgebra(alg, [])
        for x in alg.carrier:
            if x in core:
                continue
            sep = separator_search(alg, core, x, 2)
            regular += sep is not None
            got[f"G{i} {x}"] = _separator_digest(sep or exhaustive_separator(alg, core, x))
    assert got == GOLDEN_SEPARATORS
    assert regular >= 10 and len(got) - regular >= 10


def test_regular_separators_are_rechecked(monkeypatch):
    # Two maps that agree on the core and differ at e1, but neither is a
    # homomorphism (the constant d of CH3 is e2, sent to [e0]).
    def bad_homs(dom, cod):
        return [Homomorphism(dom, cod, {e: cod.carrier[0] for e in dom.carrier}),
                Homomorphism(dom, cod, {**{e: cod.carrier[0] for e in dom.carrier},
                                        "e1": cod.carrier[-1]})]

    monkeypatch.setattr(amalgam, "all_homomorphisms", bad_homs)
    with pytest.raises(WitnessInconsistency, match="regular separator"):
        separator_search(chain(3, SIG1), ["e0", "e2"], "e1", 3)


def test_a_repeated_quotient_is_tried_again_and_separates_nothing_new(monkeypatch):
    # Two congruences of R142 give one two-element quotient, and the
    # candidates at cap 2 yield it twice, with the same maps both times.
    # The digests were computed with repeats skipped, so they show that
    # the repeat separates nothing new.
    reached = []
    candidates = amalgam.separator_candidates

    def recording(alg, max_size):
        for cod, homs in candidates(alg, max_size):
            reached.append(repr(_algebra_key(cod)))
            yield cod, homs

    monkeypatch.setattr(amalgam, "separator_candidates", recording)
    rng = random.Random(142)
    alg = random_algebra(rng, SIG1, rng.randrange(3, 6), name="R142")
    core = generated_subalgebra(alg, [])
    got = {}
    for x in alg.carrier:
        if x not in core:
            reached.clear()
            got[x] = _separator_digest(separator_search(alg, core, x, 2))
    assert got == {"e2": "ded65386bd6bf64d", "e4": "f5558dbc688356c1"}
    # The search for e4 stops at the second codomain, before the repeat.
    assert len(reached) == len(set(reached)) == 2
    seen = {}
    yielded = list(candidates(alg, 2))
    for cod, homs in yielded:
        maps = [sorted(h.map.items()) for h in homs]
        assert seen.setdefault(repr(_algebra_key(cod)), maps) == maps
    assert (len(yielded), len(yielded) - len(seen)) == (6, 1)


def test_the_regular_stage_tries_the_fewest_classes_first(monkeypatch):
    # The join chain on 8 elements with d moved down to e5: e7 is separated
    # by a two-element quotient, met right after the one-element one.
    sizes = []
    candidates = amalgam.separator_candidates

    def recording(alg, max_size):
        for cod, homs in candidates(alg, max_size):
            sizes.append(len(cod.carrier))
            yield cod, homs

    monkeypatch.setattr(amalgam, "separator_candidates", recording)
    ch = chain(8, SIG1)
    alg = OrderedAlgebra(SIG1, ch.carrier, ch.order, ch.op_tables, {"c": "e0", "d": "e5"})
    sep = separator_search(alg, ["e0", "e3", "e5"], "e7", 8)
    assert sizes == [1, 2] and len(sep.codomain.carrier) == 2


def test_no_quotient_above_the_cap_is_built(monkeypatch):
    built = []
    quotient = amalgam._order_quotient
    monkeypatch.setattr(amalgam, "_order_quotient",
                        lambda alg, eq: built.append(len(set(eq))) or quotient(alg, eq))
    rng = random.Random(71)
    algebras = [chain(6, SIG1), with_trivial_order(chain(5, SIG1))]
    algebras += [random_algebra(rng, SIG1, rng.randrange(3, 6)) for _ in range(10)]
    counts = Counter()
    # The memo keeps each quotient, so a call builds only those new at its cap.
    for cap in (1, 2, 3):
        for alg in algebras:
            built.clear()
            yielded = list(amalgam.separator_candidates(alg, cap))
            assert all(size <= cap for size in built), alg.name
            assert all(len(cod.carrier) <= cap for cod, _ in yielded)
            counts[cap] += len(built)
    assert all(counts[cap] >= 10 for cap in (2, 3))


def _smallest_separating_quotient(alg, core, x, cap):
    """The fewest elements of a regular quotient in the variety, within the
    cap, with two homomorphisms into it that agree on the core but not at x,
    by brute force; None if there is none."""
    sizes = []
    for theta in congruences_by_partition_filter(alg):
        try:
            cod = regular_quotient(alg, theta)[0]
        except NotOrderCongruence:
            continue
        if len(cod.carrier) > cap or validate_algebra(cod):
            continue
        homs = homomorphisms_by_product_filter(alg, cod)
        if any(all(f.map[c] == g.map[c] for c in core) and f.map[x] != g.map[x]
               for f, g in itertools.combinations(homs, 2)):
            sizes.append(len(cod.carrier))
    return min(sizes, default=None)


def test_the_regular_stage_returns_a_smallest_separating_quotient():
    rng = random.Random(72)
    unary = Signature({"h": 1, "f": 2, "c": 0})
    found = Counter()
    for i in range(120):
        sig = (SIG1, unary)[i % 2]
        alg = random_algebra(rng, sig, rng.randrange(2, 6), name=f"M{i}")
        core = generated_subalgebra(alg, rng.sample(alg.carrier, rng.randrange(2)))
        for x in alg.carrier:
            if x in core:
                continue
            for cap in (2, 3, 4):
                sep = separator_search(alg, core, x, cap)
                smallest = _smallest_separating_quotient(alg, core, x, cap)
                assert (sep and len(sep.codomain.carrier)) == smallest, (alg.name, x, cap)
                found[smallest] += 1
    assert found[None] >= 10 and found[1] == 0 and found[2] >= 10 and found[3] >= 10


def test_congruences_are_computed_once_per_base(monkeypatch):
    calls, built, mapped = [], [], []
    enumerate_congruences = amalgam.all_congruences
    quotient = amalgam._order_quotient
    enumerate_homs = amalgam.all_homomorphisms
    monkeypatch.setattr(amalgam, "all_congruences",
                        lambda alg: calls.append(alg) or enumerate_congruences(alg))
    monkeypatch.setattr(amalgam, "_order_quotient",
                        lambda alg, eq: built.append(tuple(eq)) or quotient(alg, eq))
    monkeypatch.setattr(amalgam, "all_homomorphisms",
                        lambda dom, cod: mapped.append(id(cod)) or enumerate_homs(dom, cod))
    alg = chain(6, SIG1)
    for x, cap in (("e1", 3), ("e2", 3), ("e3", 3), ("e1", 2)):
        assert separator_search(alg, ["e0", "e5"], x, cap) is not None
    assert calls == [alg]
    assert len(set(built)) == len(built)
    assert len(set(mapped)) == len(mapped) <= len(enumerate_congruences(alg))


# A signature without a constant order, whose trivially ordered algebras
# form the plain unordered variety.
PLAIN = Signature({"f": 2, "g": 3, "c": 0, "d": 0})
# exhaustive_separator on with_trivial_order(chain(n, PLAIN)) with core
# {e0, e(n-1)} and x = e1: digests of the glued completion's separators,
# of 2n - 1 elements.
PINNED_CHAIN_SEPARATORS = {6: "0573849cee1cff58", 7: "a0ff33db937b773f", 8: "67a1d3821dc0ad21"}


@pytest.mark.parametrize("n", sorted(PINNED_CHAIN_SEPARATORS))
def test_the_complete_search_on_trivially_ordered_chains_is_pinned(n):
    sep = exhaustive_separator(with_trivial_order(chain(n, PLAIN)), ["e0", f"e{n - 1}"], "e1")
    assert len(sep.codomain.carrier) == 2 * n - 1
    assert _separator_digest(sep) == PINNED_CHAIN_SEPARATORS[n]


def test_an_element_off_the_carrier_is_a_precondition_failure():
    with pytest.raises(PreconditionFailed, match="'zz' is not in the carrier of CH3"):
        separator_search(chain(3, SIG1), ["e0", "e2"], "zz", 3)


def test_the_complete_search_refuses_an_element_off_the_carrier():
    with pytest.raises(PreconditionFailed, match="'zz' is not in the carrier of CH3"):
        exhaustive_separator(chain(3, SIG1), ["e0", "e2"], "zz")


def test_the_complete_search_refuses_an_element_of_the_core():
    # The completion sends both copies of a core element to one cut.
    with pytest.raises(PreconditionFailed, match="e0 already lies in the subalgebra"):
        exhaustive_separator(chain(3, SIG1), ["e0", "e2"], "e0")


@pytest.mark.parametrize("center, x", [(["e0", "e2", "zz"], "e1"), (["e0", "e1"], "e2")])
def test_the_complete_search_refuses_a_core_that_is_no_subalgebra(center, x):
    # "zz" lies off the carrier; {e0, e1} misses the constant d = e2.
    for search in (partial(separator_search, max_size=3), exhaustive_separator):
        with pytest.raises(PreconditionFailed, match="is not a subalgebra"):
            search(chain(3, SIG1), center, x)


def test_the_complete_search_refuses_a_base_outside_the_variety():
    # The trivial order breaks c <= d, and the cuts would break it too.
    with pytest.raises(PreconditionFailed, match="is not a valid amalgam"):
        exhaustive_separator(with_trivial_order(CH3), ["e0", "e2"], "e1")


def test_each_monotone_homomorphism_check_keeps_its_error(monkeypatch):
    def fails(call, error, message):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message

    monkeypatch.setattr(algebra, "check_homomorphism",
                        lambda h: {"is_hom": False, "is_monotone": True})
    ident = Homomorphism(CH3, CH3, {e: e for e in CH3.carrier})
    fails(lambda: directed_kernel(ident), NotAHomomorphism,
          "directed kernel needs a monotone homomorphism")
    fails(lambda: epi_check(ident, 3), NotAHomomorphism,
          "epi check needs a monotone homomorphism")
    untag = {e: e.split("<")[0] for e in SP.variables()}
    fails(lambda: mediate(SP, CH3, untag, untag), CommutationFailure,
          "gamma1 is not a homomorphism of ordered algebras")
    fails(lambda: separator_search(CH3, ["e0", "e2"], "e1", 3), WitnessInconsistency,
          "regular separator produced a bad map")


@pytest.mark.parametrize("target, failure", [
    ("validate_algebra", [{"kind": "constant"}]),
    ("check_homomorphism", {"is_hom": True, "is_monotone": True, "reflects_order": False})])
def test_the_completion_is_rechecked(monkeypatch, target, failure):
    # The recheck of L alone fails; the amalgam's own checks pass.
    real = getattr(amalgam, target)
    monkeypatch.setattr(amalgam, target, lambda x: failure if getattr(x, "cod", x).name == "L"
                        else real(x))
    with pytest.raises(WitnessInconsistency, match="glued completion failed its recheck"):
        exhaustive_separator(CH3, ["e0", "e2"], "e1")


def _r141():
    """e2 lies below the incomparable e0 and e1; the constants are e0 and e1."""
    carrier = ["e0", "e1", "e2"]
    f = {(a, b): a for a in ("e0", "e2") for b in carrier}
    f.update({("e1", "e0"): "e1", ("e1", "e1"): "e1", ("e1", "e2"): "e2"})
    g = {args: "e1" for args in itertools.product(carrier, repeat=3)}
    sig = Signature({"f": 2, "g": 3, "c": 0, "d": 0})
    return OrderedAlgebra(sig, carrier, {("e2", "e0"), ("e2", "e1")},
                          {"f": f, "g": g}, {"c": "e0", "d": "e1"}, name="R141")


def test_separator_search_needs_no_compatible_quasiorders(monkeypatch):
    # No regular quotient of R141 separates e2 from the core {e0, e1}; the
    # glued completion does, and neither stage enumerates quasiorders.
    def refuse(alg):
        raise AssertionError("a separator stage enumerated compatible quasiorders")

    monkeypatch.setattr(closure, "all_compatible_quasiorders", refuse)
    assert separator_search(_r141(), ["e0", "e1"], "e2", 4) is None
    sep = exhaustive_separator(_r141(), ["e0", "e1"], "e2")
    assert sep.f.map["e0"] == sep.g.map["e0"] and sep.f.map["e1"] == sep.g.map["e1"]
    assert sep.f.map["e2"] != sep.g.map["e2"]


def test_exhaustive_separator_finds_whatever_a_regular_quotient_finds():
    # And more: the glued completion separates every element outside the
    # core, whether or not a regular quotient within the cap does.
    rng = random.Random(23)
    outcomes = []
    for i in range(80):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5), name=f"P{i}")
        core = generated_subalgebra(alg, rng.sample(alg.carrier, rng.randrange(2)))
        for x in alg.carrier:
            if x in core:
                continue
            outcomes.append(separator_search(alg, core, x, rng.randrange(2, 4)) is not None)
            sep = exhaustive_separator(alg, core, x)
            assert sep.f.map[x] != sep.g.map[x]
            assert all(sep.f.map[z] == sep.g.map[z] for z in core)
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 10


def test_epi_check_examples():
    ident = Homomorphism(CH3, CH3, {e: e for e in CH3.carrier})
    assert epi_check(ident, 3).verdict == "Surjective"
    sub = subalgebra(CH3, ["e0", "e2"])
    incl = Homomorphism(sub, CH3, {"e0": "e0", "e2": "e2"})
    rep = epi_check(incl, 3)
    assert rep.verdict == "NotEpi" and rep.separator.element == "e1"
    assert len(rep.separator.codomain.carrier) == 2
    # No regular quotient of one element separates; the completion does.
    tight = epi_check(incl, 1)
    assert tight.verdict == "NotEpi" and tight.separator.element == "e1"
    assert tight.separator.codomain.carrier == ["e0<1>", "e1<1>", "e2<1>", "e1<2>"]
    swap = Homomorphism(sub, CH3, {"e0": "e2", "e2": "e0"})
    with pytest.raises(NotAHomomorphism):
        epi_check(swap, 3)


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


def _write_ch3_files(tmp_path):
    (tmp_path / "s.sig").write_text("op f 2\nop g 3\nconst c\nconst d\norder c <= d\n")
    from oalg.algebra import print_algebra
    (tmp_path / "b.oalg").write_text(print_algebra(CH3, "s.sig"))
    sub = subalgebra(CH3, ["e0", "e2"], name="C")
    (tmp_path / "c.oalg").write_text(print_algebra(sub, "s.sig"))


def _general_ch3_amalgam(tmp_path) -> Amalgam:
    """Two copies of CH3 over {e0, e2}, declared as a general amalgam."""
    _write_ch3_files(tmp_path)
    text = "\n".join([
        "left b.oalg",
        "right b.oalg",
        "center c.oalg",
        "embed phi1: e0 -> e0",
        "embed phi1: e2 -> e2",
        "embed phi2: e0 -> e0",
        "embed phi2: e2 -> e2",
    ])
    return parse_amalgam(text, tmp_path)


def test_amalgam_file_forms(tmp_path):
    _write_ch3_files(tmp_path)
    sp = parse_amalgam("special over b.oalg seed e0 e2", tmp_path)
    assert isinstance(sp, SpecialAmalgam)
    assert sp.c.carrier == ["e0", "e2"]
    am = _general_ch3_amalgam(tmp_path)
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


def test_the_mediator_rejects_a_scheme_it_does_not_carry_to_the_target():
    sp = make_special(chain(3, SIG1), ["e0", "e2"])
    med = mediate(sp, sp.a1, {e: e for e in sp.a1.carrier},
                  {e: sp.nu_inv[e] for e in sp.a2.carrier})
    e0, e1, e2, e1_2, e2_2 = map(leaf, ["e0<1>", "e1<1>", "e2<1>", "e1<2>", "e2<2>"])
    cases = [
        (Scheme(e1, e0, (IneqStep(e1, e0),)), "inequality step broke under the mediator"),
        (Scheme(e1, e2, (IneqStep(e0, e2),)), "scheme transport lost the chain"),
        (Scheme(e1, e2_2, (RelStep("GLUE", IDENTITY_TRANSLATION, e1, e2_2, e1, e2_2),)),
         "relation step not collapsed by the mediator"),
        (Scheme(e2, e0, ()), "scheme transport stops short of the target"),
    ]
    for sch, message in cases:
        with pytest.raises(WitnessInconsistency, match=message):
            med.check_scheme(sch)
    # Each direction is checked, then the two ends against each other.
    up, still = Scheme(e0, e2, (IneqStep(e0, e2),)), Scheme(e2, e2, ())
    with pytest.raises(WitnessInconsistency, match="mediator disagrees on a proven equality"):
        med.check_pair(ProvenEqual(up, still, SearchStats()))
    with pytest.raises(WitnessInconsistency, match="inequality step broke under the mediator"):
        med.check_pair(ProvenEqual(still, Scheme(e1_2, e0, (IneqStep(e1_2, e0),)),
                                   SearchStats()))


def test_a_search_that_runs_out_of_levels_is_unknown():
    # Each end goes one level deep, and the two ends never meet.
    sp = make_special(chain(3, SIG1), ["e0", "e2"])
    res = pushout_leq(sp, node("f", leaf("e1<1>"), leaf("e1<2>")), leaf("e1<2>"),
                      Budget(max_scheme_len=1, max_nodes=10**6))
    assert not res.proven
    assert res.stats.as_dict() == {"nodes_expanded": 2, "nodes_generated": 3,
                                   "depth_reached": 1, "capped": False, "pruned": 0}


def test_validate_amalgam_reports_the_variety_and_an_embedding_that_drops_the_order():
    # The side-1 copy has the trivial order, so its constants c <= d no
    # longer hold, a variety violation, and the identity phi1 does not keep
    # e0 <= e1.  It still reflects the order: its image pairs are only the
    # diagonal.
    ch = chain(2, SIG1)
    ident = {e: e for e in ch.carrier}
    report = validate_amalgam(Amalgam(ch, with_trivial_order(ch), ch, ident, ident))
    assert report == [
        {"kind": "variety", "algebra": "CH2=<1>", "violation": "constant", "left": "c",
         "right": "d", "left_val": "e0<1>", "right_val": "e1<1>"},
        {"kind": "embedding", "map": "phi1", "problem": "not monotone"},
    ]


def _p(word):
    return parse_term(SP.sig, SP.variables(), word)


# Certificates and statistics of the pushout search, pinned: a change that
# only makes the search cheaper must leave every line and count as it is.
GOLDEN_SEARCHES = [
    (pushout_equal, "f e2<1> e2<2>", "e2<1>", None,
     {"nodes_expanded": 7, "nodes_generated": 14, "depth_reached": 2,
      "capped": False, "pruned": 0},
     [["REL GLUE f z1 z2 1 e2<2> e2<1> -> e2<2>",
       "REL EV2 z1 1 f e2<2> e2<2> -> e2<2>",
       "REL GLUEINV z1 1 e2<2> -> e2<1>"],
      ["REL GLUE z1 1 e2<1> -> e2<2>",
       "REL EV2INV z1 1 e2<2> -> f e0<2> e2<2>",
       "REL GLUEINV f z1 z2 1 e2<2> e0<2> -> e0<1>",
       "INEQ f e0<1> e2<2> <= f e2<1> e2<2>"]]),
    (pushout_equal, "f e0<1> e0<2>", "e0<1>", None,
     {"nodes_expanded": 10, "nodes_generated": 16, "depth_reached": 3,
      "capped": False, "pruned": 0},
     [["REL GLUE f z1 z2 1 e0<2> e0<1> -> e0<2>",
       "REL EV2 z1 1 f e0<2> e0<2> -> e0<2>",
       "REL GLUEINV z1 1 e0<2> -> e0<1>"],
      ["REL GLUE z1 1 e0<1> -> e0<2>",
       "REL EV2INV z1 1 e0<2> -> f e0<2> e0<2>",
       "REL GLUEINV f z1 z2 1 e0<2> e0<2> -> e0<1>"]]),
    (pushout_leq, "e1<2>", "f e1<1> e2<1>", None,
     {"nodes_expanded": 4, "nodes_generated": 6, "depth_reached": 3,
      "capped": False, "pruned": 0},
     [["INEQ e1<2> <= e2<2>",
       "REL GLUEINV z1 1 e2<2> -> e2<1>",
       "REL EV1INV z1 1 e2<1> -> f e0<1> e2<1>",
       "INEQ f e0<1> e2<1> <= f e1<1> e2<1>"]]),
    (pushout_leq, "e1<1>", "e1<2>", Budget(max_nodes=2000),
     {"nodes_expanded": 6, "nodes_generated": 6, "depth_reached": 3,
      "capped": False, "pruned": 0},
     []),
    (pushout_leq, "e2<1>", "e0<1>", None,
     {"nodes_expanded": 0, "nodes_generated": 0, "depth_reached": 0,
      "capped": False, "pruned": 0},
     []),
    # Targets of two operations over side 1, met by the backward end.
    (pushout_leq, "e2<1>", "f f e0<1> e2<1> e2<1>", None,
     {"nodes_expanded": 3, "nodes_generated": 5, "depth_reached": 2,
      "capped": False, "pruned": 0},
     [["REL EV1INV z1 1 e2<1> -> f f e0<1> e0<1> e2<1>",
       "INEQ f f e0<1> e0<1> e2<1> <= f f e0<1> e2<1> e2<1>"]]),
    (pushout_leq, "e2<1>", "f e0<1> f e0<1> e2<1>", None,
     {"nodes_expanded": 3, "nodes_generated": 5, "depth_reached": 2,
      "capped": False, "pruned": 0},
     [["REL EV1INV z1 1 e2<1> -> f e0<1> f e0<1> e2<1>"]]),
    (pushout_leq, "e1<2>", "f f e0<1> e1<1> e2<1>", None,
     {"nodes_expanded": 4, "nodes_generated": 6, "depth_reached": 3,
      "capped": False, "pruned": 0},
     [["INEQ e1<2> <= e2<2>",
       "REL GLUEINV z1 1 e2<2> -> e2<1>",
       "REL EV1INV z1 1 e2<1> -> f f e0<1> e0<1> e2<1>",
       "INEQ f f e0<1> e0<1> e2<1> <= f f e0<1> e1<1> e2<1>"]]),
]


@pytest.mark.parametrize("search,s,t,budget,stats,schemes", GOLDEN_SEARCHES)
def test_pushout_search_golden(search, s, t, budget, stats, schemes):
    res = search(SP, _p(s), _p(t), budget)
    assert res.stats.as_dict() == stats
    found = [getattr(res, name) for name in ("scheme", "forward", "backward")
             if hasattr(res, name)]
    assert [scheme_to_lines(sch) for sch in found] == schemes
    for sch in found:
        assert validate_scheme(SP, sch) == []


@pytest.mark.parametrize("search,s,t,budget,stats,schemes", GOLDEN_SEARCHES)
def test_each_expanded_term_is_walked_once(monkeypatch, search, s, t, budget, stats, schemes):
    # `_moves` walks the expanded state once and reads every path's
    # subterm off that walk.
    walked = []
    walk = amalgam._subterms
    monkeypatch.setattr(amalgam, "_subterms", lambda u: walked.append(u) or walk(u))
    res = search(SP, _p(s), _p(t), budget)
    assert len(walked) == res.stats.nodes_expanded == stats["nodes_expanded"]


# The same searches on a general amalgam, which has no collapse map and so
# no check at the root.
GOLDEN_GENERAL_SEARCHES = [
    ("e0<1>", "e0<2>",
     {"nodes_expanded": 2, "nodes_generated": 2, "depth_reached": 1,
      "capped": False, "pruned": 0},
     [["REL GLUE z1 1 e0<1> -> e0<2>"], ["REL GLUEINV z1 1 e0<2> -> e0<1>"]]),
    ("e1<1>", "e1<2>",
     {"nodes_expanded": 6, "nodes_generated": 6, "depth_reached": 3,
      "capped": False, "pruned": 0}, []),
    ("f e0<1> e0<2>", "e0<1>",
     {"nodes_expanded": 10, "nodes_generated": 16, "depth_reached": 3,
      "capped": False, "pruned": 0},
     [["REL GLUE f z1 z2 1 e0<2> e0<1> -> e0<2>",
       "REL EV2 z1 1 f e0<2> e0<2> -> e0<2>",
       "REL GLUEINV z1 1 e0<2> -> e0<1>"],
      ["REL GLUE z1 1 e0<1> -> e0<2>",
       "REL EV2INV z1 1 e0<2> -> f e0<2> e0<2>",
       "REL GLUEINV f z1 z2 1 e0<2> e0<2> -> e0<1>"]]),
]


@pytest.mark.parametrize("s,t,stats,schemes", GOLDEN_GENERAL_SEARCHES)
def test_pushout_search_golden_on_a_general_amalgam(tmp_path, s, t, stats, schemes):
    am = _general_ch3_amalgam(tmp_path)
    assert not isinstance(am, SpecialAmalgam)
    p = lambda w: parse_term(am.sig, am.variables(), w)
    res = pushout_equal(am, p(s), p(t), Budget(max_nodes=3000))
    assert res.stats.as_dict() == stats
    found = [res.forward, res.backward] if res.proven else []
    assert [scheme_to_lines(sch) for sch in found] == schemes
    for sch in found:
        assert validate_scheme(am, sch) == []


def test_a_level_of_repeats_ends_the_search(tmp_path):
    # e2<1> glues to e2<2>, whose one move glues back, and e0<1> glues down
    # to e0<2> and back: each end's second level only repeats its start, so
    # the search ends uncapped at depth 2.
    am = _general_ch3_amalgam(tmp_path)
    res = pushout_leq(am, leaf("e2<1>"), leaf("e0<1>"))
    assert not res.proven
    assert res.stats.as_dict() == {"nodes_expanded": 4, "nodes_generated": 4,
                                   "depth_reached": 2, "capped": False, "pruned": 0}


def test_search_builds_one_term_per_unpruned_candidate(monkeypatch):
    # Nothing is pruned below the root: each candidate costs one
    # replace_at, and a failed search no more.
    calls = []

    def counting_replace_at(t, path, new):
        calls.append(path)
        return replace_at(t, path, new)

    monkeypatch.setattr(amalgam, "replace_at", counting_replace_at)
    stats = pushout_leq(SP, _p("f f e1<1> e1<2> g e1<1> e0<2> e1<1>"), _p("e1<2>")).stats
    assert (stats.nodes_generated, stats.pruned, stats.capped) == (2357, 0, False)
    assert len(calls) == stats.nodes_generated


def test_a_tiny_node_cap_ends_the_search():
    # The sixth move out of a three-operation start crosses a cap of five.
    res = pushout_leq(SP, _p("f f e1<1> e1<2> g e1<1> e0<2> e1<1>"), _p("e1<2>"), Budget(max_nodes=5))
    assert not res.proven
    assert res.stats.as_dict() == {"nodes_expanded": 1, "nodes_generated": 6,
                                   "depth_reached": 1, "capped": True, "pruned": 0}


# A signature with a unary operation, and one with binary operations only.
SIG_UNARY = Signature({"h": 1, "f": 2, "c": 0})
SIG_BINARY = Signature({"f": 2, "k": 2, "c": 0})


def _two_table_amalgam(rng: random.Random, sig: Signature, size: int) -> Amalgam:
    """A general amalgam over the constants' subalgebra of a trivially
    ordered algebra and a copy of it with every other table entry redrawn,
    so that the two sides' tables differ."""
    a1 = with_trivial_order(random_algebra(rng, sig, size))
    core = generated_subalgebra(a1, [])
    tables = {f: {args: v if set(args) <= set(core) else rng.choice(a1.carrier)
                  for args, v in tbl.items()} for f, tbl in a1.op_tables.items()}
    a2 = OrderedAlgebra(sig, a1.carrier, a1.order, tables, a1.const_vals, name="R2")
    ident = {e: e for e in core}
    am = Amalgam(subalgebra(a1, core), a1, a2, ident, ident)
    assert validate_amalgam(am) == []
    return am


def _pool_amalgams(rng: random.Random):
    """(amalgam, width) pairs: special and general amalgams over three
    signatures, at widths 1 to 3."""
    for sig in (SIG1, SIG_UNARY, SIG_BINARY):
        for width, max_size in ((1, 3), (2, 3), (3, 2)):
            for _ in range(2):
                yield random_special_amalgam(rng, sig, max_size), width
                if sig is not SIG1:
                    yield _two_table_amalgam(rng, sig, rng.randrange(2, max_size + 1)), width


def test_the_padded_schemes_pool_is_the_eager_pool():
    # The pool builder of `generators` lists each value's terms as the
    # oracle's layer-by-layer build does, on special and general amalgams.
    rng = random.Random(31)
    terms = 0
    for am, width in _pool_amalgams(rng):
        for side in (1, 2):
            pool = unfold_pool(am.side(side), width)
            assert list(pool.items()) == list(unfold_pool_by_layers(am.side(side), width).items())
            terms += sum(map(len, pool.values()))
    assert terms >= 1000


def _redrawn_amalgam(rng: random.Random, sig: Signature, size: int) -> Amalgam:
    """A general amalgam over the constants' subalgebra of an ordered algebra
    and a copy of it with a few off-core table entries redrawn; a draw is
    kept only when the amalgam is valid, else the copy is left as it is."""
    a1 = random_algebra(rng, sig, size)
    core = generated_subalgebra(a1, [])
    ident = {e: e for e in core}
    off = [(f, args) for f, tbl in a1.op_tables.items() for args in tbl
           if not set(args) <= set(core)]
    for _ in range(40):
        tables = {f: dict(tbl) for f, tbl in a1.op_tables.items()}
        for f, args in rng.sample(off, min(len(off), rng.randrange(1, 4))):
            tables[f][args] = rng.choice(a1.carrier)
        a2 = OrderedAlgebra(sig, a1.carrier, a1.order, tables, a1.const_vals, name="R2")
        am = Amalgam(subalgebra(a1, core), a1, a2, ident, ident)
        if validate_amalgam(am) == []:
            return am
    return Amalgam(subalgebra(a1, core), a1, a1, ident, ident)


def test_the_glued_completion_is_a_cocone_in_which_the_sides_meet_in_the_core():
    rng = random.Random(90)
    kinds = Counter()
    for i in range(330):
        sig = (SIG1, SIG_UNARY, SIG_BINARY)[i % 3]
        kind = rng.choice(["special", "redrawn"] + ["two tables"] * (sig is not SIG1))
        am = (random_special_amalgam(rng, sig, 4) if kind == "special" else
              _redrawn_amalgam(rng, sig, rng.randrange(2, 5)) if kind == "redrawn" else
              _two_table_amalgam(rng, sig, rng.randrange(2, 5)))
        L, g1, g2 = glued_completion(am)
        kinds[kind] += 1
        kinds["differing tables"] += am.a1.coded.tables != am.a2.coded.tables
        assert validate_algebra(L) == []
        for g in (g1, g2):
            assert check_homomorphism(g) == dict.fromkeys(
                ("is_hom", "is_monotone", "reflects_order"), True)
        mediate(am, L, g1.map, g2.map)
        for x, y in itertools.product(am.a1.carrier, am.a2.carrier):
            core = am.c.carrier
            assert L.leq(g1.map[x], g2.map[y]) == any(
                am.a1.leq(x, am.phi1[c]) and am.a2.leq(am.phi2[c], y) for c in core)
            assert L.leq(g2.map[y], g1.map[x]) == any(
                am.a2.leq(y, am.phi2[c]) and am.a1.leq(am.phi1[c], x) for c in core)
        if kind == "special":
            for x in am.base.carrier:
                if x not in am.c.index:
                    assert g1.map[am.alpha1[x]] != g2.map[am.alpha2[x]]
    assert min(kinds[k] for k in ("special", "redrawn", "two tables")) >= 60
    assert kinds["differing tables"] >= 60


def _glued_leq(am: Amalgam, x: str, y: str) -> bool:
    """x <= y in the glued order of the two sides: within one side, or
    across through a core element, x <= phi_i(c) and phi_j(c) <= y."""
    i, j = am.label_class(x), am.label_class(y)
    if i == j:
        return am.side(i).leq(x, y)
    phi = {1: am.phi1, 2: am.phi2}
    return any(am.side(i).leq(x, phi[i][c]) and am.side(j).leq(phi[j][c], y)
               for c in am.c.carrier)


def test_a_leaf_pair_is_proven_exactly_when_the_glued_order_has_it():
    # The glued completion refutes every other leaf pair, so the search
    # must prove exactly these, at the default budget and never capped.
    rng = random.Random(97)
    kinds, outcomes = Counter(), Counter()
    for i in range(150):
        sig = (SIG1, SIG_UNARY, SIG_BINARY)[i % 3]
        kind = rng.choice(["special", "redrawn"] + ["two tables"] * (sig is not SIG1))
        am = (random_special_amalgam(rng, sig, 4) if kind == "special" else
              _redrawn_amalgam(rng, sig, rng.randrange(2, 5)) if kind == "redrawn" else
              _two_table_amalgam(rng, sig, rng.randrange(2, 5)))
        kinds[kind] += 1
        for x, y in itertools.product(am.variables(), repeat=2):
            res = pushout_leq(am, leaf(x), leaf(y))
            assert res.proven == _glued_leq(am, x, y), (i, x, y)
            assert not res.stats.capped
            outcomes[res.proven, am.label_class(x) == am.label_class(y)] += 1
    assert min(kinds.values()) >= 30 and min(outcomes.values()) >= 100, (kinds, outcomes)


def _standard_example(n: int) -> OrderedAlgebra:
    """S_n: a_i < b_j for i != j, with h the identity and no constants."""
    carrier = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    order = {(f"a{i}", f"b{j}") for i in range(n) for j in range(n) if i != j}
    return OrderedAlgebra(Signature({"h": 1}), carrier, order,
                          {"h": {(e,): e for e in carrier}}, {}, name=f"S{n}")


def test_the_completion_builds_only_the_generated_subalgebra():
    L, g1, g2 = glued_completion(make_special(_standard_example(6), []))
    assert len(L.carrier) == len(set(g1.map.values()) | set(g2.map.values())) == 24
    # All the cuts: the intersections of the principal down-sets, and D0.
    cuts = {frozenset(L.carrier)}
    for x in L.carrier:
        down = frozenset(y for y in L.carrier if L.leq(y, x))
        cuts |= {down & cut for cut in cuts}
    assert len(cuts) == 126


def test_the_completion_stops_at_the_carrier_cap(monkeypatch):
    monkeypatch.setattr(algebra, "MAX_CARRIER", 11)
    with pytest.raises(SizeLimit, match="the glued poset has 12 elements"):
        glued_completion(make_special(_standard_example(3), []))
    # D0 has 4 elements and L 5, so the cap stops the operations' closure,
    # and epi answers Inconclusive.
    monkeypatch.setattr(algebra, "MAX_CARRIER", 4)
    base = with_trivial_order(chain(3, PLAIN))
    with pytest.raises(SizeLimit, match="the glued completion passes 4 elements"):
        exhaustive_separator(base, ["e0", "e2"], "e1")
    incl = Homomorphism(subalgebra(base, ["e0", "e2"]), base, {"e0": "e0", "e2": "e2"})
    assert epi_check(incl, 1) == amalgam.EpiReport("Inconclusive", missing=["e1"])


def test_every_proper_subalgebra_inclusion_of_an_unordered_algebra_is_not_epi():
    # The paper's corollary for the unordered variety: epimorphisms are
    # surjective.  The separators, their order forgotten, are unordered.
    rng = random.Random(93)
    proper, completed = 0, 0
    for i in range(600):
        sig = (PLAIN, SIG_UNARY, SIG_BINARY)[i % 3]
        base = with_trivial_order(random_algebra(rng, sig, rng.randrange(2, 6), name=f"U{i}"))
        core = generated_subalgebra(base, rng.sample(base.carrier, rng.randrange(2)))
        if len(core) == len(base.carrier):
            continue
        if proper == 120:
            break
        proper += 1
        rep = epi_check(Homomorphism(subalgebra(base, core), base, {e: e for e in core}), 2)
        assert rep.verdict == "NotEpi"
        sep = rep.separator
        completed += sep.codomain.name == "L"
        flat = with_trivial_order(sep.codomain)
        assert validate_algebra(flat) == []
        for h in (sep.f, sep.g):
            assert check_homomorphism(Homomorphism(base, flat, h.map))["is_hom"]
        assert sep.f.map[sep.element] != sep.g.map[sep.element]
        assert all(sep.f.map[z] == sep.g.map[z] for z in core)
    assert proper == 120 and completed >= 10, (proper, completed)


def _random_term(rng: random.Random, labels: list[str], ops: int) -> Term:
    """A random term over SIG1 with exactly `ops` operation nodes."""
    if ops == 0:
        return leaf(rng.choice(labels))
    f = rng.choice(["f", "g"])
    split = [0] * SIG1.arity(f)
    for _ in range(ops - 1):
        split[rng.randrange(len(split))] += 1
    return Term(f, tuple(_random_term(rng, labels, n) for n in split))


def test_a_move_keeps_the_collapsed_value_of_its_witness():
    # A move rewrites its witness to a leaf of the same collapsed value, in
    # both directions: so no relation step moves the root check's values.
    rng = random.Random(11)
    tags = set()
    for _ in range(8):
        sp = random_special_amalgam(rng, SIG1, 3)
        labels = sp.variables() + SIG1.constants()
        for _ in range(3):
            u = _random_term(rng, labels, rng.randint(0, 3))
            for up in (True, False):
                for _, witness, tag, new in amalgam._moves(sp, u, up):
                    assert new.is_leaf
                    assert sp.collapse_eval(new) == sp.collapse_eval(witness)
                    tags.add(tag)
    assert tags == {"EV1", "EV2", "GLUE", "GLUEINV"}


def test_moves_are_the_path_walk_moves():
    # One walk of u and the per-amalgam caches give the moves that a walk
    # from the root for every path, with fresh fold values and up-sets (or
    # down-sets), gives, in the same order, raising and lowering.
    rng = random.Random(23)
    tags, lowered_apart = set(), 0
    for _ in range(12):
        sp = random_special_amalgam(rng, SIG1, 4)
        labels = sp.variables() + SIG1.constants()
        for _ in range(3):
            u = _random_term(rng, labels, rng.randint(0, 4))
            moves = {}
            for up in (True, False):
                moves[up] = list(amalgam._moves(sp, u, up))
                assert moves[up] == moves_by_path_walk(sp, u, up)
                tags.update(move[2] for move in moves[up])
            lowered_apart += moves[True] != moves[False]
    assert tags == {"EV1", "EV2", "GLUE", "GLUEINV"}
    assert lowered_apart >= 10


def _leafwise_raising_values(am: Amalgam, t: Term, side: int, up: bool) -> set[str]:
    """The values on `side` of every term that raises each side leaf of t
    within its up-set (lowers it within its down-set, when not `up`) and
    keeps each symbol leaf: none if a leaf lies on the other side."""
    alg = am.side(side)
    options = []
    for a in leaves(t):
        cls = am.label_class(a)
        options.append([a] if cls == 0 else
                       [b for b in alg.carrier if alg.leq(*((a, b) if up else (b, a)))]
                       if cls == side else [])
    return {am.eval_in_side(substitute_leaves(t, labels), side)
            for labels in itertools.product(*options)}


def test_fold_values_are_every_leafwise_raising():
    rng = random.Random(29)
    nonempty = 0
    for _ in range(10):
        sp = random_special_amalgam(rng, SIG1, 4)
        labels = sp.variables() + SIG1.constants()
        for _ in range(4):
            # Mostly one side's leaves, so that most maps are not empty.
            one_side = sp.side(rng.choice((1, 2))).carrier + SIG1.constants()
            sub = _random_term(rng, rng.choice((labels, one_side)), rng.randint(0, 3))
            for side, up in itertools.product((1, 2), (True, False)):
                values = amalgam._achievable_values(sp, sub, side, up)
                assert set(values) == _leafwise_raising_values(sp, sub, side, up)
                nonempty += bool(values)
                for value, witness in values.items():
                    assert sp.eval_in_side(witness, side) == value
                    assert skeleton(witness) == skeleton(sub)
                    for a, b in zip(leaves(sub), leaves(witness)):
                        assert b == a if sp.label_class(a) == 0 else \
                            sp.side(side).leq(*((a, b) if up else (b, a)))
    assert nonempty > 40


def test_fold_values_are_worked_out_once_per_subterm_and_side(monkeypatch):
    # A subterm's map is built from its children's cached maps, so a
    # search that runs both of its ends dry asks `_achievable_values` once
    # per cache entry, in both directions.
    calls = Counter()
    achievable_values = amalgam._achievable_values

    def counting(am, t, side, up):
        calls[(t, side, up)] += 1
        return achievable_values(am, t, side, up)

    monkeypatch.setattr(amalgam, "_achievable_values", counting)
    sp = make_special(CH3, [])
    res = pushout_equal(sp, _p("f e1<1> g e1<2> e0<1> e1<2>"), _p("f e1<2> e1<1>"))
    assert not res.proven and not res.stats.capped
    assert {up for t, _, up in calls if not t.is_leaf} == {True, False}
    assert set(calls) == set(sp._achievable_cache)
    assert max(calls.values()) == 1


# sha256 of what the search returns at max_nodes=2000 on 30 random special
# amalgams: the sorted statuses of dominion_special, search statistics
# included, and the statistics and schemes of pushout_equal from
# f x<1> x<2> to a copy of its value, for x the last element.  The
# dominion searches expand leaves only; the second query starts from a
# compound term, so its forward end folds below an operation.  A change
# that makes the search cheaper leaves both alone; one that changes which
# candidates are generated regenerates them and says so.
DOMINION_STATUS_DIGEST = "fd9e605beb770c82e2863406f4d0325f7b4c0ee98d4233ad38bbc19f868175fe"
COMPOUND_SEARCH_DIGEST = "5d090d9a1787c7671e6aed2fea64f8d1c77f666d909a8344edb9cad98fc6dfd3"


def test_dominion_statuses_are_pinned():
    statuses_digest, compound_digest = hashlib.sha256(), hashlib.sha256()
    budget = Budget(max_nodes=2000)
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(5):
            sp = random_special_amalgam(rng, SIG1, 4)
            statuses = dominion_special(sp, budget)
            statuses_digest.update(repr(sorted(statuses.items())).encode())
            x = sp.base.carrier[-1]
            s = node("f", leaf(sp.alpha1[x]), leaf(sp.alpha2[x]))
            res = pushout_equal(sp, s, leaf(sp.alpha1[sp.base.op("f", (x, x))]), budget)
            compound_digest.update(repr(res.stats.as_dict()).encode())
            if res.proven:
                lines = [scheme_to_lines(res.forward), scheme_to_lines(res.backward)]
                compound_digest.update(repr(lines).encode())
    assert statuses_digest.hexdigest() == DOMINION_STATUS_DIGEST
    assert compound_digest.hexdigest() == COMPOUND_SEARCH_DIGEST


# sha256 of pushout_equal at the default budget, statistics and schemes,
# from f x<1> y<2> to a copy of its value, for every x and y of 6 random
# special amalgams.  The backward search from the leaf reads its folds
# backwards, so the pin fixes the order of both ends' moves and which end
# grows first.
DEFAULT_BUDGET_DIGEST = "8dc3af9c5b4df58a3f46499a0a97a4acf59bc180056ee80cbc0fb07bc87ec1c6"


def test_default_budget_searches_are_pinned():
    digest = hashlib.sha256()
    rng = random.Random(3)
    queries = 0
    for _ in range(6):
        sp = random_special_amalgam(rng, SIG1, 3)
        for x in sp.base.carrier:
            for y in sp.base.carrier:
                s = node("f", leaf(sp.alpha1[x]), leaf(sp.alpha2[y]))
                res = pushout_equal(sp, s, leaf(sp.alpha1[sp.base.op("f", (x, y))]))
                digest.update(repr(res.stats.as_dict()).encode())
                if res.proven:
                    lines = [scheme_to_lines(res.forward), scheme_to_lines(res.backward)]
                    digest.update(repr(lines).encode())
                queries += 1
    assert queries == 39
    assert digest.hexdigest() == DEFAULT_BUDGET_DIGEST


def _skeleton_leaves_term_leq(sig, xp, s, t):
    """The definition of the term order: one skeleton, and each leaf pair
    related within its namespace (variables, or constant symbols)."""
    if skeleton(s) != skeleton(t):
        return False
    for a, b in zip(leaves(s), leaves(t)):
        if sig.has(a) and sig.has(b):
            if not sig.const_leq(a, b):
                return False
        elif not (a in xp.names and b in xp.names and xp.leq(a, b)):
            return False
    return True


@st.composite
def random_orders(draw):
    """A signature with three constants and a variable poset of 1-4
    names, each ordered at random; edges run from earlier to later names,
    so every draw is a partial order."""
    def order(names):
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        return frozenset(draw(st.sets(st.sampled_from(pairs)))) if pairs else frozenset()

    consts = draw(st.permutations(["c", "d", "k"]))
    sig = Signature({"f": 2, "g": 3, **{c: 0 for c in consts}}, order(consts))
    names = draw(st.permutations(["x1", "x2", "x3", "x4"]))[:draw(st.integers(1, 4))]
    return sig, VarPoset(tuple(names), order(names))


@st.composite
def term_pairs(draw):
    sig, xp = draw(st.one_of(st.just((SP.sig, SP.poset)), random_orders()))
    labels = list(xp.names) + sig.constants()

    def term(depth):
        op = draw(st.sampled_from(["f", "g", None, None] if depth else [None]))
        if op is None:
            return leaf(draw(st.sampled_from(labels)))
        return node(op, *(term(depth - 1) for _ in range(sig.arity(op))))

    def above(label):
        if sig.has(label):
            return [b for b in sig.constants() if sig.const_leq(label, b)]
        return [b for b in xp.names if xp.leq(label, b)]

    def relabel(u):
        if u.children:
            return Term(u.label, tuple(relabel(c) for c in u.children))
        up = draw(st.booleans())
        return leaf(draw(st.sampled_from(above(u.label) if up else labels)))

    s = term(3)
    t = relabel(s) if draw(st.booleans()) else term(3)
    return sig, xp, s, t


@given(term_pairs())
def test_term_leq_agrees_with_skeleton_and_leaves(case):
    sig, xp, s, t = case
    assert term_leq(sig, xp, s, t) == _skeleton_leaves_term_leq(sig, xp, s, t)
    assert term_leq(sig, xp, s, s)


def test_separator_search_rejects_a_center_that_is_not_closed():
    # The constant d is e5 in chain(6), so e0..e3 is not a subalgebra.
    with pytest.raises(PreconditionFailed, match="subalgebra"):
        separator_search(chain(6, SIG1), ["e0", "e1", "e2", "e3"], "e5", 4)


def _raw_values(alg, pool, leaf_value):
    """Independent oracle: the value of each pool term, or None where a
    leaf has none, by one raw table lookup per term.  The pool must list
    children before parents."""
    out = {}
    for t in pool:
        if t.children:
            args = tuple(out[c] for c in t.children)
            out[t] = None if None in args else alg.op_tables[t.label][args]
        elif t.label in alg.const_vals:
            out[t] = alg.const_vals[t.label]
        else:
            out[t] = leaf_value.get(t.label)
    return out


def test_evaluators_agree_with_raw_tables():
    # A monotone map from both copies into CH3 that is not the collapse.
    squash = {"e0": "e0", "e1": "e2", "e2": "e2"}
    alpha = {**{SP.alpha1[e]: e for e in CH3.carrier},
             **{SP.alpha2[e]: squash[e] for e in CH3.carrier}}
    beta = extend_monotone_map(SP.poset, CH3, alpha)
    pool = enumerate_terms(SIG1, SP.variables() + SIG1.constants(), 2)
    collapsed = _raw_values(SP.a1, pool, {x: SP.to_side1(x) for x in SP.variables()})
    on_side = {i: _raw_values(SP.side(i), pool, {e: e for e in SP.side(i).carrier})
               for i in (1, 2)}
    extended = _raw_values(CH3, pool, alpha)
    for t in pool:
        assert SP.collapse_eval(t) == collapsed[t]
        assert beta(t) == extended[t]
        for i in (1, 2):
            if on_side[i][t] is None:
                with pytest.raises(UnboundVariable):
                    SP.eval_in_side(t, i)
            else:
                assert SP.eval_in_side(t, i) == on_side[i][t]
