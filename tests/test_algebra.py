import itertools
import random
from collections import Counter

import pytest

import oalg.algebra as algebra
from oalg import relations
from oalg.algebra import (
    Homomorphism,
    OrderedAlgebra,
    all_congruences,
    all_homomorphisms,
    chain,
    check_homomorphism,
    directed_kernel,
    evaluate,
    factor_through,
    generated_subalgebra,
    is_compatible_quasiorder,
    is_congruence,
    is_order_congruence,
    kernel,
    leq_theta,
    load_algebra,
    nonregular_quotient,
    print_algebra,
    product,
    regular_quotient,
    subalgebra,
    terminal,
    validate_algebra,
    with_trivial_order,
)
from oalg.amalgam import separator_search
from oalg.errors import (
    NotCompatibleQuasiorder,
    NotOrderCongruence,
    PreconditionFailed,
    UnboundVariable,
    ValidationError,
)
from oalg.generators import random_algebra, random_partial_order, random_relation
from oalg.oracles import compatible_by_table_walk, congruences_by_partition_filter, \
    homomorphism_flags_by_table_walk, homomorphisms_by_product_filter, \
    variety_report_by_pair_filter
from oalg.relations import partition_to_pairs
from oalg.signature import SIG1, Signature
from oalg.terms import parse_term

CH2 = chain(2, SIG1)
CH3 = chain(3, SIG1)


def test_ch3_in_variety():
    assert validate_algebra(CH3) == []


def test_trivial_order_always_monotone():
    rng = random.Random(0)
    carrier = ["a", "b", "c"]
    tables = {f: {args: rng.choice(carrier)
                  for args in itertools.product(carrier, repeat=k)}
              for f, k in SIG1.ops.items() if k > 0}
    alg = OrderedAlgebra(SIG1, carrier, relations.identity(carrier), tables,
                         {"c": "a", "d": "a"})
    assert validate_algebra(alg) == []


def test_constant_violation_reported():
    bad = OrderedAlgebra(SIG1, CH3.carrier, CH3.order, CH3.op_tables,
                         {"c": "e2", "d": "e0"})
    report = validate_algebra(bad)
    assert any(item["kind"] == "constant" for item in report)


def test_validate_algebra_matches_the_pair_filter():
    # Random tables over random orders: mostly outside the variety, and
    # inside it wherever the order is discrete or the draw is lucky.
    rng = random.Random(11)
    outcomes = set()
    for _ in range(120):
        carrier = [f"e{i}" for i in range(rng.randint(1, 4))]
        order = random_partial_order(rng, carrier)
        tables = {f: {args: rng.choice(carrier)
                      for args in itertools.product(carrier, repeat=k)}
                  for f, k in SIG1.ops.items() if k > 0}
        consts = {c: rng.choice(carrier) for c in SIG1.constants()}
        alg = OrderedAlgebra(SIG1, carrier, order, tables, consts)
        report = validate_algebra(alg)
        assert report == variety_report_by_pair_filter(alg)
        outcomes.add(bool(report))
    for alg in (CH3, random_algebra(rng, SIG1, 4)):
        assert validate_algebra(alg) == variety_report_by_pair_filter(alg) == []
    assert outcomes == {True, False}


def test_monotonicity_violation_reported():
    tables = {f: dict(tbl) for f, tbl in CH3.op_tables.items()}
    tables["f"][("e0", "e0")] = "e2"
    tables["f"][("e0", "e1")] = "e0"
    bad = OrderedAlgebra(SIG1, CH3.carrier, CH3.order, tables, CH3.const_vals)
    assert any(item["kind"] == "monotonicity" for item in validate_algebra(bad))


def test_evaluate():
    t = parse_term(SIG1, ["x1"], "f x1 c")
    assert evaluate(CH3, t, {"x1": "e1"}) == "e1"
    assert evaluate(CH3, parse_term(SIG1, [], "c"), {}) == "e0"
    with pytest.raises(UnboundVariable):
        evaluate(CH3, parse_term(SIG1, ["x1", "x2"], "f x1 x2"), {"x1": "e2"})


def collapse_hom():
    return Homomorphism(CH3, CH3, {"e0": "e0", "e1": "e0", "e2": "e2"})


def test_check_homomorphism():
    ident = Homomorphism(CH3, CH3, {e: e for e in CH3.carrier})
    assert check_homomorphism(ident) == {"is_hom": True, "is_monotone": True,
                                         "reflects_order": True}
    flags = check_homomorphism(collapse_hom())
    assert flags == {"is_hom": True, "is_monotone": True, "reflects_order": False}
    broken = Homomorphism(CH3, CH3, {"e0": "e1", "e1": "e1", "e2": "e2"})
    assert not check_homomorphism(broken)["is_hom"]


def dual(alg):
    return OrderedAlgebra(alg.sig, alg.carrier, relations.inverse(alg.order),
                          alg.op_tables, alg.const_vals, name=alg.name + "^op")


def test_check_homomorphism_agrees_with_the_table_walk():
    # Candidates: the endomorphisms and random maps, each into the algebra,
    # into its order dual (the same tables, so the endomorphisms stay
    # homomorphisms but are seldom monotone) and into its trivially ordered
    # copy (where a map that is not monotone can still reflect the order),
    # and some homomorphisms into a second random algebra.
    rng = random.Random(29)
    kinds = Counter()
    for _ in range(60):
        dom = random_algebra(rng, SIG1, rng.randrange(1, 5))
        cod = random_algebra(rng, SIG1, rng.randrange(1, 4), name="S")
        maps = [h.map for h in all_homomorphisms(dom, dom)]
        maps += [{e: rng.choice(dom.carrier) for e in dom.carrier} for _ in range(3)]
        candidates = [Homomorphism(dom, target, m) for m in maps
                      for target in (dom, dual(dom), with_trivial_order(dom))]
        for h in candidates + all_homomorphisms(dom, cod)[:3]:
            flags = check_homomorphism(h)
            assert flags == homomorphism_flags_by_table_walk(h)
            kinds[tuple(flags.values())] += 1
    assert all(kinds[key] >= 10 for key in [(True, True, True), (True, True, False),
                                            (True, False, True), (True, False, False),
                                            (False, True, False), (False, False, False)])


# One operation of each arity from 1 to 3, and two ordered constants.
SIG123 = Signature({"h": 1, "f": 2, "g": 3, "c": 0, "d": 0}, frozenset({("c", "d")}))


def test_coded_form_matches_the_names():
    rng = random.Random(17)
    for size in [1, 1, 2, 2, 3, 3, 4, 5]:
        alg = random_algebra(rng, SIG123, size)
        n, index = len(alg.carrier), alg.index
        for f, k in alg.sig.operations():
            assert len(alg.coded.tables[f]) == n ** k
            for args in itertools.product(alg.carrier, repeat=k):
                code = 0
                for a in args:
                    code = code * n + index[a]
                assert alg.coded.tables[f][code] == index[alg.op_tables[f][args]]
        for a in alg.carrier:
            assert [alg.coded.rows[index[a]] >> index[b] & 1 == 1 for b in alg.carrier] \
                == [alg.leq(a, b) for b in alg.carrier]


def test_directed_kernel_example():
    dk = directed_kernel(collapse_hom())
    expected = {(a, b) for a in CH3.carrier for b in CH3.carrier} - {("e2", "e0"), ("e2", "e1")}
    assert dk == frozenset(expected)
    assert kernel(collapse_hom()) == dk & relations.inverse(dk)


def test_directed_kernel_is_compatible_quasiorder():
    rng = random.Random(5)
    for _ in range(25):
        dom = random_algebra(rng, SIG1, rng.randrange(2, 4))
        cod = random_algebra(rng, SIG1, rng.randrange(1, 4))
        for h in all_homomorphisms(dom, cod)[:6]:
            dk = directed_kernel(h)
            assert is_compatible_quasiorder(dom, dk)
            assert kernel(h) == dk & relations.inverse(dk)


def test_directed_kernel_identity_and_constant():
    ident = Homomorphism(CH3, CH3, {e: e for e in CH3.carrier})
    assert directed_kernel(ident) == CH3.order
    one = terminal(SIG1)
    const = Homomorphism(CH3, one, {e: "()" for e in CH3.carrier})
    assert directed_kernel(const) == frozenset(
        (a, b) for a in CH3.carrier for b in CH3.carrier)


GLUE01 = partition_to_pairs([["e0", "e1"], ["e2"]])


def congruence_pairs(alg):
    """`all_congruences`, each class tuple read as a relation on the carrier."""
    return [relations.from_rows(relations.class_rows(theta), alg.carrier)
            for theta in all_congruences(alg)]


def by_classes(alg, thetas):
    """Relations on the carrier sorted as `all_congruences` lists them: fewest
    classes first, then by class tuple (each index to the least index it relates to)."""
    def key(theta):
        classes = tuple(min(j for j, b in enumerate(alg.carrier) if (b, a) in theta)
                        for a in alg.carrier)
        return len(set(classes)), classes
    return sorted(thetas, key=key)


def test_all_congruences_match_congruence_filter():
    rng = random.Random(21)
    for _ in range(20):
        alg = random_algebra(rng, SIG1, rng.randrange(1, 6))
        expected = [theta for theta in map(partition_to_pairs,
                                           relations.all_partitions(alg.carrier))
                    if is_congruence(alg, theta)]
        assert congruence_pairs(alg) == by_classes(alg, expected)


def _criterion_4_corpus():
    """The algebras of acceptance check 4 at its default seed."""
    rng = random.Random(2)
    return [chain(3, SIG1)] + [random_algebra(rng, SIG1, rng.randrange(2, 5), name=f"Q{i}")
                               for i in range(12)]


def test_all_congruences_match_the_partition_filter_in_order():
    rng = random.Random(31)
    algebras = [random_algebra(rng, SIG1, rng.randrange(1, 6)) for _ in range(60)]
    algebras += [a for n in range(1, 9)
                 for a in (chain(n, SIG1), with_trivial_order(chain(n, SIG1)))]
    algebras += _criterion_4_corpus() + [_projection_diamond()]
    for alg in algebras:
        assert congruence_pairs(alg) == by_classes(alg, congruences_by_partition_filter(alg)), \
            alg.name


def test_all_congruences_enumerates_no_partitions(monkeypatch):
    def refuse(*args):
        raise AssertionError("Bell(n) partition enumeration")

    monkeypatch.setattr(relations, "all_partitions", refuse)
    monkeypatch.setattr(algebra, "_compatible", refuse)
    assert len(all_congruences(chain(9, SIG1))) == 2 ** 8


def test_principal_congruences_close_under_distinct_translations(monkeypatch):
    seen = []
    principal = algebra._principal
    monkeypatch.setattr(algebra, "_principal",
                        lambda columns, a, b: seen.append(columns) or principal(columns, a, b))
    for alg in (chain(8, SIG1), random_algebra(random.Random(34), SIG1, 5)):
        seen.clear()
        expected = by_classes(alg, congruences_by_partition_filter(alg))
        assert congruence_pairs(alg) == expected
        translations = list(zip(*seen[0]))
        assert all(columns is seen[0] for columns in seen)
        assert len(translations) == len(set(translations))
        assert set(translations) == set(alg.translations.values())
        assert len(translations) < len(alg.translations)


def test_compatible_matches_the_table_walk_on_quasiorders():
    # Orders, closures of random pairs and their unions with the order:
    # relations that are seldom symmetric.
    rng = random.Random(33)
    answers = []
    for _ in range(120):
        alg = random_algebra(rng, SIG1, rng.randrange(1, 6))
        generated = relations.reflexive_transitive_closure(
            random_relation(rng, alg.carrier, 3), alg.carrier)
        for rel in (alg.order, generated, generated | alg.order):
            answer = algebra._compatible(alg, rel)
            assert answer == compatible_by_table_walk(alg, rel), (alg.name, sorted(rel))
            answers.append(answer)
    assert answers.count(True) >= 50 and answers.count(False) >= 50


def _maps(homs):
    return [(h.dom, h.cod, list(h.map.items())) for h in homs]


def test_all_homomorphisms_match_the_product_filter_in_order():
    rng = random.Random(32)
    pairs = [(random_algebra(rng, SIG1, rng.randrange(1, 5)),
              random_algebra(rng, SIG1, rng.randrange(1, 4))) for _ in range(80)]
    pairs += [(a, b) for a in _criterion_4_corpus()[:6] for b in (CH2, CH3, a)]
    found = 0
    for dom, cod in pairs:
        homs = all_homomorphisms(dom, cod)
        assert _maps(homs) == _maps(homomorphisms_by_product_filter(dom, cod))
        found += len(homs)
    assert found >= 50


def test_the_homomorphism_plan_is_built_once_per_domain(monkeypatch):
    # The plan holds only the domain's side: visiting other codomains in
    # between leaves each list as the product filter has it.
    builds = []
    plan = vars(OrderedAlgebra)["hom_plan"]
    build = plan.func
    monkeypatch.setattr(plan, "func", lambda alg: builds.append(alg) or build(alg))
    dom = chain(4, SIG1)
    found = 0
    for cod in (CH3, CH2, dom, CH2):
        homs = all_homomorphisms(dom, cod)
        assert _maps(homs) == _maps(homomorphisms_by_product_filter(dom, cod)), cod.name
        found += len(homs)
    assert builds == [dom] and found >= 6


def test_leq_theta():
    delta = relations.identity(CH3.carrier)
    assert leq_theta(CH3, delta) == CH3.order
    total = partition_to_pairs([CH3.carrier])
    assert leq_theta(CH3, total) == frozenset(
        (a, b) for a in CH3.carrier for b in CH3.carrier)
    lt = leq_theta(CH3, GLUE01)
    assert ("e1", "e0") in lt


def test_is_order_congruence():
    assert is_order_congruence(CH3, relations.identity(CH3.carrier))
    assert is_order_congruence(CH3, GLUE01)


def _projection_diamond():
    """Componentwise product of two projection-op two-chains."""
    carrier = ["0", "1"]
    proj = {args: args[0] for args in itertools.product(carrier, repeat=2)}
    proj3 = {args: args[0] for args in itertools.product(carrier, repeat=3)}
    two = OrderedAlgebra(SIG1, carrier, {("0", "1")}, {"f": proj, "g": proj3},
                         {"c": "0", "d": "1"})
    assert validate_algebra(two) == []
    return product([two, two])


def test_order_congruence_failure_exists_on_projection_diamond():
    # Gluing bottom with top is a congruence whose chain condition fails.
    diamond = _projection_diamond()
    failing = [theta for theta in congruence_pairs(diamond)
               if not is_order_congruence(diamond, theta)]
    assert failing
    glue_ends = partition_to_pairs([["(0,0)", "(1,1)"], ["(0,1)"], ["(1,0)"]])
    assert glue_ends in failing


def _closed_chain_all_pairs(alg, theta):
    """The closed chain condition by its definition: every pair that
    leq-theta (closed here by a naive fixpoint) relates both ways is in
    theta."""
    lt = set(alg.order | theta)
    while True:
        new = {(a, d) for (a, b) in lt for (c, d) in lt if b == c} - lt
        if not new:
            break
        lt |= new
    return all((a, b) in theta for (a, b) in lt if (b, a) in lt)


def test_closed_chain_test_agrees_with_all_pairs_definition():
    rng = random.Random(23)
    algebras = [_projection_diamond()] + [random_algebra(rng, SIG1, rng.randrange(1, 6))
                                          for _ in range(40)]
    outcomes = set()
    for alg in algebras:
        for theta in congruence_pairs(alg):
            expected = _closed_chain_all_pairs(alg, theta)
            outcomes.add(expected)
            assert is_order_congruence(alg, theta) == expected
            if expected:
                regular_quotient(alg, theta)
            else:
                with pytest.raises(NotOrderCongruence, match="closed chain"):
                    regular_quotient(alg, theta)
    assert outcomes == {True, False}


def test_each_call_checks_the_congruence_at_most_once(monkeypatch):
    calls = []
    check = algebra.is_congruence
    monkeypatch.setattr(algebra, "is_congruence",
                        lambda *args: calls.append(args) or check(*args))
    f = Homomorphism(CH3, CH3, {"e0": "e0", "e1": "e0", "e2": "e2"})
    for call in (lambda: is_order_congruence(CH3, GLUE01),
                 lambda: regular_quotient(CH3, GLUE01),
                 lambda: factor_through(f, GLUE01)):
        calls.clear()
        call()
        assert len(calls) == 1
    calls.clear()
    assert separator_search(CH3, ["e0", "e2"], "e1", 3) is not None
    assert calls == []


def test_regular_quotient():
    delta = relations.identity(CH3.carrier)
    q, nat = regular_quotient(CH3, delta)
    assert len(q.carrier) == 3 and len(q.order) == len(CH3.order)
    total = partition_to_pairs([CH3.carrier])
    q1, _ = regular_quotient(CH3, total)
    assert len(q1.carrier) == 1
    q2, nat2 = regular_quotient(CH3, GLUE01)
    assert q2.carrier == ["[e0]", "[e2]"]
    assert ("[e0]", "[e2]") in q2.order and ("[e2]", "[e0]") not in q2.order
    assert validate_algebra(q2) == []
    flags = check_homomorphism(nat2)
    assert flags["is_hom"] and flags["is_monotone"]
    assert set(nat2.map.values()) == set(q2.carrier)


def test_regular_quotient_rejects_bad_input():
    with pytest.raises(NotOrderCongruence):
        regular_quotient(CH3, frozenset({("e0", "e1")}))


@pytest.mark.parametrize("entry", [
    is_congruence, is_order_congruence, leq_theta, regular_quotient,
    pytest.param(lambda alg, rel: factor_through(
        Homomorphism(alg, alg, {e: e for e in alg.carrier}), rel), id="factor_through"),
    is_compatible_quasiorder, nonregular_quotient])
def test_a_relation_off_the_carrier_is_rejected(entry):
    with pytest.raises(ValidationError, match="'zz'"):
        entry(CH3, relations.identity(CH3.carrier) | {("zz", "zz")})


def test_nonregular_quotient():
    same = nonregular_quotient(CH3, CH3.order)
    assert len(same.carrier) == 3
    assert same.order == frozenset(
        (f"[{a}]", f"[{b}]") for (a, b) in CH3.order)
    total = frozenset((a, b) for a in CH3.carrier for b in CH3.carrier)
    one = nonregular_quotient(CH3, total)
    assert len(one.carrier) == 1
    sigma = relations.transitive_closure(CH3.order | {("e2", "e0")})
    collapsed = nonregular_quotient(CH3, sigma)
    assert len(collapsed.carrier) == 1
    with pytest.raises(NotCompatibleQuasiorder):
        nonregular_quotient(CH3, frozenset({("e0", "e1")}))


def test_nonregular_order_contains_regular():
    rng = random.Random(6)
    for _ in range(20):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5))
        for theta in congruence_pairs(alg):
            if not is_order_congruence(alg, theta):
                continue
            sigma = leq_theta(alg, theta)
            regular, _ = regular_quotient(alg, theta)
            nonreg = nonregular_quotient(alg, sigma)
            assert set(regular.order) <= set(nonreg.order)
            assert validate_algebra(regular) == [] and validate_algebra(nonreg) == []


def test_intersection_of_quasiorder_is_order_congruence():
    rng = random.Random(7)
    from oalg.closure import gen_compatible_quasiorder
    for _ in range(20):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5))
        pairs = {(rng.choice(alg.carrier), rng.choice(alg.carrier))}
        sigma = gen_compatible_quasiorder(alg, pairs).relation
        eq = sigma & relations.inverse(sigma)
        assert is_order_congruence(alg, eq)


def test_factor_through():
    f = Homomorphism(CH3, CH3, {"e0": "e0", "e1": "e0", "e2": "e2"})
    g = factor_through(f, GLUE01)
    q, nat = regular_quotient(CH3, GLUE01)
    for e in CH3.carrier:
        assert g.map[nat.map[e]] == f.map[e]
    flags = check_homomorphism(g)
    assert flags["is_hom"] and flags["is_monotone"]
    # natural map factors through itself as the identity
    h = factor_through(Homomorphism(CH3, q, dict(nat.map)), GLUE01)
    assert h.map == {e: e for e in q.carrier}
    ident = Homomorphism(CH3, CH3, {e: e for e in CH3.carrier})
    with pytest.raises(PreconditionFailed):
        factor_through(ident, GLUE01)


def test_product():
    just_one = product([CH3])
    assert len(just_one.carrier) == 3
    diamond = product([CH2, CH2])
    assert len(diamond.carrier) == 4
    incomparable = [("(e0,e1)", "(e1,e0)"), ("(e1,e0)", "(e0,e1)")]
    for pair in incomparable:
        assert pair not in diamond.order
    assert diamond.op("f", ("(e0,e1)", "(e1,e0)")) == "(e1,e1)"
    assert validate_algebra(diamond) == []
    one = terminal(SIG1)
    assert len(one.carrier) == 1 and validate_algebra(one) == []


def test_generated_subalgebra():
    assert generated_subalgebra(CH3, []) == ["e0", "e2"]
    assert generated_subalgebra(CH3, CH3.carrier) == CH3.carrier
    assert generated_subalgebra(CH3, ["e1"]) == ["e0", "e1", "e2"]
    with pytest.raises(PreconditionFailed, match="not in the carrier"):
        generated_subalgebra(CH3, ["zz"])
    sub = subalgebra(CH3, ["e0", "e2"])
    assert validate_algebra(sub) == []
    assert sub.order == frozenset({("e0", "e0"), ("e2", "e2"), ("e0", "e2")})
    with pytest.raises(ValidationError):
        subalgebra(CH3, ["e1"])


def test_oalg_file_roundtrip(tmp_path):
    sig_file = tmp_path / "s.sig"
    sig_file.write_text("op f 2\nop g 3\nconst c\nconst d\norder c <= d\n")
    text = print_algebra(CH3, "s.sig")
    (tmp_path / "a.oalg").write_text(text)
    again = load_algebra(tmp_path / "a.oalg")
    assert again.carrier == CH3.carrier
    assert again.order == CH3.order
    assert again.op_tables == CH3.op_tables
    assert again.const_vals == CH3.const_vals


def test_trivial_order_helper():
    t = with_trivial_order(CH3)
    assert t.order == relations.identity(CH3.carrier)
    # the declared constant inequality now fails: c and d land on
    # different elements that the trivial order cannot compare
    assert any(item["kind"] == "constant" for item in validate_algebra(t))
