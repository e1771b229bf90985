import hashlib
import itertools
import random

from oalg import relations
from oalg.algebra import (all_congruences, chain, is_compatible_quasiorder,
                          is_order_congruence, leq_theta)
from oalg.closure import (
    all_compatible_quasiorders,
    compatible_closure,
    gen_compatible_quasiorder,
    gen_order_congruence,
)
from oalg.generators import random_algebra, random_relation
from oalg.oracles import (
    bfs_generated_quasiorder,
    check_generated_scheme,
    enumerate_translations,
    one_slot_step_relation,
    step_relation,
)
from oalg.schemes import scheme_to_lines
from oalg.signature import SIG1
from oalg.terms import print_term

CH3 = chain(3, SIG1)
TOTAL = frozenset((a, b) for a in CH3.carrier for b in CH3.carrier)


def test_enumerate_translations_identity_only():
    out = enumerate_translations(CH3, ["e0"], 0)
    assert len(out) == 1 and out[0].template.label == "z1"


def test_enumerate_translations_count():
    # templates f z1 z2 and g z1 z2 z3; fillers over {e0} + constant values
    out = enumerate_translations(CH3, ["e0"], 1)
    assert len(out) == 1 + 2 * 2 + 3 * 4


def test_enumerate_translations_no_labels():
    bare = CH3
    out = enumerate_translations(bare, [], 1)
    # fillers still include the interpreted constants e0, e2
    assert all(set(t.fillers) <= {"e0", "e2"} for t in out)


def test_step_relation_examples():
    assert step_relation(CH3, CH3.carrier, frozenset(), 1) == frozenset()
    delta = relations.identity(CH3.carrier)
    assert delta <= step_relation(CH3, CH3.carrier, delta, 1)
    stepped = step_relation(CH3, CH3.carrier, frozenset({("e2", "e0")}), 1)
    assert ("e2", "e0") in stepped and ("e2", "e1") in stepped


def test_generated_quasiorder_examples():
    assert gen_compatible_quasiorder(CH3, frozenset()).relation == CH3.order
    assert gen_compatible_quasiorder(CH3, {("e2", "e0")}).relation == TOTAL
    assert gen_compatible_quasiorder(CH3, CH3.order).relation == CH3.order


def test_generated_congruence_examples():
    res = gen_order_congruence(CH3, frozenset())
    assert res.leq == CH3.order
    assert res.theta == relations.identity(CH3.carrier)
    res = gen_order_congruence(CH3, {("e0", "e1")})
    assert ("e1", "e0") in res.leq
    assert ("e0", "e1") in res.theta and ("e2", "e0") not in res.theta
    res = gen_order_congruence(CH3, relations.identity(CH3.carrier))
    assert res.theta == relations.identity(CH3.carrier)


def test_witnesses_validate():
    clo = gen_compatible_quasiorder(CH3, {("e2", "e0")})
    for (a, b) in sorted(clo.relation):
        sch = clo.witness(a, b)
        check_generated_scheme(CH3, {("e2", "e0")}, sch, allow_inverse=False)
    sym = gen_order_congruence(CH3, {("e0", "e1")})
    for (a, b) in sorted(sym.leq):
        sch = sym.witness(a, b)
        check_generated_scheme(CH3, {("e0", "e1")}, sch, allow_inverse=True)


# On these inputs a change to the closure engine's discovery order (the
# worklist discipline, the order a popped pair meets the known pairs, or
# transitivity before compatibility) changes some witness.
PINNED_CONGRUENCE_WITNESSES = {
    295: [
        'e1 e0: INEQ e1 <= e4 ; REL HYPINV g z1 z2 z3 3 e0 e0 e2 -> e1 ; INEQ e1 <= e2 ; REL HYPINV g z1 z2 z3 2 e0 e0 e2 -> e1',
        'e2 e0: REL HYPINV g z1 z2 z3 2 e0 e0 e2 -> e1',
        'e2 e1: REL HYPINV z1 1 e2 -> e1',
        'e3 e0: INEQ e3 <= e4 ; REL HYPINV g z1 z2 z3 3 e0 e0 e2 -> e1 ; INEQ e1 <= e2 ; REL HYPINV g z1 z2 z3 2 e0 e0 e2 -> e1',
        'e3 e1: INEQ e3 <= e4 ; REL HYPINV g z1 z2 z3 3 e0 e0 e2 -> e1',
        'e3 e2: INEQ e3 <= e4 ; REL HYPINV g z1 z2 z3 3 e0 e0 e2 -> e1 ; INEQ e1 <= e2',
        'e4 e0: REL HYPINV g z1 z2 z3 3 e0 e1 e2 -> e1 ; INEQ e3 <= e4 ; REL HYPINV g z1 z2 z3 3 e0 e0 e2 -> e1 ; INEQ e1 <= e2 ; REL HYPINV g z1 z2 z3 2 e0 e0 e2 -> e1',
        'e4 e1: REL HYPINV g z1 z2 z3 3 e0 e0 e2 -> e1',
        'e4 e2: REL HYPINV g z1 z2 z3 3 e0 e0 e2 -> e1 ; INEQ e1 <= e2',
        'e4 e3: REL HYPINV g z1 z2 z3 3 e0 e1 e2 -> e1',
    ],
    371: [
        'e1 e0: INEQ e1 <= e4 ; REL HYPINV z1 1 e4 -> e2 ; REL HYP z1 1 e2 -> e0',
        'e2 e0: REL HYP z1 1 e2 -> e0',
        'e2 e1: INEQ e2 <= e4 ; REL HYPINV z1 1 e4 -> e2 ; REL HYP z1 1 e2 -> e0 ; INEQ e0 <= e1',
        'e3 e0: INEQ e3 <= e4 ; REL HYPINV z1 1 e4 -> e2 ; REL HYP z1 1 e2 -> e0',
        'e3 e1: INEQ e3 <= e4 ; REL HYPINV z1 1 e4 -> e2 ; REL HYP z1 1 e2 -> e0 ; INEQ e0 <= e1',
        'e3 e2: INEQ e3 <= e4 ; REL HYPINV z1 1 e4 -> e2',
        'e4 e0: REL HYPINV z1 1 e4 -> e2 ; REL HYP z1 1 e2 -> e0',
        'e4 e1: REL HYPINV z1 1 e4 -> e2 ; REL HYP z1 1 e2 -> e0 ; INEQ e0 <= e1',
        'e4 e2: REL HYPINV z1 1 e4 -> e2',
        'e4 e3: REL HYPINV z1 1 e4 -> e2 ; INEQ e2 <= e3',
    ],
}


def test_congruence_witnesses_pinned():
    for seed, expected in PINNED_CONGRUENCE_WITNESSES.items():
        rng = random.Random(seed)
        alg = random_algebra(rng, SIG1, 5)
        hyp = random_relation(rng, alg.carrier, 3)
        res = gen_order_congruence(alg, hyp)
        got = [f"{a} {b}: " + " ; ".join(scheme_to_lines(res.witness(a, b)))
               for (a, b) in sorted(res.leq - alg.order)]
        assert got == expected


# Every witness of both closures over 300 small random algebras, hashed
# line by line: a refactor of the witness code must leave each one as is.
CLOSURE_WITNESS_LINES = 4539
CLOSURE_WITNESS_DIGEST = "0088cd7bdc01b412ff497b48ecefa03df580df8d01ae4ccbb6059129423733ef"


def test_closure_witnesses_digest():
    rng = random.Random(11)
    digest = hashlib.sha256()
    count = 0
    for _ in range(300):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5))
        hyp = random_relation(rng, alg.carrier, 3)
        for clo in (gen_compatible_quasiorder(alg, hyp),
                    gen_order_congruence(alg, hyp).closure):
            for (a, b) in sorted(clo.relation):
                for line in scheme_to_lines(clo.witness(a, b)):
                    digest.update(line.encode())
                    count += 1
    assert count == CLOSURE_WITNESS_LINES
    assert digest.hexdigest() == CLOSURE_WITNESS_DIGEST


def test_witness_none_for_unrelated():
    clo = gen_compatible_quasiorder(CH3, frozenset())
    assert clo.witness("e2", "e0") is None


def test_least_closure():
    rng = random.Random(11)
    for _ in range(15):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5))
        hyp = random_relation(rng, alg.carrier, 2)
        sigma = gen_compatible_quasiorder(alg, hyp).relation
        base = set(alg.order) | set(hyp)
        for pair in sorted(sigma - base)[:3]:
            # derived pairs regenerate from the rest of the closure
            rest = frozenset(sigma - {pair})
            assert pair in gen_compatible_quasiorder(alg, rest).relation


def test_oracle_equivalence_sample():
    rng = random.Random(12)
    for _ in range(40):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5))
        hyp = random_relation(rng, alg.carrier, 3)
        fix = gen_compatible_quasiorder(alg, hyp).relation
        assert bfs_generated_quasiorder(alg, hyp, 3, 6) == fix
        assert compatible_closure(alg, hyp) == fix


def _brute_compatible_quasiorders(alg):
    """Oracle: every relation containing the order, kept when it is a
    (reflexive, transitive) compatible quasiorder."""
    extra = [(a, b) for a in alg.carrier for b in alg.carrier if (a, b) not in alg.order]
    out = set()
    for mask in itertools.product((False, True), repeat=len(extra)):
        sigma = alg.order | {p for p, keep in zip(extra, mask) if keep}
        if is_compatible_quasiorder(alg, sigma):
            out.add(frozenset(sigma))
    return out


def test_all_compatible_quasiorders_agrees_with_brute_force():
    rng = random.Random(15)
    algs = [CH3] + [random_algebra(rng, SIG1, rng.randrange(1, 4)) for _ in range(20)]
    sizes = set()
    for alg in algs:
        found = all_compatible_quasiorders(alg)
        assert len(set(found)) == len(found)
        assert set(found) == _brute_compatible_quasiorders(alg)
        sizes.add(len(found))
    assert len(sizes) > 2


def test_literal_and_one_slot_step_relations_agree():
    rng = random.Random(13)
    for _ in range(6):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 4))
        hyp = random_relation(rng, alg.carrier, 2)
        for depth in (1, 2):
            lit = step_relation(alg, alg.carrier, hyp, depth)
            fast = one_slot_step_relation(alg, hyp, depth)
            assert lit == fast


def test_generated_congruence_below_any_order_congruence():
    rng = random.Random(14)
    for _ in range(12):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5))
        for classes in all_congruences(alg):
            theta = relations.from_rows(relations.class_rows(classes), alg.carrier)
            if not is_order_congruence(alg, theta):
                continue
            lt = leq_theta(alg, theta)
            pool = sorted(lt)[:4]
            hyp = frozenset(pool)
            clo = gen_compatible_quasiorder(alg, hyp)
            eq = clo.relation & relations.inverse(clo.relation)
            assert eq <= theta


def test_scheme_display_shape():
    clo = gen_compatible_quasiorder(CH3, {("e2", "e0")})
    sch = clo.witness("e1", "e0")
    assert sch.source.label == "e1" and sch.target.label == "e0"
    assert print_term(sch.source) == "e1"
