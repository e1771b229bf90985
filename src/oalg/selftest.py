"""The acceptance suite: nine desk-scale checks, each timed and reported.

Every check returns a CheckResult; the CLI prints one line per check and
the pytest acceptance module asserts each one.  Randomized corpora are
fully determined by the seed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from . import relations
from .algebra import (
    Homomorphism,
    all_congruences,
    chain,
    factor_through,
    is_order_congruence,
    regular_quotient,
    subalgebra,
    validate_algebra,
    with_trivial_order,
)
from .amalgam import Budget, dominion_special, epi_check, exhaustive_separator, make_special, \
    mediate, pushout_equal
from .closure import gen_compatible_quasiorder, gen_order_congruence
from .errors import SizeLimit, TheoremContradiction
from .generators import (
    commuting_cocones,
    padded_glue_scheme,
    random_algebra,
    random_monotone_map,
    random_relation,
    random_special_amalgam,
    random_var_poset,
)
from .oracles import (bfs_over_step_relation, characterized_up_set, check_generated_scheme,
                      generated_up_set, one_slot_step_relation, single_raises, step_relation,
                      verify_partial_order)
from .schemes import extract_center, normalize, validate_scheme
from .signature import SIG1, Signature
from .terms import (
    Term,
    enumerate_terms,
    leaf,
    leaf_count,
    leaves,
    op_count,
    parse_term,
    skeleton,
    substitute_leaves,
    var_seq,
)
from .termorder import VarPoset, extend_monotone_map

XP_CHAIN2 = VarPoset(("x1", "x2"), frozenset({("x1", "x2")}))


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name} ({self.seconds:.1f}s) {self.details}"


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        name, passed, details = fn(*args, **kwargs)
        return CheckResult(name, passed, details, time.perf_counter() - t0)
    return wrapper


@_timed
def criterion_1():
    """Worked single-term example: leaves, variables, skeletons."""
    varnames = ["x1", "x2", "x4"]
    t = parse_term(SIG1, varnames, "f g x2 x1 c f x1 x4")
    ok = leaves(t) == ("x2", "x1", "c", "x1", "x4")
    ok = ok and var_seq(t, SIG1) == ("x2", "x1", "x1", "x4")
    s = parse_term(SIG1, varnames, "f g x2 x1 x1 f x4 c")
    r = parse_term(SIG1, varnames, "g c f x2 x1 f x1 x4")
    ok = ok and skeleton(t) == skeleton(s) and skeleton(t) != skeleton(r)
    return "1 term example fidelity", ok, "5-leaf tree, skeleton matches/differs as required"


def _tuple_up_closure(ups: list[dict[str, tuple[str, ...]]],
                      tup: tuple[str, ...],
                      memo: dict) -> frozenset:
    """Oracle up-set of a leaf tuple via chained single-position raises."""
    if tup in memo:
        return memo[tup]
    out = {tup}
    for i, a in enumerate(tup):
        for b in ups[i][a]:
            if b != a:
                out |= _tuple_up_closure(ups, tup[:i] + (b,) + tup[i + 1:], memo)
    result = frozenset(out)
    memo[tup] = result
    return result


@_timed
def criterion_2(depth: int = 3):
    """Antisymmetry of the generated term order and agreement with the
    skeleton-plus-leafwise characterization, up to `depth` operations.

    Term-level exhaustive to depth 2.  Depth-3 skeletons are covered at
    the leaf-tuple level (the relation factors through leaf tuples since
    raises preserve skeletons, which single_raises asserts), corroborated
    by term-level sampling on one skeleton per leaf count.
    """
    report = verify_partial_order(SIG1, XP_CHAIN2, 2)
    if report:
        return "2 term order antisymmetry", False, f"depth-2 report: {report[:2]}"
    labels = list(XP_CHAIN2.names) + SIG1.constants()
    up_of = {}
    for a in labels:
        if SIG1.has(a):
            up_of[a] = tuple(b for b in SIG1.constants() if SIG1.const_leq(a, b))
        else:
            up_of[a] = tuple(b for b in XP_CHAIN2.names if XP_CHAIN2.leq(a, b))
    shapes = [t for t in enumerate_terms(SIG1, ["_"], depth) if op_count(t) == depth]
    counts = sorted({leaf_count(t) for t in shapes})
    checked = 0
    for n in counts:
        ups = [up_of] * n
        memo: dict = {}
        for tup in itertools.product(labels, repeat=n):
            gen = _tuple_up_closure(ups, tup, memo)
            char = frozenset(itertools.product(*[up_of[a] for a in tup]))
            if gen != char:
                return "2 term order antisymmetry", False, f"tuple mismatch at {tup}"
            for other in gen:
                if other != tup and tup in _tuple_up_closure(ups, other, memo):
                    return "2 term order antisymmetry", False, f"antisymmetry at {tup}"
            checked += 1
    rng = random.Random(7)
    for n in counts:
        shape = next(t for t in shapes if leaf_count(t) == n)
        for _ in range(20):
            assignment = [rng.choice(labels) for _ in range(n)]
            t = substitute_leaves(shape, assignment)
            if generated_up_set(SIG1, XP_CHAIN2, t) != characterized_up_set(SIG1, XP_CHAIN2, t):
                return "2 term order antisymmetry", False, f"term-level mismatch at {t}"
    return ("2 term order antisymmetry", True,
            f"depth-2 exhaustive; depth-3 via {checked} leaf tuples over {len(shapes)} skeletons")


@_timed
def criterion_3(seed: int = 1, instances: int = 200, literal_sample: int = 5):
    """Fixpoint closure equals the breadth-first scheme oracle exactly."""
    rng = random.Random(seed)
    literal_checked = 0
    for i in range(instances):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5), name=f"A{i}")
        hyp = random_relation(rng, alg.carrier, 3)
        clo = gen_compatible_quasiorder(alg, hyp)
        rel3 = one_slot_step_relation(alg, hyp, 3)
        oracle = bfs_over_step_relation(alg, rel3, 6)
        if oracle != clo.relation:
            return "3 closure oracle equivalence", False, f"instance {i}: fixpoint != oracle"
        if i < literal_sample:
            lit = step_relation(alg, alg.carrier, hyp, 3)
            if lit != rel3:
                return "3 closure oracle equivalence", False, f"instance {i}: literal step relation differs"
            literal_checked += 1
        sym = gen_order_congruence(alg, hyp)
        sym_oracle = bfs_over_step_relation(
            alg, one_slot_step_relation(alg, hyp | relations.inverse(hyp), 3), 6)
        if sym.leq != sym_oracle:
            return "3 closure oracle equivalence", False, f"instance {i}: congruence leq differs"
        if not is_order_congruence(alg, sym.theta):
            return "3 closure oracle equivalence", False, f"instance {i}: closed chain condition"
        for (a, b) in hyp:
            if (a, b) not in sym.leq:
                return "3 closure oracle equivalence", False, f"instance {i}: generator lost"
        for (a, b) in sorted(clo.relation)[:4]:
            w = clo.witness(a, b)
            check_generated_scheme(alg, hyp, w, allow_inverse=False)
    return ("3 closure oracle equivalence", True,
            f"{instances} instances, {literal_checked} with literal template enumeration")


def _all_posets_on(m: int) -> list[frozenset]:
    elems = list(range(m))
    offdiag = [(a, b) for a in elems for b in elems if a != b]
    out = []
    for bits in range(1 << len(offdiag)):
        pairs = {offdiag[i] for i in range(len(offdiag)) if bits >> i & 1}
        rel = frozenset(pairs | {(a, a) for a in elems})
        if relations.is_transitive(rel) and relations.is_antisymmetric(rel):
            out.append(rel)
    return out


_POSET_CACHE: dict[int, list[frozenset]] = {}


@_timed
def criterion_4(seed: int = 2, instances: int = 12):
    """Quotient laws: the projected order is the least compatible order
    making the natural map monotone, and factorization is unique.

    Every poset on the class set that makes the natural map monotone must
    contain the projected order (the paper calls the projected order the
    coarsest such; as a set of pairs it is the least one).
    """
    rng = random.Random(seed)
    algebras = [chain(3, SIG1)] + [random_algebra(rng, SIG1, rng.randrange(2, 5), name=f"Q{i}")
                                   for i in range(instances)]
    quotients = 0
    for alg in algebras:
        for classes in all_congruences(alg):
            theta = relations.from_rows(relations.class_rows(classes), alg.carrier)
            if not is_order_congruence(alg, theta):
                continue
            q, nat = regular_quotient(alg, theta)
            m = len(q.carrier)
            if m > 4:
                continue
            quotients += 1
            if m not in _POSET_CACHE:
                _POSET_CACHE[m] = _all_posets_on(m)
            idx = {e: i for i, e in enumerate(q.carrier)}
            for cand in _POSET_CACHE[m]:
                cand_named = {(q.carrier[a], q.carrier[b]) for (a, b) in cand}
                if not all((nat.map[a], nat.map[b]) in cand_named for (a, b) in alg.order):
                    continue
                if not set(q.order) <= cand_named:
                    return ("4 quotient laws", False,
                            f"{alg.name}: monotone poset missing projected pair")
            f = Homomorphism(alg, q, dict(nat.map))
            g = factor_through(f, theta)
            for e in alg.carrier:
                if g.map[nat.map[e]] != f.map[e]:
                    return "4 quotient laws", False, f"{alg.name}: factorization broken"
            # Uniqueness: any map through the quotient agreeing with f on
            # every representative equals g.
            for cls in q.carrier:
                reps = [e for e in alg.carrier if nat.map[e] == cls]
                vals = {f.map[e] for e in reps}
                if vals != {g.map[cls]}:
                    return "4 quotient laws", False, f"{alg.name}: representatives disagree"
    return "4 quotient laws", True, f"{quotients} quotients, posets exhausted per class set"


@_timed
def criterion_5(seed: int = 3, maps: int = 100):
    """Universal extension: homomorphism, order preservation, agreement.

    The homomorphism half compares beta with an oracle that shares no code
    with the evaluator: the pool lists children before parents, so each
    term's value is one raw table lookup on its children's values.
    """
    rng = random.Random(seed)
    done = 0
    while done < maps:
        xp = random_var_poset(rng, rng.randrange(1, 4))
        target = random_algebra(rng, SIG1, rng.randrange(1, 5), name="D")
        alpha = random_monotone_map(rng, xp, target)
        if alpha is None:
            continue
        done += 1
        beta = extend_monotone_map(xp, target, alpha)
        labels = list(xp.names) + SIG1.constants()
        pool = enumerate_terms(SIG1, labels, 2)
        oracle: dict[Term, str] = {}
        for t in pool:
            if t.children:
                oracle[t] = target.op_tables[t.label][tuple(oracle[c] for c in t.children)]
            else:
                oracle[t] = target.const_vals[t.label] if SIG1.has(t.label) else alpha[t.label]
            if beta(t) != oracle[t]:
                problem = ("does not extend the assignment" if t.label in alpha
                           else "not a homomorphism")
                return "5 universal extension", False, problem
        sample = rng.sample(pool, min(400, len(pool)))
        for t in sample:
            for u in single_raises(SIG1, xp, t):
                if not target.leq(beta(t), beta(u)):
                    return "5 universal extension", False, f"order broken at {t}"
    return "5 universal extension", True, f"{maps} assignments, pool of depth-2 terms each"


def _amalgam_corpus(seed: int, count: int):
    rng = random.Random(seed)
    return rng, [random_special_amalgam(rng, SIG1, 4) for _ in range(count)]


@_timed
def criterion_6(seed: int = 4, count: int = 50, cocones: int = 20):
    """Pushout soundness: certificates validate, the two routes from the
    shared subalgebra agree, and mediators collapse proven pairs."""
    rng, corpus = _amalgam_corpus(seed, count)
    core_pairs = 0
    for sp in corpus:
        proven = []
        for z in sp.c.carrier:
            res = pushout_equal(sp, leaf(sp.phi1[z]), leaf(sp.phi2[z]))
            if not res.proven:
                return "6 pushout soundness", False, f"shared element {z} not glued"
            bad = validate_scheme(sp, res.forward) + validate_scheme(sp, res.backward)
            if bad:
                return "6 pushout soundness", False, f"certificate failed recheck: {bad[:1]}"
            proven.append(res)
            core_pairs += 1
        if not proven:
            continue
        sp_cocones = commuting_cocones(rng, sp, 3)
        for target, g1, g2 in sp_cocones:
            med = mediate(sp, target, g1, g2)
            for res in proven:
                med.check_pair(res)
            for x in sp.a1.carrier:
                if med(leaf(x)) != g1[x]:
                    return "6 pushout soundness", False, "mediator misses the left leg"
            for y in sp.a2.carrier:
                if med(leaf(y)) != g2[y]:
                    return "6 pushout soundness", False, "mediator misses the right leg"
    total_cocones = 0
    rng2 = random.Random(seed + 1)
    sp = corpus[0]
    for target, g1, g2 in commuting_cocones(rng2, sp, cocones):
        med = mediate(sp, target, g1, g2)
        for z in sp.c.carrier:
            if med(leaf(sp.phi1[z])) != med(leaf(sp.phi2[z])):
                return "6 pushout soundness", False, "mediator splits a glued pair"
        total_cocones += 1
    return ("6 pushout soundness", True,
            f"{count} amalgams, {core_pairs} glued pairs, {total_cocones} extra cocones")


@_timed
def criterion_7(seed: int = 4, count: int = 50):
    """Copies meet exactly in the shared subalgebra; the glued completion
    separates every element outside it."""
    _, corpus = _amalgam_corpus(seed, count)
    budget = Budget(max_scheme_len=8)
    outside = 0
    separated = 0
    inconclusive = []
    for idx, sp in enumerate(corpus):
        try:
            statuses = dominion_special(sp, budget)
        except TheoremContradiction as exc:
            return "7 special amalgamation", False, f"instance {idx}: {exc}"
        for x, info in statuses.items():
            if x in sp.c.index:
                if info["status"] != "InC":
                    return "7 special amalgamation", False, f"instance {idx}: {x} misreported"
                continue
            if info["status"] != "NoWitnessFound":
                return "7 special amalgamation", False, f"instance {idx}: {x} misreported"
            outside += 1
            try:
                sep = exhaustive_separator(sp.base, sp.c.carrier, x)
            except SizeLimit:
                inconclusive.append((idx, x))
                continue
            separated += 1
            if sep.f.map[x] == sep.g.map[x]:
                return "7 special amalgamation", False, "separator does not separate"
            for z in sp.c.carrier:
                if sep.f.map[z] != sep.g.map[z]:
                    return "7 special amalgamation", False, "separator moves the core"
    return ("7 special amalgamation", not inconclusive,
            f"{outside} outside elements, all NoWitnessFound, "
            f"{separated} separated, {len(inconclusive)} inconclusive")


@_timed
def criterion_8(seed: int = 4, count: int = 50, padded: int = 50):
    """Every certificate for a shared pair normalizes to single-node form
    and the shared element is recovered, including padded detours."""
    rng, corpus = _amalgam_corpus(seed, count)
    normalized = 0
    padded_done = 0
    recipes = itertools.cycle(["proper", "nested", "disjoint", "cross"])
    for sp in corpus:
        for z in sp.c.carrier:
            res = pushout_equal(sp, leaf(sp.phi1[z]), leaf(sp.phi2[z]))
            if not res.proven:
                return "8 normalizer", False, f"shared element {z} not glued"
            fwd = normalize(sp, res.forward)
            rev = normalize(sp, res.backward)
            if not (fwd.is_case1 and rev.is_case1):
                return "8 normalizer", False, f"stuck on a searched certificate: {fwd.reason or rev.reason}"
            if extract_center(sp, fwd.scheme, rev.scheme) != z:
                return "8 normalizer", False, f"wrong centre for {z}"
            normalized += 1
            if padded_done < padded:
                recipe = next(recipes)
                sch = padded_glue_scheme(rng, sp, z, recipe)
                if sch is None:
                    continue
                n = normalize(sp, sch)
                if not n.is_case1:
                    return "8 normalizer", False, f"stuck on padded {recipe}: {n.reason}"
                if extract_center(sp, n.scheme, rev.scheme) != z:
                    return "8 normalizer", False, f"padded {recipe}: wrong centre"
                padded_done += 1
    if padded_done < padded:
        extra_rng = random.Random(seed + 99)
        attempts = 0
        while padded_done < padded and attempts < padded * 40:
            attempts += 1
            sp = make_special(chain(3, SIG1), [])
            z = extra_rng.choice(sp.c.carrier)
            recipe = next(recipes)
            sch = padded_glue_scheme(extra_rng, sp, z, recipe)
            if sch is None:
                continue
            n = normalize(sp, sch)
            rev = normalize(sp, pushout_equal(sp, leaf(sp.phi1[z]), leaf(sp.phi2[z])).backward)
            if not n.is_case1 or extract_center(sp, n.scheme, rev.scheme) != z:
                return "8 normalizer", False, f"padded fallback {recipe} failed"
            padded_done += 1
    return ("8 normalizer", padded_done >= padded,
            f"{normalized} searched pairs, {padded_done} padded schemes normalized")


@_timed
def criterion_9():
    """Trivially ordered algebras: the subalgebra inclusion is not epi.

    Uses the inequality-free signature so that trivially ordered algebras
    form the plain unordered variety.
    """
    plain = Signature({"f": 2, "g": 3, "c": 0, "d": 0})
    base = with_trivial_order(chain(3, plain))
    if validate_algebra(base):
        return "9 unordered corollary", False, "base not in the unordered variety"
    sub = subalgebra(base, ["e0", "e2"])
    incl = Homomorphism(sub, base, {"e0": "e0", "e2": "e2"})
    rep = epi_check(incl, 3)
    ok = rep.verdict == "NotEpi" and rep.separator is not None
    if ok:
        sep = rep.separator
        ok = sep.f.map[sep.element] != sep.g.map[sep.element]
        ok = ok and all(sep.f.map[z] == sep.g.map[z] for z in ["e0", "e2"])
    return "9 unordered corollary", ok, f"verdict {rep.verdict} with explicit separator"


def run_all(seed: int = 4) -> list[CheckResult]:
    return [
        criterion_1(),
        criterion_2(),
        criterion_3(seed=seed + 100),
        criterion_4(seed=seed + 200),
        criterion_5(seed=seed + 300),
        criterion_6(seed=seed),
        criterion_7(seed=seed),
        criterion_8(seed=seed),
        criterion_9(),
    ]
