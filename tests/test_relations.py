import pytest
from hypothesis import given, strategies as st

from oalg import relations
from oalg.algebra import OrderedAlgebra
from oalg.errors import ValidationError
from oalg.signature import Signature, parse_signature
from oalg.termorder import VarPoset

# Integers and strings, mixed in one relation.
elements = st.one_of(st.integers(min_value=0, max_value=5), st.sampled_from(["a", "b", "e0<1>"]))


def reachable(pairs, elements=()):
    """(a, b) for each b reached from a in one or more steps, by depth-first
    search from each element, and (x, x) for each of `elements`."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
    out = {(x, x) for x in elements}
    for a, nexts in succ.items():
        seen, stack = set(), list(nexts)
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ.get(b, ()))
        out.update((a, b) for b in seen)
    return frozenset(out)


@given(st.frozensets(st.tuples(elements, elements), max_size=20))
def test_transitive_closure_matches_reachability(pairs):
    assert relations.transitive_closure(pairs) == reachable(pairs)


@given(st.frozensets(st.tuples(elements, elements), max_size=12),
       st.frozensets(st.sampled_from([6, 7, "z"])))
def test_reflexive_transitive_closure_matches_reachability(pairs, isolated):
    # The isolated elements are drawn from outside the pool of the pairs.
    carrier = [x for pair in pairs for x in pair] + list(isolated)
    assert relations.reflexive_transitive_closure(pairs, carrier) == reachable(pairs, carrier)


def test_class_rows_relate_the_members_of_each_class():
    expected = relations.partition_to_pairs([["a", "b", "d"], ["c"]])
    assert relations.from_rows(relations.class_rows((0, 0, 2, 0)), "abcd") == expected
    assert relations.class_rows(()) == []


def _algebra(elements, pairs):
    return OrderedAlgebra(Signature({}), list(elements), pairs, {}, {})


def _var_poset(elements, pairs):
    return VarPoset(tuple(elements), frozenset(pairs))


def _signature(elements, pairs):
    return parse_signature("".join(f"const {e}\n" for e in elements)
                           + "".join(f"order {a} <= {b}\n" for a, b in pairs))


FAULTS = {
    "repeated": (["a", "b", "a"], set()),
    "cycle": (["a", "b", "c"], {("a", "b"), ("b", "c"), ("c", "a")}),
    "outside": (["a", "b"], {("a", "z")}),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("build", [_algebra, _var_poset, _signature])
def test_partial_order_constructors_reject(build, fault):
    elements, pairs = FAULTS[fault]
    with pytest.raises(ValidationError):
        build(elements, pairs)

