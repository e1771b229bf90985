import pytest
from hypothesis import given, strategies as st

from oalg import relations
from oalg.algebra import OrderedAlgebra
from oalg.errors import ValidationError
from oalg.signature import Signature, parse_signature
from oalg.termorder import VarPoset

elements = st.integers(min_value=0, max_value=5)


def warshall(pairs, carrier):
    reach = {(a, b): (a, b) in pairs for a in carrier for b in carrier}
    for k in carrier:
        for a in carrier:
            for b in carrier:
                reach[a, b] = reach[a, b] or (reach[a, k] and reach[k, b])
    return frozenset(p for p, r in reach.items() if r)


@given(st.frozensets(st.tuples(elements, elements), max_size=20))
def test_transitive_closure_matches_warshall(pairs):
    assert relations.transitive_closure(pairs) == warshall(pairs, range(6))


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

