from hypothesis import given, strategies as st

from oalg import relations

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
