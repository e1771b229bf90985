import itertools

import pytest

from oalg.errors import IndexOutOfRange, ParseError
from oalg.signature import SIG1
from oalg.terms import (
    MAX_TERM_DEPTH,
    Term,
    enumerate_terms,
    is_regular,
    leaf,
    leaf_count,
    leaf_subst,
    leaves,
    node,
    op_count,
    parse_term,
    print_term,
    regularize,
    skeleton,
    substitute_leaves,
    var_seq,
)

VARS = ["x1", "x2", "x3", "x4"]


def p(word):
    return parse_term(SIG1, VARS, word)


def test_worked_example_leaves():
    t = p("f g x2 x1 c f x1 x4")
    assert leaves(t) == ("x2", "x1", "c", "x1", "x4")


def test_single_leaves():
    assert list(leaves(p("c"))) == ["c"]
    assert list(leaves(p("f c c"))) == ["c", "c"]


def test_var_seq():
    assert var_seq(p("f g x2 x1 c f x1 x4"), SIG1) == ("x2", "x1", "x1", "x4")
    assert var_seq(p("g c f x2 x1 f x1 x4"), SIG1) == ("x2", "x1", "x1", "x4")
    assert var_seq(p("f c d"), SIG1) == ()


def test_skeletons():
    t = p("f g x2 x1 c f x1 x4")
    s = p("f g x2 x1 x1 f x4 c")
    r = p("g c f x2 x1 f x1 x4")
    assert skeleton(t) == skeleton(s)
    assert skeleton(t) != skeleton(r)
    assert skeleton(leaf("x1")) == skeleton(leaf("c"))


def test_parse_functional_notation():
    assert p("f(x1,x2)") == p("f x1 x2")
    assert p("g(c,f(x1,x2),d)") == p("g c f x1 x2 d")
    assert print_term(p("f x1 x2"), "functional") == "f(x1,x2)"
    assert print_term(leaf("c"), "functional") == "c"


def test_parse_errors():
    with pytest.raises(ParseError):
        p("f x1")
    with pytest.raises(ParseError):
        p("f x1 x2 x3")
    with pytest.raises(ParseError):
        p("h x1")
    with pytest.raises(ParseError):
        p("")


@pytest.mark.parametrize("nested", [
    lambda k: "f " * k + "x1 " * (k + 1),                          # left spine, prefix
    lambda k: "f x1 " * k + "x1",                                  # right spine, prefix
    lambda k: "f(" * k + "x1" + ",x1)" * k,                        # functional
])
def test_parse_depth_bound(nested):
    t = p(nested(MAX_TERM_DEPTH))
    assert op_count(t) == MAX_TERM_DEPTH
    with pytest.raises(ParseError, match="nested deeper"):
        p(nested(MAX_TERM_DEPTH + 1))


def test_print_parse_roundtrip_exhaustive():
    for t in enumerate_terms(SIG1, ["x1", "c"], 2):
        assert p(print_term(t)) == t
        assert p(print_term(t, "functional")) == t


def test_regularize_worked_example():
    t = p("f g x2 x1 c f x1 x4")
    template, fills = regularize(t)
    assert print_term(template) == "f g z1 z2 z3 f z4 z5"
    assert tuple(fills) == ("x2", "x1", "c", "x1", "x4")
    assert substitute_leaves(template, list(fills)) == t
    assert op_count(template) == op_count(t)


def test_regularize_degenerate_and_repeats():
    template, fills = regularize(leaf("c"))
    assert print_term(template) == "z1" and tuple(fills) == ("c",)
    template, fills = regularize(p("f x1 x1"))
    assert print_term(template) == "f z1 z2" and tuple(fills) == ("x1", "x1")


def test_regularize_substitute_is_identity_to_depth():
    for t in enumerate_terms(SIG1, ["x1", "x2", "c"], 2):
        template, fills = regularize(t)
        assert substitute_leaves(template, list(fills)) == t


def test_skeleton_iff_same_template():
    pool = enumerate_terms(SIG1, ["x1", "c"], 2)
    for t, s in itertools.islice(itertools.combinations(pool, 2), 20000):
        same_skel = skeleton(t) == skeleton(s)
        same_template = regularize(t)[0] == regularize(s)[0]
        assert same_skel == same_template


def test_unique_readability():
    zvars = [f"z{i}" for i in range(1, 10)]
    words = {}
    fills_pool = ["x1", "x2", "c", "d"]
    shapes = [t for t in enumerate_terms(SIG1, ["_"], 2)]
    for shape in shapes:
        n = leaf_count(shape)
        template = substitute_leaves(shape, zvars[:n])
        ok, arity = is_regular(template, SIG1)
        assert ok and arity == n
        for fills in itertools.product(fills_pool, repeat=n):
            word = print_term(substitute_leaves(template, list(fills)))
            assert word not in words or words[word] == (template, fills)
            words[word] = (template, fills)


def test_is_regular():
    assert is_regular(p("f x1 x2"), SIG1) == (False, None)  # uses user vars
    zt = parse_term(SIG1, ["z1", "z2"], "f z1 z2")
    assert is_regular(zt, SIG1) == (True, 2)
    assert is_regular(parse_term(SIG1, ["z1", "z2"], "f z2 z1"), SIG1) == (False, None)
    assert is_regular(parse_term(SIG1, ["z1"], "f z1 c"), SIG1) == (False, None)
    assert is_regular(parse_term(SIG1, ["z1"], "z1"), SIG1) == (True, 1)


def test_leaf_subst():
    t = p("f g x2 x1 c f x1 x4")
    assert leaf_subst(t, 3, "d") == p("f g x2 x1 d f x1 x4")
    assert leaf_subst(p("f c d"), 1, "c") == p("f c d")
    with pytest.raises(IndexOutOfRange):
        leaf_subst(p("f c d"), 7, "c")
    grown = leaf_subst(p("f c d"), 1, p("f x1 x2"))
    assert grown == p("f f x1 x2 d")


def test_leaf_count_additivity():
    for t in enumerate_terms(SIG1, ["x1", "c"], 2):
        if not t.is_leaf:
            assert leaf_count(t) == sum(leaf_count(c) for c in t.children)


def test_hash_is_the_hash_of_label_and_children():
    for t in enumerate_terms(SIG1, ["x1", "c"], 2):
        assert hash(t) == hash((t.label, t.children))
    built = Term("f", (leaf("x1"), Term("g", (leaf("x2"), leaf("c"), leaf("x1")))))
    assert built == p("f x1 g x2 c x1") and built is not p("f x1 g x2 c x1")


def test_unpickled_term_rehashes_under_this_interpreter():
    # String hashes differ between interpreter runs, so a term pickled by
    # another run must not bring its cached hash along.
    import os
    import pickle
    import subprocess
    import sys

    code = ("import pickle, sys; from oalg.terms import leaf, node; "
            "sys.stdout.buffer.write(pickle.dumps(node('f', leaf('x1'), leaf('c'))))")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    data = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True).stdout
    t = pickle.loads(data)
    assert t == p("f x1 c") and hash(t) == hash(p("f x1 c"))
    assert {p("f x1 c"): 1}[t] == 1
