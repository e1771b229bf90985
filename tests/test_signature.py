import pytest
from hypothesis import given, strategies as st

from oalg.errors import ParseError, ValidationError
from oalg.signature import SIG1, Signature, parse_signature, print_signature
from oalg import relations


def test_parse_example():
    sig = parse_signature("op f 2; op g 3; const c; const d; order c <= d")
    assert sig.ops == {"f": 2, "g": 3, "c": 0, "d": 0}
    assert sig.const_leq("c", "d")
    assert not sig.const_leq("d", "c")
    assert sig.operations() == [("f", 2), ("g", 3)]
    mixed = parse_signature("op g 3; const d; op h 1; const c; op f 2")
    assert mixed.operations() == [("g", 3), ("h", 1), ("f", 2)]
    assert mixed.constants() == ["d", "c"]


def test_single_constant_reflexive():
    sig = parse_signature("const c")
    assert sig.const_order == frozenset({("c", "c")})


def test_antisymmetry_violation():
    with pytest.raises(ValidationError):
        parse_signature("const c; const d; order c <= d; order d <= c")


def test_order_on_non_constant():
    with pytest.raises(ValidationError):
        parse_signature("op f 2; const c; order f <= c")


def test_duplicate_symbol():
    with pytest.raises(ValidationError):
        parse_signature("const c; op c 1")


def test_malformed_lines():
    with pytest.raises(ParseError):
        parse_signature("op f")
    with pytest.raises(ParseError):
        parse_signature("order c < d")
    with pytest.raises(ParseError):
        parse_signature("frob x")


def test_comments_and_blank_lines():
    sig = parse_signature("# header\nop f 2\n\nconst c  # trailing\n")
    assert sig.ops == {"f": 2, "c": 0}


def test_formal_variable_names_rejected():
    with pytest.raises(ValidationError):
        Signature({"z1": 0})


names = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@given(st.dictionaries(names, st.integers(min_value=0, max_value=4),
                       min_size=1, max_size=6))
def test_roundtrip(ops):
    sig = Signature(ops)
    again = parse_signature(print_signature(sig))
    assert again.ops == sig.ops and again.const_order == sig.const_order


def test_roundtrip_with_order():
    again = parse_signature(print_signature(SIG1))
    assert again.ops == SIG1.ops and again.const_order == SIG1.const_order


def test_const_order_is_partial_order():
    consts = SIG1.constants()
    assert relations.partial_order(SIG1.const_order, consts) == SIG1.const_order
