"""The input contract of the six text formats.

Any text built from a format's tokens either parses or raises an
`OalgError` subclass (or, when it names a file that cannot be read, an
`OSError`), and through the command line it ends with an exit code,
never a traceback.  The printers round-trip exactly.
"""

import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oalg.algebra import chain, parse_algebra, parse_homomorphism, print_algebra, subalgebra
from oalg.amalgam import make_special, parse_amalgam, pushout_equal
from oalg.cli import main
from oalg.errors import OalgError
from oalg.generators import padded_glue_scheme, random_algebra
from oalg.schemes import scheme_from_lines, scheme_to_lines
from oalg.signature import SIG1, Signature, parse_signature, print_signature
from oalg.terms import leaf

SIG_TEXT = "op f 2\nop g 3\nconst c\nconst d\norder c <= d\n"
CH3 = chain(3, SIG1)
# A signature without g, so that drawn texts can mix two signatures.
T_SIG = Signature({"f": 2, "c": 0, "d": 0}, frozenset({("c", "d")}))
CH3T = chain(3, T_SIG)
SP = make_special(CH3, ["e0", "e2"])

# Per format: loose tokens, and whole lines that are valid or nearly so,
# so that the drawn texts also reach the checks behind the line syntax.
FORMATS = {
    "sig": (["op", "const", "order", "<=", ";", "#", "f", "g", "c", "d", "z1", "x<1>",
             "0", "1", "2", "17", "-1"],
            ["op f 2", "op g 3", "const c", "const d", "order c <= d", "order d <= c",
             "order f <= c", "order c <= e", "const f"]),
    "oalg": (["algebra", "A", "over", "s.sig", "ch3.oalg", "missing.sig", "elements", "order",
              "<=", "op", "f:", "g:", "(e0,e1)", "(e0,e0,e0)", "(e0)", "()", "->", "const",
              "c", "d", "=", "e0", "e1", "e3", "#", ":", ","],
             ["algebra A over s.sig", "elements e0", "elements e1", "elements e0 e1",
              "order e0 <= e1", "order e1 <= e0", "op f: (e0,e0) -> e0",
              "op f: (e0,e1) -> e1", "op g: (e0,e0,e0) -> e0", "op c: () -> e0",
              "const c = e0", "const d = e1", "const f = e0"]),
    "hom": (["hom", "from", "to", "c2.oalg", "ch3.oalg", "c2t.oalg", "ch3t.oalg", "s.sig",
             "missing.oalg", "map", "->", "e0", "e1", "e2", "e3", "#"],
            ["hom from c2.oalg to ch3.oalg", "hom from ch3.oalg to c2.oalg",
             "hom from ch3.oalg to ch3.oalg", "hom from c2.oalg to ch3t.oalg",
             "hom from c2t.oalg to ch3.oalg", "hom from ch3t.oalg to ch3t.oalg", "map e0 -> e0", "map e1 -> e1",
             "map e2 -> e2", "map e2 -> e0", "map e1 -> e3"]),
    "amalgam": (["special", "over", "seed", "left", "right", "center", "embed", "phi1:",
                 "phi2:", "->", "ch3.oalg", "c2.oalg", "ch3t.oalg", "c2t.oalg", "s.sig", "t.sig",
                 "e0", "e1", "e2", "e3"],
                ["special over ch3.oalg seed e0 e2", "special over ch3.oalg",
                 "special over c2.oalg seed e1", "special over ch3t.oalg seed e0",
                 "left ch3.oalg", "right ch3.oalg", "center c2.oalg", "left ch3t.oalg",
                 "right ch3t.oalg", "center c2t.oalg", "embed phi1: e0 -> e0", "embed phi1: e2 -> e2",
                 "embed phi2: e0 -> e0", "embed phi2: e2 -> e1"]),
    "scheme": (["INEQ", "REL", "<=", "->", "GLUE", "GLUEINV", "EV1", "EV1INV", "EV2INV",
                "MULTI:GLUE,ID", "ID", "z1", "z2", "f", "g", "c", "d", "0", "1", "2", "3",
                "e0<1>", "e1<1>", "e2<1>", "e0<2>", "e2<2>", "x", "(", ")", ","],
               ["REL GLUE z1 1 e0<1> -> e0<2>", "REL GLUEINV z1 1 e0<2> -> e0<1>",
                "INEQ e0<1> <= e1<1>", "INEQ e0<2> <= e0<2>",
                "REL EV1INV z1 1 e0<1> -> f e0<1> e0<1>",
                "REL EV1 z1 1 f e0<1> e0<1> -> e0<1>",
                "REL EV1 f z1 z2 1 e0<1> e1<1> -> e1<1>",
                "REL MULTI:GLUE,ID f e0<1> c -> f e0<2> c"]),
    "pairs": (["pair", "e0", "e1", "e2", "e3", "x", "#"],
              ["pair e2 e0", "pair e0 e1", "pair e1 e1", "pair e3 e0"]),
}


def _one(lines):
    return st.sampled_from(lines).map(lambda line: [line])


def _subset(lines):
    return st.lists(st.sampled_from(lines), unique=True)


def _file(*parts):
    return st.tuples(*parts).map(lambda drawn: "\n".join(sum(drawn, [])))


def _hom_file(header: str):
    """The header and, for each element of its domain, no map line, the
    line to itself or the line to e0."""
    domain = ["e0", "e2"] if header.split()[2].startswith("c2") else CH3.carrier
    return _file(st.just([header]), *[
        st.sampled_from([[], [f"map {e} -> {e}"], [f"map {e} -> e0"]]) for e in domain])


# Whole files, which loose lines rarely form: a header and its map lines,
# and left, right and center over either signature with embed lines.
WHOLE_FILES = {
    "hom": st.sampled_from([l for l in FORMATS["hom"][1] if l.startswith("hom ")]
                           ).flatmap(_hom_file),
    "amalgam": _file(*[_one([f"{kind} {name}.oalg", f"{kind} {name}t.oalg"])
                       for kind, name in (("left", "ch3"), ("right", "ch3"), ("center", "c2"))],
                     _subset([l for l in FORMATS["amalgam"][1] if l.startswith("embed ")])),
}


def texts(fmt: str):
    tokens, lines = FORMATS[fmt]
    line = st.one_of(st.sampled_from(lines),
                     st.lists(st.sampled_from(tokens), max_size=6).map(" ".join))
    drawn = st.lists(line, max_size=8).map("\n".join)
    return st.one_of(drawn, WHOLE_FILES[fmt]) if fmt in WHOLE_FILES else drawn


@pytest.fixture(scope="module")
def files():
    """The files that drawn texts may name, in one directory."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "s.sig").write_text(SIG_TEXT)
        (d / "t.sig").write_text(print_signature(T_SIG))
        for suffix, alg, sig_file in (("", CH3, "s.sig"), ("t", CH3T, "t.sig")):
            (d / f"ch3{suffix}.oalg").write_text(print_algebra(alg, sig_file))
            (d / f"c2{suffix}.oalg").write_text(
                print_algebra(subalgebra(alg, ["e0", "e2"], name="C2"), sig_file))
        (d / "sp.amalgam").write_text("special over ch3.oalg seed e0 e2\n")
        (d / "rel.pairs").write_text("pair e2 e0\n")
        yield d


PARSERS = {
    "sig": lambda text, d: parse_signature(text),
    "oalg": lambda text, d: parse_algebra(text, d),
    "hom": lambda text, d: parse_homomorphism(text, d),
    "amalgam": lambda text, d: parse_amalgam(text, d),
    "scheme": lambda text, d: scheme_from_lines(SP.sig, SP.variables(), text.splitlines()),
}

# The command that reads each format, with the drawn text in `x.<fmt>`.
COMMANDS = {
    "sig": ["validate", "{x}"],
    "oalg": ["validate", "{x}"],
    "hom": ["epi", "--hom", "{x}", "--max-codomain", "1"],
    "amalgam": ["validate", "{x}"],
    "scheme": ["normalize", "{x}", "--amalgam", "{d}/sp.amalgam"],
    "pairs": ["closure", "{d}/ch3.oalg", "{x}"],
}

@pytest.mark.parametrize("fmt", sorted(PARSERS))
def test_text_parses_or_raises_an_oalg_error(files, fmt):
    @settings(deadline=None)
    @given(texts(fmt))
    def check(text):
        try:
            PARSERS[fmt](text, files)
        except OalgError:
            pass
        except OSError:
            pass        # a file the text names cannot be read: exit 2 from the CLI

    check()


@pytest.mark.parametrize("fmt", sorted(COMMANDS))
def test_command_line_exits_without_a_traceback(files, fmt):
    @settings(deadline=None)
    @given(texts(fmt))
    def check(text):
        x = files / f"x.{fmt}"
        x.write_text(text)
        argv = [a.format(x=x, d=files) for a in COMMANDS[fmt]]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(["--format", "structured"] + argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3)

    check()


@given(st.integers(0, 10**6))
def test_print_signature_round_trips(seed):
    rng = random.Random(seed)
    names = rng.sample(["a", "b", "c", "d", "e", "f"], rng.randrange(1, 7))
    ops = {n: rng.choice([0, 0, 1, 2, 3]) for n in names}
    consts = [n for n in names if ops[n] == 0]
    order = {(a, b) for i, a in enumerate(consts) for b in consts[i + 1:] if rng.random() < 0.4}
    sig = Signature(ops, frozenset(order))
    text = print_signature(sig)
    again = parse_signature(text)
    assert (again.ops, again.const_order) == (sig.ops, sig.const_order)
    assert print_signature(again) == text


@settings(deadline=None)
@given(st.integers(0, 10**6))
def test_print_algebra_round_trips(files, seed):
    alg = random_algebra(random.Random(seed), SIG1, 1 + seed % 4, name="R")
    text = print_algebra(alg, "s.sig")
    again = parse_algebra(text, files)
    assert (again.name, again.carrier, again.order, again.op_tables, again.const_vals) == \
        (alg.name, alg.carrier, alg.order, alg.op_tables, alg.const_vals)
    assert print_algebra(again, "s.sig") == text


def test_the_empty_algebra_round_trips(tmp_path):
    # Its table for f has no entries, so it prints no `op` line.
    sig = Signature({"f": 2})
    (tmp_path / "p.sig").write_text(print_signature(sig))
    empty = chain(0, sig)
    text = print_algebra(empty, "p.sig")
    assert text == "algebra CH0 over p.sig\nelements \n"
    again = parse_algebra(text, tmp_path)
    assert (again.carrier, again.order, again.op_tables) == ([], frozenset(), {"f": {}})
    assert print_algebra(again, "p.sig") == text
    with pytest.raises(OalgError, match="missing table for 'f'"):
        parse_algebra("algebra A over p.sig\nelements e0\n", tmp_path)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6), st.sampled_from(["proper", "nested", "disjoint", "cross"]))
def test_scheme_to_lines_round_trips(seed, recipe):
    rng = random.Random(seed)
    z = rng.choice(SP.c.carrier)
    schemes = [pushout_equal(SP, leaf(SP.phi1[z]), leaf(SP.phi2[z])).forward,
               padded_glue_scheme(rng, SP, z, recipe)]
    for sch in filter(None, schemes):
        lines = scheme_to_lines(sch)
        again = scheme_from_lines(SP.sig, SP.variables(), lines)
        assert again == sch
        assert scheme_to_lines(again) == lines
