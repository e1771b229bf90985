import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from oalg import relations
from oalg.algebra import (chain, generated_subalgebra, nonregular_quotient, print_algebra,
                          regular_quotient, subalgebra, with_trivial_order)
from oalg.cli import main
from oalg.errors import NotCompatibleQuasiorder, NotOrderCongruence
from oalg.generators import random_algebra, random_relation
from oalg.selftest import CheckResult
from oalg.signature import SIG1, Signature, print_signature
from oalg.terms import MAX_TERM_DEPTH

SIG_TEXT = "op f 2\nop g 3\nconst c\nconst d\norder c <= d\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "s.sig").write_text(SIG_TEXT)
    ch3 = chain(3, SIG1)
    (tmp_path / "ch3.oalg").write_text(print_algebra(ch3, "s.sig"))
    sub = subalgebra(ch3, ["e0", "e2"], name="C2")
    (tmp_path / "c2.oalg").write_text(print_algebra(sub, "s.sig"))
    (tmp_path / "sp.amalgam").write_text("special over ch3.oalg seed e0 e2\n")
    (tmp_path / "rel.pairs").write_text("pair e2 e0\n")
    (tmp_path / "incl.hom").write_text(
        "hom from c2.oalg to ch3.oalg\nmap e0 -> e0\nmap e2 -> e2\n")
    (tmp_path / "detour.scheme").write_text("\n".join([
        "REL EV1INV z1 1 e0<1> -> f e0<1> e0<1>",
        "REL EV1 z1 1 f e0<1> e0<1> -> e0<1>",
        "REL GLUE z1 1 e0<1> -> e0<2>",
    ]) + "\n")
    return tmp_path


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_validate_ok(workspace):
    code, out = run("validate", str(workspace / "ch3.oalg"))
    assert code == 0 and "violations=0" in out


def test_validate_signature(workspace):
    code, _ = run("validate", str(workspace / "s.sig"))
    assert code == 0


def test_validate_parse_error(workspace):
    bad = workspace / "bad.sig"
    bad.write_text("order c < d\n")
    code, _ = run("validate", str(bad))
    assert code == 2


def test_validate_violation_exit(workspace):
    bad = workspace / "bad.oalg"
    text = (workspace / "ch3.oalg").read_text()
    bad.write_text(text.replace("const c = e0", "const c = e2")
                       .replace("const d = e2", "const d = e0"))
    code, out = run("validate", str(bad))
    assert code == 1 and "constant" in out


def test_dominion(workspace):
    code, out = run("dominion", "--special", str(workspace / "ch3.oalg"),
                    "--seed-elems", "e0", "e2")
    assert code == 0
    assert "element=e1" in out and "NoWitnessFound" in out
    assert out.count("InC") == 2


def test_closure_of_a_cycle_reaches_every_step(workspace):
    # f sends every pair to the successor of its first argument mod 6, so the
    # translations carry e0 <= e1 round the whole cycle: all 36 pairs.
    # Translations of depth 3 alone reach only the steps up to (e3, e4).
    (workspace / "u.sig").write_text("op f 2\n")
    (workspace / "cyc.oalg").write_text(
        "algebra C over u.sig\nelements e0 e1 e2 e3 e4 e5\n"
        + "".join(f"op f: (e{i},e{j}) -> e{(i + 1) % 6}\n" for i in range(6) for j in range(6)))
    (workspace / "cyc.pairs").write_text("pair e0 e1\n")
    code, out = run("--format", "structured", "closure", str(workspace / "cyc.oalg"),
                    str(workspace / "cyc.pairs"))
    assert code == 0
    assert out.count("record=quasiorder") == 36 and out.count("record=") == 36


def test_closure_and_witness(workspace):
    code, out = run("closure", str(workspace / "ch3.oalg"),
                    str(workspace / "rel.pairs"), "--witness")
    assert code == 0
    assert "left=e2, right=e0" in out
    assert "REL HYP" in out


# Pinned output: the closure engine's discovery order decides which
# derivation, and so which witness, each pair gets.
GOLDEN_CLOSURE = (
    'record=quasiorder left=e0 right=e0\n'
    'record=quasiorder left=e0 right=e1\n'
    'record=quasiorder left=e0 right=e2\n'
    'record=quasiorder left=e1 right=e0\n'
    'record=quasiorder left=e1 right=e1\n'
    'record=quasiorder left=e1 right=e2\n'
    'record=quasiorder left=e2 right=e0\n'
    'record=quasiorder left=e2 right=e1\n'
    'record=quasiorder left=e2 right=e2\n'
    'record=witness left=e1 right=e0 steps=2\n'
    '  INEQ e1 <= e2\n'
    '  REL HYP z1 1 e2 -> e0\n'
    'record=witness left=e2 right=e0 steps=1\n'
    '  REL HYP z1 1 e2 -> e0\n'
    'record=witness left=e2 right=e1 steps=2\n'
    '  REL HYP z1 1 e2 -> e0\n'
    '  INEQ e0 <= e1\n'
)
GOLDEN_CONGRUENCE = (
    'record=leq left=e0 right=e0\n'
    'record=leq left=e0 right=e1\n'
    'record=leq left=e0 right=e2\n'
    'record=leq left=e1 right=e0\n'
    'record=leq left=e1 right=e1\n'
    'record=leq left=e1 right=e2\n'
    'record=leq left=e2 right=e0\n'
    'record=leq left=e2 right=e1\n'
    'record=leq left=e2 right=e2\n'
    'record=witness left=e1 right=e0 steps=2\n'
    '  INEQ e1 <= e2\n'
    '  REL HYP z1 1 e2 -> e0\n'
    'record=witness left=e2 right=e0 steps=1\n'
    '  REL HYP z1 1 e2 -> e0\n'
    'record=witness left=e2 right=e1 steps=2\n'
    '  REL HYP z1 1 e2 -> e0\n'
    '  INEQ e0 <= e1\n'
)


@pytest.mark.parametrize("extra, expected", [((), GOLDEN_CLOSURE),
                                             (("--congruence",), GOLDEN_CONGRUENCE)])
def test_closure_witness_golden(workspace, extra, expected):
    code, out = run("--format", "structured", "closure", str(workspace / "ch3.oalg"),
                    str(workspace / "rel.pairs"), "--witness", *extra)
    assert code == 0 and out == expected


@pytest.mark.parametrize("argv", [("closure",), ("closure", "--congruence"),
                                  ("quotient",), ("quotient", "--nonregular")])
def test_pairs_outside_carrier_is_parse_error(workspace, argv, capsys):
    (workspace / "bad.pairs").write_text("pair e3 e2\n")
    code, _ = run(argv[0], str(workspace / "ch3.oalg"), str(workspace / "bad.pairs"),
                  *argv[1:])
    assert code == 2
    assert "not in the carrier" in capsys.readouterr().err


def test_quotient(workspace):
    code, out = run("quotient", str(workspace / "ch3.oalg"),
                    str(workspace / "rel.pairs"), "--nonregular",
                    "--sig-ref", "s.sig")
    assert code == 0 and "elements [e0]" in out


def test_quotient_regular_closes_the_pairs_under_the_operations(workspace):
    # The README example: e2 ~ e0 forces e1 = f(e1, e0) ~ f(e1, e2) = e2.
    code, out = run("quotient", str(workspace / "ch3.oalg"),
                    str(workspace / "rel.pairs"), "--sig-ref", "s.sig")
    assert code == 0 and "elements [e0]" in out


def _closed_without_operations(alg, pairs, nonregular):
    """The pairs closed reflexively and transitively, with the order
    (non-regular) or with their inverses (regular), but not under the
    operations: wherever this is accepted, the closures must agree with it."""
    if nonregular:
        return relations.reflexive_transitive_closure(set(pairs) | alg.order, alg.carrier)
    return relations.reflexive_transitive_closure(
        set(pairs) | relations.inverse(pairs), alg.carrier)


@pytest.mark.parametrize("nonregular", [False, True])
def test_quotient_agrees_wherever_the_closure_without_operations_was_accepted(
        workspace, nonregular):
    rng = random.Random(5)
    flag = ["--nonregular"] if nonregular else []
    accepted = 0
    for i in range(300):
        alg = random_algebra(rng, SIG1, rng.randrange(1, 6))
        pairs = random_relation(rng, alg.carrier, 3)
        (workspace / "r.oalg").write_text(print_algebra(alg, "s.sig"))
        (workspace / "r.pairs").write_text("".join(f"pair {a} {b}\n" for a, b in sorted(pairs)))
        code, out = run("quotient", str(workspace / "r.oalg"), str(workspace / "r.pairs"),
                        "--sig-ref", "s.sig", *flag)
        assert code == 0, i
        old = _closed_without_operations(alg, pairs, nonregular)
        try:
            q = (nonregular_quotient(alg, old) if nonregular
                 else regular_quotient(alg, old)[0])
        except (NotCompatibleQuasiorder, NotOrderCongruence):
            continue
        assert out == print_algebra(q, "s.sig"), i
        accepted += 1
    assert 100 <= accepted < 300


def test_pushout_eq(workspace):
    code, out = run("pushout-eq", str(workspace / "sp.amalgam"),
                    "e0<1>", "e0<2>")
    assert code == 0 and "proven" in out
    code, out = run("pushout-eq", str(workspace / "sp.amalgam"),
                    "e1<1>", "e1<2>", "--max-nodes", "2000")
    assert code == 3 and "unknown" in out


def test_epi(workspace):
    code, out = run("epi", "--hom", str(workspace / "incl.hom"),
                    "--max-codomain", "3")
    assert code == 0 and "NotEpi" in out and "element=e1" in out


def test_epi_rejects_algebras_outside_the_variety(workspace, capsys):
    # The trivial order breaks c <= d (c = e0, d = e2).
    bad = with_trivial_order(chain(3, SIG1))
    (workspace / "flat.oalg").write_text(print_algebra(bad, "s.sig"))
    (workspace / "flat_sub.oalg").write_text(
        print_algebra(subalgebra(bad, ["e0", "e2"], name="C2"), "s.sig"))
    (workspace / "flat.hom").write_text(
        "hom from flat_sub.oalg to flat.oalg\nmap e0 -> e0\nmap e2 -> e2\n")
    code, out = run("epi", "--hom", str(workspace / "flat.hom"), "--max-codomain", "3")
    assert code == 1 and "verdict" not in out
    assert "not in the variety" in capsys.readouterr().err


def test_dominion_rejects_a_base_outside_the_variety(workspace, capsys):
    # The trivial order breaks c <= d (c = e0, d = e2).
    bad = with_trivial_order(chain(3, SIG1))
    (workspace / "flat.oalg").write_text(print_algebra(bad, "s.sig"))
    code, out = run("dominion", "--special", str(workspace / "flat.oalg"),
                    "--seed-elems", "e0")
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert "not in the variety" in err and "Traceback" not in err


def _nested(depth: int) -> str:
    return "f " * depth + "e0<1> " * (depth + 1)


def test_pushout_eq_rejects_a_too_deeply_nested_term(workspace, capsys):
    code, out = run("pushout-eq", str(workspace / "sp.amalgam"),
                    _nested(MAX_TERM_DEPTH + 1), "e0<1>")
    assert code == 2 and out == ""
    assert f"deeper than {MAX_TERM_DEPTH}" in capsys.readouterr().err
    code, out = run("pushout-eq", str(workspace / "sp.amalgam"), _nested(1200), "e0<1>")
    assert code == 2 and out == ""


def test_scheme_with_a_too_deeply_nested_term_is_parse_error(workspace, capsys):
    scheme = workspace / "deep.scheme"
    scheme.write_text(f"INEQ {_nested(MAX_TERM_DEPTH + 1)} <= e0<1>\n")
    code, out = run("normalize", str(scheme), "--amalgam", str(workspace / "sp.amalgam"))
    assert code == 2 and out == ""
    assert f"deeper than {MAX_TERM_DEPTH}" in capsys.readouterr().err


def test_normalize(workspace):
    code, out = run("normalize", str(workspace / "detour.scheme"), "--amalgam",
                    str(workspace / "sp.amalgam"))
    assert code == 0 and "status=case1" in out


def test_normalize_invalid_scheme(workspace):
    scheme = workspace / "bad.scheme"
    scheme.write_text("INEQ e2<1> <= e0<1>\n")
    code, out = run("normalize", str(scheme), "--amalgam",
                    str(workspace / "sp.amalgam"))
    assert code == 1


def test_structured_output_deterministic(workspace):
    args = ("--format", "structured", "dominion", "--special",
            str(workspace / "ch3.oalg"), "--seed-elems", "e0", "e2")
    code1, out1 = run(*args)
    code2, out2 = run(*args)
    assert code1 == code2 == 0 and out1 == out2
    assert out1.startswith("record=dominion")


@pytest.mark.parametrize("line", [
    "REL EV1",
    "REL EV1 f z1 z2 x e0<1> e1<1> -> e1<1>",
    "REL EV1 f z1 z2 3 e0<1> e1<1> -> e1<1>",
    "REL EV1 f z1 z2",
    # A keyword is a whole token: read by prefix, these lines were valid.
    "RELGLUE z1 1 e0<1> -> e0<2>",
    "INEQe0<1> <= e1<1>",
])
def test_normalize_malformed_rel_line_is_parse_error(workspace, line, capsys):
    scheme = workspace / "bad.scheme"
    scheme.write_text(line + "\n")
    code, _ = run("normalize", str(scheme), "--amalgam", str(workspace / "sp.amalgam"))
    assert code == 2
    assert "REL" in capsys.readouterr().err


@pytest.mark.parametrize("line,problem", [
    ("op h: (e0,e1) -> e1", "unknown operation"),
    ("op c: () -> e1", "unknown operation"),
    ("op f: (e0) -> e1", "arity"),
    ("op f: (e0,e1,e2) -> e1", "arity"),
    ("op f: (e0,e7) -> e1", "not in the carrier"),
    ("op f: (e0,e1) -> e7", "not in the carrier"),
])
def test_validate_bad_op_line_is_parse_error(workspace, line, problem, capsys):
    bad = workspace / "bad.oalg"
    bad.write_text((workspace / "ch3.oalg").read_text() + line + "\n")
    code, out = run("validate", str(bad))
    assert code == 2 and "violations" not in out
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("lines,problem", [
    (["op f: (e0,e0) -> e2"], "second op line for f ('e0', 'e0')"),
    (["const c = e1"], "second const line for c"),
    # Read last-wins, these lines were an algebra with 3 violations.
    (["op f: (e0,e0) -> e2", "const c = e1"], "second op line for f"),
])
def test_validate_repeated_op_or_const_line_is_parse_error(workspace, lines, problem, capsys):
    bad = workspace / "bad.oalg"
    bad.write_text((workspace / "ch3.oalg").read_text() + "".join(f"{l}\n" for l in lines))
    code, out = run("validate", str(bad))
    assert code == 2 and out == ""
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("line,problem", [
    ("elements e0", "repeated element 'e0'"),
    ("order e0 <= e9", "not in the carrier"),
    ("order e9 <= e9", "not in the carrier"),
])
def test_validate_repeated_element_or_order_outside_carrier_is_parse_error(
        workspace, line, problem, capsys):
    bad = workspace / "bad.oalg"
    bad.write_text((workspace / "ch3.oalg").read_text() + line + "\n")
    code, out = run("validate", str(bad))
    assert code == 2 and out == ""
    assert problem in capsys.readouterr().err


def test_dominion_seed_outside_carrier_is_parse_error(workspace, capsys):
    code, out = run("dominion", "--special", str(workspace / "ch3.oalg"),
                    "--seed-elems", "zz")
    assert code == 2 and out == ""
    assert "not in the carrier" in capsys.readouterr().err


@pytest.mark.parametrize("both", [False, True])
def test_dominion_needs_exactly_one_input(workspace, both, capsys):
    argv = [str(workspace / "sp.amalgam"), "--special", str(workspace / "ch3.oalg")]
    with pytest.raises(SystemExit) as exc:
        run("dominion", *(argv if both else []))
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("maps,problem", [
    (("e0 -> e0", "e2 -> e2", "zz -> e1"), "not in the domain"),
    (("e0 -> e0", "e2 -> e3"), "not in the codomain"),
])
def test_hom_outside_carriers_is_parse_error(workspace, maps, problem, capsys):
    (workspace / "bad.hom").write_text(
        "hom from c2.oalg to ch3.oalg\n" + "".join(f"map {m}\n" for m in maps))
    code, out = run("epi", "--hom", str(workspace / "bad.hom"), "--max-codomain", "3")
    assert code == 2 and "verdict" not in out
    assert problem in capsys.readouterr().err


def test_epi_rejects_a_map_that_is_not_a_homomorphism(workspace, capsys):
    (workspace / "swap.hom").write_text(
        "hom from c2.oalg to ch3.oalg\nmap e0 -> e2\nmap e2 -> e0\n")
    code, out = run("epi", "--hom", str(workspace / "swap.hom"), "--max-codomain", "3")
    assert code == 1 and "verdict" not in out
    assert "homomorphism" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["zz", "f"])
def test_validate_const_line_for_a_non_constant_is_parse_error(workspace, name, capsys):
    bad = workspace / "bad.oalg"
    bad.write_text((workspace / "ch3.oalg").read_text() + f"const {name} = e1\n")
    code, out = run("validate", str(bad))
    assert code == 2 and "violations" not in out
    assert "not constants of the signature" in capsys.readouterr().err


def test_hom_repeated_map_line_is_parse_error(workspace, capsys):
    # Read last-wins, these lines were the inclusion.
    (workspace / "twice.hom").write_text(
        "hom from c2.oalg to ch3.oalg\nmap e0 -> e2\nmap e0 -> e0\nmap e2 -> e2\n")
    code, out = run("epi", "--hom", str(workspace / "twice.hom"), "--max-codomain", "3")
    assert code == 2 and "verdict" not in out
    assert "second map line for e0" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [["e1"], []])
def test_dominion_seed_elems_with_an_amalgam_is_parse_error(workspace, seed, capsys):
    code, out = run("dominion", str(workspace / "sp.amalgam"), "--seed-elems", *seed)
    assert code == 2 and out == ""
    assert "--seed-elems needs --special" in capsys.readouterr().err


EMBEDS = ["embed phi1: e0 -> e0", "embed phi1: e2 -> e2",
          "embed phi2: e0 -> e0", "embed phi2: e2 -> e2"]


@pytest.mark.parametrize("lines,problem", [
    (EMBEDS[:1] + ["embed phi1: e2 -> zz"] + EMBEDS[2:], "phi1 values ['zz'] not in"),
    (EMBEDS[:3] + ["embed phi2: e2 -> zz"], "phi2 values ['zz'] not in"),
    (EMBEDS + ["embed phi1: qq -> e1"], "phi1 sources ['qq'] not in the center"),
    # Read last-wins, these lines were a valid amalgam.
    (["embed phi1: e2 -> e1"] + EMBEDS, "second embed line for e2"),
])
def test_amalgam_embed_line_errors_are_parse_errors(workspace, lines, problem, capsys):
    text = "left ch3.oalg\nright ch3.oalg\ncenter c2.oalg\n" + "".join(
        line + "\n" for line in lines)
    (workspace / "two.amalgam").write_text(text)
    code, out = run("validate", str(workspace / "two.amalgam"))
    assert code == 2 and out == ""
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"algebra A over .\n",                   # the signature path names a directory
    b"algebra A over s.sig\nelements \xff\n",  # not UTF-8 text
])
def test_input_that_is_not_a_readable_file_is_parse_error(workspace, content, capsys):
    bad = workspace / "bad.oalg"
    bad.write_bytes(content)
    code, out = run("validate", str(bad))
    assert code == 2 and out == ""
    assert "cannot read input" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("pushout-eq", "sp.amalgam", "e0<1>", "e0<2>", "--max-nodes", "-1"),
    ("pushout-eq", "sp.amalgam", "e0<1>", "e0<2>", "--max-scheme-len", "-2"),
    ("dominion", "sp.amalgam", "--max-nodes", "-1"),
    ("epi", "--hom", "incl.hom", "--max-codomain", "-1"),
    ("dominion", "sp.amalgam", "--max-scheme-len", "-1"),
    ("normalize", "detour.scheme", "--amalgam", "sp.amalgam", "--max-iters", "-1"),
])
def test_negative_budget_is_usage_error(workspace, argv, capsys):
    argv = [str(workspace / a) if a.endswith((".amalgam", ".hom", ".oalg", ".pairs", ".scheme"))
            else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be non-negative" in err



# A signature without g, and the 3-chain and its {e0, e2} subalgebra over it.
T_SIG = Signature({"f": 2, "c": 0, "d": 0}, frozenset({("c", "d")}))


def _write_t_sig_files(workspace):
    (workspace / "t.sig").write_text(print_signature(T_SIG))
    ch3 = chain(3, T_SIG)
    (workspace / "ch3t.oalg").write_text(print_algebra(ch3, "t.sig"))
    (workspace / "c2t.oalg").write_text(
        print_algebra(subalgebra(ch3, ["e0", "e2"], name="C2"), "t.sig"))
    (workspace / "c2-ch3t.hom").write_text(
        "hom from c2.oalg to ch3t.oalg\nmap e0 -> e0\nmap e2 -> e2\n")
    (workspace / "c2t-ch3.hom").write_text(
        "hom from c2t.oalg to ch3.oalg\nmap e0 -> e0\nmap e2 -> e2\n")
    for name, left, right in (("s-t", "ch3.oalg", "ch3t.oalg"), ("t-s", "ch3t.oalg", "ch3.oalg")):
        (workspace / f"{name}.amalgam").write_text(
            f"left {left}\nright {right}\ncenter c2.oalg\n" + "".join(e + "\n" for e in EMBEDS))


@pytest.mark.parametrize("argv", [
    ("epi", "--hom", "c2-ch3t.hom", "--max-codomain", "3"),
    ("epi", "--hom", "c2t-ch3.hom", "--max-codomain", "3"),
    ("validate", "s-t.amalgam"),
    ("validate", "t-s.amalgam"),
    ("pushout-eq", "t-s.amalgam", "e0<1>", "e0<2>"),
])
def test_algebras_over_different_signatures_are_a_parse_error(workspace, argv, capsys):
    _write_t_sig_files(workspace)
    code, out = run(argv[0], *(str(workspace / a) if "." in a else a for a in argv[1:]))
    assert code == 2 and out == ""
    assert "parse error" in capsys.readouterr().err


def _pinned_runs(workspace):
    """The argument lists of the structured-output pin: every command but
    selftest, on the workspace files and on a dozen seeded random
    algebras with their special amalgams, subalgebra inclusions and pairs."""
    (workspace / "two.amalgam").write_text(
        "left ch3.oalg\nright ch3.oalg\ncenter c2.oalg\n" + "".join(e + "\n" for e in EMBEDS))
    runs = [
        ("validate", "s.sig"), ("validate", "ch3.oalg"), ("validate", "sp.amalgam"),
        ("validate", "two.amalgam"),
        ("closure", "ch3.oalg", "rel.pairs", "--witness"),
        ("closure", "ch3.oalg", "rel.pairs", "--witness", "--congruence"),
        ("quotient", "ch3.oalg", "rel.pairs", "--sig-ref", "s.sig"),
        ("quotient", "ch3.oalg", "rel.pairs", "--nonregular", "--sig-ref", "s.sig"),
        ("pushout-eq", "sp.amalgam", "e0<1>", "e0<2>"),
        ("pushout-eq", "two.amalgam", "f e0<1> e2<1>", "e2<2>"),
        ("pushout-eq", "two.amalgam", "e1<1>", "e1<2>", "--max-nodes", "300"),
        ("dominion", "sp.amalgam"), ("dominion", "two.amalgam"),
        ("epi", "--hom", "incl.hom", "--max-codomain", "3"),
        ("normalize", "detour.scheme", "--amalgam", "sp.amalgam"),
    ]
    rng = random.Random(20)
    for i in range(12):
        alg = random_algebra(rng, SIG1, rng.randrange(2, 5), name=f"R{i}")
        seed = rng.sample(alg.carrier, rng.randrange(len(alg.carrier)))
        core = generated_subalgebra(alg, seed)
        pairs = random_relation(rng, alg.carrier, 2)
        (workspace / f"r{i}.oalg").write_text(print_algebra(alg, "s.sig"))
        (workspace / f"r{i}c.oalg").write_text(
            print_algebra(subalgebra(alg, core, name=f"C{i}"), "s.sig"))
        (workspace / f"r{i}.pairs").write_text(
            "".join(f"pair {a} {b}\n" for a, b in sorted(pairs)))
        (workspace / f"r{i}.hom").write_text(
            f"hom from r{i}c.oalg to r{i}.oalg\n" + "".join(f"map {e} -> {e}\n" for e in core))
        (workspace / f"r{i}.amalgam").write_text(
            f"special over r{i}.oalg seed {' '.join(seed)}\n")
        x = next((e for e in alg.carrier if e not in core), alg.carrier[-1])
        runs += [
            ("validate", f"r{i}.oalg"), ("validate", f"r{i}.amalgam"),
            ("closure", f"r{i}.oalg", f"r{i}.pairs", "--witness"),
            ("closure", f"r{i}.oalg", f"r{i}.pairs", "--witness", "--congruence"),
            ("quotient", f"r{i}.oalg", f"r{i}.pairs", "--sig-ref", "s.sig"),
            ("quotient", f"r{i}.oalg", f"r{i}.pairs", "--nonregular"),
            ("pushout-eq", f"r{i}.amalgam", f"{x}<1>", f"{x}<2>", "--max-nodes", "300"),
            ("dominion", "--special", f"r{i}.oalg", "--seed-elems", *seed,
             "--max-nodes", "300"),
            ("epi", "--hom", f"r{i}.hom", "--max-codomain", "2"),
        ]
    return runs


# sha256 over every pinned run's argument list, exit code, stdout and
# stderr (with the workspace path replaced), in `--format structured`.
# `epi --hom r1.hom` and `epi --hom r9.hom` (cap 2) read NotEpi with a
# glued-completion separator of 7 and 8 elements, where a search of all
# codomains within the cap read Inconclusive.  Every `pushout-eq` and
# `dominion` search here that does not prove its pair runs both ends dry
# within the cap, so those records read capped=False.
STRUCTURED_OUTPUTS_DIGEST = "060356be938f60b16c93eb4148327dfcc93af13d8c9e3c6adc194e8287b4cc1d"


def test_structured_outputs_are_pinned(workspace):
    digest = hashlib.sha256()
    for argv in _pinned_runs(workspace):
        argv = [str(workspace / a) if (workspace / a).is_file() and before != "--sig-ref"
                else a for before, a in zip(("",) + argv, argv)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["--format", "structured", *argv])
        text = repr((argv, code, out.getvalue(), err.getvalue()))
        digest.update(text.replace(str(workspace), "<tmp>").encode())
    assert digest.hexdigest() == STRUCTURED_OUTPUTS_DIGEST


def test_selftest_structured_output_keeps_timings_apart(monkeypatch):
    outputs = []
    for seconds in (0.04, 7.31):
        monkeypatch.setattr("oalg.selftest.run_all", lambda seed, s=seconds: [
            CheckResult("1 paper example", True, "ok", s),
            CheckResult("2 term order", False, "bad", 2 * s)])
        code, out = run("--format", "structured", "selftest")
        assert code == 1
        lines = out.splitlines()
        assert not any("seconds=" in line for line in lines if line.startswith("record=check"))
        assert sum(line.startswith("record=timing") for line in lines) == 2
        outputs.append([line for line in lines if not line.startswith("record=timing")])
    assert outputs[0] == outputs[1] == ["record=check name=1_paper_example passed=True",
                                        "record=check name=2_term_order passed=False"]
