"""Command-line entry point.

Exit codes: 0 success, 1 property violation (including any outcome the
theory excludes), 2 parse error, 3 inconclusive or stuck.  The structured
output format emits one `key=value ...` record per line so runs can be
diffed mechanically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .algebra import (
    OrderedAlgebra,
    load_algebra,
    nonregular_quotient,
    parse_homomorphism,
    print_algebra,
    regular_quotient,
    validate_algebra,
)
from .amalgam import (
    Budget,
    dominion_special,
    epi_check,
    load_amalgam,
    make_special,
    pushout_equal,
    validate_amalgam,
)
from .closure import gen_compatible_quasiorder, gen_order_congruence
from .errors import OalgError, ParseError, PreconditionFailed, TheoremContradiction
from .schemes import normalize, scheme_from_lines, scheme_to_lines, validate_scheme
from .signature import parse_signature
from .syntax import match, records
from .terms import parse_term, print_term

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_INCONCLUSIVE = 3


class Reporter:
    def __init__(self, structured: bool):
        self.structured = structured

    def record(self, __label: str, **fields):
        if self.structured:
            parts = [f"record={__label}"]
            parts.extend(f"{k}={v}" for k, v in sorted(fields.items()))
            print(" ".join(str(p) for p in parts))
        else:
            body = ", ".join(f"{k}={v}" for k, v in fields.items())
            print(f"{__label}: {body}" if body else __label)


def _read_pairs(path: str, alg: OrderedAlgebra) -> frozenset:
    """The `pair a b` lines of a `.pairs` file, on the carrier of alg."""
    pairs = set()
    for tokens, line in records(Path(path).read_text()):
        a, b = match("pair _ _", tokens, line)
        outside = [e for e in (a, b) if e not in alg.index]
        if outside:
            raise ParseError(f"pair elements {outside} not in the carrier of {alg.name}")
        pairs.add((a, b))
    return frozenset(pairs)


def cmd_validate(args, rep: Reporter) -> int:
    path = Path(args.file)
    if path.suffix == ".sig":
        parse_signature(path.read_text())
        rep.record("ok", input="signature", file=path.name)
        return EXIT_OK
    if path.suffix == ".oalg":
        alg = load_algebra(path)
        report, named = validate_algebra(alg), {"algebra": alg.name}
    elif path.suffix == ".amalgam":
        report, named = validate_amalgam(load_amalgam(path)), {}
    else:
        raise ParseError(f"unknown input kind {path.suffix!r}")
    for item in report:
        rep.record("violation", **{k: str(v) for k, v in item.items()})
    rep.record("summary", violations=len(report), **named)
    return EXIT_VIOLATION if report else EXIT_OK


def cmd_closure(args, rep: Reporter) -> int:
    alg = load_algebra(args.algebra)
    hyp = _read_pairs(args.pairs, alg)
    if args.congruence:
        res = gen_order_congruence(alg, hyp)
        rel, label, witness = res.leq, "leq", res.witness
    else:
        clo = gen_compatible_quasiorder(alg, hyp)
        rel, label, witness = clo.relation, "quasiorder", clo.witness
    pairs = sorted(rel, key=lambda p: (alg.index[p[0]], alg.index[p[1]]))
    for (a, b) in pairs:
        rep.record(label, left=a, right=b)
    if args.witness:
        for (a, b) in pairs:
            if (a, b) in alg.order:
                continue
            sch = witness(a, b)
            rep.record("witness", left=a, right=b, steps=len(sch.steps))
            for line in scheme_to_lines(sch):
                print("  " + line)
    return EXIT_OK


def cmd_quotient(args, rep: Reporter) -> int:
    alg = load_algebra(args.algebra)
    pairs = _read_pairs(args.pairs, alg)
    if args.nonregular:
        q = nonregular_quotient(alg, gen_compatible_quasiorder(alg, pairs).relation)
    else:
        q, _ = regular_quotient(alg, gen_order_congruence(alg, pairs).theta)
    sig_ref = args.sig_ref or "unknown.sig"
    sys.stdout.write(print_algebra(q, sig_ref))
    return EXIT_OK


def _budget(args) -> Budget:
    return Budget(max_scheme_len=args.max_scheme_len, max_nodes=args.max_nodes)


def cmd_pushout_eq(args, rep: Reporter) -> int:
    am = load_amalgam(args.amalgam)
    variables = am.variables()
    s = parse_term(am.sig, variables, args.left)
    t = parse_term(am.sig, variables, args.right)
    res = pushout_equal(am, s, t, _budget(args))
    if res.proven:
        rep.record("proven", left=print_term(s), right=print_term(t))
        for title, sch in (("forward", res.forward), ("backward", res.backward)):
            rep.record("scheme", direction=title, steps=len(sch.steps))
            for line in scheme_to_lines(sch):
                print("  " + line)
        return EXIT_OK
    rep.record("unknown", **res.stats.as_dict())
    return EXIT_INCONCLUSIVE


def cmd_dominion(args, rep: Reporter) -> int:
    if args.special:
        base = load_algebra(args.special)
        try:
            sp = make_special(base, args.seed_elems or [])
        except PreconditionFailed as exc:
            raise ParseError(str(exc)) from exc
    else:
        if args.seed_elems is not None:
            raise ParseError("--seed-elems needs --special: an .amalgam file names its own seed")
        am = load_amalgam(args.amalgam)
        if not hasattr(am, "base"):
            rep.record("error", reason="dominion needs a special amalgam")
            return EXIT_PARSE
        sp = am
    statuses = dominion_special(sp, _budget(args))
    for x, info in statuses.items():
        fields = {"element": x, "status": info["status"]}
        if "stats" in info:
            fields.update(info["stats"])
        rep.record("dominion", **fields)
    return EXIT_OK


def cmd_epi(args, rep: Reporter) -> int:
    hom = parse_homomorphism(Path(args.hom).read_text(), Path(args.hom).parent)
    report = epi_check(hom, args.max_codomain)
    fields = {"verdict": report.verdict}
    if report.missing:
        fields["missing"] = ",".join(report.missing)
    rep.record("epi", **fields)
    if report.separator is not None:
        sep = report.separator
        rep.record("separator", element=sep.element,
                   codomain_size=len(sep.codomain.carrier),
                   f=sep.f.map[sep.element], g=sep.g.map[sep.element])
    return EXIT_INCONCLUSIVE if report.verdict == "Inconclusive" else EXIT_OK


def cmd_normalize(args, rep: Reporter) -> int:
    am = load_amalgam(args.amalgam)
    with open(args.scheme) as lines:
        sch = scheme_from_lines(am.sig, am.variables(), lines)
    bad = validate_scheme(am, sch)
    if bad:
        for item in bad[:10]:
            rep.record("invalid", **{k: str(v) for k, v in item.items()})
        return EXIT_VIOLATION
    result = normalize(am, sch, args.max_iters)
    rep.record("normalize", status=result.status, iterations=result.iterations,
               reason=result.reason or "-")
    for line in scheme_to_lines(result.scheme):
        print("  " + line)
    return EXIT_OK if result.is_case1 else EXIT_INCONCLUSIVE


def cmd_selftest(args, rep: Reporter) -> int:
    from .selftest import run_all  # the oracles load for this command alone
    results = run_all(seed=args.seed)
    failed = 0
    for r in results:
        if rep.structured:
            name = r.name.replace(" ", "_")
            rep.record("check", name=name, passed=r.passed)
            rep.record("timing", name=name, seconds=f"{r.seconds:.1f}")
        else:
            print(r.line())
        failed += not r.passed
    return EXIT_VIOLATION if failed else EXIT_OK


def nonnegative(text: str) -> int:
    """A budget or cap: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oalg",
                                description="finite ordered algebra toolkit")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a .sig, .oalg or .amalgam file")
    v.add_argument("file")
    v.set_defaults(fn=cmd_validate)

    c = sub.add_parser("closure", help="generated quasiorder or order-congruence")
    c.add_argument("algebra")
    c.add_argument("pairs")
    c.add_argument("--congruence", action="store_true")
    c.add_argument("--witness", action="store_true")
    c.set_defaults(fn=cmd_closure)

    q = sub.add_parser("quotient", help="regular or non-regular quotient")
    q.add_argument("algebra")
    q.add_argument("pairs")
    q.add_argument("--nonregular", action="store_true")
    q.add_argument("--sig-ref", default=None)
    q.set_defaults(fn=cmd_quotient)

    pe = sub.add_parser("pushout-eq", help="prove two terms equal in the pushout")
    pe.add_argument("amalgam")
    pe.add_argument("left")
    pe.add_argument("right")
    pe.set_defaults(fn=cmd_pushout_eq)

    d = sub.add_parser("dominion", help="dominion of the core of a special amalgam")
    source = d.add_mutually_exclusive_group(required=True)
    source.add_argument("amalgam", nargs="?")
    source.add_argument("--special", help=".oalg file for the base algebra")
    d.add_argument("--seed-elems", nargs="*", default=None)
    d.set_defaults(fn=cmd_dominion)

    e = sub.add_parser("epi", help="check a homomorphism for epimorphy")
    e.add_argument("--hom", required=True)
    e.add_argument("--max-codomain", type=nonnegative, default=4)
    e.set_defaults(fn=cmd_epi)

    n = sub.add_parser("normalize", help="normalize a scheme certificate")
    n.add_argument("scheme")
    n.add_argument("--amalgam", required=True)
    n.add_argument("--max-iters", type=nonnegative, default=None)
    n.set_defaults(fn=cmd_normalize)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--seed", type=int, default=4)
    st.set_defaults(fn=cmd_selftest)

    for cmd in (pe, d):
        cmd.add_argument("--max-scheme-len", type=nonnegative, default=8)
        cmd.add_argument("--max-nodes", type=nonnegative, default=20_000)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rep = Reporter(args.format == "structured")
    try:
        return args.fn(args, rep)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TheoremContradiction as exc:
        print(f"theorem contradiction: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except OalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, UnicodeDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
