"""Operation signatures: symbols with arities plus a partial order on constants.

The constant order is the variety parameter: an algebra belongs to the
variety when its interpreted constants satisfy every declared inequality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import relations
from .errors import ParseError, ValidationError
from .syntax import match, records

MAX_ARITY = 16
MAX_SYMBOLS = 64

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_<>]*$")
_FORMAL_RE = re.compile(r"^z[1-9][0-9]*$")


def is_formal_variable(name: str) -> bool:
    """True for z1, z2, ...; these are reserved for constant-free templates."""
    return bool(_FORMAL_RE.match(name))


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities and a partial order on the nullary ones.

    `const_order` is always stored reflexively and transitively closed;
    the constructor closes and re-checks whatever relation it is given.
    """

    ops: dict[str, int]
    const_order: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        if len(self.ops) > MAX_SYMBOLS:
            raise ValidationError(f"too many symbols ({len(self.ops)} > {MAX_SYMBOLS})")
        for name, arity in self.ops.items():
            if not name or not _NAME_RE.match(name):
                raise ValidationError(f"bad symbol name {name!r}")
            if is_formal_variable(name):
                raise ValidationError(f"symbol {name!r} clashes with the formal variable namespace")
            if not (0 <= arity <= MAX_ARITY):
                raise ValidationError(f"arity of {name!r} out of range: {arity}")
        object.__setattr__(self, "ops", dict(self.ops))
        object.__setattr__(self, "const_order",
                           relations.partial_order(self.const_order, self.constants()))

    def constants(self) -> list[str]:
        return [s for s, k in self.ops.items() if k == 0]

    def operations(self) -> list[tuple[str, int]]:
        """The symbols that have tables, with their arities, in declaration order."""
        return [(s, k) for s, k in self.ops.items() if k > 0]

    def arity(self, symbol: str) -> int:
        return self.ops[symbol]

    def has(self, symbol: str) -> bool:
        return symbol in self.ops

    def const_leq(self, a: str, b: str) -> bool:
        return (a, b) in self.const_order


def parse_signature(text: str) -> Signature:
    """Parse the `.sig` line format (`op f 2`, `const c`, `order c <= d`).

    Declarations are separated by newlines or semicolons; `#` starts a
    comment that runs to the end of the line.
    """
    ops: dict[str, int] = {}
    order: set[tuple[str, str]] = set()
    for _, line in records(text):
        for decl in line.split(";"):
            tokens = decl.split()
            if not tokens:
                continue
            decl = decl.strip()
            kind = tokens[0]
            if kind == "op":
                name, arity_text = match("op _ _", tokens, decl)
                if not arity_text.isdigit():
                    raise ParseError(f"arity must be a non-negative integer: {decl!r}")
            elif kind == "const":
                name, = match("const _", tokens, decl)
                arity_text = "0"
            elif kind == "order":
                order.add(tuple(match("order _ <= _", tokens, decl)))
                continue
            else:
                raise ParseError(f"unknown declaration {kind!r} in {decl!r}")
            if name in ops:
                raise ValidationError(f"duplicate symbol {name!r}")
            ops[name] = int(arity_text)
    return Signature(ops, frozenset(order))


def print_signature(sig: Signature) -> str:
    """Inverse of parse_signature up to closure of the constant order."""
    lines = []
    for name, arity in sig.ops.items():
        if arity == 0:
            lines.append(f"const {name}")
        else:
            lines.append(f"op {name} {arity}")
    for (a, b) in sorted(sig.const_order):
        if a != b:
            lines.append(f"order {a} <= {b}")
    return "\n".join(lines) + "\n"


# The worked signature used throughout the test-suite: one binary and one
# ternary symbol plus two ordered constants.
SIG1 = Signature({"f": 2, "g": 3, "c": 0, "d": 0}, frozenset({("c", "d")}))
