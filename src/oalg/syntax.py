"""The line syntax every text format shares: `#` starts a comment that
runs to the end of the line, blank lines are skipped, and a line's
tokens are its whitespace-separated words."""

from __future__ import annotations

from .errors import ParseError


def records(text: str):
    """`(tokens, line)` for each line of text that has a token once its
    comment is cut off; `line` is that part, stripped."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split(), line


def match(shape: str, tokens: list[str], line: str) -> list[str]:
    """The tokens at the `_` places of `shape`, such as `"order _ <= _"`,
    whose other words the tokens must repeat exactly."""
    words = shape.split()
    if len(tokens) != len(words) or any(w not in ("_", t) for w, t in zip(words, tokens)):
        raise ParseError(f"malformed {words[0]} line: {line!r}")
    return [t for w, t in zip(words, tokens) if w == "_"]
