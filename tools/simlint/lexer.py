"""Token-level C++ lexer.

Just enough lexing for simlint's rules: identifiers, numbers, strings,
punctuation, with line numbers, plus a side table of `// simlint: ...`
waiver comments by line. Preprocessor directives are retained as
`pp` tokens (one per directive) so rules can skip them.

This is NOT a parser; rules that need structure (class bodies, member
declarations, function bodies) use model.py, which walks the token
stream with a brace-depth cursor.
"""

import re
from collections import namedtuple

Token = namedtuple("Token", ["kind", "value", "line"])

# kinds: id num str chr punct pp

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<pp>\#[^\n]*(?:\\\n[^\n]*)*)
    | (?P<rawstr>(?:u8|[uUL])?R"(?P<rsdelim>[^()\s\\"]*)\(
                 .*?\)(?P=rsdelim)")
    | (?P<str>"(?:\\.|[^"\\\n])*")
    | (?P<chr>'(?:\\.|[^'\\\n])*')
    | (?P<num>
         0[xX][0-9a-fA-F']+[uUlL]*
       | \d[\d']*(?:\.\d+)?(?:[eE][+-]?\d+)?[uUlLfF]*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punct><<=|>>=|->\*|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=
               |&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|<=>|.)
    """,
    re.VERBOSE | re.DOTALL,
)

# A waiver is a kebab-case name with an optional parenthesized
# argument: `// simlint: nondet-taint-ok` or
# `// simlint: raw-escape-ok(stamp compared for equality only)`.
# Arguments carry the justification a rule demands; they may not
# contain commas, which separate multiple waivers.
_WAIVER_ITEM = r"[a-z-]+(?:\([A-Za-z0-9_:.\s]*\))?"
_WAIVER_RE = re.compile(
    r"//\s*simlint:\s*(%s(?:\s*,\s*%s)*)" % (_WAIVER_ITEM, _WAIVER_ITEM))


class LexedFile:
    """Tokens plus per-line waiver sets for one source file."""

    def __init__(self, path, text):
        self.path = path
        self.tokens = []
        self.waivers = {}  # line -> set of waiver names
        line = 1
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            value = m.group()
            if kind in ("line_comment", "block_comment"):
                w = _WAIVER_RE.search(value)
                if w:
                    names = {s.strip() for s in w.group(1).split(",")}
                    self.waivers.setdefault(line, set()).update(names)
            elif kind != "ws":
                # Raw string literals (R"delim(...)delim", possibly
                # spanning lines) are opaque data, not code: lex them
                # as a single `str` token so their contents can never
                # trip token-pattern rules.
                if kind == "rawstr":
                    kind = "str"
                self.tokens.append(Token(kind, value, line))
            line += value.count("\n")

    def waived(self, line, name):
        return waiver_match(self.waivers.get(line, set()), name)


def waiver_match(waivers, name):
    """True when `name` is waived: exact match, or (for waivers that
    carry an argument) a `name(...)` entry."""
    if name in waivers:
        return True
    prefix = name + "("
    return any(w.startswith(prefix) for w in waivers)


def waiver_arg(waivers, name):
    """The argument of a `name(arg)` waiver on this line, or None."""
    prefix = name + "("
    for w in waivers:
        if w.startswith(prefix) and w.endswith(")"):
            return w[len(prefix):-1].strip()
    return None


def lex_file(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return LexedFile(path, f.read())
