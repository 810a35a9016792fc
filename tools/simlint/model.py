"""Backend-independent structural model over lexed token streams.

Extracts the two structures the rules need:

  - classes(): class/struct definitions with their data members and
    the names of methods they declare;
  - method_bodies(): the identifier set of every function body, keyed
    by qualified name ("Class::method" for out-of-line definitions,
    the same form synthesized for inline ones).

Both walk the token stream with a brace/paren depth cursor; there is
no type checking and no template instantiation. That is enough for
the checkpoint-coverage rule because PTLsim checkpoint code
mentions members by name.
"""

from collections import namedtuple

ClassDef = namedtuple("ClassDef", ["name", "line", "members", "methods"])
# type: the leading type identifier of the declaration ("Counter" for
# `Counter &st_hits;` and `Counter *c = nullptr;`, "std" for
# `std::deque<Counter> q;`) — enough for rules that key on a concrete
# class name without doing real type resolution.
# kind: "ref" for a reference member, "const" for a top-level const
# one (`const P p;`, `Q *const q;`, not `const Q *q;`), "" otherwise —
# the members no assignment can ever change.
Member = namedtuple("Member", ["name", "line", "type", "kind"])

_TYPE_QUALIFIERS = {"const", "mutable", "volatile", "unsigned", "signed"}

_KEYWORD_STMT = {
    "public", "private", "protected", "using", "typedef", "friend",
    "template", "enum", "struct", "class", "union", "static",
    "constexpr", "static_assert", "operator",
}

_ACCESS = {"public", "private", "protected"}


def _match_brace(tokens, i):
    """tokens[i] is '{'; return index one past its matching '}'."""
    depth = 0
    while i < len(tokens):
        v = tokens[i].value
        if v == "{":
            depth += 1
        elif v == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(tokens)


def _split_statements(tokens):
    """Split a class-body token list into top-level statements.

    A statement ends at a top-level ';' or at a top-level '{...}'
    block (function definition / nested aggregate); the block tokens
    are attached to the statement.
    """
    stmts, cur, depth = [], [], 0
    i = 0
    while i < len(tokens):
        t = tokens[i]
        # An access label ends no statement of its own; drop it so the
        # declaration after it is not read as part of the label.
        if (not cur and t.value in _ACCESS and i + 1 < len(tokens)
                and tokens[i + 1].value == ":"):
            i += 2
            continue
        if t.value == "{":
            j = _match_brace(tokens, i)
            cur.extend(tokens[i:j])
            i = j
            # int x{0}; continues to ';'. Function bodies just end.
            if i < len(tokens) and tokens[i].value == ";":
                cur.append(tokens[i])
                i += 1
            stmts.append(cur)
            cur = []
            continue
        cur.append(t)
        if t.value in "([":
            depth += 1
        elif t.value in ")]":
            depth -= 1
        elif t.value == ";" and depth == 0:
            stmts.append(cur)
            cur = []
        i += 1
    if cur:
        stmts.append(cur)
    return stmts


def _stmt_is_function(stmt):
    """True when the statement declares or defines a function."""
    # Heuristic: an identifier directly followed by '(' at angle
    # depth 0, before any '=' (so `std::function<void(int)> cb;` and
    # `int x = f();` stay members).
    angle = 0
    for i, t in enumerate(stmt):
        v = t.value
        if v == "<":
            angle += 1
        elif v == ">":
            angle = max(0, angle - 1)
        elif v == "=" and angle == 0:
            return False
        elif v == "(" and angle == 0:
            return i > 0 and stmt[i - 1].kind == "id"
    return False


def _member_kind(decl):
    """"ref", "const" or "" for a member declaration's tokens up to
    (not including) its name."""
    angle, top = 0, []
    for t in decl:
        v = t.value
        if v == "<":
            angle += 1
        elif v in (">", ">>"):
            angle = max(0, angle - len(v))
        elif angle == 0:
            top.append(v)
    if "&" in top or "&&" in top:
        return "ref"
    # Past the last top-level '*', a `const` qualifies the member
    # itself; before it, only what the member points at.
    stars = [i for i, v in enumerate(top) if v == "*"]
    own = top[stars[-1] + 1:] if stars else top
    return "const" if "const" in own else ""


def _member_name(stmt):
    """The declared member of a member statement, or None."""
    if not stmt or stmt[0].value in _KEYWORD_STMT:
        # `static` / `using` / access labels and friends are not
        # serializable data members, and neither is a nested type
        # definition (_split_statements ends it at its closing brace).
        # `struct Foo *p;` still declares one.
        if not (stmt and stmt[0].value in ("struct", "class")) \
                or any(t.value == "{" for t in stmt):
            return None
    if any(t.value == "operator" for t in stmt):
        return None
    if _stmt_is_function(stmt):
        return None
    # Name = last identifier before the first of ';' '=' '{' '['.
    # Type = first identifier that is not a cv/sign qualifier.
    name, at, mtype = None, 0, None
    for i, t in enumerate(stmt):
        if t.value in (";", "=", "{", "["):
            break
        if t.kind == "id":
            if mtype is None and t.value not in _TYPE_QUALIFIERS:
                mtype = t.value
            name, at = t, i
    if name is None or name.value in _KEYWORD_STMT:
        return None
    return Member(name.value, name.line, mtype, _member_kind(stmt[:at]))


def _method_names(stmt):
    """Names of functions declared by a class-body statement."""
    angle = 0
    for i, t in enumerate(stmt):
        v = t.value
        if v == "<":
            angle += 1
        elif v == ">":
            angle = max(0, angle - 1)
        elif v == "=" and angle == 0:
            return []
        elif v == "(" and angle == 0:
            if i > 0 and stmt[i - 1].kind == "id":
                return [stmt[i - 1].value]
            return []
    return []


def classes(lexed):
    """All class/struct definitions in a lexed file."""
    out = []
    toks = lexed.tokens
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "id" and t.value in ("struct", "class"):
            # struct Name [final] [: bases] {
            j = i + 1
            if j < len(toks) and toks[j].kind == "id":
                name = toks[j].value
                line = toks[j].line
                k = j + 1
                while k < len(toks) and toks[k].value not in ("{", ";"):
                    k += 1
                if k < len(toks) and toks[k].value == "{":
                    end = _match_brace(toks, k)
                    body = toks[k + 1 : end - 1]
                    members, methods = [], []
                    for stmt in _split_statements(body):
                        methods.extend(_method_names(stmt))
                        m = _member_name(stmt)
                        if m:
                            members.append(m)
                    out.append(ClassDef(name, line, members, methods))
                    i = end
                    continue
        i += 1
    return out


# Identifiers that look like `name(...)` but never open a function
# definition (keywords and cast-like forms the free-function scan
# must skip).
_NOT_FUNC_IDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "new", "delete", "do", "else", "case", "default", "goto",
    "throw", "alignof", "decltype", "noexcept", "static_assert",
    "assert", "defined", "alignas",
}


def _param_names(ptoks):
    """Declared parameter names from a parameter-list token span
    (the tokens between the definition's '(' and ')')."""
    segs, seg, depth = [], [], 0
    for t in ptoks:
        v = t.value
        if v in ("(", "<", "[", "{"):
            depth += 1
        elif v in (")", ">", "]", "}"):
            depth -= 1
        if v == "," and depth == 0:
            segs.append(seg)
            seg = []
        else:
            seg.append(t)
    if seg:
        segs.append(seg)
    names = []
    for seg in segs:
        cut, d = [], 0
        for t in seg:
            v = t.value
            if v in ("(", "<", "[", "{"):
                d += 1
            elif v in (")", ">", "]", "}"):
                d -= 1
            if v == "=" and d == 0:
                break
            cut.append(t)
        last = None
        for t in cut:
            if t.kind == "id":
                last = t.value
        # A lone token is an unnamed parameter's type, not a name.
        if last and last not in _TYPE_QUALIFIERS and len(cut) > 1:
            names.append(last)
    return names


def function_units_ex(lexed):
    """Yield (qual, tokens, def_line, params) for every function
    definition.

    Three shapes are recognized:

      - out-of-line methods (`void Class::method(...) : init... { }`):
        the unit is the tokens from just past the parameter list's ')'
        through the body's closing '}' — that span includes the
        constructor initializer list, which rules use to see member
        bindings;
      - inline methods inside a class body: the whole member statement;
      - free functions at namespace scope (`static U64 helper(...) { }`):
        same span convention as out-of-line methods, qualified by the
        bare function name. These feed the call graph — a `src/sys/`
        entry point that reaches rand() through an anonymous-namespace
        helper is only visible if the helper is a node.

    Spans claimed by an earlier shape are skipped by later scans, so a
    call `Foo::bar(x)` inside a method body never fabricates a unit.
    """
    toks = lexed.tokens
    claimed = []  # token-index spans [lo, hi) already attributed

    # Out-of-line: id '::' id ... '(' ... ')' [init-list] '{' body '}'
    i = 0
    while i + 2 < len(toks):
        if (toks[i].kind == "id" and toks[i + 1].value == "::"
                and toks[i + 2].kind == "id"):
            qual = toks[i].value + "::" + toks[i + 2].value
            line = toks[i].line
            j = i + 3
            if j < len(toks) and toks[j].value == "(":
                # Skip to matching ')', then look for '{' before ';'.
                depth = 0
                while j < len(toks):
                    if toks[j].value == "(":
                        depth += 1
                    elif toks[j].value == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                k = j + 1
                while k < len(toks) and toks[k].value not in ("{", ";"):
                    k += 1
                if k < len(toks) and toks[k].value == "{":
                    end = _match_brace(toks, k)
                    yield (qual, toks[j + 1 : end], line,
                           _param_names(toks[i + 4 : j]))
                    claimed.append((i, end))
                    i = end
                    continue
        i += 1

    # Inline: per class, any method statement carrying a '{' body.
    # The whole class span is claimed (member declarations are not
    # free functions).
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "id" and t.value in ("struct", "class"):
            j = i + 1
            if j < len(toks) and toks[j].kind == "id":
                cname = toks[j].value
                k = j + 1
                while k < len(toks) and toks[k].value not in ("{", ";"):
                    k += 1
                if k < len(toks) and toks[k].value == "{":
                    end = _match_brace(toks, k)
                    body = toks[k + 1 : end - 1]
                    for stmt in _split_statements(body):
                        names = _method_names(stmt)
                        if names and any(x.value == "{" for x in stmt):
                            params = []
                            angle = 0
                            for si, st in enumerate(stmt):
                                v = st.value
                                if v == "<":
                                    angle += 1
                                elif v == ">":
                                    angle = max(0, angle - 1)
                                elif v == "(" and angle == 0:
                                    depth, sj = 0, si
                                    while sj < len(stmt):
                                        if stmt[sj].value == "(":
                                            depth += 1
                                        elif stmt[sj].value == ")":
                                            depth -= 1
                                            if depth == 0:
                                                break
                                        sj += 1
                                    params = _param_names(
                                        stmt[si + 1 : sj])
                                    break
                            for n in names:
                                yield (cname + "::" + n, stmt,
                                       stmt[0].line, params)
                    claimed.append((i, end))
                    i = end
                    continue
        i += 1

    # Free functions: id '(' ... ')' [specifiers] '{' body '}' at any
    # position not already claimed above.
    claimed.sort()

    def next_unclaimed(pos):
        for lo, hi in claimed:
            if lo <= pos < hi:
                return hi
        return pos

    i = 0
    n = len(toks)
    while i < n:
        skip = next_unclaimed(i)
        if skip != i:
            i = skip
            continue
        t = toks[i]
        if (t.kind == "id" and t.value not in _NOT_FUNC_IDS
                and i + 1 < n and toks[i + 1].value == "("
                and (i == 0
                     or toks[i - 1].value not in ("::", ".", "->"))):
            depth, j = 0, i + 1
            while j < n:
                if toks[j].value == "(":
                    depth += 1
                elif toks[j].value == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            k = j + 1
            while k < n and toks[k].value not in ("{", ";", "="):
                k += 1
            if k < n and toks[k].value == "{":
                # A '{' inside an already-claimed span belongs to that
                # unit (fully nested claims — a local struct inside
                # this body — are fine and stay claimed by the class
                # scan).
                if not any(lo <= k < hi for lo, hi in claimed):
                    end = _match_brace(toks, k)
                    yield (t.value, toks[j + 1 : end], t.line,
                           _param_names(toks[i + 2 : j]))
                    i = end
                    continue
        i += 1


def function_units(lexed):
    """Yield (qual, tokens) for every function definition (see
    function_units_ex for the shapes recognized)."""
    for qual, unit, _line, _params in function_units_ex(lexed):
        yield qual, unit


def method_bodies(lexed):
    """Map "Class::method" -> set of identifier tokens in the body
    (including, for constructors, the initializer list)."""
    out = {}
    for qual, unit in function_units(lexed):
        out.setdefault(qual, set()).update(
            t.value for t in unit if t.kind == "id")
    return out
