"""Semantic index: pass 1 of the two-pass analyzer.

Pass 1 walks every file once and distills it into a FileIndex — a
JSON-serializable bundle of exactly the structural facts the rules
consume:

  includes     quoted #include edges (line, header path)
  classes      class/struct defs with member (name, line, type, kind)
               lists and declared method names
  enums        named enum defs with their enumerator lists
  bodies       "Class::method" -> identifier set (ctor initializer
               lists included)
  binds        "Class::method" -> member names bound through a
               StatsTree (init-list entries / assignments whose
               right-hand side calls .counter(...), plus single-id
               reference forwarding)
  switches     switch statements: subject ids, case label texts and
               trailing ids, default presence + whether the default
               body contains a guard (ptl_assert/ptl_warn_once/...)
  addr_decls   raw-integer declarations of address-kind-named
               variables (*vaddr*/*paddr*/*pfn*/*vpn*), with an
               in-template flag (template parameter lists declare
               compile-time constants, not variables)
  never_stmts  ~0ULL-style sentinels and the stamp id (if any) in the
               enclosing statement
  watch        occurrences of WATCHLIST identifiers with one token of
               context on each side (entropy sources and time)
  waivers      line -> `// simlint: <name>` waiver names (a waiver may
               carry an argument: `raw-escape-ok(reason)`)
  funcs        per-function nodes of the call graph: qualified name,
               definition line, body line span, calls made
               (line, callee), and the serialized CFG
  unordered_decls  (line, name) of variables/members declared with an
               unordered container type
  iter_sites   (line, [ids]) container-iteration sites: range-for
               subjects and receivers of .begin()/.cbegin() calls

Pass 2 (the rules) never touches tokens again, so a file's index can
be cached by content hash under build/simlint-cache/ and reused until
the file changes. The cache key is (INDEX_VERSION, file sha256,
toolchain fingerprint): the fingerprint hashes every analyzer source
file and layers.toml, so editing a rule or the layer DAG invalidates
the whole cache instead of serving stale facts. Bump INDEX_VERSION
when the extraction or the WATCHLIST changes (the fingerprint catches
that too; the version is belt and braces for exotic setups).
"""

import hashlib
import json
import os

from . import cfg as cfg_mod
from . import lexer, model

INDEX_VERSION = 9

# Identifiers whose every occurrence is recorded with context: the
# libc / C++ entropy and wall-clock sources nondet-taint reports.
# Extend here and bump INDEX_VERSION.
WATCHLIST = frozenset({
    "rand", "srand", "drand48", "lrand48", "srand48", "rand_r",
    "random_device", "gettimeofday", "clock_gettime",
    "system_clock", "steady_clock", "high_resolution_clock",
    "time",
})

# A switch default body counts as guarded when it names one of these.
GUARD_IDS = frozenset({
    "ptl_assert", "ptl_warn_once", "fatal", "panic", "abort",
    "assert", "__builtin_unreachable",
})

_FIELDS = ("includes", "classes", "enums", "bodies", "binds",
           "switches", "never_stmts", "watch", "waivers", "funcs",
           "unordered_decls", "iter_sites", "addr_decls")

_INCLUDE_PREFIX = "#include"


def _jsonify(x):
    """Recursively map tuples to lists (what json.dump does anyway)."""
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonify(v) for k, v in x.items()}
    return x


class FileIndex:
    """Per-file semantic facts; see module docstring for the schema."""

    def __init__(self, path, rel, sha, data):
        self.path = path
        self.rel = rel.replace("\\", "/")
        self.sha = sha
        for f in _FIELDS:
            setattr(self, f, data[f])

    def waived(self, line, name):
        return lexer.waiver_match(self.waivers.get(line, ()), name)

    def waiver_arg(self, line, name):
        return lexer.waiver_arg(self.waivers.get(line, ()), name)

    def to_data(self):
        # Canonical (JSON-shaped) form: tuples become lists and sets
        # become sorted lists, so a freshly built index and one loaded
        # back from the cache serialize identically.
        d = {f: _jsonify(getattr(self, f)) for f in _FIELDS}
        d["bodies"] = {q: sorted(ids) for q, ids in self.bodies.items()}
        d["binds"] = {q: sorted(ns) for q, ns in self.binds.items()}
        d["waivers"] = {str(ln): sorted(ns)
                        for ln, ns in self.waivers.items()}
        return d

    @classmethod
    def from_data(cls, path, rel, sha, data):
        data = dict(data)
        data["bodies"] = {q: set(v) for q, v in data["bodies"].items()}
        data["binds"] = {q: set(v) for q, v in data["binds"].items()}
        data["waivers"] = {int(ln): set(v)
                           for ln, v in data["waivers"].items()}
        data["includes"] = [tuple(x) for x in data["includes"]]
        data["addr_decls"] = [tuple(x) for x in data["addr_decls"]]
        data["never_stmts"] = [tuple(x) for x in data["never_stmts"]]
        data["watch"] = [tuple(x) for x in data["watch"]]
        data["unordered_decls"] = [tuple(x)
                                   for x in data["unordered_decls"]]
        data["iter_sites"] = [(ln, list(ids))
                              for ln, ids in data["iter_sites"]]
        return cls(path, rel, sha, data)


# ---------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------

def _match_paren(toks, i):
    """toks[i] is '('; return the index of its matching ')'."""
    depth = 0
    while i < len(toks):
        v = toks[i].value
        if v == "(":
            depth += 1
        elif v == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def _includes(toks):
    out = []
    for t in toks:
        if t.kind == "pp" and t.value.lstrip("# \t").startswith("include"):
            rest = t.value.split("include", 1)[1].strip()
            if rest.startswith('"') and rest.count('"') >= 2:
                out.append((t.line, rest.split('"')[1]))
    return out


def _enums(toks):
    out = []
    i = 0
    while i < len(toks):
        if toks[i].kind == "id" and toks[i].value == "enum":
            j = i + 1
            if j < len(toks) and toks[j].value in ("class", "struct"):
                j += 1
            if j < len(toks) and toks[j].kind == "id":
                name, line = toks[j].value, toks[j].line
                k = j + 1
                while k < len(toks) and toks[k].value not in ("{", ";"):
                    k += 1
                if k < len(toks) and toks[k].value == "{":
                    end = model._match_brace(toks, k)
                    enumerators, depth, expect = [], 0, True
                    for x in toks[k + 1 : end - 1]:
                        v = x.value
                        if v in ("(", "[", "{"):
                            depth += 1
                        elif v in (")", "]", "}"):
                            depth -= 1
                        elif depth == 0 and v == ",":
                            expect = True
                        elif depth == 0 and expect and x.kind == "id":
                            enumerators.append(v)
                            expect = False
                    out.append({"name": name, "line": line,
                                "enumerators": enumerators})
                    i = end
                    continue
        i += 1
    return out


def _switches(toks):
    out = []
    i = 0
    while i < len(toks):
        if (toks[i].kind == "id" and toks[i].value == "switch"
                and i + 1 < len(toks) and toks[i + 1].value == "("):
            line = toks[i].line
            close = _match_paren(toks, i + 1)
            subject_ids = [t.value for t in toks[i + 2 : close]
                           if t.kind == "id"]
            b = close + 1
            if b < len(toks) and toks[b].value == "{":
                end = model._match_brace(toks, b)
                body = toks[b + 1 : end - 1]
                labels, label_ids = [], []
                has_default, default_guarded = False, False
                depth, m = 0, 0
                while m < len(body):
                    t = body[m]
                    v = t.value
                    if v == "{":
                        depth += 1
                    elif v == "}":
                        depth -= 1
                    elif depth == 0 and t.kind == "id" and v == "case":
                        lab = []
                        m += 1
                        while m < len(body) and body[m].value != ":":
                            lab.append(body[m])
                            m += 1
                        labels.append("".join(x.value for x in lab))
                        ids = [x.value for x in lab if x.kind == "id"]
                        if ids:
                            label_ids.append(ids[-1])
                        continue
                    elif depth == 0 and t.kind == "id" and v == "default":
                        has_default = True
                        m2 = m + 1
                        while m2 < len(body) and body[m2].value != ":":
                            m2 += 1
                        d, m3, seg = 0, m2 + 1, []
                        while m3 < len(body):
                            vv = body[m3].value
                            if vv == "{":
                                d += 1
                            elif vv == "}":
                                d -= 1
                            elif (d == 0 and body[m3].kind == "id"
                                  and vv in ("case", "default")):
                                break
                            seg.append(body[m3])
                            m3 += 1
                        default_guarded = any(
                            x.kind == "id" and x.value in GUARD_IDS
                            for x in seg)
                        m = m3
                        continue
                    m += 1
                out.append({"line": line, "subject_ids": subject_ids,
                            "labels": labels, "label_ids": label_ids,
                            "has_default": has_default,
                            "default_guarded": default_guarded})
                # Do NOT jump past the body: nested switches are found
                # by the continuing scan (their labels sit at depth>0
                # of this body, so they were not miscounted above).
        i += 1
    return out


def _template_spans(toks):
    """Token-index spans [lo, hi] of template<...> parameter lists."""
    spans = []
    i = 0
    while i < len(toks):
        if (toks[i].kind == "id" and toks[i].value == "template"
                and i + 1 < len(toks) and toks[i + 1].value == "<"):
            depth, j = 0, i + 1
            while j < len(toks):
                v = toks[j].value
                if v == "<":
                    depth += 1
                elif v == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif v == ">>":
                    depth -= 2
                    if depth <= 0:
                        break
                elif v in ("{", ";"):
                    break  # mis-nested: bail, span ends here
                j += 1
            spans.append((i, j))
            i = j
        i += 1
    return spans


_INT_TYPES = {"U64", "uint64_t", "U32", "uint32_t", "S64", "int64_t",
              "size_t", "int", "long", "unsigned"}
_DECL_FOLLOWERS = {";", "=", ",", ")", "{", "[", ":"}


# Address-kind declaration vocabulary: the deliberately narrow
# substring set from DESIGN.md §15 — names this specific are always
# guest addresses, so a raw-integer declaration is always a defect.
# (The taint analysis in rules/address_kind.py uses the broader
# cfg.addr_kind() vocabulary; bare `va`/`pa` locals are too ambiguous
# to flag at declaration.)
_ADDR_DECL_SUFFIX_TYPE = (("vaddr", "GuestVirt"), ("paddr", "GuestPhys"),
                          ("pfn", "Pfn"), ("vpn", "Vpn"))


def addr_decl_type(name):
    """Suggested strong type for an address-named declaration, or
    None when the name is not address-kind-specific."""
    n = name.lower()
    for sub, strong in _ADDR_DECL_SUFFIX_TYPE:
        if sub in n:
            return strong
    return None


def _scan_stream(toks):
    """One pass for addr_decls, never_stmts and watch occurrences."""
    spans = _template_spans(toks)

    def in_template(i):
        return any(lo <= i <= hi for lo, hi in spans)

    addr_decls, never_stmts, watch = [], [], []
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind == "id":
            if (t.value in _INT_TYPES and i + 1 < n
                    and toks[i + 1].kind == "id"
                    and (i + 2 >= n
                         or toks[i + 2].value in _DECL_FOLLOWERS)):
                if addr_decl_type(toks[i + 1].value):
                    addr_decls.append((toks[i + 1].line, t.value,
                                       toks[i + 1].value,
                                       bool(in_template(i + 1))))
            if t.value in WATCHLIST:
                prev = toks[i - 1].value if i > 0 else None
                nxt = toks[i + 1].value if i + 1 < n else None
                nxt2 = toks[i + 2].value if i + 2 < n else None
                watch.append((t.line, t.value, prev, nxt, nxt2))
        elif (t.value == "~" and i + 1 < n and toks[i + 1].kind == "num"
              and toks[i + 1].value.lower() in ("0ull", "0ul")):
            lo = i
            while lo > 0 and toks[lo].value not in (";", "{", "}"):
                lo -= 1
            hi = i
            while hi < n - 1 and toks[hi].value not in (";", "{"):
                hi += 1
            stamp = next((x.value for x in toks[lo:hi]
                          if x.kind == "id"
                          and cfg_mod.is_stamp_name(x.value)),
                         None)
            never_stmts.append((t.line, stamp))
    return addr_decls, never_stmts, watch


# ---------------------------------------------------------------------
# Call-graph and container-iteration facts
# ---------------------------------------------------------------------

_UNORDERED_TYPES = frozenset({
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
})

_ITER_CALLS = frozenset({"begin", "cbegin"})


def _func_facts(units):
    """Call-graph nodes: one dict per function unit.  Each node also
    carries its serialized CFG (and any lambda sub-CFGs, keyed by
    their synthetic quals) for the flow-sensitive rules."""
    out = []
    for qual, unit, line, params in units:
        calls = []
        n = len(unit)
        lo = min((t.line for t in unit), default=line)
        hi = max((t.line for t in unit), default=line)
        for i, t in enumerate(unit):
            if t.kind != "id":
                continue
            if (i + 1 < n and unit[i + 1].value == "("
                    and t.value not in model._NOT_FUNC_IDS):
                calls.append([t.line, t.value])
        cfgs = cfg_mod.build_cfg(qual, unit, params)
        node = {"qual": qual, "line": min(line, lo), "lo": lo,
                "hi": hi, "calls": calls,
                "cfg": cfgs[0][1],
                "subcfgs": {q: c for q, c in cfgs[1:]}}
        out.append(node)
    return out


def _unordered_decls(toks):
    """(line, name) for declarations whose type is an unordered
    container: `std::unordered_map<K, V> name`."""
    out = []
    i, n = 0, len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.value in _UNORDERED_TYPES:
            j = i + 1
            if j < n and toks[j].value == "<":
                depth = 0
                while j < n:
                    v = toks[j].value
                    if v == "<":
                        depth += 1
                    elif v == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    elif v == ">>":
                        depth -= 2
                        if depth <= 0:
                            break
                    elif v in (";", "{"):
                        break
                    j += 1
                j += 1
            while j < n and toks[j].value in ("*", "&", "&&", "const"):
                j += 1
            if j < n and toks[j].kind == "id":
                out.append((toks[j].line, toks[j].value))
                i = j
        i += 1
    return out


def _iter_sites(toks):
    """Container-iteration sites: range-for subjects and explicit
    .begin()/.cbegin() receivers, as (line, [ids])."""
    out = []
    i, n = 0, len(toks)
    while i < n:
        t = toks[i]
        if (t.kind == "id" and t.value == "for"
                and i + 1 < n and toks[i + 1].value == "("):
            close = _match_paren(toks, i + 1)
            inner = toks[i + 2 : close]
            depth, colon = 0, None
            for k, x in enumerate(inner):
                v = x.value
                if v in ("(", "[", "{"):
                    depth += 1
                elif v in (")", "]", "}"):
                    depth -= 1
                elif v == ":" and depth == 0:
                    colon = k
                    break
                elif v == ";" and depth == 0:
                    break  # classic for loop, no range subject
            if colon is not None:
                ids = [x.value for x in inner[colon + 1 :]
                       if x.kind == "id"]
                if ids:
                    out.append((t.line, ids))
        elif (t.kind == "id" and t.value in _ITER_CALLS
              and i + 1 < n and toks[i + 1].value == "("
              and i >= 2 and toks[i - 1].value in (".", "->")
              and toks[i - 2].kind == "id"):
            out.append((t.line, [toks[i - 2].value]))
        i += 1
    return out


def _binds(units):
    """Map "Class::method" -> member names bound through a StatsTree.

    A bind is an init-list entry / call `name(args)` or `name{args}`
    whose args mention the id `counter` (i.e. stats.counter(...)), an
    assignment `name = ... counter(...) ...`, or a single-identifier
    forwarding entry `name(other_ref)` (constructor parameter
    forwarding — over-collects, but only Counter-typed members ever
    consult this table).
    """
    out = {}
    for qual, unit in units:
        names = set()
        n = len(unit)
        for i, t in enumerate(unit):
            if (t.kind == "id" and t.value != "counter" and i + 1 < n
                    and unit[i + 1].value in ("(", "{")):
                open_v = unit[i + 1].value
                close_v = ")" if open_v == "(" else "}"
                d, j = 0, i + 1
                while j < n:
                    v = unit[j].value
                    if v == open_v:
                        d += 1
                    elif v == close_v:
                        d -= 1
                        if d == 0:
                            break
                    j += 1
                inner = unit[i + 2 : j]
                if any(x.kind == "id" and x.value == "counter"
                       for x in inner):
                    names.add(t.value)
                elif (open_v == "(" and len(inner) == 1
                      and inner[0].kind == "id"):
                    names.add(t.value)
        # Assignments: split on ';', look for `name = ... counter (`.
        stmt = []
        for t in unit:
            if t.value == ";":
                _assign_binds(stmt, names)
                stmt = []
            else:
                stmt.append(t)
        _assign_binds(stmt, names)
        if names:
            out.setdefault(qual, set()).update(names)
    return out


def _assign_binds(stmt, names):
    has_counter = any(
        t.kind == "id" and t.value == "counter"
        and i + 1 < len(stmt) and stmt[i + 1].value == "("
        for i, t in enumerate(stmt))
    if not has_counter:
        return
    for i, t in enumerate(stmt):
        if t.value == "=" and i > 0 and stmt[i - 1].kind == "id":
            names.add(stmt[i - 1].value)


def build(path, rel, sha=None, text=None):
    if text is None:
        with open(path, "rb") as f:
            raw = f.read()
        text = raw.decode("utf-8", errors="replace")
        if sha is None:
            sha = hashlib.sha256(raw).hexdigest()
    elif sha is None:
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    lf = lexer.LexedFile(path, text)
    toks = lf.tokens
    units_ex = list(model.function_units_ex(lf))
    units = [(qual, unit) for qual, unit, _line, _params in units_ex]
    bodies = {}
    for qual, unit in units:
        bodies.setdefault(qual, set()).update(
            t.value for t in unit if t.kind == "id")
    addr_decls, never_stmts, watch = _scan_stream(toks)
    data = {
        "includes": _includes(toks),
        "classes": [
            {"name": c.name, "line": c.line,
             "members": [(m.name, m.line, m.type, m.kind)
                         for m in c.members],
             "methods": c.methods}
            for c in model.classes(lf)],
        "enums": _enums(toks),
        "bodies": bodies,
        "binds": _binds(units),
        "switches": _switches(toks),
        "addr_decls": addr_decls,
        "never_stmts": never_stmts,
        "watch": watch,
        "waivers": {ln: set(ns) for ln, ns in lf.waivers.items()},
        "funcs": _func_facts(units_ex),
        "unordered_decls": _unordered_decls(toks),
        "iter_sites": _iter_sites(toks),
    }
    return FileIndex(path, rel, sha, data)


# ---------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------

_FINGERPRINT = None


def toolchain_fingerprint():
    """sha256 over every analyzer source file and config table.

    Used as the `env` component of the cache key: editing any rule,
    the lexer, this module, or layers.toml must invalidate every
    cached index — otherwise a cache written by an older analyzer can
    serve facts the new rules misread (the staleness bug this fixes
    was exactly that: tweak a rule, get yesterday's verdicts).
    """
    global _FINGERPRINT
    if _FINGERPRINT is not None:
        return _FINGERPRINT
    root = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    paths = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in filenames:
            if fn.endswith((".py", ".toml")):
                paths.append(os.path.join(dirpath, fn))
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).replace("\\", "/").encode())
        h.update(b"\0")
        try:
            with open(p, "rb") as f:
                h.update(f.read())
        except OSError:
            pass
        h.update(b"\0")
    _FINGERPRINT = h.hexdigest()
    return _FINGERPRINT


def _cache_path(cache_dir, rel):
    safe = rel.replace("\\", "/").replace("/", "__")
    return os.path.join(cache_dir, safe + ".json")


def load_or_build(path, rel, cache_dir=None, env=None):
    """Return (FileIndex, cache_hit).

    `env` is the analyzer fingerprint the cache entry must match; it
    defaults to toolchain_fingerprint() so callers get staleness
    protection without opting in.
    """
    with open(path, "rb") as f:
        raw = f.read()
    sha = hashlib.sha256(raw).hexdigest()
    if env is None:
        env = toolchain_fingerprint()
    cpath = _cache_path(cache_dir, rel) if cache_dir else None
    if cpath and os.path.isfile(cpath):
        try:
            with open(cpath, "r", encoding="utf-8") as f:
                blob = json.load(f)
            if (blob.get("version") == INDEX_VERSION
                    and blob.get("sha") == sha
                    and blob.get("env") == env):
                return (FileIndex.from_data(path, rel, sha,
                                            blob["data"]), True)
        except (ValueError, OSError, KeyError, TypeError):
            pass  # corrupt/stale cache entry: rebuild below
    fi = build(path, rel, sha=sha,
               text=raw.decode("utf-8", errors="replace"))
    if cpath:
        try:
            os.makedirs(cache_dir, exist_ok=True)
            tmp = cpath + ".tmp"
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump({"version": INDEX_VERSION, "sha": sha,
                           "env": env, "data": fi.to_data()}, f)
            os.replace(tmp, cpath)
        except OSError:
            pass  # cache is best-effort
    return fi, False
