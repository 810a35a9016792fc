"""Loader/validator for tools/simlint/layers.toml (the module DAG).

Returns a dict the layering rule consumes:

  rank    module -> layer index (0 = bottom)
  allow   set of (from_module, to_module) declared same-layer edges
  path    the config file path (for error reporting)
  sublayers  module -> {file stem -> group index} from [sublayers]
          (simlint v4): the intra-module ordering the layering rule
          applies to includes that stay inside one module

Raises LayerConfigError on a malformed config — unknown modules in
`allow` or [sublayers], duplicate module assignment, or an
`allow` edge that is not same-layer (upward edges can never be
declared legal; downward ones are implicitly legal and declaring
them is a sign of confusion).

Python >= 3.11 parses via tomllib; older interpreters fall back to a
tiny literal-eval reader that understands exactly the subset this
file uses (arrays of strings under [layers] / [sublayers]).
"""

import ast
import re


class LayerConfigError(Exception):
    pass


def _parse_toml(path):
    try:
        import tomllib
    except ImportError:
        tomllib = None
    if tomllib is not None:
        with open(path, "rb") as f:
            return tomllib.load(f)
    # Fallback: the arrays in this file are valid Python literals.
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"#[^\n]*", "", text)

    def grab_at(i):
        depth, j = 0, i
        while j < len(text):
            if text[j] == "[":
                depth += 1
            elif text[j] == "]":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        return ast.literal_eval(text[i : j + 1])

    def grab(key):
        m = re.search(r"(?<!\w)" + key + r"\s*=\s*(\[)", text)
        return grab_at(m.start(1)) if m else None

    layers = {}
    for key in ("order", "allow"):
        v = grab(key)
        if v is not None:
            layers[key] = v
    # [sublayers] keys are module names, so the section is scanned
    # generically rather than by a fixed key list.
    subl = {}
    sect = re.search(r"^\[sublayers\]", text, re.M)
    if sect:
        body = text[sect.end():]
        stop = re.search(r"^\[", body, re.M)
        if stop:
            body = body[: stop.start()]
        for m in re.finditer(r"(?<!\w)(\w+)\s*=\s*(\[)", body):
            subl[m.group(1)] = grab_at(sect.end() + m.start(2))
    return {"layers": layers, "sublayers": subl}


def load(path):
    data = _parse_toml(path)
    layers = data.get("layers", {})
    order = layers.get("order")
    if not order or not isinstance(order, list):
        raise LayerConfigError("%s: missing [layers] order" % path)
    rank = {}
    for i, group in enumerate(order):
        for mod in group:
            if mod in rank:
                raise LayerConfigError(
                    "%s: module '%s' assigned to two layers"
                    % (path, mod))
            rank[mod] = i
    allow = set()
    for edge in layers.get("allow", []):
        if len(edge) != 2:
            raise LayerConfigError(
                "%s: malformed allow edge %r" % (path, edge))
        src, dst = edge
        if src not in rank or dst not in rank:
            raise LayerConfigError(
                "%s: allow edge %s -> %s names an undeclared module"
                % (path, src, dst))
        if rank[dst] > rank[src]:
            raise LayerConfigError(
                "%s: allow edge %s -> %s goes UP the layer order — "
                "upward dependencies cannot be declared legal"
                % (path, src, dst))
        if rank[dst] < rank[src]:
            raise LayerConfigError(
                "%s: allow edge %s -> %s is downward — already "
                "implicitly legal, remove it" % (path, src, dst))
        allow.add((src, dst))
    sublayers = {}
    for mod, sub_order in (data.get("sublayers") or {}).items():
        if mod not in rank:
            raise LayerConfigError(
                "%s: [sublayers] names undeclared module '%s'"
                % (path, mod))
        if not sub_order or not isinstance(sub_order, list):
            raise LayerConfigError(
                "%s: [sublayers] %s must be a non-empty list of "
                "groups" % (path, mod))
        subrank = {}
        for i, group in enumerate(sub_order):
            for stem in group:
                if stem in subrank:
                    raise LayerConfigError(
                        "%s: [sublayers] %s assigns stem '%s' to two "
                        "groups" % (path, mod, stem))
                subrank[stem] = i
        sublayers[mod] = subrank
    return {"rank": rank, "allow": allow, "path": path,
            "sublayers": sublayers}
