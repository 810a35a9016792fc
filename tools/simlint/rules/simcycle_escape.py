"""simcycle-escape: .raw() escapes must not re-enter cycle math.

The SimCycle type makes raw-integer stamp arithmetic a compile error,
but `U64 t = now.raw(); ... t + latency ...` launders a cycle stamp
through an innocently named local and lands right back in the
wraparound/saturation bugs SimCycle/CycleDelta exist to prevent.
This rule runs a may-taint analysis over the CFG:

  gen   `x = <expr containing stamp.raw()>` taints x (stamp = `now`,
        `cycle`, `due`, `deadline` or a `_cycle/_due/_deadline/
        _until/_stamp` suffix — cfg.is_stamp_name(), as raw-cycle);
        `y = x` propagates; reassignment from untainted sources
        kills.
  sink  a tainted local in `+ - += -=`, or in an ordering comparison
        (`< > <= >=`) against a stamp-named value, another tainted
        local, or a direct `.raw()` call.  `==`/`!=` are exempt
        (identity checks of serialized stamps are the legitimate use
        of .raw()), as are `* / %` (stats bucketing and cadence
        math).

One level of interprocedural propagation: an argument that passes
`stamp.raw()` *unwrapped* into a repo function taints the matching
parameter of that function (re-wrapping through SimCycle(...)/
CycleDelta(...) at the call site does not taint — the value is back
in the strong domain).

lib/simtime.h is exempt (it is the implementation of the strong
types).  Waiver: `// simlint: raw-escape-ok(<why>)` on the sink line;
the argument is mandatory.
"""

from .. import cfg as cfg_mod
from .. import dataflow

NAME = "simcycle-escape"
WAIVER = "raw-escape-ok"

EXEMPT_PATH_SUFFIXES = ("lib/simtime.h",)

_SINK_OPS = {"+", "-", "+=", "-="}
_CMP_OPS = {"<", ">", "<=", ">="}


def _leaf(qual):
    return qual.rsplit("::", 1)[-1]


def _transfer(facts, events):
    for ev in events:
        if ev[0] != "as":
            continue
        _k, _line, lhs, rhs_ids, raw_src = ev
        if raw_src is not None and cfg_mod.is_stamp_name(raw_src):
            facts.add(lhs)
        elif any(r in facts for r in rhs_ids):
            facts.add(lhs)
        else:
            facts.discard(lhs)
    return facts


def _param_taint(ctx):
    """Bare callee name -> set of tainted parameter indices, from
    `ca` events (args carrying an unwrapped stamp .raw())."""
    out = {}
    for fi in ctx.files:
        for fn in fi.funcs:
            cfg = fn.get("cfg")
            if not cfg:
                continue
            for blk in cfg["blocks"]:
                for ev in blk["e"]:
                    if ev[0] != "ca":
                        continue
                    _k, _line, callee, argidx, src = ev
                    if cfg_mod.is_stamp_name(src):
                        out.setdefault(callee, set()).add(argidx)
    return out


def _tainted_op(name, facts):
    return name in facts


def run(ctx):
    from . import Finding

    findings = []
    taint_in = _param_taint(ctx)

    for fi in ctx.files:
        if "src/" not in fi.rel:
            continue
        if fi.rel.endswith(EXEMPT_PATH_SUFFIXES):
            continue
        for fn in fi.funcs:
            cfgs = [(fn["qual"], fn.get("cfg"))]
            cfgs += list((fn.get("subcfgs") or {}).items())
            for qual, cfg in cfgs:
                if not cfg:
                    continue
                entry = set()
                leaf = _leaf(qual)
                if leaf in taint_in:
                    params = cfg.get("params") or []
                    for idx in taint_in[leaf]:
                        if idx < len(params):
                            entry.add(params[idx])
                inp = dataflow.solve(cfg["blocks"], entry, _transfer)
                _walk(fi, qual, cfg, inp, findings)
    return findings


def _walk(fi, qual, cfg, inp, findings):
    from . import Finding

    reported = set()
    for bi, blk in enumerate(cfg["blocks"]):
        cur = set(inp[bi] or ())
        for ev in blk["e"]:
            if ev[0] == "bo":
                _k, line, a, op, b = ev
                a_t = _tainted_op(a, cur)
                b_t = _tainted_op(b, cur)
                hit = None
                if op in _SINK_OPS and (a_t or b_t):
                    hit = a if a_t else b
                elif op in _CMP_OPS and (a_t or b_t):
                    other = b if a_t else a
                    if (a_t and b_t) or other.endswith(".raw") \
                            or cfg_mod.is_stamp_name(other):
                        hit = a if a_t else b
                if hit is not None and (line, hit) not in reported:
                    reported.add((line, hit))
                    if fi.waived(line, WAIVER):
                        if not fi.waiver_arg(line, WAIVER):
                            findings.append(Finding(
                                NAME, fi.path, line,
                                "raw-escape-ok waiver on '%s' gives "
                                "no reason — write "
                                "raw-escape-ok(<why>)" % hit))
                        continue
                    findings.append(Finding(
                        NAME, fi.path, line,
                        "'%s' carries a SimCycle laundered through "
                        ".raw() and re-enters cycle arithmetic "
                        "('%s') in %s — keep it in "
                        "SimCycle/CycleDelta, or waive with "
                        "`// simlint: raw-escape-ok(<why>)`"
                        % (hit, op, qual)))
            _transfer(cur, [ev])
