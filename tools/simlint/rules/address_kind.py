"""address-kind: guest addresses must keep their virt/phys kind.

lib/guestaddr.h gives guest-virtual and guest-physical addresses
distinct strong types (GuestVirt/GuestPhys, Vpn/Pfn) whose algebra
rejects cross-kind mixing at compile time; translation through
AddressSpace::walk()/guestTranslate() is the only bridge between the
two.  That guarantee evaporates the moment a value is laundered
through `.raw()` into a raw integer — `U64 p = va.raw()` followed by
`p == paddr.raw()` is exactly the mixed-address-space comparison the
types exist to kill (the OOO LSQ's store-queue search had this bug:
virtual aliases of one physical frame defeated forwarding).

Two checks, same reporting name:

  1. Declaration lint: a raw-integer declaration whose name contains
     `vaddr`, `paddr`, `pfn` or `vpn` must use the matching strong
     type.  The vocabulary is deliberately narrow — names that
     specific are always guest addresses; ambiguous locals (`va`,
     `addr`) are left to the taint analysis.  Template parameter
     lists (`template <U64 base_vaddr = 0>`) declare compile-time
     constants, not variables, and are skipped.

  2. May-taint over the CFG (the simcycle-escape analog), with the
     taint carrying a *kind*:

     gen   `x = <expr containing A.raw()>` taints x with A's kind
           when A classifies as an address name (cfg.addr_kind:
           `va`/`*vaddr*`/`*vpn*`/`*_va` are virt, `pa`/`*paddr*`/
           `*pfn*`/`*mfn*`/`*_pa` are phys); `y = x` propagates;
           reassignment from unrelated sources kills.
     sink  a tainted value meeting evidence of the *opposite* kind in
           any binary op (+ - += -= < > <= >= == !=): another
           tainted local, a direct `<name>.raw()` of the opposite
           kind, or an identifier whose name classifies opposite.
           Same-kind raw math is left to the type system (it cannot
           mix kinds); equality is NOT exempt here — a virt/phys
           identity check is meaningless, unlike the serialized-stamp
           identity simcycle-escape tolerates.
     call  an argument passing `<virt>.raw()` unwrapped into a
           parameter whose name classifies phys (or vice versa), and
           the re-wrap constructors themselves: `GuestPhys(va.raw())`
           moves a value across the translation boundary without a
           page walk and is flagged directly.

One level of interprocedural propagation mirrors simcycle-escape: an
unwrapped address `.raw()` argument taints the matching parameter of
the callee (with its kind), so mixing inside the callee is caught.

lib/guestaddr.h is exempt (it implements the types).  Waiver:
`// simlint: addr-ok(<why>)` on the offending line; the reason is
mandatory — the legitimate sites are the documented ABI bridges
(register images, hashing, serialization, logging), and each one
must say which it is.
"""

from .. import cfg as cfg_mod
from .. import dataflow

NAME = "address-kind"
WAIVER = "addr-ok"

EXEMPT_PATH_SUFFIXES = ("lib/guestaddr.h",)

_OPPOSITE = {"virt": "phys", "phys": "virt"}

# Re-wrap constructors by the kind they produce; a raw value of the
# other kind flowing into one is a translation-boundary violation.
_WRAP_KIND = {"GuestVirt": "virt", "Vpn": "virt",
              "GuestPhys": "phys", "Pfn": "phys"}


def _leaf(qual):
    return qual.rsplit("::", 1)[-1]


def _transfer(facts, events):
    """Facts are (name, kind) pairs."""
    for ev in events:
        if ev[0] != "as":
            continue
        _k, _line, lhs, rhs_ids, raw_src = ev
        kind = cfg_mod.addr_kind(raw_src) if raw_src else None
        if kind is None:
            prop = {k for (n, k) in facts if n in rhs_ids}
        else:
            prop = {kind}
        facts.discard((lhs, "virt"))
        facts.discard((lhs, "phys"))
        for k in prop:
            facts.add((lhs, k))
    return facts


def _param_taint(ctx):
    """Bare callee name -> {param index: kind} from `ca` events whose
    source classifies as an address name."""
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
                    kind = cfg_mod.addr_kind(src)
                    if kind and callee not in _WRAP_KIND:
                        out.setdefault(callee, {})[argidx] = kind
    return out


def _param_kinds(ctx):
    """Bare function name -> [addr kind or None per parameter], from
    every function definition's declared parameter names."""
    out = {}
    for fi in ctx.files:
        if fi.rel.endswith(EXEMPT_PATH_SUFFIXES):
            continue
        for fn in fi.funcs:
            cfg = fn.get("cfg")
            if not cfg:
                continue
            params = cfg.get("params") or []
            if params:
                out[_leaf(fn["qual"])] = [cfg_mod.addr_kind(p)
                                          for p in params]
    return out


def _op_evidence(name, facts):
    """(kinds, raw) for one binary operand: the address kinds there is
    evidence for, and whether that evidence is a raw escape (tainted
    local or direct .raw()) rather than just a well-named — and so
    presumably strongly typed — identifier."""
    if name.endswith(".raw"):
        k = cfg_mod.addr_kind(name[:-4])
        return ({k} if k else set()), True
    kinds = {k for (n, k) in facts if n == name}
    if kinds:
        return kinds, True
    k = cfg_mod.addr_kind(name)
    return ({k} if k else set()), False


def run(ctx):
    from . import Finding

    findings = []
    taint_in = _param_taint(ctx)
    param_kinds = _param_kinds(ctx)

    for fi in ctx.files:
        if fi.rel.endswith(EXEMPT_PATH_SUFFIXES):
            continue
        _decl_lint(fi, findings)
        for fn in fi.funcs:
            cfgs = [(fn["qual"], fn.get("cfg"))]
            cfgs += list((fn.get("subcfgs") or {}).items())
            for qual, cfg in cfgs:
                if not cfg:
                    continue
                entry = set()
                leaf = _leaf(qual)
                params = cfg.get("params") or []
                for idx, kind in taint_in.get(leaf, {}).items():
                    if idx < len(params):
                        entry.add((params[idx], kind))
                inp = dataflow.solve(cfg["blocks"], entry, _transfer)
                _walk(fi, qual, cfg, inp, param_kinds, findings)
    return findings


def _decl_lint(fi, findings):
    from . import Finding
    from ..index import addr_decl_type

    for line, itype, name, in_template in fi.addr_decls:
        if in_template:
            continue
        if fi.waived(line, WAIVER):
            if not fi.waiver_arg(line, WAIVER):
                findings.append(Finding(
                    NAME, fi.path, line,
                    "addr-ok waiver on '%s' gives no reason — "
                    "write addr-ok(<why>)" % name))
            continue
        findings.append(Finding(
            NAME, fi.path, line,
            "raw %s declaration of guest address '%s' — use %s "
            "from lib/guestaddr.h" % (itype, name,
                                      addr_decl_type(name))))


def _report(fi, line, msg, findings):
    from . import Finding

    if fi.waived(line, WAIVER):
        if not fi.waiver_arg(line, WAIVER):
            findings.append(Finding(
                NAME, fi.path, line,
                "addr-ok waiver gives no reason — write "
                "addr-ok(<why>)"))
        return
    findings.append(Finding(NAME, fi.path, line, msg))


def _walk(fi, qual, cfg, inp, param_kinds, findings):
    reported = set()
    for bi, blk in enumerate(cfg["blocks"]):
        cur = set(inp[bi] or ())
        for ev in blk["e"]:
            if ev[0] == "bo":
                _k, line, a, op, b = ev
                a_kinds, a_raw = _op_evidence(a, cur)
                b_kinds, b_raw = _op_evidence(b, cur)
                mixed = ("virt" in (a_kinds | b_kinds)
                         and "phys" in (a_kinds | b_kinds))
                if (mixed and (a_raw or b_raw)
                        and (line, a, b) not in reported):
                    reported.add((line, a, b))
                    _report(fi, line,
                            "'%s' (%s) and '%s' (%s) mix address "
                            "kinds through a raw escape ('%s') in %s "
                            "— translate through the address space, "
                            "or waive with `// simlint: "
                            "addr-ok(<why>)`"
                            % (a, "/".join(sorted(a_kinds)), b,
                               "/".join(sorted(b_kinds)), op, qual),
                            findings)
            elif ev[0] == "ca":
                _k, line, callee, argidx, src = ev
                src_kind = cfg_mod.addr_kind(src)
                sink_kind = None
                what = None
                if src_kind and callee in _WRAP_KIND:
                    if _WRAP_KIND[callee] == _OPPOSITE[src_kind]:
                        sink_kind = _WRAP_KIND[callee]
                        what = "re-wrapped as %s" % callee
                elif src_kind:
                    kinds = param_kinds.get(callee)
                    if kinds and argidx < len(kinds) \
                            and kinds[argidx] == _OPPOSITE[src_kind]:
                        sink_kind = kinds[argidx]
                        what = ("passed to %s-kind parameter of %s()"
                                % (sink_kind, callee))
                if sink_kind and (line, callee, src) not in reported:
                    reported.add((line, callee, src))
                    _report(fi, line,
                            "%s address '%s.raw()' %s in %s — raw "
                            "words do not cross the translation "
                            "boundary; walk the page tables, or "
                            "waive with `// simlint: addr-ok(<why>)`"
                            % (src_kind, src, what, qual),
                            findings)
            _transfer(cur, [ev])
