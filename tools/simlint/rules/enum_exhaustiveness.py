"""enum-exhaustiveness: switches over registered enums cover everything.

For the enums that gate simulator correctness — uop functional-unit
classes, hypercall/ptlcall ids — a switch that silently falls through
on a newly added enumerator is a latent wrong-results bug (a new uop
class issuing with a default latency, a new hypercall dropped on the
floor). Every `switch` whose case
labels name enumerators of a REGISTERED enum must either:

  - cover every enumerator, or
  - carry an explicit `default:` whose body reaches a guard
    (ptl_assert / ptl_warn_once / fatal / ...), so the gap is loud.

Registration is by enum name; add new correctness-critical enums to
REGISTERED and the rule picks up their definitions from the index
(wherever in the tree they live). Waiver: `// simlint: enum-ok` on
the switch line.
"""

NAME = "enum-exhaustiveness"
WAIVER = "enum-ok"

# Correctness-critical enums: a non-exhaustive switch over one of
# these is a simulation-accuracy bug, not a style issue.
REGISTERED = frozenset({
    "UopClass",     # uop functional-unit class (latency/port choice)
    "Hypercall",    # guest->hypervisor call ids
    "PtlcallOp",    # guest->simulator PTLcall ids
})


def run(ctx):
    from . import Finding

    enums = {}             # enum name -> frozenset of enumerators
    enum_of = {}           # enumerator -> enum name
    for fi in ctx.files:
        for e in fi.enums:
            if e["name"] in REGISTERED and e["enumerators"]:
                enums[e["name"]] = set(e["enumerators"])
                for x in e["enumerators"]:
                    enum_of.setdefault(x, e["name"])

    findings = []
    for fi in ctx.files:
        for sw in fi.switches:
            # Qualified labels name their enum directly; trust that
            # and never fall back to bare-enumerator lookup for them
            # (UopOp::Fence must not be mistaken for UopClass just
            # because both enums spell a `Fence`). Bare labels (HC_*)
            # resolve through the enumerator table.
            quals = {lab.split("::")[-2]
                     for lab in sw["labels"] if "::" in lab}
            if quals:
                target = next((q for q in quals if q in enums), None)
            else:
                target = next((enum_of[lid]
                               for lid in sw["label_ids"]
                               if lid in enum_of), None)
            if target is None:
                continue
            if fi.waived(sw["line"], WAIVER):
                continue
            missing = sorted(enums[target] - set(sw["label_ids"]))
            if not missing:
                continue
            if sw["has_default"] and sw["default_guarded"]:
                continue
            if sw["has_default"]:
                findings.append(Finding(
                    NAME, fi.path, sw["line"],
                    "switch over %s is not exhaustive (missing: %s) "
                    "and its default: is silent — make the default "
                    "body ptl_assert/ptl_warn_once so new "
                    "enumerators fail loudly" % (target,
                                                 ", ".join(missing))))
            else:
                findings.append(Finding(
                    NAME, fi.path, sw["line"],
                    "switch over %s is not exhaustive: missing %s — "
                    "cover every enumerator or add a guarded "
                    "default:" % (target, ", ".join(missing))))
    return findings
