"""checkpoint-coverage: a checkpointed class visits every member.

A class is checkpointed when it has a `visit(Archive &)` body: one
symmetric walk that saves and loads it through lib/archive.h. Every
non-static data member must be mentioned by name in that body, unless
the type system already fixes it at construction: a reference member
(`Counter &st_hits`) or a top-level const one (`EventQueue *const
queue`, `const MemBackendParams p`) can never be loaded, so it is
skipped. An assignable member left out on purpose (re-attached or
rebuilt rather than checkpointed) carries a `// simlint: transient`
waiver on its declaration line.

This is the rule that catches the classic checkpoint bug: state added
to an owner but never captured, which then replays differently with
no error. The order in which a visit body walks its members needs no
check: the same walk saves and loads.
"""

NAME = "checkpoint-coverage"
WAIVER = "transient"


def run(ctx):
    from . import Finding

    # Bodies may be out-of-line in a .cc far from the class
    # definition; merge across the whole analysis set.
    bodies = {}
    for fi in ctx.files:
        for qual, ids in fi.bodies.items():
            bodies.setdefault(qual, set()).update(ids)

    findings = []
    for fi in ctx.files:
        for cls in fi.classes:
            body = bodies.get(cls["name"] + "::visit")
            if body is None:
                # No visit body anywhere in the analysis set (not
                # checkpointed, or a pure interface); nothing to check.
                continue
            for name, line, _mtype, kind in cls["members"]:
                if kind or name in body or fi.waived(line, WAIVER):
                    continue
                findings.append(Finding(
                    NAME, fi.path, line,
                    "field '%s::%s' is not touched by visit (visit must "
                    "cover every member: declare one that is fixed at "
                    "construction `const`, or mark it `// simlint: "
                    "transient` and rebuild it on load)"
                    % (cls["name"], name)))
    return findings
