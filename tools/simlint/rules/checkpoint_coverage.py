"""checkpoint-coverage: serialized classes must round-trip every field.

For every class/struct that declares BOTH a `serialize` and a
`restore` method, every non-static data member must be mentioned (by
name) in the serialize body AND in the restore body. A member that is
deliberately derived/rebuilt instead of serialized carries a
`// simlint: transient` waiver on its declaration line.

This is the rule that would have caught the classic checkpoint bug:
a new field added to MachineCheckpoint, written by capture, silently
ignored by restore — state that replays differently with no error.

v2: runs off the semantic index (classes + cross-file method bodies
are precomputed in pass 1), so the per-file token walks are gone.
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
            methods = cls["methods"]
            if "serialize" not in methods or "restore" not in methods:
                continue
            ser = bodies.get(cls["name"] + "::serialize")
            res = bodies.get(cls["name"] + "::restore")
            if ser is None or res is None:
                # Declared but no body anywhere in the analysis set
                # (e.g. an interface); nothing to check.
                continue
            for name, line, _mtype in cls["members"]:
                if fi.waived(line, WAIVER):
                    continue
                missing = []
                if name not in ser:
                    missing.append("serialize")
                if name not in res:
                    missing.append("restore")
                if missing:
                    findings.append(Finding(
                        NAME, fi.path, line,
                        "field '%s::%s' is not touched by %s "
                        "(serialize/restore must both cover every "
                        "member, or mark it `// simlint: transient` "
                        "and rebuild it on restore)"
                        % (cls["name"], name, " or ".join(missing))))
    return findings
