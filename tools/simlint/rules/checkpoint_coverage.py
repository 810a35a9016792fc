"""checkpoint-coverage: checkpointed classes must cover every field.

A class is checkpointed when it declares a `visit` method (one
symmetric body that saves and loads through lib/archive.h) or BOTH a
`serialize` and a `restore` method. Every non-static data member must
be mentioned (by name) in the visit body, or in the serialize body AND
the restore body. A member that is deliberately derived/rebuilt
instead of checkpointed carries a `// simlint: transient` waiver on
its declaration line.

This is the rule that would have caught the classic checkpoint bug:
a new field added to MachineCheckpoint, written by capture, silently
ignored by restore — state that replays differently with no error.
The order in which a visit body walks its fields needs no check: the
same walk saves and loads.

v2: runs off the semantic index (classes + cross-file method bodies
are precomputed in pass 1), so the per-file token walks are gone.
"""

NAME = "checkpoint-coverage"
WAIVER = "transient"


def _walks(cls):
    """The checkpoint method names a class must cover its members
    in, or () when it has none."""
    methods = cls["methods"]
    if "visit" in methods:
        return ("visit",)
    if "serialize" in methods and "restore" in methods:
        return ("serialize", "restore")
    return ()


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
            walks = _walks(cls)
            ids = [bodies.get(cls["name"] + "::" + m) for m in walks]
            if not walks or None in ids:
                # Declared but no body anywhere in the analysis set
                # (e.g. an interface); nothing to check.
                continue
            for name, line, _mtype in cls["members"]:
                if fi.waived(line, WAIVER):
                    continue
                missing = [m for m, body in zip(walks, ids)
                           if name not in body]
                if missing:
                    findings.append(Finding(
                        NAME, fi.path, line,
                        "field '%s::%s' is not touched by %s (%s "
                        "must cover every member, or mark it "
                        "`// simlint: transient` and rebuild it on "
                        "load)"
                        % (cls["name"], name, " or ".join(missing),
                           "/".join(walks))))
    return findings
