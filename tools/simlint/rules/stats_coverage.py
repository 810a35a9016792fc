"""stats-coverage: every stats counter is registered and survives
snapshot + reset — the statistics mirror of checkpoint-coverage.

PTLsim's results tables are only trustworthy if every counter a
module declares is actually wired into the PTLstats tree. Registered
counters (obtained via StatsTree::counter) are snapshotted and reset
by the tree itself, so the failure mode this rule hunts is the
*unwired* counter: a `Counter &` / `Counter *` member that no
constructor initializer, no attachStats-style assignment, ever binds
to the tree. Such a member reads zero forever (or dangles) and the
per-module stats block silently under-reports.

Two clauses:

  (a) registration — every member whose declared type is `Counter`
      must be bound in some method of its class: an initializer-list
      entry or assignment whose right-hand side reaches
      `.counter(...)`, or a single-reference forwarding entry
      (`c(c_)` from a constructor parameter).

  (b) snapshot/reset pairing — a class that owns raw numeric
      accumulators and declares BOTH a snapshot-style method
      (takeSnapshot/snapshot) and reset() must touch every
      Counter/U64-family member in both bodies, as
      checkpoint-coverage requires of a visit body.

Waiver: `// simlint: stats-ok` on the member's declaration line
(e.g. a Counter handle deliberately owned elsewhere).
"""

NAME = "stats-coverage"
WAIVER = "stats-ok"

_SNAP_METHODS = ("takeSnapshot", "snapshot")
_NUMERIC_TYPES = {"Counter", "U64", "uint64_t", "U32", "uint32_t",
                  "S64", "int64_t"}


def run(ctx):
    from . import Finding

    # Cross-file tables: bodies by qualified name, binds by class.
    bodies = {}
    binds_by_class = {}
    for fi in ctx.files:
        for qual, ids in fi.bodies.items():
            bodies.setdefault(qual, set()).update(ids)
        for qual, names in fi.binds.items():
            cls = qual.split("::", 1)[0]
            binds_by_class.setdefault(cls, set()).update(names)

    findings = []
    for fi in ctx.files:
        for cls in fi.classes:
            cname = cls["name"]
            bound = binds_by_class.get(cname, set())

            # (a) every Counter-typed member must be bound somewhere.
            for name, line, mtype, _kind in cls["members"]:
                if mtype != "Counter":
                    continue
                if fi.waived(line, WAIVER):
                    continue
                if name in bound:
                    continue
                findings.append(Finding(
                    NAME, fi.path, line,
                    "counter '%s::%s' is never bound to a StatsTree "
                    "(no init-list entry or assignment reaching "
                    ".counter(...)) — it will never appear in "
                    "snapshots; wire it or mark the declaration "
                    "`// simlint: stats-ok`" % (cname, name)))

            # (b) snapshot/reset pairing for raw accumulators.
            snap = next((m for m in _SNAP_METHODS
                         if m in cls["methods"]), None)
            if snap is None or "reset" not in cls["methods"]:
                continue
            snap_ids = bodies.get(cname + "::" + snap)
            reset_ids = bodies.get(cname + "::reset")
            if snap_ids is None or reset_ids is None:
                continue  # declared, defined outside the analysis set
            for name, line, mtype, _kind in cls["members"]:
                if mtype not in _NUMERIC_TYPES:
                    continue
                if fi.waived(line, WAIVER):
                    continue
                missing = []
                if name not in snap_ids:
                    missing.append(snap)
                if name not in reset_ids:
                    missing.append("reset")
                if missing:
                    findings.append(Finding(
                        NAME, fi.path, line,
                        "accumulator '%s::%s' is not touched by %s "
                        "(snapshot and reset must both cover every "
                        "numeric member, or mark it "
                        "`// simlint: stats-ok`)"
                        % (cname, name, " or ".join(missing))))
    return findings
