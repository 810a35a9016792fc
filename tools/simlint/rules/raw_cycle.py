"""raw-cycle: no untyped never-sentinel on cycle stamps.

Flags, outside lib/simtime.h, the untyped never-sentinel `~0ULL` (or
`~0UL`) in a statement that also names a cycle-stamp identifier —
that is the wraparound bug (`~0ULL + latency` == small cycle number)
the saturating CYCLE_NEVER exists to kill.

Stamp-ish names are cfg.is_stamp_name(): `now`, `cycle`, `due`,
`deadline`, and anything ending in `_cycle`, `_due`, `_deadline`,
`_until`, or `_stamp`. Plural `*_cycles` names are counts and are
not stamps.

A raw-integer *declaration* of a stamp is left to the type system:
every stamp in src/ is a SimCycle, and since its constructor is
explicit and it has no raw-integer arithmetic, turning one back into
a U64 breaks every use that arms, compares or stores it
(`until = now + cycles(n)`, `until <= now`). String literals are
opaque to the lexer (raw strings lex as single tokens), so
sentinel-like text in documentation never reaches the scanner.

Waiver: `// simlint: raw-cycle-ok` on the offending line.
"""

NAME = "raw-cycle"
WAIVER = "raw-cycle-ok"

EXEMPT_PATH_SUFFIXES = ("lib/simtime.h",)


def run(ctx):
    from . import Finding

    findings = []
    for fi in ctx.files:
        if fi.rel.endswith(EXEMPT_PATH_SUFFIXES):
            continue
        for line, stamp in fi.never_stmts:
            if stamp is None:
                continue
            if fi.waived(line, WAIVER):
                continue
            findings.append(Finding(
                NAME, fi.path, line,
                "untyped never-sentinel ~0ULL used with cycle "
                "stamp '%s' — use CYCLE_NEVER (saturating, "
                "cannot wrap)" % stamp))
    return findings
