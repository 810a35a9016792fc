"""event-discipline: EventQueue callbacks stay non-reentrant.

EventQueue::runDue is documented "Not reentrant": a callback that
calls back into run()/step()/runDue() re-enters the dispatch loop
mid-dispatch and corrupts the pending heap. The bug only bites under
rare interleavings, which is exactly why it is a lint rule and not a
test case.

Checked inside every lambda passed to schedule()/sendAt(): no calls
to run / step / runDue / runUntil (method or free). Re-arming with a
further schedule() is fine.

Waiver: `// simlint: event-ok` on the offending line.
"""

NAME = "event-discipline"
WAIVER = "event-ok"

_REENTRANT = frozenset({"run", "step", "runDue", "runUntil"})


def run(ctx):
    from . import Finding

    findings = []
    for fi in ctx.files:
        for cb in fi.callbacks:
            for line, name, _prefixed in cb["calls"]:
                if name not in _REENTRANT:
                    continue
                if fi.waived(line, WAIVER):
                    continue
                findings.append(Finding(
                    NAME, fi.path, line,
                    "event callback calls %s() — EventQueue dispatch "
                    "is not reentrant; set state and let the outer "
                    "loop advance, or defer via a scheduled event"
                    % name))
    return findings
