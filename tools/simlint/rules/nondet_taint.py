"""nondet-taint: no ambient entropy, no hash order reaching sys/stats.

PTLsim's checkpoints, record/replay and run-to-run determinism tests
depend on the simulation being a pure function of (config, guest
image, seed). Two entropy classes break that silently:

  entropy  wall-clock / libc randomness anywhere in src/: rand,
           srand, drand48, random_device, std::chrono clocks,
           gettimeofday, clock_gettime, std::time. Everything
           stochastic must draw from the explicitly seeded generator
           in lib/rng.h (exempt: it is the sanctioned source). Each
           call is reported where it happens, so it taints nothing
           upstream.
  order    iteration over a variable declared anywhere in the tree
           with an unordered container type (range-for subject or
           .begin()/.cbegin() receiver). Hash iteration order varies
           across libstdc++ versions and ASLR, but a table that is
           only probed is deterministic, so the declaration alone is
           never a finding. What matters is whether a src/sys/ or
           src/stats/ entry point (the serialized / statistics scope
           the checkpoint and stats machinery depends on) reaches the
           iteration, possibly three calls away — e.g. Machine::run ->
           audit -> CoherenceController::auditAll iterating an
           unordered_map. That is found by call-graph taint
           propagation over the index:

             graph  name-based and over-approximating: a call `f(...)`
                    edges to every indexed function whose unqualified
                    name is `f`; no type resolution, so virtual
                    dispatch and function pointers over-taint rather
                    than under-taint.

           A tainted entry is reported at its definition line with
           the full call chain down to the iteration, so the fix site
           is visible without re-running anything.

`time` is flagged only when it is unambiguously the libc call —
qualified with `::`, or passed the canonical null argument — so a
member named `time` (TimeKeeper *time) and its constructor-initializer
`time(&timekeeper)` stay legal.

Waiver: `// simlint: nondet-taint-ok` — on an entropy line it accepts
that call; on an iteration line it asserts the loop is
order-independent (an erase-everything loop) and kills all taint
flowing from it; on an entry's definition line it exempts just that
entry.
"""

from ..index import WATCHLIST

NAME = "nondet-taint"
WAIVER = "nondet-taint-ok"

EXEMPT_PATH_SUFFIXES = ("lib/rng.h",)

# The index records every occurrence of these with context; `time`
# needs the call-shape check below.
_ENTROPY_IDS = WATCHLIST - {"time"}

_TIME_CALL_ARGS = {"nullptr", "NULL", "0"}

_ENTRY_SCOPE = ("src/sys/", "src/stats/")


def _last_component(qual):
    return qual.rsplit("::", 1)[-1]


def _containing_node(nodes_by_file, file_idx, line):
    """The tightest function span in this file containing `line`."""
    best = None
    for nid in nodes_by_file.get(file_idx, ()):
        fn = nid[2]
        if fn["lo"] <= line <= fn["hi"]:
            if best is None or (fn["hi"] - fn["lo"]
                                < best[2]["hi"] - best[2]["lo"]):
                best = nid
    return best


def run(ctx):
    from . import Finding

    files = ctx.files
    # Node = (file_idx, func_idx, func_dict); keyed by (fi, fj).
    nodes = []
    nodes_by_file = {}
    by_name = {}
    for i, fi in enumerate(files):
        for j, fn in enumerate(fi.funcs):
            nid = (i, j, fn)
            nodes.append(nid)
            nodes_by_file.setdefault(i, []).append(nid)
            by_name.setdefault(_last_component(fn["qual"]), []).append(nid)

    unordered_names = set()
    for fi in files:
        for _line, name in fi.unordered_decls:
            unordered_names.add(name)

    findings = []
    # Sinks: (node, description). Waived sink lines taint nothing.
    sinks = []
    for i, fi in enumerate(files):
        if not fi.rel.endswith(EXEMPT_PATH_SUFFIXES):
            for line, name, prev, nxt, nxt2 in fi.watch:
                if name in _ENTROPY_IDS:
                    msg = ("nondeterministic source '%s' — draw from "
                           "the seeded Rng in lib/rng.h instead" % name)
                elif (name == "time" and nxt == "("
                      and (prev == "::" or nxt2 in _TIME_CALL_ARGS)):
                    msg = ("wall-clock time() call — simulated time "
                           "comes from TimeKeeper, never the host clock")
                else:
                    continue
                if not fi.waived(line, WAIVER):
                    findings.append(Finding(NAME, fi.path, line, msg))
        for line, ids in fi.iter_sites:
            hit = unordered_names.intersection(ids)
            if not hit:
                continue
            if fi.waived(line, WAIVER):
                continue
            node = _containing_node(nodes_by_file, i, line)
            if node:
                sinks.append((node, "iteration over unordered '%s' "
                              "at %s:%d" % (sorted(hit)[0], fi.rel,
                                            line)))

    # Reverse edges: callee node -> [caller nodes].
    rev = {}
    for nid in nodes:
        for _line, callee in nid[2]["calls"]:
            for target in by_name.get(callee, ()):
                if target[:2] != nid[:2]:
                    rev.setdefault(target[:2], []).append(nid)

    # BFS from sinks; taint[key] = (sink_desc, next_key_toward_sink).
    taint = {}
    work = []
    for node, desc in sinks:
        key = node[:2]
        if key not in taint:
            taint[key] = (desc, None)
            work.append(node)
    while work:
        node = work.pop()
        key = node[:2]
        desc = taint[key][0]
        for caller in rev.get(key, ()):
            ckey = caller[:2]
            if ckey not in taint:
                taint[ckey] = (desc, key)
                work.append(caller)

    def chain(key):
        quals = []
        while key is not None:
            i, j = key
            quals.append(files[i].funcs[j]["qual"])
            key = taint[key][1]
        return quals

    for i, fi in enumerate(files):
        if not any(s in fi.rel for s in _ENTRY_SCOPE):
            continue
        for j, fn in enumerate(fi.funcs):
            key = (i, j)
            if key not in taint:
                continue
            line = fn["line"]
            if fi.waived(line, WAIVER):
                continue
            desc = taint[key][0]
            findings.append(Finding(
                NAME, fi.path, line,
                "'%s' transitively reaches %s — call chain: %s. "
                "Iterate in a deterministic order (std::map, sorted "
                "keys) or waive the loop line with `// simlint: "
                "nondet-taint-ok` and an order-independence argument"
                % (fn["qual"], desc, " -> ".join(chain(key)))))
    return findings
