#!/usr/bin/env python3
"""simlint driver: PTLsim-specific static analysis over src/.

Two-pass: pass 1 builds (or loads from cache) a per-file semantic
index — includes, classes/members, enums, function bodies, switches,
call-graph nodes with their CFGs — keyed by content hash under
build/simlint-cache/; pass 2 runs the rules against the index, so
warm runs only re-analyze files whose content changed.

Usage:
  scripts/simlint.py [options] [paths...]

  paths        files or directories to analyze (default: src/ at the
               repository root). Directories are walked for
               .h/.cc/.cpp files.

Options:
  --rules R1,R2    run only the named rules (see --help-rules below)
  --diff BASE      report findings only for files changed vs the git
                   ref BASE (the whole tree is still indexed — rules
                   are cross-file — but the warm cache makes that
                   cheap); changed headers are closed over reverse
                   includes, so a finding reported at an including
                   .cc definition site still surfaces; intended for
                   pre-commit
  --self-test      run every rule against its golden fixtures under
                   tools/simlint/fixtures/<rule>/: each bad* fixture
                   must trip exactly its own rule, each good* fixture
                   must be clean under ALL rules, and every fixture
                   directory must belong to a registered rule
  --explain RULE   print the named rule's documentation followed by a
                   unified diff from its bad fixture to its good one
                   — the minimal edit that takes code from flagged to
                   clean; exits without analyzing anything
  --summary        print a per-rule findings/timing table, waiver
                   usage counts, and index cache statistics (markdown,
                   under a `## simlint` heading; the CI lint job
                   appends it to the job summary); with --baseline,
                   each count also shows its delta vs the baseline
  --no-cache       bypass the semantic-index cache entirely
  --baseline FILE  ratchet: per-rule finding counts and per-waiver
                   line counts must not exceed FILE, and FILE may name
                   only registered rules (exit 1 otherwise; tightening
                   is reported as a suggestion)
  --update-baseline  rewrite FILE from the current run instead of
                   checking it

Under CI=1 findings are emitted as GitHub workflow annotations
(::error file=...,line=...::) so they surface inline on PRs; the
plain `path:line: [rule] message` format is used locally.

Rules and waivers (line-scoped `// simlint: <waiver>` comments):
  layering             layering-ok     module DAG (layers.toml)
  checkpoint-coverage  transient       visit covers every field not
                                       fixed at construction
  stats-coverage       stats-ok        counter registration + snapshot
  enum-exhaustiveness  enum-ok         switches over registered enums
  raw-cycle            raw-cycle-ok    no ~0ULL never-sentinel on
                                       cycle stamps (CYCLE_NEVER)
  nondet-taint         nondet-taint-ok entropy calls anywhere; unordered
                                       iteration reaching sys/stats
                                       entry points (call graph)
  simcycle-escape      raw-escape-ok(..) .raw() taint back into cycle
                                       math (flow-sensitive)
  address-kind         addr-ok(..)     guest virt/phys kind mixing
                                       (flow-sensitive)

Exit status: 0 clean, 1 findings (or self-test failure), 2 usage or
configuration error.
"""

import argparse
import glob as globmod
import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from simlint import index as index_mod  # noqa: E402
from simlint import layers as layers_mod  # noqa: E402
from simlint import rules as rules_pkg  # noqa: E402

SOURCE_EXTS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")
LAYERS_TOML = os.path.join(REPO_ROOT, "tools", "simlint", "layers.toml")
FIXTURES_DIR = os.path.join(REPO_ROOT, "tools", "simlint", "fixtures")
DEFAULT_CACHE_DIR = os.path.join(REPO_ROOT, "build", "simlint-cache")


def collect_files(paths):
    out = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _, names in os.walk(p):
                for n in sorted(names):
                    if n.endswith(SOURCE_EXTS):
                        out.append(os.path.join(dirpath, n))
        elif os.path.isfile(p):
            out.append(p)
        else:
            print("simlint: no such path: %s" % p, file=sys.stderr)
            sys.exit(2)
    return sorted(set(os.path.abspath(f) for f in out))


def build_context(files, repo_root, layers, cache_dir):
    """Pass 1: index every file (cache-aware). Returns (ctx, stats)."""
    t0 = time.perf_counter()
    indexed, hits = [], 0
    for f in files:
        rel = os.path.relpath(f, repo_root).replace(os.sep, "/")
        fi, hit = index_mod.load_or_build(f, rel, cache_dir)
        hits += hit
        indexed.append(fi)
    ms = (time.perf_counter() - t0) * 1e3
    ctx = rules_pkg.AnalysisContext(files=indexed,
                                    repo_root=repo_root,
                                    layers=layers)
    return ctx, {"files": len(files), "cache_hits": hits,
                 "index_ms": ms}


def run_rules(rule_mods, ctx):
    """Pass 2. Returns (findings, {rule: ms})."""
    findings, timings = [], {}
    for mod in rule_mods:
        t0 = time.perf_counter()
        findings.extend(mod.run(ctx))
        timings[mod.NAME] = (time.perf_counter() - t0) * 1e3
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, timings


def changed_files(base):
    """Repo-relative paths changed vs `base` (plus untracked)."""
    def git(*args):
        return subprocess.run(
            ("git",) + args, cwd=REPO_ROOT, check=True,
            stdout=subprocess.PIPE, text=True).stdout.splitlines()
    try:
        out = git("diff", "--name-only", base)
        out += git("ls-files", "--others", "--exclude-standard")
    except (subprocess.CalledProcessError, OSError) as e:
        print("simlint: --diff %s: %s" % (base, e), file=sys.stderr)
        sys.exit(2)
    return {p.strip().replace(os.sep, "/") for p in out if p.strip()}


def expand_changed(changed, ctx):
    """Close the changed set over reverse includes: an edit to a
    header can surface findings in any TU that (transitively)
    includes it — rules report coverage defects at the .cc
    definition site — and the plain path filter would silently drop
    those.  Include strings are resolved against the src/ include
    root and against the including file's own directory."""
    rels = {fi.rel for fi in ctx.files}
    rev = {}  # target rel -> set of direct includer rels
    for fi in ctx.files:
        base_dir = fi.rel.rsplit("/", 1)[0] if "/" in fi.rel else ""
        root = fi.rel.split("/", 1)[0] if "/" in fi.rel else ""
        for _line, inc in fi.includes:
            inc = inc.replace("\\", "/")
            for cand in ((root + "/" + inc) if root else inc,
                         (base_dir + "/" + inc) if base_dir else inc,
                         inc):
                if cand in rels:
                    rev.setdefault(cand, set()).add(fi.rel)
                    break
    out = set(changed)
    work = [p for p in changed if p in rev]
    while work:
        p = work.pop()
        for includer in rev.get(p, ()):
            if includer not in out:
                out.add(includer)
                work.append(includer)
    return out


def print_findings(findings, repo_root):
    ci = os.environ.get("CI") == "1"
    for f in findings:
        rel = os.path.relpath(f.path, repo_root).replace(os.sep, "/")
        if ci:
            # GitHub workflow annotation: shows inline on the PR diff.
            print("::error file=%s,line=%d,title=simlint[%s]::%s"
                  % (rel, f.line, f.rule, f.message))
        else:
            print("%s:%d: [%s] %s" % (rel, f.line, f.rule, f.message))


def waiver_counts(ctx):
    """Waived-line counts per waiver name (arguments stripped), over
    every analyzed file. A growing count is a debt signal the CI
    summary makes visible."""
    counts = {}
    for fi in ctx.files:
        for names in fi.waivers.values():
            for w in names:
                base = w.split("(", 1)[0].strip()
                counts[base] = counts.get(base, 0) + 1
    return counts


def print_summary(rule_mods, findings, timings, stats, ctx, base):
    """Markdown tables under a `## simlint` heading.  A loaded
    baseline `base` (None without --baseline) adds a "vs baseline"
    delta column after each count."""
    def row(*cells):
        print("| " + " | ".join(cells) + " |")

    def delta(section, name, cur):
        if base is None:
            return []
        d = cur - base.get(section, {}).get(name, 0)
        return ["%+d" % d if d else "="]

    vs = [] if base is None else ["vs baseline"]
    pad = [""] * len(vs)
    print()
    print("## simlint")
    row("rule", "findings", *vs, "time (ms)")
    row("---", "---:", *["---:"] * len(vs), "---:")
    for mod in rule_mods:
        n = sum(1 for f in findings if f.rule == mod.NAME)
        row(mod.NAME, "%d" % n, *delta("rules", mod.NAME, n),
            "%.1f" % timings.get(mod.NAME, 0.0))
    row("index (pass 1)", "%d files" % stats["files"], *pad,
        "%.1f" % stats["index_ms"])
    row("index cache hits",
        "%d / %d" % (stats["cache_hits"], stats["files"]), *pad, "")
    row("total", "", *pad,
        "%.1f" % (stats["index_ms"] + sum(timings.values())))
    waivers = waiver_counts(ctx)
    names = set(waivers) | set((base or {}).get("waivers", {}))
    if names:
        print()
        row("waiver", "lines", *vs)
        row("---", "---:", *["---:"] * len(vs))
        for name in sorted(names):
            n = waivers.get(name, 0)
            row(name, "%d" % n, *delta("waivers", name, n))


def load_baseline(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print("simlint: cannot read baseline %s: %s" % (path, e),
              file=sys.stderr)
        return None


def check_baseline(path, base, rule_mods, findings, ctx, update):
    """Ratchet: per-rule finding counts and per-waiver line counts may
    only go down relative to the committed baseline `base` (loaded
    from `path`; None when unreadable).  Returns the number of
    violations (0 when clean or when updating)."""
    current = {
        "rules": {mod.NAME: sum(1 for f in findings
                                if f.rule == mod.NAME)
                  for mod in rule_mods},
        "waivers": waiver_counts(ctx),
    }
    if update:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print("simlint: baseline updated: %s" % path)
        return 0
    if base is None:
        return 1
    errors = 0
    improvable = []
    for name in sorted(base.get("rules", {})):
        if name not in rules_pkg.BY_NAME:
            print("simlint: baseline ratchet: baseline names rule "
                  "'%s', which no registered rule has — remove its "
                  "entry" % name, file=sys.stderr)
            errors += 1
    for name, cur in sorted(current["rules"].items()):
        allowed = base.get("rules", {}).get(name, 0)
        if cur > allowed:
            print("simlint: baseline ratchet: rule '%s' has %d "
                  "finding(s), baseline allows %d" % (name, cur,
                                                      allowed),
                  file=sys.stderr)
            errors += 1
        elif cur < allowed:
            improvable.append("%s %d->%d" % (name, allowed, cur))
    for name, cur in sorted(current["waivers"].items()):
        allowed = base.get("waivers", {}).get(name, 0)
        if cur > allowed:
            print("simlint: baseline ratchet: waiver '%s' is on %d "
                  "line(s), baseline allows %d — new waivers need a "
                  "conscious `--update-baseline`" % (name, cur,
                                                     allowed),
                  file=sys.stderr)
            errors += 1
        elif cur < allowed:
            improvable.append("waiver %s %d->%d" % (name, allowed,
                                                    cur))
    for name, allowed in sorted(base.get("waivers", {}).items()):
        if allowed and name not in current["waivers"]:
            improvable.append("waiver %s %d->0" % (name, allowed))
    if improvable:
        print("simlint: baseline can tighten (--update-baseline): %s"
              % ", ".join(improvable))
    return errors


def _fixture_sets(rule_dir):
    """Yield (kind, root, files) for bad*/good* fixtures: single .cc
    files or directory trees (used by layering, whose subject is the
    path structure itself)."""
    for pattern, kind in (("bad*", "bad"), ("good*", "good")):
        for p in sorted(globmod.glob(os.path.join(rule_dir, pattern))):
            if os.path.isdir(p):
                yield kind, p, collect_files([p])
            elif p.endswith(SOURCE_EXTS):
                yield kind, os.path.dirname(p), [os.path.abspath(p)]


def explain(name):
    """Print a rule's module docstring and a bad->good fixture diff.

    The docstring is the rule's reference documentation (every rule
    module carries one); the diff shows the smallest edit that takes
    the golden bad fixture to the golden good one, which is usually
    the fastest way to see what the rule wants changed.
    """
    import difflib
    import inspect

    if name not in rules_pkg.BY_NAME:
        print("simlint: unknown rule '%s' (have: %s)"
              % (name, ", ".join(sorted(rules_pkg.BY_NAME))),
              file=sys.stderr)
        return 2
    mod = rules_pkg.BY_NAME[name]
    doc = inspect.getdoc(mod) or "(no documentation)"
    print(doc.rstrip())

    rule_dir = os.path.join(FIXTURES_DIR, name.replace("-", "_"))
    sets = list(_fixture_sets(rule_dir))
    bad = next((files for k, _, files in sets if k == "bad"), None)
    good = next((files for k, _, files in sets if k == "good"), None)
    if not bad or not good:
        print("\n(no golden fixtures under %s)" % rule_dir)
        return 0
    bad_f, good_f = bad[0], good[0]
    with open(bad_f, encoding="utf-8") as f:
        bad_lines = f.readlines()
    with open(good_f, encoding="utf-8") as f:
        good_lines = f.readlines()
    rel = lambda p: os.path.relpath(p, REPO_ROOT).replace(os.sep, "/")
    print("\n--- fixture diff: flagged -> clean "
          + "-" * 28)
    sys.stdout.writelines(difflib.unified_diff(
        bad_lines, good_lines, fromfile=rel(bad_f),
        tofile=rel(good_f)))
    return 0


def self_test(layers, fixtures=FIXTURES_DIR):
    failed = 0
    known = {mod.NAME.replace("-", "_") for mod in rules_pkg.ALL}
    for d in sorted(os.listdir(fixtures)):
        if os.path.isdir(os.path.join(fixtures, d)) and d not in known:
            print("self-test FAIL %s: fixture directory has no "
                  "registered rule" % d)
            failed += 1
    for mod in rules_pkg.ALL:
        rule_dir = os.path.join(fixtures, mod.NAME.replace("-", "_"))
        sets = list(_fixture_sets(rule_dir))
        if (not any(k == "bad" for k, _, _ in sets)
                or not any(k == "good" for k, _, _ in sets)):
            print("self-test FAIL %s: needs at least one bad and one "
                  "good fixture in %s" % (mod.NAME, rule_dir))
            failed += 1
            continue
        for kind, root, files in sets:
            # Index without cache: fixtures are tiny and must never
            # interact with the tree cache.
            ctx, _ = build_context(files, root, layers, None)
            found, _ = run_rules(rules_pkg.ALL, ctx)
            own = [f for f in found if f.rule == mod.NAME]
            other = [f for f in found if f.rule != mod.NAME]
            if kind == "bad":
                ok = bool(own) and not other
            else:
                ok = not found
            tag = "PASS" if ok else "FAIL"
            label = os.path.basename(files[0]) if len(files) == 1 \
                else os.path.basename(root) + "/"
            print("self-test %s %-20s %-22s (%d own, %d other)"
                  % (tag, mod.NAME, label, len(own), len(other)))
            if not ok:
                failed += 1
                for f in found:
                    print("    %s:%d: [%s] %s"
                          % (f.path, f.line, f.rule, f.message))
    return failed


def main():
    ap = argparse.ArgumentParser(add_help=True)
    ap.add_argument("--rules", default=None)
    ap.add_argument("--diff", metavar="BASE", default=None)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--explain", metavar="RULE", default=None)
    ap.add_argument("--summary", action="store_true")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--baseline", metavar="FILE", default=None)
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("paths", nargs="*")
    args = ap.parse_args()

    try:
        layers = layers_mod.load(LAYERS_TOML) \
            if os.path.isfile(LAYERS_TOML) else None
    except layers_mod.LayerConfigError as e:
        print("simlint: %s" % e, file=sys.stderr)
        return 2

    if args.rules:
        names = [n.strip() for n in args.rules.split(",")]
        unknown = [n for n in names if n not in rules_pkg.BY_NAME]
        if unknown:
            print("simlint: unknown rule(s): %s (have: %s)"
                  % (", ".join(unknown),
                     ", ".join(sorted(rules_pkg.BY_NAME))),
                  file=sys.stderr)
            return 2
        rule_mods = [rules_pkg.BY_NAME[n] for n in names]
    else:
        rule_mods = rules_pkg.ALL

    if args.explain:
        return explain(args.explain)

    if args.self_test:
        failed = self_test(layers)
        if failed:
            print("simlint self-test: %d case(s) FAILED" % failed)
            return 1
        print("simlint self-test: all rules OK")
        return 0

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    files = collect_files(paths)
    cache_dir = None if args.no_cache else DEFAULT_CACHE_DIR
    ctx, stats = build_context(files, REPO_ROOT, layers, cache_dir)
    findings, timings = run_rules(rule_mods, ctx)

    if args.diff:
        changed = expand_changed(changed_files(args.diff), ctx)
        findings = [
            f for f in findings
            if os.path.relpath(f.path, REPO_ROOT).replace(os.sep, "/")
            in changed]

    print_findings(findings, REPO_ROOT)
    base = None
    if args.baseline and not args.update_baseline:
        base = load_baseline(args.baseline)
    if args.summary:
        print_summary(rule_mods, findings, timings, stats, ctx, base)

    ratchet_errors = 0
    if args.baseline:
        if args.diff:
            print("simlint: --baseline ignores --diff filtering "
                  "(ratchet is whole-tree)", file=sys.stderr)
        ratchet_errors = check_baseline(
            args.baseline, base, rule_mods, findings, ctx,
            args.update_baseline)

    if findings:
        print("simlint: %d finding(s) in %d file(s)"
              % (len(findings), len({f.path for f in findings})),
              file=sys.stderr)
        return 1
    return 1 if ratchet_errors else 0


if __name__ == "__main__":
    sys.exit(main())
