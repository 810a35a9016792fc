"""CTest entry for the simlint golden fixtures and the index cache.

Part 1 runs the driver's --self-test: every rule must ship at least
one bad and one good fixture, each bad fixture must trip exactly its
own rule, and each good fixture must be clean under ALL rules. It
also proves the checks that keep deleted rules from lingering: the
self-test fails on a fixture directory no registered rule owns, and
the --baseline ratchet fails on a baseline entry for an unregistered
rule. Likewise every fact the index extracts (index._FIELDS) must
have a reader in tools/simlint/rules/ or scripts/simlint.py, and every
CFG event kind and CFG dict key cfg.py emits must have a reader in
the rules or dataflow.py, so a fact whose rule was retired does not
linger in pass 1.

Part 2 proves the pass-1 cache is correct, not just fast:

  - a cold load_or_build() populates the cache (miss),
  - an identical reload is served from the cache (hit) with facts
    equal to the cold build,
  - editing the file invalidates the entry (content hash changes) and
    the re-built index reflects the edit,
  - changing the analyzer fingerprint (the `env` cache-key component;
    in real runs, editing any rule/lexer/config file under
    tools/simlint/) invalidates the entry even when the source file
    itself is untouched — the staleness bug where tweaking a rule
    served yesterday's verdicts,
  - the call-graph facts (funcs/unordered_decls/iter_sites)
    survive a cache round-trip with their tuple shapes intact, so the
    interprocedural rules behave identically on warm and cold runs.
"""

import glob
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

from simlint import index as index_mod  # noqa: E402
from simlint import layers as layers_mod  # noqa: E402

SIMLINT = os.path.join(REPO_ROOT, "scripts", "simlint.py")


def run_self_test():
    proc = subprocess.run(
        [sys.executable, SIMLINT, "--self-test"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print("FAIL: simlint --self-test exited %d" % proc.returncode)
        return 1
    return 0


def run_stale_rule_test():
    """A fixture directory or a baseline entry left behind by a
    deleted rule must fail the gate, not linger silently."""
    failures = 0

    def check(cond, what):
        nonlocal failures
        print("%s stale-rule: %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            failures += 1

    tmp = tempfile.mkdtemp(prefix="simlint-stale-test-")
    try:
        # Self-test over a copy of the fixtures plus one directory
        # that belongs to no registered rule.
        spec = importlib.util.spec_from_file_location("simlint_driver",
                                                      SIMLINT)
        driver = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(driver)
        layers = layers_mod.load(os.path.join(REPO_ROOT, "tools", "simlint",
                                              "layers.toml"))
        fixtures = os.path.join(tmp, "fixtures")
        shutil.copytree(os.path.join(REPO_ROOT, "tools", "simlint",
                                     "fixtures"), fixtures)
        orphan = os.path.join(fixtures, "retired_rule", "bad")
        os.makedirs(orphan)
        with open(os.path.join(orphan, "x.cc"), "w") as f:
            f.write("int x;\n")
        try:
            failed = driver.self_test(layers, fixtures=fixtures)
        except TypeError:
            failed = None
        check(failed == 1,
              "self-test fails once on an unowned fixture directory")

        # Baseline ratchet over one clean file.
        src = os.path.join(tmp, "clean.cc")
        with open(src, "w") as f:
            f.write("int answer() { return 42; }\n")

        def ratchet(rules):
            base = os.path.join(tmp, "baseline.json")
            with open(base, "w") as f:
                json.dump({"rules": rules, "waivers": {}}, f)
            return subprocess.run(
                [sys.executable, SIMLINT, "--no-cache",
                 "--baseline", base, src],
                cwd=REPO_ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)

        ok = ratchet({"layering": 0})
        check(ok.returncode == 0, "baseline of registered rules passes")
        stale = ratchet({"layering": 0, "retired-rule": 0})
        check(stale.returncode == 1 and "retired-rule" in stale.stdout,
              "baseline naming an unregistered rule fails")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return failures


def unread_fields(fields, sources):
    """Index fields that no `.field` attribute access in `sources`
    (source texts) reads."""
    return [f for f in fields
            if not any(re.search(r"\.%s\b" % re.escape(f), text)
                       for text in sources)]


def unread_literals(names, sources):
    """CFG event kinds / dict keys that no quoted occurrence in
    `sources` reads (`ev[0] == "as"`, `blk["e"]`, `.get("params")`)."""
    return [n for n in names
            if not any(re.search(r"[\"']%s[\"']" % re.escape(n), text)
                       for text in sources)]


def cfg_emissions():
    """(event kinds, dict keys) the CFG builder emits: every kind named
    by a `_ev([...])` call in cfg.py, and the keys of a built CFG and
    of its blocks."""
    with open(os.path.join(REPO_ROOT, "tools", "simlint", "cfg.py"),
              encoding="utf-8") as f:
        kinds = set(re.findall(r"_ev\(\[\s*\"(\w+)\"", f.read()))
    tmp = tempfile.mkdtemp(prefix="simlint-cfg-keys-")
    try:
        src = os.path.join(tmp, "probe.cc")
        with open(src, "w") as f:
            f.write("int probe(int n) { if (n) return 1; return 0; }\n")
        fi = index_mod.build(src, "probe.cc")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    cfg = fi.funcs[0]["cfg"]
    keys = set(cfg)
    for blk in cfg["blocks"]:
        keys.update(blk)
        kinds.update(ev[0] for ev in blk["e"])
    return sorted(kinds), sorted(keys)


def run_field_reader_test():
    """Every index fact, CFG event kind and CFG dict key has a
    reader."""
    rules = sorted(glob.glob(os.path.join(
        REPO_ROOT, "tools", "simlint", "rules", "*.py")))
    sources, cfg_sources = [], []
    for p in [SIMLINT] + rules:
        with open(p, encoding="utf-8") as f:
            sources.append(f.read())
    for p in rules + [os.path.join(REPO_ROOT, "tools", "simlint",
                                   "dataflow.py")]:
        with open(p, encoding="utf-8") as f:
            cfg_sources.append(f.read())
    failures = 0

    def check(cond, what):
        nonlocal failures
        print("%s index-fields: %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            failures += 1

    check(unread_fields(("retired_fact",), sources) == ["retired_fact"],
          "a fact no code reads is reported")
    for name in unread_fields(index_mod._FIELDS, sources):
        check(False, "'%s' is extracted by index.py but read by no rule "
              "or the driver — delete it" % name)

    check(unread_literals(("retired_kind",), cfg_sources)
          == ["retired_kind"], "a CFG event kind no rule reads is reported")
    kinds, keys = cfg_emissions()
    check("as" in kinds and "blocks" in keys,
          "CFG event kinds and keys are enumerated")
    for name in unread_literals(kinds, cfg_sources):
        check(False, "CFG event kind '%s' is emitted by cfg.py but read "
              "by no rule — delete it" % name)
    for name in unread_literals(keys, cfg_sources):
        check(False, "CFG key '%s' is emitted by cfg.py but read by no "
              "rule or dataflow.py — delete it" % name)
    return failures


def run_cache_test():
    failures = 0

    def check(cond, what):
        nonlocal failures
        print("%s cache: %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            failures += 1

    tmp = tempfile.mkdtemp(prefix="simlint-cache-test-")
    try:
        src = os.path.join(tmp, "widget.cc")
        cache = os.path.join(tmp, "cache")
        with open(src, "w") as f:
            f.write('#include "lib/bitops.h"\n'
                    'enum class UopClass : unsigned char { IntAlu };\n')

        cold, hit = index_mod.load_or_build(src, "widget.cc", cache)
        check(not hit, "first build is a miss")
        check(os.listdir(cache), "miss populated the cache directory")

        warm, hit = index_mod.load_or_build(src, "widget.cc", cache)
        check(hit, "unchanged reload is a hit")
        check(warm.to_data() == cold.to_data(),
              "cached facts identical to the cold build")

        with open(src, "a") as f:
            f.write('#include "sys/machine.h"\n')
        edited, hit = index_mod.load_or_build(src, "widget.cc", cache)
        check(not hit, "edited file is re-analyzed (hash changed)")
        check(any(inc == "sys/machine.h" for _, inc in edited.includes),
              "re-built index reflects the edit")

        rewarm, hit = index_mod.load_or_build(src, "widget.cc", cache)
        check(hit, "re-analyzed entry is cached again")
        check(rewarm.to_data() == edited.to_data(),
              "round-tripped facts identical after the edit")

        # Analyzer-fingerprint staleness: the same source content under
        # a different `env` must be a miss (editing a rule file changes
        # toolchain_fingerprint() in real runs).
        _, hit = index_mod.load_or_build(src, "widget.cc", cache,
                                         env="analyzer-rev-A")
        check(not hit, "new analyzer fingerprint invalidates the entry")
        _, hit = index_mod.load_or_build(src, "widget.cc", cache,
                                         env="analyzer-rev-A")
        check(hit, "same fingerprint hits again")
        _, hit = index_mod.load_or_build(src, "widget.cc", cache,
                                         env="analyzer-rev-B")
        check(not hit, "edited-rule fingerprint is a miss despite "
              "unchanged source")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return failures


def run_callgraph_cache_test():
    """The call-graph facts must be identical (values AND container shapes)
    across a cache round-trip: the taint rule indexes funcs by span
    and set-intersects iter_sites id lists, so a list-vs-tuple drift
    between cold and warm runs would silently change verdicts."""
    failures = 0

    def check(cond, what):
        nonlocal failures
        print("%s callgraph-cache: %s" % ("ok  " if cond else "FAIL",
                                          what))
        if not cond:
            failures += 1

    tmp = tempfile.mkdtemp(prefix="simlint-callgraph-test-")
    try:
        src = os.path.join(tmp, "graph.cc")
        cache = os.path.join(tmp, "cache")
        with open(src, "w") as f:
            f.write(
                "#include <unordered_map>\n"
                "namespace ptl {\n"
                "std::unordered_map<int, int> table;\n"
                "int helper() {\n"
                "    int sum = 0;\n"
                "    for (const auto &kv : table)\n"
                "        sum += kv.second;\n"
                "    return sum;\n"
                "}\n"
                "int entry() { return helper(); }\n"
                "}\n")

        cold, hit = index_mod.load_or_build(src, "graph.cc", cache,
                                            env="cg")
        check(not hit, "cold build is a miss")
        quals = [fn["qual"] for fn in cold.funcs]
        check("helper" in quals and "entry" in quals,
              "both functions are call-graph nodes")
        entry = next(fn for fn in cold.funcs if fn["qual"] == "entry")
        check(any(callee == "helper" for _ln, callee in entry["calls"]),
              "entry -> helper call edge recorded")
        check(any(name == "table" for _ln, name in cold.unordered_decls),
              "unordered declaration recorded")
        check(any("table" in ids for _ln, ids in cold.iter_sites),
              "iteration site records the range-for subject")

        warm, hit = index_mod.load_or_build(src, "graph.cc", cache,
                                            env="cg")
        check(hit, "reload is a hit")
        check(warm.to_data() == cold.to_data(),
              "warm facts identical to cold facts")
        check(warm.funcs == cold.funcs,
              "call-graph nodes identical after round-trip")
        check(warm.unordered_decls == cold.unordered_decls
              and type(warm.unordered_decls[0])
              is type(cold.unordered_decls[0])
              and warm.iter_sites == cold.iter_sites,
              "sink tables identical (values and shapes) after "
              "round-trip")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return failures


def main():
    failed = run_self_test()
    failed += run_stale_rule_test()
    failed += run_field_reader_test()
    failed += run_cache_test()
    failed += run_callgraph_cache_test()
    if failed:
        print("test_lint_fixtures: %d failure(s)" % failed)
        return 1
    print("test_lint_fixtures: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
