#!/usr/bin/env python3
"""Self-test of the speed benchmark: every workload at a tiny scale.

    python3 perfbench/selftest.py

Builds like run.py, then for each workload checks that
  - an untraced and a traced run pass the correctness gate;
  - each prints exactly the metrics BENCHMARK.json names for its mode,
    with the units it names;
  - the simulated-run digest repeats across processes, and the traced
    run's digest equals the untraced one (observing does not perturb);
  - the gate fails every run when the recorded digest is wrong.
Exits non-zero on the first failure. Takes about a minute after the
build.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.BUILD / "selftest"


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def bench(workload, trace, digest_file):
    cmd = [str(run.BINARY), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
           "--digest-file", str(digest_file)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("%s: no output (exit %d): %s" % (workload, out.returncode,
                                              out.stderr))
    result = json.loads(lines[-1])
    digest = re.search(r"model\.digest ([0-9a-f]{16})", out.stdout)
    return out.returncode, result, digest.group(1) if digest else None


def check_metrics(workload, result, kind):
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("%s %s metrics differ: missing %s, extra or mis-united %s" % (
            workload, kind, sorted(set(want) - set(got)),
            sorted(set(got.items()) - set(want.items()))))


def check_passed(workload, code, result):
    if code != 0 or not result["correct"] or result["failed"] != 0 \
            or result["attempted"] < 1:
        fail("%s: gate failed: exit %d, %s" % (workload, code, result))


def main():
    run.build()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    for w in (wl["name"] for wl in SPEC["workloads"]):
        digest_file = SCRATCH / (w + ".digest")
        code, plain, d_plain = bench(w, 0, digest_file)
        check_passed(w, code, plain)
        check_metrics(w, plain, "end_to_end")
        recorded = digest_file.read_text().strip()
        if d_plain != recorded:
            fail("%s: printed digest %s, recorded %s" % (w, d_plain, recorded))

        code, traced, d_traced = bench(w, 1, digest_file)
        check_passed(w, code, traced)
        check_metrics(w, traced, "per_layer")
        if d_traced != d_plain:
            fail("%s: traced digest %s != untraced %s" % (w, d_traced,
                                                          d_plain))

        digest_file.write_text("%016x\n" % (int(recorded, 16) ^ 1))
        code, broken, _ = bench(w, 0, digest_file)
        if code == 0 or broken["correct"] \
                or broken["failed"] != broken["attempted"]:
            fail("%s: a wrong recorded digest did not fail every run: %s"
                 % (w, broken))
        print("selftest: %s ok (digest %s, %d+%d runs)" % (
            w, d_plain, plain["attempted"], traced["attempted"]))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
