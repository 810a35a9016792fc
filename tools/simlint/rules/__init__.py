"""simlint rules (pass 2 of the two-pass analyzer). Each module exposes:

  NAME     the rule's reporting name (kebab-case)
  WAIVER   the waiver token accepted in `// simlint: <waiver>` comments
  run(ctx) -> [Finding]

ctx is an AnalysisContext over the semantic index built in pass 1:

  files      list of index.FileIndex covering the whole analysis set
             (rules that match declarations to out-of-line
             definitions need cross-file visibility)
  repo_root  absolute repository root (fixture runs pass the fixture
             directory instead, so fixture `src/<mod>/` trees resolve
             the same way the real tree does)
  layers     parsed layers.toml (see layers.load) or None when the
             config is absent — layering then reports nothing

Rules never touch raw tokens; everything they need is in the index,
which is what makes the per-file cache sound.
"""

from collections import namedtuple

Finding = namedtuple("Finding", ["rule", "path", "line", "message"])

AnalysisContext = namedtuple(
    "AnalysisContext", ["files", "repo_root", "layers"])

from . import (  # noqa: E402
    address_kind,
    checkpoint_coverage,
    enum_exhaustiveness,
    layering,
    nondet_taint,
    raw_cycle,
    simcycle_escape,
    stats_coverage,
)

ALL = [
    layering,
    checkpoint_coverage,
    stats_coverage,
    enum_exhaustiveness,
    raw_cycle,
    simcycle_escape,
    address_kind,
    nondet_taint,
]
BY_NAME = {r.NAME: r for r in ALL}
