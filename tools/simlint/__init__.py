"""simlint: PTLsim-specific static analysis.

Eight rules, each a module under rules/ and each the one owner of its
invariant (the type system and always-on assertions own the rest):

  layering             quoted #includes follow the layers.toml DAG;
  checkpoint-coverage  every data member of a class with a
                       visit(Archive &) body is touched by it, unless
                       it is a reference or top-level const (or
                       carries a `// simlint: transient` waiver);
  stats-coverage       every Counter member is bound to the stats
                       tree;
  enum-exhaustiveness  switches over registered enums cover them or
                       reach a guarded default;
  raw-cycle            no untyped ~0ULL never-sentinel on cycle
                       stamps outside lib/simtime.h;
  simcycle-escape      .raw() cycle values do not re-enter cycle math;
  address-kind         guest-virtual and guest-physical values do not
                       mix;
  nondet-taint         no wall-clock/rand call anywhere, and no
                       unordered-container iteration reachable from a
                       serialized or statistics entry point.

The backend is a hand-rolled token-level C++ lexer (lexer.py), so
libclang is not a dependency; rules consume a deliberately small
backend-independent model (model.py) that a libclang backend could
also produce.
"""

from . import lexer, model  # noqa: F401
