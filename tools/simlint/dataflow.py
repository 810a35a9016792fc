"""Forward dataflow over serialized CFGs.

A deliberately small may-analysis: rules supply a transfer function
over the per-block event stream, and facts that hold on *some* path
into a block are unioned at joins (simcycle-escape and address-kind
taint).

Blocks are the JSON-native dicts produced by cfg.build_cfg:
{"s": [successor ids], "e": [events]}.  Block 0 is the entry; block 1
is the synthetic exit and is never interesting to rules.

solve() returns the *input* fact set of every block (a frozenset).
Rules then re-run the transfer inside a block themselves to get the
fact set at a particular event, which keeps the framework oblivious
to event shapes.
"""


def solve(blocks, entry_facts, transfer):
    """Fixpoint over `blocks`.

    entry_facts: iterable of facts at the entry block's input.
    transfer(facts_set, events) -> new facts set (must not mutate its
    input).
    Returns: list of per-block *input* facts (frozensets).
    """
    n = len(blocks)
    inp = [frozenset()] * n
    inp[0] = frozenset(entry_facts)
    out = [None] * n

    work = [0]
    in_work = [False] * n
    in_work[0] = True
    while work:
        i = work.pop(0)
        in_work[i] = False
        new_out = frozenset(transfer(set(inp[i]), blocks[i]["e"]))
        if new_out == out[i]:
            continue
        out[i] = new_out
        for s in blocks[i]["s"]:
            if not (0 <= s < n):
                continue
            merged = inp[s] | new_out
            if merged != inp[s]:
                inp[s] = merged
                if not in_work[s]:
                    work.append(s)
                    in_work[s] = True
    return inp
