"""Per-function control-flow graphs over the lexed token stream.

Builds a basic-block CFG for every function unit that model.py
recognizes, with an *ordered event stream* per block.  The CFG is
serialized into the semantic index (JSON-native lists/dicts only, so
the content-hash cache round-trips it bit-for-bit), and the
flow-sensitive rules (simcycle-escape, address-kind) consume only the
serialized form — they never touch tokens, which keeps the two-pass
cache sound.

Serialized shape (see DESIGN.md §14):

    {
      "params":   ["now", "addr"],           # declared parameter names
      "blocks":   [{"s": [succ ids], "e": [events]}, ...],
    }

Block 0 is the entry, block 1 the synthetic exit.  Events, in source
order within a block (only the kinds some rule reads):

    ["as", line, lhs, [rhs ids], raw_src] assignment to a simple local
                                          (raw_src = stamp whose
                                          .raw() feeds the RHS, else
                                          null)
    ["bo", line, a, op, b]                binary op (+ - += -= < >
                                          <= >= == !=); operands are
                                          nearest ids, "<stamp>.raw"
                                          for a direct raw() call, or
                                          "#" for literals/unknown
    ["ca", line, callee, argidx, src]     call arg carrying
                                          <src>.raw()

Lambda bodies are split out as sub-CFGs (qual suffixed with
"::<lambda@LINE>") so a deferred body never inherits the enclosing
scope's dataflow facts.
"""

from . import model

# A call to one of these never returns: the block ends at the exit.
_NORETURN = {"fatal", "panic", "abort", "exit", "_exit",
             "__builtin_unreachable", "__builtin_trap"}

# Identifiers that are exact cycle-stamp names or carry a stamp
# suffix: the one vocabulary raw-cycle (through the index's
# never_stmts) and simcycle-escape share for a "cycle-typed value".
_STAMP_EXACT = {"now", "cycle", "due", "deadline"}
_STAMP_SUFFIXES = ("_cycle", "_due", "_deadline", "_until", "_stamp")

# Address-kind vocabulary (lib/guestaddr.h domains) for the taint
# half of rules/address_kind.py.  A name
# classifies as guest-virtual, guest-physical, or neither — the taint
# rule uses the kind to detect raw values crossing the translation
# boundary without going through AddressSpace::walk().
_ADDR_VIRT_EXACT = {"va", "vaddr", "vpn"}
_ADDR_VIRT_SUBSTR = ("vaddr", "vpn")
_ADDR_PHYS_EXACT = {"pa", "paddr", "pfn", "mfn"}
_ADDR_PHYS_SUBSTR = ("paddr", "pfn", "mfn")

# Strong-type constructor names whose presence in a call argument
# puts a .raw() value back into its typed domain — not an escape.
_REWRAP_TYPES = ("SimCycle", "CycleDelta",
                 "GuestVirt", "GuestPhys", "Pfn", "Vpn")

_BINOPS = {"+", "-", "+=", "-=", "<", ">", "<=", ">=", "==", "!="}
# Tokens whose presence just before a '+'/'-' makes it unary.
_UNARY_PREV = {"=", "(", ",", ";", "{", "[", ":", "?", "<", ">", "+",
               "-", "*", "/", "%", "&", "|", "^", "!", "&&", "||",
               "<<", ">>", "return", "case", "+=", "-=", "<=", ">=",
               "==", "!=", None}

# Identifiers skipped when naming a binary-op operand or listing an
# assignment's right-hand side (casts and accessor chaff).
_NORM_DROP = {"U8", "U16", "U32", "U64", "S64", "W64", "int", "long",
              "short", "char", "unsigned", "signed", "size_t",
              "uint8_t", "uint16_t", "uint32_t", "uint64_t",
              "int64_t", "bool", "size", "raw", "data", "c_str",
              "std", "static_cast", "reinterpret_cast", "const",
              "length", "count"}


def is_stamp_name(name):
    return name in _STAMP_EXACT or name.endswith(_STAMP_SUFFIXES)


def addr_kind(name):
    """"virt" / "phys" for address-kind-named identifiers, else None.

    Exact names catch the idiomatic locals (`va`, `paddr`, `mfn`);
    substrings catch compounds (`fault_vaddr`, `last_pfn`); the `_va`/
    `_pa` suffixes catch hungarian-style fields without the substring
    false positives a bare "va" scan would produce ("invalid"...).
    """
    n = name.lower()
    if (n in _ADDR_VIRT_EXACT or n.endswith("_va")
            or any(s in n for s in _ADDR_VIRT_SUBSTR)):
        return "virt"
    if (n in _ADDR_PHYS_EXACT or n.endswith("_pa")
            or any(s in n for s in _ADDR_PHYS_SUBSTR)):
        return "phys"
    return None


def _match(toks, i, open_v, close_v):
    """toks[i] opens a bracket pair; index of the matching closer."""
    depth = 0
    while i < len(toks):
        v = toks[i].value
        if v == open_v:
            depth += 1
        elif v == close_v:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def _raw_receiver(toks, i):
    """toks[i] is the id 'raw' in `<recv>.raw(` — resolve the
    receiver: the id before the '.', walking back over one call's
    parens for chained forms like `ev.cycle().raw()`."""
    j = i - 1
    if j < 0 or toks[j].value not in (".", "->"):
        return None
    j -= 1
    if j >= 0 and toks[j].value == ")":
        depth = 0
        while j >= 0:
            v = toks[j].value
            if v == ")":
                depth += 1
            elif v == "(":
                depth -= 1
                if depth == 0:
                    j -= 1
                    break
            j -= 1
    if j >= 0 and toks[j].kind == "id":
        return toks[j].value
    return None


class _Builder:
    def __init__(self, qual):
        self.qual = qual
        self.blocks = [{"s": [], "e": []}, {"s": [], "e": []}]
        self.cur = 0
        self.terminated = False
        self.break_stack = []     # join block ids (loops and switch)
        self.continue_stack = []  # loop header / do-while cond ids
        self.subs = []            # (sub_qual, unit_tokens)

    # -- block plumbing ------------------------------------------------
    def _new_block(self):
        self.blocks.append({"s": [], "e": []})
        return len(self.blocks) - 1

    def _edge(self, a, b):
        if b not in self.blocks[a]["s"]:
            self.blocks[a]["s"].append(b)

    def _switch_to(self, b):
        self.cur = b
        self.terminated = False

    def _ev(self, ev):
        self.blocks[self.cur]["e"].append(ev)

    def _reachable_stmt(self):
        """Ensure statements after a terminator land in a fresh,
        unreachable block instead of mutating a dead one."""
        if self.terminated:
            self._switch_to(self._new_block())

    # -- statement-level event extraction ------------------------------
    def _stmt_events(self, stmt):
        """Extract the ordered event stream of one statement into the
        current block.  `stmt` excludes the trailing ';'."""
        if not stmt:
            return

        # Lambdas become sub-CFGs with an empty entry context.
        stmt = self._split_lambdas(stmt)

        n = len(stmt)
        i = 0
        while i < n:
            t = stmt[i]
            v = t.value

            if t.kind == "id":
                # Call site.
                if (i + 1 < n and stmt[i + 1].value == "("
                        and v not in model._NOT_FUNC_IDS):
                    self._call_raw_args(stmt, i)
                i += 1
                continue

            if v in _BINOPS:
                self._binop_event(stmt, i)
                i += 1
                continue

            i += 1

        self._top_assign(stmt)

    def _split_lambdas(self, stmt):
        """Cut `[caps](params){ body }` bodies out of the statement,
        registering each as a sub-CFG."""
        out, i, n = [], 0, len(stmt)
        while i < n:
            t = stmt[i]
            if t.value == "[" and self._lambda_intro(stmt, i):
                close = _match(stmt, i, "[", "]")
                j = close + 1
                if j < n and stmt[j].value == "(":
                    j = _match(stmt, j, "(", ")") + 1
                while j < n and stmt[j].value not in ("{", ";", ","):
                    j += 1
                if j < n and stmt[j].value == "{":
                    end = _match(stmt, j, "{", "}")
                    sub_qual = "%s::<lambda@%d>" % (self.qual, t.line)
                    self.subs.append((sub_qual, stmt[j : end + 1]))
                    out.extend(stmt[i : j])
                    i = end + 1
                    continue
            out.append(t)
            i += 1
        return out

    @staticmethod
    def _lambda_intro(stmt, i):
        """Distinguish a lambda introducer '[' from array indexing:
        indexing follows an id/')'/']'."""
        if i == 0:
            return True
        return stmt[i - 1].value not in (")", "]") and \
            stmt[i - 1].kind != "id"

    # -- operand helpers -----------------------------------------------
    def _operand_left(self, stmt, i):
        j = i - 1
        while j >= 0:
            t = stmt[j]
            if t.kind == "id":
                if t.value == "raw":
                    recv = _raw_receiver(stmt, j)
                    if recv:
                        return recv + ".raw"
                    return "#"
                if t.value in _NORM_DROP and t.value != "raw":
                    j -= 1
                    continue
                return t.value
            if t.kind == "num":
                return "#"
            j -= 1
        return "#"

    def _operand_right(self, stmt, i):
        j, n = i + 1, len(stmt)
        while j < n:
            t = stmt[j]
            if t.kind == "id":
                if t.value in _NORM_DROP and t.value != "raw":
                    j += 1
                    continue
                if (j + 2 < n and stmt[j + 1].value in (".", "->")
                        and stmt[j + 2].value == "raw"):
                    return t.value + ".raw"
                return t.value
            if t.kind == "num":
                return "#"
            j += 1
        return "#"

    def _binop_event(self, stmt, i):
        op = stmt[i].value
        if op in ("+", "-"):
            prev = stmt[i - 1].value if i > 0 else None
            if prev in _UNARY_PREV:
                return
        a = self._operand_left(stmt, i)
        b = self._operand_right(stmt, i)
        if a == "#" and b == "#":
            return
        self._ev(["bo", stmt[i].line, a, op, b])

    def _top_assign(self, stmt):
        """First top-level '=' → ["as", line, lhs, [rhs ids], raw_src]
        when the LHS is a simple local identifier."""
        depth = 0
        for i, t in enumerate(stmt):
            v = t.value
            if v in ("(", "[", "{"):
                depth += 1
            elif v in (")", "]", "}"):
                depth -= 1
            elif v == "=" and depth == 0:
                if i == 0 or stmt[i - 1].kind != "id":
                    return
                if i >= 2 and stmt[i - 2].value in (".", "->"):
                    return
                lhs = stmt[i - 1].value
                rhs = stmt[i + 1:]
                rhs_ids = [x.value for x in rhs if x.kind == "id"
                           and x.value not in _NORM_DROP]
                raw_src = None
                for j, x in enumerate(rhs):
                    if x.kind == "id" and x.value == "raw":
                        recv = _raw_receiver(rhs, j)
                        if recv:
                            raw_src = recv
                            break
                self._ev(["as", t.line, lhs, rhs_ids, raw_src])
                return

    def _call_raw_args(self, stmt, i):
        """stmt[i] is a callee id followed by '(' — record args that
        carry a .raw() of a stamp-named receiver."""
        close = _match(stmt, i + 1, "(", ")")
        args, seg, depth = [], [], 0
        for t in stmt[i + 2 : close]:
            v = t.value
            if v in ("(", "[", "{", "<"):
                depth += 1
            elif v in (")", "]", "}", ">"):
                depth -= 1
            if v == "," and depth == 0:
                args.append(seg)
                seg = []
            else:
                seg.append(t)
        if seg:
            args.append(seg)
        for idx, arg in enumerate(args):
            # Re-wrapping at the call site (`f(SimCycle(x.raw()))`,
            # `f(GuestPhys(p.raw()))`) puts the value back in a strong
            # domain — not an escape for the rules keyed on the real
            # callee.  The event is still recorded, with the wrapping
            # constructor as the callee, so address-kind can flag a
            # raw value re-wrapped into the *opposite* kind
            # (`GuestPhys(va.raw())`).
            rewrap = next((x.value for x in arg
                           if x.kind == "id"
                           and x.value in _REWRAP_TYPES), None)
            for j, x in enumerate(arg):
                if x.kind == "id" and x.value == "raw":
                    recv = _raw_receiver(arg, j)
                    if recv:
                        callee = rewrap or stmt[i].value
                        argpos = 0 if rewrap else idx
                        self._ev(["ca", stmt[i].line, callee,
                                  argpos, recv])
                        break

    # -- statement structure parsing -----------------------------------
    def parse_body(self, toks, lo, hi):
        """Parse the statements of toks[lo:hi] (a brace-less span)."""
        i = lo
        while i < hi:
            i = self._parse_one(toks, i, hi)

    def _parse_one(self, toks, i, hi):
        """Parse exactly one statement starting at i; return the index
        just past it."""
        while i < hi and toks[i].value == ";":
            i += 1
        if i >= hi:
            return hi
        t = toks[i]
        v = t.value

        if v == "{":
            end = _match(toks, i, "{", "}")
            self._reachable_stmt()
            self.parse_body(toks, i + 1, end)
            return end + 1

        if t.kind == "id":
            if v == "if":
                return self._parse_if(toks, i, hi)
            if v in ("while",):
                return self._parse_while(toks, i, hi)
            if v == "for":
                return self._parse_for(toks, i, hi)
            if v == "do":
                return self._parse_do(toks, i, hi)
            if v == "switch":
                return self._parse_switch(toks, i, hi)
            if v == "return":
                j = self._stmt_end(toks, i + 1, hi)
                self._reachable_stmt()
                self._stmt_events(toks[i + 1 : j])
                self._edge(self.cur, 1)
                self.terminated = True
                return j + 1
            if v in ("break", "continue"):
                self._reachable_stmt()
                stack = (self.break_stack if v == "break"
                         else self.continue_stack)
                if stack:
                    self._edge(self.cur, stack[-1])
                self.terminated = True
                return self._stmt_end(toks, i, hi) + 1
            if v == "goto":
                # No gotos in this tree; treat as an exit so the
                # following code is not falsely dominated.
                self._reachable_stmt()
                self._edge(self.cur, 1)
                self.terminated = True
                return self._stmt_end(toks, i, hi) + 1
            if v in ("case", "default"):
                # Stray label outside our switch segmentation: skip
                # to ':'.
                j = i
                while j < hi and toks[j].value != ":":
                    j += 1
                return j + 1

        # Simple statement.
        j = self._stmt_end(toks, i, hi)
        self._reachable_stmt()
        stmt = toks[i:j]
        self._stmt_events(stmt)
        if stmt and stmt[0].kind == "id" \
                and stmt[0].value in _NORETURN:
            self._edge(self.cur, 1)
            self.terminated = True
        return j + 1

    @staticmethod
    def _stmt_end(toks, i, hi):
        """Index of the ';' ending the simple statement at i (bracket
        aware; braced initializers and inline lambda bodies are part
        of the statement)."""
        depth = 0
        while i < hi:
            v = toks[i].value
            if v in ("(", "["):
                depth += 1
            elif v in (")", "]"):
                depth -= 1
            elif v == "{":
                i = _match(toks, i, "{", "}")
            elif v == ";" and depth <= 0:
                return i
            i += 1
        return hi

    def _cond_span(self, toks, i, hi):
        """toks[i] is a keyword followed by '('; return (events_span,
        after_close_index)."""
        j = i + 1
        while j < hi and toks[j].value != "(":
            j += 1
        if j >= hi:
            return (i + 1, i + 1), i + 1
        close = _match(toks, j, "(", ")")
        return (j + 1, close), close + 1

    def _parse_if(self, toks, i, hi):
        (clo, chi), body = self._cond_span(toks, i, hi)
        self._reachable_stmt()
        self._stmt_events(toks[clo:chi])
        head = self.cur

        then_b = self._new_block()
        self._edge(head, then_b)
        self._switch_to(then_b)
        j = self._parse_one(toks, body, hi)
        then_end, then_term = self.cur, self.terminated

        else_term, else_end = None, None
        if j < hi and toks[j].kind == "id" and toks[j].value == "else":
            else_b = self._new_block()
            self._edge(head, else_b)
            self._switch_to(else_b)
            j = self._parse_one(toks, j + 1, hi)
            else_end, else_term = self.cur, self.terminated

        join = self._new_block()
        if not then_term:
            self._edge(then_end, join)
        if else_end is not None:
            if not else_term:
                self._edge(else_end, join)
        else:
            self._edge(head, join)
        self._switch_to(join)
        return j

    def _parse_while(self, toks, i, hi):
        self._reachable_stmt()
        header = self._new_block()
        self._edge(self.cur, header)
        self._switch_to(header)
        (clo, chi), body = self._cond_span(toks, i, hi)
        self._stmt_events(toks[clo:chi])
        join = self._new_block()
        self._edge(header, join)
        body_b = self._new_block()
        self._edge(header, body_b)
        self._switch_to(body_b)
        self.break_stack.append(join)
        self.continue_stack.append(header)
        j = self._parse_one(toks, body, hi)
        if not self.terminated:
            self._edge(self.cur, header)
        self.continue_stack.pop()
        self.break_stack.pop()
        self._switch_to(join)
        return j

    def _parse_for(self, toks, i, hi):
        self._reachable_stmt()
        (clo, chi), body = self._cond_span(toks, i, hi)
        inner = toks[clo:chi]
        # Split classic for(init; cond; inc) at top-level ';'.
        parts, seg, depth = [], [], 0
        for t in inner:
            v = t.value
            if v in ("(", "[", "{"):
                depth += 1
            elif v in (")", "]", "}"):
                depth -= 1
            if v == ";" and depth == 0:
                parts.append(seg)
                seg = []
            else:
                seg.append(t)
        parts.append(seg)
        if len(parts) >= 2:
            init, cond = parts[0], parts[1]
            inc = parts[2] if len(parts) > 2 else []
        else:
            init, cond, inc = [], parts[0], []  # range-for

        if init:
            self._stmt_events(init)
        header = self._new_block()
        self._edge(self.cur, header)
        self._switch_to(header)
        if cond:
            self._stmt_events(cond)
        if inc:
            self._stmt_events(inc)
        join = self._new_block()
        self._edge(header, join)
        body_b = self._new_block()
        self._edge(header, body_b)
        self._switch_to(body_b)
        self.break_stack.append(join)
        self.continue_stack.append(header)
        j = self._parse_one(toks, body, hi)
        if not self.terminated:
            self._edge(self.cur, header)
        self.continue_stack.pop()
        self.break_stack.pop()
        self._switch_to(join)
        return j

    def _parse_do(self, toks, i, hi):
        self._reachable_stmt()
        body_b = self._new_block()
        self._edge(self.cur, body_b)
        cond_b = self._new_block()
        join = self._new_block()
        self._switch_to(body_b)
        self.break_stack.append(join)
        self.continue_stack.append(cond_b)
        j = self._parse_one(toks, i + 1, hi)
        if not self.terminated:
            self._edge(self.cur, cond_b)
        self.continue_stack.pop()
        self.break_stack.pop()
        # `while (cond);`
        if j < hi and toks[j].kind == "id" and toks[j].value == "while":
            (clo, chi), after = self._cond_span(toks, j, hi)
            self._switch_to(cond_b)
            self._stmt_events(toks[clo:chi])
            self._edge(cond_b, body_b)
            self._edge(cond_b, join)
            j = after
            if j < hi and toks[j].value == ";":
                j += 1
        else:
            self._edge(cond_b, join)
        self._switch_to(join)
        return j

    def _parse_switch(self, toks, i, hi):
        self._reachable_stmt()
        (clo, chi), body = self._cond_span(toks, i, hi)
        self._stmt_events(toks[clo:chi])
        head = self.cur
        join = self._new_block()
        if body >= hi or toks[body].value != "{":
            self._edge(head, join)
            self._switch_to(join)
            return body
        end = _match(toks, body, "{", "}")
        # Segment the body at top-level case/default labels.
        segments, labels = [], []
        j = body + 1
        depth = 0
        seg_start = None
        while j < end:
            v = toks[j].value
            if v in ("(", "[", "{"):
                if v == "{":
                    j = _match(toks, j, "{", "}")
                else:
                    depth += 1
            elif v in (")", "]"):
                depth -= 1
            elif depth == 0 and toks[j].kind == "id" \
                    and v in ("case", "default"):
                k = j
                while k < end and toks[k].value != ":":
                    k += 1
                if seg_start is not None:
                    segments.append((seg_start, j))
                labels.append(v)
                seg_start = k + 1
                j = k + 1
                continue
            j += 1
        if seg_start is not None:
            segments.append((seg_start, end))

        has_default = "default" in labels
        self.break_stack.append(join)
        prev_end, prev_term = None, True
        # Consecutive labels share a segment start, so segments and
        # entry edges align per *distinct* segment.
        for (lo, shi) in segments:
            blk = self._new_block()
            self._edge(head, blk)
            if prev_end is not None and not prev_term:
                self._edge(prev_end, blk)  # fallthrough
            self._switch_to(blk)
            self.parse_body(toks, lo, shi)
            prev_end, prev_term = self.cur, self.terminated
        self.break_stack.pop()
        if prev_end is not None and not prev_term:
            self._edge(prev_end, join)
        if not has_default or not segments:
            self._edge(head, join)
        self._switch_to(join)
        return end + 1


def _unit_body(unit):
    """(body_lo, body_hi) for a function unit: the body is the
    outermost '{...}' span."""
    for i, t in enumerate(unit):
        if t.value == "{":
            return i + 1, _match(unit, i, "{", "}")
    return 0, 0


def build_cfg(qual, unit, params):
    """Build serialized CFGs for one function unit.  Returns a list of
    (qual, cfg_dict) — the unit itself first, then any lambda
    sub-CFGs found in its body."""
    out = []
    pending = [(qual, unit, list(params))]
    while pending:
        q, u, ps = pending.pop(0)
        lo, hi = _unit_body(u)
        b = _Builder(q)
        b.parse_body(u, lo, hi)
        if not b.terminated:
            b._edge(b.cur, 1)
        out.append((q, {"params": ps, "blocks": b.blocks}))
        for sub_qual, sub_unit in b.subs:
            pending.append((sub_qual, sub_unit, []))
    return out
