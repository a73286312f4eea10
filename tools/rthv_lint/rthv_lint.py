#!/usr/bin/env python3
"""rthv-lint: repo-specific static analysis for the rthv codebase.

Walks C++ sources under the given directories (default: src/ and bench/,
union'd with the translation units recorded in the CMake compile database
when one is present) and enforces the project's domain invariants -- the
properties the DAC'14 reproduction's correctness story rests on but that a
compiler cannot check.

Two layers:

  Line layer (comment/string-aware regex rules over each file):

  no-wallclock         No wall-clock or nondeterministic sources outside
                       src/exp/ timing code. The simulator must be a pure
                       function of its seed; a stray steady_clock::now()
                       breaks bit-identical --jobs sweeps.
  no-hot-alloc         No raw new/malloc in src/sim/, src/hv/, src/mon/,
                       src/fault/, src/core/, src/hw/multicore/ and the
                       src/exp/ batch engine (batch_runner/system_pool):
                       the simulator hot paths, the checkpoint/snapshot
                       path, the per-burst interconnect accounting, and
                       the pooled campaign recycle loop.
  checked-arith        No raw '+' / '*' / '+=' / '*=' on Duration/TimePoint
                       quantities inside src/analysis/; use
                       core/checked.hpp.
  banned-include       <chrono> banned in deterministic layers, <iostream>
                       and <immintrin.h> banned in library code.
  header-hygiene       Headers start with #pragma once (or a guard) and
                       never contain 'using namespace'.
  det-address-seed     No address-derived values feeding results or seeds:
                       reinterpret_cast to (u)intptr_t, std::hash over a
                       pointer type. Addresses differ across runs (ASLR),
                       so anything derived from one breaks bit-identical
                       sweeps. Part of the determinism family.

  Semantic layer (a tokenizer plus a lightweight C++ declaration parser
  build a per-class model -- data members, bases, member-function bodies,
  including out-of-line definitions -- for every class in the scanned
  tree):

  snapshot-coverage    Any class defining the checkpoint visitor
                       `template <class Ar> void state(Ar&)` (same-class
                       helpers it calls inlined) must reference every
                       non-static, non-const, non-reference data member in
                       it -- or, for the whole-object snapshot()/restore()
                       pair, in both of those bodies. A member that is
                       deliberately not checkpointed carries a
                       `// lint: transient(<reason>)` waiver on (or right
                       above) its declaration; an empty reason is itself a
                       violation. The rule also flags an archive call
                       inside a one-direction `if constexpr (Ar::kLoading)`
                       branch, the one way left to make the writer and the
                       reader disagree. Forgetting a member is how the
                       full-state checkpoint contract rots: one new field
                       and hunt/sweep replays silently diverge.
  det-unordered-iter   No iteration (range-for, .begin()) over
                       unordered_map/unordered_set in result-affecting
                       code: bucket order is hash-seed and load-factor
                       dependent, so any fold over it is not a pure
                       function of the inputs. Part of the determinism
                       family.
  det-pointer-key      No std::map/std::set keyed on a pointer type in
                       result-affecting code: iteration order is address
                       order, which ASLR re-rolls every run. Part of the
                       determinism family.

  The compiler enforces the rest: simulated time and CPU cycles are the
  strong types sim::Duration / sim::TimePoint and hw::Cycles (a bare
  integer budget means instructions), and trace ids are the enum class
  obs::TracePoint.

Waivers: a comment `rthv-lint: allow(rule-id)` (comma-separated list, or
`allow(*)`) on the offending line or the line directly above suppresses the
named rules for that line. Members that are deliberately not part of the
checkpoint use `// lint: transient(<reason>)` instead, which waives
snapshot-coverage for that member while recording why.
Waivers are deliberate, reviewable markers -- prefer fixing the code.

Self-test: `rthv_lint.py --self-test` scans every fixture tree under
tools/rthv_lint/fixtures/ (the top-level src/ plus one tree per semantic
rule family: snapshot/, determinism/), where each intentional
violation is annotated with a `rthv-lint-expect: rule-id` comment, and
verifies the reported (file, line, rule) set matches the annotations
exactly. The total expected-finding count must also equal the committed
number in fixtures/EXPECTED_FINDINGS -- CI's lint-regression gate: adding
or removing a seeded finding without updating the expectation fails.

Exit code 0: no violations. 1: violations found (or self-test mismatch).
2: usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

CXX_EXTENSIONS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh", ".inl")
HEADER_EXTENSIONS = (".hpp", ".h", ".hh")

WAIVER_RE = re.compile(r"rthv-lint:\s*allow\(([^)]*)\)")
TRANSIENT_RE = re.compile(r"lint:\s*transient\(([^)]*)\)")
EXPECT_RE = re.compile(r"rthv-lint-expect:\s*([A-Za-z0-9_*,\- ]+)")


@dataclass(frozen=True)
class Violation:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str


@dataclass
class SourceFile:
    """A parsed source file: raw lines plus comment/string-stripped lines."""

    relpath: str
    raw_lines: list[str]
    code_lines: list[str]  # comments and string literals blanked out
    waivers: dict[int, set[str]]  # line -> waived rule ids ('*' = all)
    transients: dict[int, str]  # line -> transient(reason) text (may be empty)

    def is_header(self) -> bool:
        return self.relpath.endswith(HEADER_EXTENSIONS)

    def waived(self, line: int, rule: str) -> bool:
        for probe in (line, line - 1):
            rules = self.waivers.get(probe)
            if rules and ("*" in rules or rule in rules):
                return True
        return False

    def transient_reason(self, line: int) -> Optional[str]:
        """The transient(<reason>) waiver covering `line`, or None."""
        for probe in (line, line - 1):
            if probe in self.transients:
                return self.transients[probe]
        return None


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string and char literals, preserving line structure.

    Handles //, /* */, "...", '...' with escapes, and R"delim(...)delim" raw
    strings. Replaced characters become spaces so column positions survive.
    """
    out: list[str] = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = NORMAL
    raw_terminator = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string? Look back for R / u8R / LR / uR / UR prefix.
                m = re.search(r'(?:u8|[uUL])?R$', text[max(0, i - 3):i])
                if m:
                    close = text.find("(", i)
                    if close != -1 and close - i <= 17:
                        delim = text[i + 1:close]
                        raw_terminator = ")" + delim + '"'
                        state = RAW_STRING
                        out.append('"')
                        i += 1
                        continue
                state = STRING
                out.append('"')
                i += 1
            elif c == "'":
                state = CHAR
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = NORMAL
                out.append('"')
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == CHAR:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = NORMAL
                out.append("'")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # RAW_STRING
            if text.startswith(raw_terminator, i):
                out.append(raw_terminator)
                i += len(raw_terminator)
                state = NORMAL
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def load_source(root: str, relpath: str) -> SourceFile:
    with open(os.path.join(root, relpath), encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    # Pad in case the stripped text lost a trailing line.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    waivers: dict[int, set[str]] = {}
    transients: dict[int, str] = {}
    for lineno, line in enumerate(raw_lines, 1):
        m = WAIVER_RE.search(line)
        if m:
            waivers[lineno] = {r.strip() for r in m.group(1).split(",") if r.strip()}
        t = TRANSIENT_RE.search(line)
        if t:
            transients[lineno] = t.group(1).strip()
    return SourceFile(relpath.replace(os.sep, "/"), raw_lines, code_lines,
                      waivers, transients)


# ---------------------------------------------------------------------------
# Layer 1: tokenizer
# ---------------------------------------------------------------------------

# Order matters: multi-char operators before their single-char prefixes.
_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"                # identifier / keyword
    r"|\d[\w.]*"                   # numeric literal (incl. hex, suffixes)
    r"|::|->\*?|\+\+|--|<<=?|>>=?|<=|>=|==|!=|&&|\|\||[-+*/%&|^!=<>]=?"
    r"|\.\.\.|[~.,;:?(){}\[\]#\\@$\"']")

_PP_RE = re.compile(r"^\s*#\s*(\w+)")


@dataclass(frozen=True)
class Tok:
    kind: str  # 'id', 'num', 'punct', 'pp'
    text: str  # for 'pp': the directive name (if, endif, include, ...)
    line: int


def tokenize(code_lines: list[str]) -> list[Tok]:
    """Token stream over comment/string-stripped lines.

    Preprocessor directives become single 'pp' tokens (continuation lines
    are swallowed) so `#include <vector>` never contributes '<'/'>' tokens
    to the declaration parser.
    """
    toks: list[Tok] = []
    i = 0
    n = len(code_lines)
    while i < n:
        line = code_lines[i]
        m = _PP_RE.match(line)
        if m:
            toks.append(Tok("pp", m.group(1), i + 1))
            while i < n and code_lines[i].rstrip().endswith("\\"):
                i += 1
            i += 1
            continue
        for tm in _TOKEN_RE.finditer(line):
            text = tm.group(0)
            if text[0].isalpha() or text[0] == "_":
                kind = "id"
            elif text[0].isdigit():
                kind = "num"
            else:
                kind = "punct"
            toks.append(Tok(kind, text, i + 1))
        i += 1
    return toks


# ---------------------------------------------------------------------------
# Layer 2: lightweight C++ declaration parser
# ---------------------------------------------------------------------------

@dataclass
class Member:
    name: str
    line: int
    type_tokens: list[str]
    is_static: bool = False
    is_const: bool = False
    is_reference: bool = False
    conditional: bool = False  # declared inside #if/#ifdef/#ifndef


@dataclass
class Method:
    name: str
    line: int
    body: Optional[list[Tok]]  # None for declarations without a body
    params: list[str] = field(default_factory=list)  # parameter names
    relpath: Optional[str] = None  # set when the body is out-of-line


@dataclass
class ClassModel:
    name: str       # simple name
    qual: str       # namespace- and outer-class-qualified name
    relpath: str
    line: int
    bases: list[str] = field(default_factory=list)
    members: list[Member] = field(default_factory=list)
    methods: dict[str, Method] = field(default_factory=dict)

    def method_body(self, name: str) -> Optional[list[Tok]]:
        m = self.methods.get(name)
        return m.body if m else None


@dataclass
class OutOfLineDef:
    class_name: str  # last class-path component before ::method
    method: str
    relpath: str
    line: int
    body: list[Tok]
    params: list[str] = field(default_factory=list)


@dataclass
class FileModel:
    relpath: str
    classes: list[ClassModel] = field(default_factory=list)
    out_of_line: list[OutOfLineDef] = field(default_factory=list)


_DECL_SPECIFIERS = {
    "static", "mutable", "constexpr", "const", "inline", "extern", "thread_local",
    "volatile", "explicit", "virtual", "typename", "register", "consteval",
    "constinit",
}

_CONDITIONAL_PP = {"if", "ifdef", "ifndef"}


class DeclParser:
    """Builds per-class models (members, bases, method bodies) from one
    file's token stream.

    Deliberately lightweight: brace/angle tracking plus a handful of
    statement-shape heuristics that cover the repo's real C++ (nested
    classes, attribute-cloned functions, template members, in-class
    initializers, #if-guarded members, out-of-line definitions). Anything
    it cannot classify it skips without deriving members from it.
    """

    def __init__(self, toks: list[Tok], relpath: str):
        self.toks = toks
        self.relpath = relpath
        self.model = FileModel(relpath)
        self.pp_depth = 0  # #if nesting while inside a class body

    # -- small helpers ------------------------------------------------------

    def _match_forward(self, i: int, open_t: str, close_t: str) -> int:
        """Index just past the token matching toks[i] (an `open_t`)."""
        depth = 0
        n = len(self.toks)
        while i < n:
            t = self.toks[i]
            if t.kind == "punct":
                if t.text == open_t:
                    depth += 1
                elif t.text == close_t:
                    depth -= 1
                    if depth == 0:
                        return i + 1
            i += 1
        return n

    def _skip_angles(self, i: int) -> int:
        """From toks[i] == '<', index just past the matching '>'.

        Handles '>>' closing two levels. Gives up (returns i+1) if the
        angle run never closes -- a comparison, not a template list.
        """
        depth = 0
        n = len(self.toks)
        j = i
        while j < n:
            t = self.toks[j]
            if t.kind == "punct":
                if t.text == "<":
                    depth += 1
                elif t.text == ">":
                    depth -= 1
                    if depth == 0:
                        return j + 1
                elif t.text == ">>":
                    depth -= 2
                    if depth <= 0:
                        return j + 1
                elif t.text in (";", "{", "}"):
                    return i + 1  # never closed: not a template list
            j += 1
        return i + 1

    def _skip_attributes(self, i: int) -> int:
        """Skips any run of [[...]] attribute groups starting at i."""
        n = len(self.toks)
        while (i + 1 < n and self.toks[i].kind == "punct" and self.toks[i].text == "["
               and self.toks[i + 1].text == "["):
            depth = 0
            while i < n:
                t = self.toks[i]
                if t.kind == "punct" and t.text == "[":
                    depth += 1
                elif t.kind == "punct" and t.text == "]":
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
        return i

    # -- parsing ------------------------------------------------------------

    def parse(self) -> FileModel:
        self._parse_scope(0, len(self.toks), ns=[], cls=None)
        return self.model

    def _parse_scope(self, i: int, end: int, ns: list[str],
                     cls: Optional[ClassModel]) -> None:
        """Parses declarations between toks[i:end] (inside a namespace or
        class body, or at file scope)."""
        pp_stack_base = self.pp_depth
        while i < end:
            t = self.toks[i]
            if t.kind == "pp":
                if t.text in _CONDITIONAL_PP:
                    self.pp_depth += 1
                elif t.text == "endif" and self.pp_depth > pp_stack_base:
                    self.pp_depth -= 1
                i += 1
                continue
            if t.kind == "punct" and t.text == ";":
                i += 1
                continue
            if t.kind == "punct" and t.text == "}":
                i += 1
                continue
            if t.kind == "id" and t.text == "namespace" and cls is None:
                i = self._parse_namespace(i, end, ns)
                continue
            if t.kind == "id" and t.text in ("class", "struct", "union"):
                ni = self._parse_class(i, end, ns, cls)
                if ni is not None:
                    i = ni
                    continue
            if t.kind == "id" and t.text == "enum":
                i = self._skip_enum(i, end)
                continue
            # access specifiers inside a class
            if (cls is not None and t.kind == "id"
                    and t.text in ("public", "private", "protected")
                    and i + 1 < end and self.toks[i + 1].text == ":"):
                i += 2
                continue
            i = self._parse_statement(i, end, ns, cls)

    def _parse_namespace(self, i: int, end: int, ns: list[str]) -> int:
        j = i + 1
        parts: list[str] = []
        while j < end and self.toks[j].kind == "id":
            parts.append(self.toks[j].text)
            j += 1
            if j < end and self.toks[j].text == "::":
                j += 1
                continue
            break
        if j < end and self.toks[j].text == "{":
            close = self._match_forward(j, "{", "}")
            self._parse_scope(j + 1, close - 1, ns + parts, None)
            return close
        # `namespace x = y;` or malformed: skip to ';'
        while j < end and self.toks[j].text != ";":
            j += 1
        return j + 1

    def _parse_class(self, i: int, end: int, ns: list[str],
                     outer: Optional[ClassModel]) -> Optional[int]:
        """Parses `class X [final] [: bases] { ... };` at toks[i].

        Returns the index past the closing `};`, or None when this is not a
        class definition (forward declaration, elaborated type in a member
        declaration) so the caller falls through to statement parsing.
        """
        j = self._skip_attributes(i + 1)
        if j >= end or self.toks[j].kind != "id":
            return None
        name = self.toks[j].text
        line = self.toks[j].line
        j += 1
        j = self._skip_attributes(j)
        if j < end and self.toks[j].kind == "id" and self.toks[j].text == "final":
            j += 1
        bases: list[str] = []
        if j < end and self.toks[j].text == ":":
            k = j + 1
            while k < end and self.toks[k].text != "{":
                tk = self.toks[k]
                if tk.kind == "punct" and tk.text == "<":
                    k = self._skip_angles(k)
                    continue
                if tk.kind == "id" and tk.text not in ("public", "private",
                                                       "protected", "virtual"):
                    bases.append(tk.text)
                if tk.kind == "punct" and tk.text == ";":
                    return None  # `struct X : T member;`? not a definition
                k += 1
            j = k
        if j >= end or self.toks[j].text != "{":
            return None  # forward declaration or member type use
        qual = "::".join(([outer.qual] if outer else ["::".join(ns)]) + [name]) \
            if (outer or ns) else name
        model = ClassModel(name=name, qual=qual.lstrip(":"), relpath=self.relpath,
                           line=line, bases=bases)
        self.model.classes.append(model)
        close = self._match_forward(j, "{", "}")
        self._parse_scope(j + 1, close - 1, ns, model)
        # Skip a trailing variable declarator (`} instance_;`) up to ';'.
        k = close
        while k < end and self.toks[k].text != ";":
            k += 1
        return k + 1

    def _skip_enum(self, i: int, end: int) -> int:
        j = i + 1
        while j < end and self.toks[j].text not in ("{", ";"):
            j += 1
        if j < end and self.toks[j].text == "{":
            j = self._match_forward(j, "{", "}")
        while j < end and self.toks[j].text != ";":
            j += 1
        return j + 1

    def _parse_statement(self, i: int, end: int, ns: list[str],
                         cls: Optional[ClassModel]) -> int:
        """Parses one declaration statement: a member/variable declaration,
        a function declaration, or a function definition (body skipped but
        recorded). Returns the index just past the statement."""
        start = i
        start_line = self.toks[i].line
        conditional = self.pp_depth > 0
        toks: list[Tok] = []
        paren_seen_at: Optional[int] = None  # token index of param-list '('
        paren_close: Optional[int] = None
        n = end
        # Leading template header?
        if self.toks[i].kind == "id" and self.toks[i].text == "template":
            toks.append(self.toks[i])
            i += 1
            if i < n and self.toks[i].text == "<":
                i = self._skip_angles(i)
        while i < n:
            t = self.toks[i]
            if t.kind == "pp":
                # A directive inside a statement: note conditionality, move on.
                if t.text in _CONDITIONAL_PP:
                    self.pp_depth += 1
                    conditional = True
                elif t.text == "endif" and self.pp_depth > 0:
                    self.pp_depth -= 1
                i += 1
                continue
            if t.kind == "punct" and t.text == "[":
                nxt = self._skip_attributes(i)
                if nxt != i:
                    i = nxt
                    continue
            if t.kind == "punct" and t.text == "<":
                closed = self._skip_angles(i)
                if closed > i + 1:
                    toks.extend(self.toks[i:closed])
                    i = closed
                    continue
            if t.kind == "punct" and t.text == "(":
                close = self._match_forward(i, "(", ")")
                if paren_seen_at is None:
                    paren_seen_at = len(toks)
                    paren_close = close
                toks.extend(self.toks[i:close])
                i = close
                continue
            if t.kind == "punct" and t.text == "{":
                close = self._match_forward(i, "{", "}")
                if paren_seen_at is not None:
                    # Function definition: record and stop at the body.
                    self._record_function(toks, paren_seen_at,
                                          self.toks[i + 1:close - 1],
                                          start_line, ns, cls, conditional)
                    # Optional trailing ';'
                    if close < n and self.toks[close].text == ";":
                        close += 1
                    return close
                # Brace initializer of a variable: absorb and continue to ';'.
                toks.extend(self.toks[i:close])
                i = close
                continue
            if t.kind == "punct" and t.text == ";":
                self._record_statement(toks, paren_seen_at, start_line, ns, cls,
                                       conditional)
                return i + 1
            if t.kind == "punct" and t.text == "}":
                # Unbalanced: bail out of a statement we misparsed.
                return i
            toks.append(t)
            i += 1
        if i > start:
            self._record_statement(toks, paren_seen_at, start_line, ns, cls,
                                   conditional)
        return i

    # -- statement classification -------------------------------------------

    @staticmethod
    def _param_names(param_toks: list[Tok]) -> list[str]:
        """Parameter names from the token run inside a param list's parens
        (excluding the parens themselves)."""
        params: list[list[Tok]] = [[]]
        depth_p = 0
        depth_a = 0
        for t in param_toks:
            if t.kind == "punct":
                if t.text == "(":
                    depth_p += 1
                elif t.text == ")":
                    depth_p -= 1
                elif t.text == "<":
                    depth_a += 1
                elif t.text in (">", ">>"):
                    depth_a = max(0, depth_a - (2 if t.text == ">>" else 1))
                elif t.text == "," and depth_p == 0 and depth_a == 0:
                    params.append([])
                    continue
            params[-1].append(t)
        names: list[str] = []
        for seg in params:
            # Cut at a default argument.
            cut = len(seg)
            d_p = d_a = 0
            for k, t in enumerate(seg):
                if t.kind == "punct":
                    if t.text == "(":
                        d_p += 1
                    elif t.text == ")":
                        d_p -= 1
                    elif t.text == "<":
                        d_a += 1
                    elif t.text in (">", ">>"):
                        d_a = max(0, d_a - (2 if t.text == ">>" else 1))
                    elif t.text == "=" and d_p == 0 and d_a == 0:
                        cut = k
                        break
            ids = [t.text for t in seg[:cut] if t.kind == "id"]
            names.append(ids[-1] if ids else "")
        if names == [""]:
            return []
        return names

    def _record_function(self, toks: list[Tok], paren_at: int,
                         body: list[Tok], line: int, ns: list[str],
                         cls: Optional[ClassModel], conditional: bool) -> None:
        head = toks[:paren_at]
        # Parameter tokens: from the recorded '(' at paren_at to its close.
        ptoks: list[Tok] = []
        depth = 0
        for t in toks[paren_at:]:
            if t.kind == "punct" and t.text == "(":
                depth += 1
                if depth == 1:
                    continue
            if t.kind == "punct" and t.text == ")":
                depth -= 1
                if depth == 0:
                    break
            ptoks.append(t)
        params = self._param_names(ptoks)
        # Declarator: trailing identifier (possibly Class::...::name).
        ids = [t for t in head if t.kind == "id"]
        if not ids:
            return
        name_tok = ids[-1]
        name = name_tok.text
        if name in _DECL_SPECIFIERS or name.startswith("operator"):
            return
        # Out-of-line `A::method` (namespace scope only)?
        idx = head.index(name_tok)
        if cls is None and idx >= 2 and head[idx - 1].text == "::" \
                and head[idx - 2].kind == "id":
            owner = head[idx - 2].text
            if owner not in ("std",) and not owner.islower() or owner[0].isupper():
                self.model.out_of_line.append(OutOfLineDef(
                    class_name=owner, method=name, relpath=self.relpath,
                    line=line, body=body, params=params))
                return
        if cls is not None:
            if name == cls.name or name.startswith("~"):
                return  # constructor / destructor
            # Attribute-cloned overloads ([[gnu::target]] variants) and
            # overloads share the name; keep the first body seen.
            if name not in cls.methods or cls.methods[name].body is None:
                cls.methods[name] = Method(name=name, line=line,
                                           body=body or None, params=params)

    def _record_statement(self, toks: list[Tok], paren_at: Optional[int],
                          line: int, ns: list[str], cls: Optional[ClassModel],
                          conditional: bool) -> None:
        if not toks:
            return
        first = toks[0]
        if first.kind == "id" and first.text in (
                "using", "typedef", "friend", "static_assert", "template",
                "extern", "operator", "return", "goto", "case", "default"):
            # `template` here means a declaration (no body) -- members of
            # template form are still picked up below when they are data.
            if first.text != "template":
                return
        # `void (*hook_)(...)`: a paren declarator starting with * or & is a
        # function-pointer data member, not a function declaration.
        fp_member = (paren_at is not None and paren_at + 1 < len(toks)
                     and toks[paren_at + 1].kind == "punct"
                     and toks[paren_at + 1].text in ("*", "&"))
        if paren_at is not None and not fp_member:
            # Function declaration without a body.
            self._record_function(toks, paren_at, [], line, ns, cls, conditional)
            return
        if cls is None:
            return  # namespace-scope variable: not a class member
        # Data member declaration(s).
        is_static = any(t.kind == "id" and t.text == "static" for t in toks)
        if is_static:
            return  # class-static: not per-instance checkpoint state
        # Split comma declarators at top level.
        segs: list[list[Tok]] = [[]]
        d_a = 0
        d_b = 0
        for t in toks:
            if t.kind == "punct":
                if t.text == "<":
                    d_a += 1
                elif t.text in (">", ">>"):
                    d_a = max(0, d_a - (2 if t.text == ">>" else 1))
                elif t.text in ("{", "("):
                    d_b += 1
                elif t.text in ("}", ")"):
                    d_b -= 1
                elif t.text == "," and d_a == 0 and d_b == 0:
                    segs.append([])
                    continue
            segs[-1].append(t)
        type_prefix: list[str] = []
        for gi, seg in enumerate(segs):
            if not seg:
                continue
            # Truncate at initializer / bit-field / array bound.
            cut = len(seg)
            d_a = d_b = 0
            for k, t in enumerate(seg):
                if t.kind == "punct":
                    if t.text == "<":
                        d_a += 1
                    elif t.text in (">", ">>"):
                        d_a = max(0, d_a - (2 if t.text == ">>" else 1))
                    elif t.text in ("(",):
                        d_b += 1
                    elif t.text == ")":
                        d_b -= 1
                    elif d_a == 0 and d_b == 0 and t.text in ("=", "{", "[", ":"):
                        cut = k
                        break
            decl = seg[:cut]
            ids = [t for t in decl if t.kind == "id"
                   and t.text not in _DECL_SPECIFIERS]
            if not ids:
                continue
            name_tok = ids[-1]
            if len(ids) < 2 and gi == 0:
                continue  # a lone identifier is a type, not `T name`
            name = name_tok.text
            tidx = decl.index(name_tok)
            ttoks = [t.text for t in decl[:tidx]] or type_prefix
            if gi == 0:
                type_prefix = ttoks
            top = []
            d_a = 0
            for t in decl[:tidx]:
                if t.kind == "punct":
                    if t.text == "<":
                        d_a += 1
                        continue
                    if t.text in (">", ">>"):
                        d_a = max(0, d_a - (2 if t.text == ">>" else 1))
                        continue
                if d_a == 0:
                    top.append(t.text)
            is_ref = "&" in top or "&&" in top
            is_const = "const" in top and "*" not in top
            cls.members.append(Member(
                name=name, line=name_tok.line, type_tokens=ttoks,
                is_static=False, is_const=is_const, is_reference=is_ref,
                conditional=conditional))


# ---------------------------------------------------------------------------
# Program model (cross-file)
# ---------------------------------------------------------------------------

@dataclass
class ProgramModel:
    files: dict[str, FileModel] = field(default_factory=dict)
    classes_by_name: dict[str, list[ClassModel]] = field(default_factory=dict)

    def add(self, fm: FileModel) -> None:
        self.files[fm.relpath] = fm
        for c in fm.classes:
            self.classes_by_name.setdefault(c.name, []).append(c)

    def link(self) -> None:
        """Attaches out-of-line method definitions to their class models."""
        for fm in self.files.values():
            for d in fm.out_of_line:
                for c in self.classes_by_name.get(d.class_name, []):
                    if d.method not in c.methods or c.methods[d.method].body is None:
                        c.methods[d.method] = Method(
                            name=d.method, line=d.line, body=d.body,
                            params=d.params, relpath=d.relpath)


def parse_program(root: str, relpaths: Iterable[str],
                  sources: dict[str, SourceFile]) -> ProgramModel:
    prog = ProgramModel()
    for relpath in relpaths:
        src = sources[relpath]
        try:
            fm = DeclParser(tokenize(src.code_lines), src.relpath).parse()
        except RecursionError:
            fm = FileModel(src.relpath)
        prog.add(fm)
    prog.link()
    return prog


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

Rule = Callable[[SourceFile, "LintContext"], Iterable[Violation]]
RULES: list[tuple[str, str, Rule]] = []
PROGRAM_RULES: list[tuple[str, str, Callable[["LintContext"], Iterable[Violation]]]] = []


def rule(rule_id: str, description: str):
    def wrap(fn: Rule):
        RULES.append((rule_id, description, fn))
        return fn

    return wrap


def program_rule(rule_id: str, description: str):
    def wrap(fn):
        PROGRAM_RULES.append((rule_id, description, fn))
        return fn

    return wrap


@dataclass
class LintContext:
    root: str
    program: ProgramModel
    sources: dict[str, SourceFile]


def _in(path: str, *prefixes: str) -> bool:
    return any(path.startswith(p) for p in prefixes)


WALLCLOCK_TOKENS = [
    (re.compile(r"\bstd::chrono\b"), "std::chrono"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::"),
     "wall-clock clock type"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::rand\b|(?<![\w:])rand\s*\(\s*\)"), "std::rand"),
    (re.compile(r"(?<![\w:])srand\s*\("), "srand"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"), "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime"),
    (re.compile(r"\bgetenv\s*\("), "getenv (environment-dependent behavior)"),
]


@rule("no-wallclock",
      "no wall-clock / nondeterministic sources outside src/exp/")
def check_wallclock(src: SourceFile, ctx: LintContext):
    if not _in(src.relpath, "src/") or _in(src.relpath, "src/exp/"):
        return
    for lineno, line in enumerate(src.code_lines, 1):
        for pattern, what in WALLCLOCK_TOKENS:
            if pattern.search(line):
                yield Violation(
                    src.relpath, lineno, "no-wallclock",
                    f"{what} is nondeterministic; simulated time comes from "
                    "sim::Simulator (wall-clock timing belongs in src/exp/)")
                break


ADDRESS_SEED_TOKENS = [
    (re.compile(r"\breinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\b"),
     "reinterpret_cast to (u)intptr_t turns an ASLR-randomized address into "
     "an integer"),
    (re.compile(r"\bstd::hash\s*<[^<>]*\*\s*>"),
     "std::hash over a pointer type hashes an ASLR-randomized address"),
    (re.compile(r"\(\s*(?:std\s*::\s*)?u?intptr_t\s*\)\s*(?:this\b|&)"),
     "C-cast of an address to (u)intptr_t"),
]


@rule("det-address-seed",
      "no address-derived values in deterministic code (ASLR re-rolls them)")
def check_address_seed(src: SourceFile, ctx: LintContext):
    if not _in(src.relpath, "src/") or _in(src.relpath, "src/exp/"):
        return
    for lineno, line in enumerate(src.code_lines, 1):
        for pattern, what in ADDRESS_SEED_TOKENS:
            if pattern.search(line):
                yield Violation(
                    src.relpath, lineno, "det-address-seed",
                    f"{what}; anything derived from an address (seeds, keys, "
                    "ordering) differs across runs and breaks bit-identical "
                    "sweeps")
                break


ALLOC_HEAP_NEW = re.compile(r"\bnew\b(?!\s*\()")  # `new (addr)` = placement, allowed
ALLOC_C_FUNCS = re.compile(r"\b(?:malloc|calloc|realloc)\s*\(")


@rule("no-hot-alloc",
      "no raw new/malloc in src/sim/, src/hv/, src/mon/, src/fault/, "
      "src/core/, src/hw/multicore/ and the src/exp/ batch engine")
def check_hot_alloc(src: SourceFile, ctx: LintContext):
    # src/core/ is included for the checkpoint path: snapshot() runs between
    # hunt evaluations thousands of times, so its serialization must go
    # through StateWriter's word vector, never ad-hoc heap cells.
    # src/hw/multicore/ is included because the interconnect charges every
    # admitted burst and routed IRQ: its demand tables are sized at
    # construction and must stay allocation-free afterwards.
    # The batch engine (src/exp/batch_runner*, src/exp/system_pool*) is
    # included because warm recycling exists precisely to keep 10k-run
    # campaigns at O(pool) allocations: a raw heap cell per lease or per
    # steal chunk would silently rebuild the per-run malloc traffic the
    # pool removed. The rest of src/exp/ (drivers, sweep glue) stays out
    # of scope.
    if not _in(src.relpath, "src/sim/", "src/hv/", "src/mon/", "src/fault/",
               "src/core/", "src/hw/multicore/",
               "src/exp/batch_runner", "src/exp/system_pool"):
        return
    for lineno, line in enumerate(src.code_lines, 1):
        if INCLUDE_RE.match(line):  # e.g. #include <new>
            continue
        if ALLOC_HEAP_NEW.search(line) or ALLOC_C_FUNCS.search(line):
            yield Violation(
                src.relpath, lineno, "no-hot-alloc",
                "raw heap allocation on a simulator hot path; use inline/"
                "pooled storage, or waive growth paths explicitly")


# A binary + or * (or compound +=, *=) between word/paren operands. Unary
# deref/pointers (`*w`, `(*f)(q)`) and increments (`i++`) do not match.
BINARY_ADD_MUL = re.compile(r"[\w\)\]]\s*(?:\+(?![+=])|\*(?![=*/]))\s*[\w\(]")
COMPOUND_ADD_MUL = re.compile(r"[\w\)\]]\s*[+*]=")
TICK_TYPES = re.compile(r"\b(?:Duration|TimePoint)\b|\bcount_ns\s*\(")


@rule("checked-arith",
      "tick arithmetic in src/analysis/ must use core/checked.hpp")
def check_checked_arith(src: SourceFile, ctx: LintContext):
    if not _in(src.relpath, "src/analysis/"):
        return
    for lineno, line in enumerate(src.code_lines, 1):
        if not TICK_TYPES.search(line):
            continue
        if BINARY_ADD_MUL.search(line) or COMPOUND_ADD_MUL.search(line):
            yield Violation(
                src.relpath, lineno, "checked-arith",
                "raw '+'/'*' on a tick quantity in analysis code; route "
                "through core::checked_add / core::checked_mul so Eq. 3-16 "
                "detect overflow instead of wrapping")


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')
BANNED_INCLUDES = [
    # (header, scope-prefixes, scope-exemptions, reason)
    ("chrono", ("src/sim/", "src/analysis/", "src/mon/", "src/hv/", "src/hw/"),
     (),
     "wall-clock types must not leak into deterministic sim/monitor/"
     "hypervisor code"),
    ("iostream", ("src/",), ("src/exp/",),
     "library code must not pull in iostream (static-init order, stray "
     "output); take std::ostream& or use <iosfwd>"),
    ("immintrin.h", ("src/",), (),
     "no hand-written SIMD intrinsics in library code: the portable "
     "kernels auto-vectorize and stay bit-identical to their scalar "
     "references"),
]


@rule("banned-include", "layer-banned includes (<chrono>, <iostream>)")
def check_banned_includes(src: SourceFile, ctx: LintContext):
    for lineno, line in enumerate(src.code_lines, 1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        for header, scopes, exemptions, reason in BANNED_INCLUDES:
            if m.group(1) != header:
                continue
            if not _in(src.relpath, *scopes) or _in(src.relpath, *exemptions):
                continue
            yield Violation(src.relpath, lineno, "banned-include",
                            f"<{header}> is banned here: {reason}")


USING_NAMESPACE = re.compile(r"\busing\s+namespace\b")
PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b")
IFNDEF_GUARD = re.compile(r"^\s*#\s*ifndef\s+\w+")


@rule("header-hygiene", "headers need #pragma once and no 'using namespace'")
def check_header_hygiene(src: SourceFile, ctx: LintContext):
    if not src.is_header():
        return
    # The guard must be the first code in the file (doc comments may precede).
    first_code = next((l for l in src.code_lines if l.strip()), "")
    if not (PRAGMA_ONCE.match(first_code) or IFNDEF_GUARD.match(first_code)):
        yield Violation(
            src.relpath, 1, "header-hygiene",
            "header must open with #pragma once (or a classic include guard) "
            "before any other code")
    for lineno, line in enumerate(src.code_lines, 1):
        if USING_NAMESPACE.search(line):
            yield Violation(
                src.relpath, lineno, "header-hygiene",
                "'using namespace' in a header pollutes every includer")


# ---------------------------------------------------------------------------
# Semantic rules: snapshot coverage / order
# ---------------------------------------------------------------------------

# The one checkpoint visitor, and the whole-object snapshot pair kept by the
# classes whose state is not a word stream (the event queue, the simulator,
# the metrics registry) or only partly one (the hypervisor's work units and
# trace ring).
STATE_FN = "state"
SNAPSHOT_PAIR = ("snapshot", "restore")


def _flatten_body(cls: ClassModel, body: list[Tok],
                  visited: set[str]) -> list[Tok]:
    """Body tokens plus the bodies of same-class helper methods it calls,
    transitively."""
    out = list(body)
    for k, t in enumerate(body):
        if (t.kind == "id" and k + 1 < len(body)
                and body[k + 1].kind == "punct" and body[k + 1].text == "("
                and t.text in cls.methods and t.text not in visited
                # `Base::helper(...)` is the base class's business, not ours
                and not (k >= 1 and body[k - 1].text == "::")):
            helper = cls.methods[t.text]
            if helper.body:
                visited.add(t.text)
                out.extend(_flatten_body(cls, helper.body, visited))
    return out


def _refs(members: list[Member], body: list[Tok]) -> set[str]:
    names = {m.name for m in members}
    return {t.text for t in body if t.kind == "id" and t.text in names}


def _block_end(body: list[Tok], open_idx: int) -> int:
    """Index of the token closing the bracket opened at body[open_idx]."""
    pairs = {"(": ")", "{": "}"}
    opener = body[open_idx].text
    depth = 0
    for k in range(open_idx, len(body)):
        if body[k].text == opener:
            depth += 1
        elif body[k].text == pairs[opener]:
            depth -= 1
            if depth == 0:
                return k
    return len(body) - 1


def _one_direction_blocks(body: list[Tok]) -> Iterable[tuple[int, int]]:
    """(start, end) token ranges of the branches of every
    `if constexpr (... kLoading ...)`: code that runs in one direction only."""
    for k in range(len(body) - 2):
        if not (body[k].text == "if" and body[k + 1].text == "constexpr"
                and body[k + 2].text == "("):
            continue
        cond_end = _block_end(body, k + 2)
        if not any(t.text == "kLoading" for t in body[k + 2:cond_end]):
            continue
        branch = cond_end + 1
        while branch < len(body):
            if body[branch].text == "{":
                end = _block_end(body, branch)
            else:  # unbraced branch: up to the next ';'
                end = branch
                while end < len(body) and body[end].text != ";":
                    end += 1
            yield branch, end
            if end + 1 < len(body) and body[end + 1].text == "else":
                branch = end + 2
                if branch < len(body) and body[branch].text == "if":
                    break  # `else if` chains are not load-only branches
                continue
            break


def _archive_calls_in_load_branches(cls: ClassModel,
                                    state: Method) -> Iterable[Violation]:
    body = state.body or []
    archive = state.params[0] if state.params else "ar"
    for start, end in _one_direction_blocks(body):
        for k in range(start, end):
            t = body[k]
            if (t.kind == "id" and t.text == archive
                    and body[k + 1].text in ("(", ".")):
                yield Violation(
                    state.relpath or cls.relpath, t.line, "snapshot-coverage",
                    f"{cls.name}::state: archive call in a one-direction "
                    "`if constexpr (Ar::kLoading)` branch -- the writer and "
                    "the reader would see different streams; keep that "
                    "branch to post-load fix-ups")


@program_rule("snapshot-coverage",
              "state(Ar&) must cover every data member (or carry a "
              "`lint: transient(<reason>)` waiver) and make no archive "
              "call in a load-only branch")
def check_snapshot_coverage(ctx: LintContext):
    for fm in ctx.program.files.values():
        for cls in fm.classes:
            state = cls.methods.get(STATE_FN)
            if state is not None and not state.body:
                state = None
            snap = cls.methods.get(SNAPSHOT_PAIR[0])
            rest = cls.methods.get(SNAPSHOT_PAIR[1])
            pair = (snap, rest) if (snap and rest and snap.body
                                    and rest.body) else None
            if state is None and pair is None:
                continue
            src = ctx.sources.get(cls.relpath)
            covered: set[str] = set()
            wrefs: set[str] = set()
            rrefs: set[str] = set()
            if state is not None:
                yield from _archive_calls_in_load_branches(cls, state)
                covered = _refs(cls.members, _flatten_body(
                    cls, state.body, {STATE_FN}))
            if pair is not None:
                wrefs = _refs(cls.members, _flatten_body(
                    cls, pair[0].body, {pair[0].name}))
                rrefs = _refs(cls.members, _flatten_body(
                    cls, pair[1].body, {pair[1].name}))
            seen: set[str] = set()
            for m in cls.members:
                if m.name in seen:
                    continue
                seen.add(m.name)
                if m.is_static or m.is_reference or m.is_const:
                    continue
                reason = src.transient_reason(m.line) if src else None
                if reason is not None:
                    if not reason:
                        yield Violation(
                            cls.relpath, m.line, "snapshot-coverage",
                            f"{cls.name}::{m.name}: transient waiver must "
                            "carry a reason -- write "
                            "`// lint: transient(<why it is not state>)`")
                    continue
                if m.name in covered or (m.name in wrefs and m.name in rrefs):
                    continue
                if state is not None:
                    where = "state()"
                    if pair is not None:
                        where += " or in both snapshot() and restore()"
                elif m.name in rrefs:
                    where = "snapshot()"
                elif m.name in wrefs:
                    where = "restore()"
                else:
                    where = "either snapshot() or restore()"
                yield Violation(
                    cls.relpath, m.line, "snapshot-coverage",
                    f"{cls.name}::{m.name} is not referenced in {where}; "
                    "serialize it (restores silently diverge otherwise) or "
                    "mark it `// lint: transient(<reason>)`")


# ---------------------------------------------------------------------------
# Semantic rules: determinism (unordered iteration, pointer-keyed order)
# ---------------------------------------------------------------------------

# The paths whose outputs feed results: sweep merge (exp), campaign/hunt
# evaluation (fault), metric/statistic folds (stats, obs) -- plus the
# simulator core itself. bench/ and tools are excluded: their output is
# human-facing reporting.
DET_SCOPES = ("src/",)

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
ORDERED_KEYED = {"map", "set", "multimap", "multiset"}


def _file_tokens(ctx: LintContext, relpath: str) -> list[Tok]:
    src = ctx.sources.get(relpath)
    return tokenize(src.code_lines) if src else []


def _unordered_vars(toks: list[Tok]) -> dict[str, int]:
    """name -> declaration line for variables/members of unordered type."""
    out: dict[str, int] = {}
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text in UNORDERED_TYPES and i + 1 < n \
                and toks[i + 1].text == "<":
            depth = 0
            j = i + 1
            while j < n:
                tj = toks[j]
                if tj.kind == "punct":
                    if tj.text == "<":
                        depth += 1
                    elif tj.text == ">":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    elif tj.text == ">>":
                        depth -= 2
                        if depth <= 0:
                            j += 1
                            break
                    elif tj.text == ";":
                        break
                j += 1
            while j < n and toks[j].kind == "punct" and toks[j].text in ("&", "*"):
                j += 1
            if j < n and toks[j].kind == "id":
                out[toks[j].text] = toks[j].line
            i = j
            continue
        i += 1
    return out


@program_rule("det-unordered-iter",
              "no iteration over unordered containers in result-affecting "
              "code (bucket order is not deterministic)")
def check_unordered_iteration(ctx: LintContext):
    for relpath in ctx.program.files:
        if not _in(relpath, *DET_SCOPES):
            continue
        toks = _file_tokens(ctx, relpath)
        hot = _unordered_vars(toks)
        if not hot:
            continue
        n = len(toks)
        for i, t in enumerate(toks):
            # `for ( ... : var )` range iteration
            if t.kind == "id" and t.text == "for" and i + 1 < n \
                    and toks[i + 1].text == "(":
                depth = 0
                colon_seen = False
                for j in range(i + 1, n):
                    tj = toks[j]
                    if tj.kind == "punct":
                        if tj.text == "(":
                            depth += 1
                        elif tj.text == ")":
                            depth -= 1
                            if depth == 0:
                                break
                        elif tj.text == ":" and depth == 1:
                            colon_seen = True
                            continue
                    if colon_seen and tj.kind == "id" and tj.text in hot:
                        yield Violation(
                            relpath, tj.line, "det-unordered-iter",
                            f"range-for over unordered container '{tj.text}' "
                            "(declared line "
                            f"{hot[tj.text]}): bucket order depends on hash "
                            "seed and load factor; fold into an ordered "
                            "container (or sort keys) before iterating")
                        break
            # explicit iterator walk: var.begin() / var.cbegin()
            if t.kind == "id" and t.text in hot and i + 2 < n \
                    and toks[i + 1].text == "." \
                    and toks[i + 2].kind == "id" \
                    and toks[i + 2].text in ("begin", "cbegin", "rbegin",
                                             "crbegin"):
                yield Violation(
                    relpath, t.line, "det-unordered-iter",
                    f"iterator walk over unordered container '{t.text}': "
                    "bucket order depends on hash seed and load factor; "
                    "fold into an ordered container before iterating")


@program_rule("det-pointer-key",
              "no pointer-keyed std::map/std::set in result-affecting code "
              "(iteration order is address order)")
def check_pointer_keyed(ctx: LintContext):
    for relpath in ctx.program.files:
        if not _in(relpath, *DET_SCOPES):
            continue
        toks = _file_tokens(ctx, relpath)
        n = len(toks)
        for i, t in enumerate(toks):
            if not (t.kind == "id" and t.text in ORDERED_KEYED):
                continue
            if not (i >= 2 and toks[i - 1].text == "::"
                    and toks[i - 2].text == "std"):
                continue
            if i + 1 >= n or toks[i + 1].text != "<":
                continue
            # First template argument: up to a depth-1 comma or the close.
            depth = 0
            first_arg: list[Tok] = []
            for j in range(i + 1, n):
                tj = toks[j]
                if tj.kind == "punct":
                    if tj.text == "<":
                        depth += 1
                        if depth == 1:
                            continue
                    elif tj.text == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    elif tj.text == ">>":
                        depth -= 2
                        if depth <= 0:
                            break
                    elif tj.text == "," and depth == 1:
                        break
                    elif tj.text == ";":
                        break
                first_arg.append(tj)
            if first_arg and first_arg[-1].kind == "punct" \
                    and first_arg[-1].text == "*":
                yield Violation(
                    relpath, t.line, "det-pointer-key",
                    f"std::{t.text} keyed on a pointer type: iteration order "
                    "is address order, which ASLR re-rolls every run; key on "
                    "a stable id instead")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def compile_db_files(root: str, db_path: str) -> list[str]:
    """Repo-relative C++ files recorded in a compile_commands.json."""
    try:
        with open(db_path, encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError):
        return []
    out: list[str] = []
    root_abs = os.path.abspath(root)
    for e in entries:
        f = e.get("file", "")
        if not os.path.isabs(f):
            f = os.path.join(e.get("directory", root_abs), f)
        f = os.path.normpath(f)
        if not f.endswith(CXX_EXTENSIONS):
            continue
        try:
            rel = os.path.relpath(f, root_abs)
        except ValueError:
            continue
        if rel.startswith(".."):
            continue
        out.append(rel)
    return sorted(set(out))


def find_compile_db(root: str) -> Optional[str]:
    for sub in ("build", "build-ci", "build-asan", "build-prof"):
        p = os.path.join(root, sub, "compile_commands.json")
        if os.path.exists(p):
            return p
    return None


def iter_source_files(root: str, subdirs: list[str],
                      compile_db: Optional[str] = None) -> Iterable[str]:
    seen: set[str] = set()
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            raise FileNotFoundError(f"scan directory not found: {base}")
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    if rel not in seen:
                        seen.add(rel)
                        yield rel
    # The compile database contributes TUs that live inside the scanned
    # subdirs but were missed by the walk (e.g. generated sources placed
    # there by the build).
    if compile_db:
        for rel in compile_db_files(root, compile_db):
            if rel in seen:
                continue
            if any(rel.replace(os.sep, "/").startswith(s.rstrip("/") + "/")
                   for s in subdirs):
                seen.add(rel)
                yield rel


@dataclass
class LintReport:
    violations: list[Violation]  # unwaived
    waived: list[Violation]


def run_lint(root: str, subdirs: list[str],
             compile_db: Optional[str] = None) -> LintReport:
    relpaths = list(iter_source_files(root, subdirs, compile_db))
    sources = {rp: load_source(root, rp) for rp in relpaths}
    program = parse_program(root, relpaths, sources)
    ctx = LintContext(root=root, program=program, sources=sources)
    active: list[Violation] = []
    waived: list[Violation] = []
    for relpath in relpaths:
        src = sources[relpath]
        for rule_id, _desc, fn in RULES:
            for v in fn(src, ctx):
                (waived if src.waived(v.line, v.rule) else active).append(v)
    for rule_id, _desc, fn in PROGRAM_RULES:
        for v in fn(ctx):
            src = sources.get(v.path)
            if src is not None and src.waived(v.line, v.rule):
                waived.append(v)
            else:
                active.append(v)
    active.sort(key=lambda v: (v.path, v.line, v.rule))
    waived.sort(key=lambda v: (v.path, v.line, v.rule))
    return LintReport(active, waived)


def write_json_report(path: str, root: str, subdirs: list[str],
                      report: LintReport) -> None:
    doc = {
        "schema": "rthv-lint-findings/1",
        "root": os.path.abspath(root),
        "scanned": subdirs,
        "rules": [{"id": rid, "description": desc}
                  for rid, desc, _fn in RULES] +
                 [{"id": rid, "description": desc}
                  for rid, desc, _fn in PROGRAM_RULES],
        "findings": [
            {"rule": v.rule, "file": v.path, "line": v.line,
             "message": v.message, "waived": False}
            for v in report.violations
        ] + [
            {"rule": v.rule, "file": v.path, "line": v.line,
             "message": v.message, "waived": True}
            for v in report.waived
        ],
        "counts": {
            "active": len(report.violations),
            "waived": len(report.waived),
        },
    }
    data = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(data)
    else:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(data)


def fixture_trees(fixtures: str) -> list[tuple[str, str]]:
    """(label, tree-root) pairs: fixtures/ itself plus each subdirectory
    holding its own src/ (one tree per semantic rule family)."""
    trees: list[tuple[str, str]] = []
    if os.path.isdir(os.path.join(fixtures, "src")):
        trees.append(("", fixtures))
    for name in sorted(os.listdir(fixtures)):
        sub = os.path.join(fixtures, name)
        if name != "src" and os.path.isdir(os.path.join(sub, "src")):
            trees.append((name, sub))
    return trees


def run_self_test(root: str, expect_findings: Optional[int] = None) -> int:
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
    if not os.path.isdir(fixtures):
        print(f"rthv-lint: fixtures directory missing: {fixtures}", file=sys.stderr)
        return 2
    trees = fixture_trees(fixtures)
    if not trees:
        print(f"rthv-lint: no fixture trees under {fixtures}", file=sys.stderr)
        return 2
    expected: set[tuple[str, int, str]] = set()
    found: set[tuple[str, int, str]] = set()
    for label, tree in trees:
        prefix = f"{label}/" if label else ""
        for relpath in iter_source_files(tree, ["src"]):
            with open(os.path.join(tree, relpath), encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    m = EXPECT_RE.search(line)
                    if m:
                        for rule_id in m.group(1).split(","):
                            expected.add((prefix + relpath.replace(os.sep, "/"),
                                          lineno, rule_id.strip()))
        report = run_lint(tree, ["src"])
        found.update((prefix + v.path, v.line, v.rule)
                     for v in report.violations)
    missing = expected - found
    unexpected = found - expected
    for path, line, rule_id in sorted(missing):
        print(f"SELF-TEST MISSING   {path}:{line}: [{rule_id}] did not fire")
    for path, line, rule_id in sorted(unexpected):
        print(f"SELF-TEST UNEXPECTED {path}:{line}: [{rule_id}] fired")
    if missing or unexpected:
        print(f"rthv-lint self-test FAILED "
              f"({len(missing)} missing, {len(unexpected)} unexpected)")
        return 1
    # Lint-regression gate: the total seeded-finding count is committed in
    # fixtures/EXPECTED_FINDINGS; a drift (rule added/removed a finding
    # without the expectation being updated) fails the self-test.
    committed = expect_findings
    count_file = os.path.join(fixtures, "EXPECTED_FINDINGS")
    if committed is None and os.path.exists(count_file):
        try:
            with open(count_file, encoding="utf-8") as f:
                committed = int(f.read().split()[0])
        except (ValueError, IndexError):
            print(f"rthv-lint: unparsable count in {count_file}", file=sys.stderr)
            return 2
    if committed is not None and committed != len(expected):
        print(f"rthv-lint self-test FAILED: {len(expected)} seeded findings, "
              f"but the committed expectation is {committed} "
              f"(update {count_file} deliberately if the fixture change is "
              "intentional)")
        return 1
    print(f"rthv-lint self-test passed: {len(expected)} expected findings "
          f"across {len(trees)} fixture tree(s), "
          f"{len(found & expected)} matched, clean fixtures quiet")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="rthv_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("subdirs", nargs="*", default=["src", "bench"],
                        help="directories under --root to scan "
                             "(default: src bench)")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--compile-db", default=None, metavar="PATH",
                        help="compile_commands.json to union with the "
                             "directory walk for file discovery (default: "
                             "auto-detected under build*/; 'none' disables)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write machine-readable findings (rule, file, "
                             "line, message, waiver state) to PATH "
                             "('-' = stdout)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture self-test instead of a scan")
    parser.add_argument("--expect-findings", type=int, default=None,
                        metavar="N",
                        help="with --self-test: require exactly N seeded "
                             "findings (default: fixtures/EXPECTED_FINDINGS)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and descriptions")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, desc, _fn in RULES:
            print(f"{rule_id:22s} {desc}")
        for rule_id, desc, _fn in PROGRAM_RULES:
            print(f"{rule_id:22s} {desc}")
        return 0
    if args.self_test:
        return run_self_test(args.root, args.expect_findings)

    subdirs = args.subdirs or ["src", "bench"]
    root = os.path.abspath(args.root)
    compile_db = args.compile_db
    if compile_db == "none":
        compile_db = None
    elif compile_db is None:
        compile_db = find_compile_db(root)
    try:
        report = run_lint(root, subdirs, compile_db)
    except FileNotFoundError as e:
        print(f"rthv-lint: {e}", file=sys.stderr)
        return 2
    if args.json:
        write_json_report(args.json, root, subdirs, report)
        if args.json == "-":
            # Machine output owns stdout; the exit code still reports status.
            return 1 if report.violations else 0
    for v in report.violations:
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if report.violations:
        print(f"rthv-lint: {len(report.violations)} violation(s) in "
              f"{len({v.path for v in report.violations})} file(s)"
              + (f" ({len(report.waived)} waived)" if report.waived else ""))
        return 1
    suffix = f", {len(report.waived)} waived finding(s)" if report.waived else ""
    print(f"rthv-lint: clean ({', '.join(subdirs)}{suffix})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
