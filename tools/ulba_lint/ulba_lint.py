#!/usr/bin/env python3
"""ulba-lint — contract-aware static analysis for the ULBA codebase.

The repo's determinism / concurrency / codec contracts are enforced after
the fact by golden tests, and only on the paths those tests cover.  This
pass turns the repo-specific rules into a compile-time gate that generic
tooling (ASan/UBSan/TSan, clang-tidy) cannot express:

  rng-discipline       No rand()/std::random_device/ad-hoc engine seeding
                       outside src/support/.  Kernel code draws only via
                       support::Rng / support::CounterRng, so every draw
                       stays addressable and trajectories stay bit-identical
                       across threads x ranks.
  unordered-iteration  No range-for / iterator loops over std::unordered_*
                       containers inside functions that serialize, print
                       reports, or accumulate floating-point — hash-order
                       iteration feeding serialized or accumulated output is
                       exactly how bit-identity dies silently.
  codec-discipline     Every serialize*/deserialize* in the disc.cpp
                       convention must carry a format-version marker, and a
                       deserializer must guard reads against remaining size.
                       Any raw memcpy needs a bounds check (ULBA_REQUIRE on
                       a size, or a resize/assign establishing the
                       destination) earlier in the same function.
  lock-discipline      No bare .lock()/.unlock() — RAII guards only
                       (lock_guard / scoped_lock / unique_lock).  Never hold
                       a mutex across a mailbox send/recv: the mailbox
                       blocks, and a held lock turns that into a deadlock
                       waiting for a message that needs the lock to be sent.
  tag-discipline       No integer-literal tags at Comm/mailbox call sites —
                       named kTag* constants only.  (By runtime convention
                       the tag is always the second argument of
                       send*/recv*/try_recv*.)
  time-discipline      steady_clock/system_clock reads are confined to the
                       measured-time and serve-metrics modules.  A wall
                       clock read anywhere else leaks real time into the
                       virtual-time trajectory.

Backends: when libclang's python bindings are importable AND the shared
library loads, function extents come from a real AST traversal; otherwise
the pass degrades gracefully to a token/structural analysis (comment/string
stripping + brace matching) so CI never silently loses coverage.  The rule
logic itself is shared between both backends — the backend only decides how
function boundaries and names are discovered.  The chosen backend is
printed and recorded in the JSON report.

Suppressions, in order of preference:
  1. Fix the code.
  2. Inline escape on (or on a comment line directly above) the finding:
         // ulba-lint: allow(rule-name): reason
     `allow(*)` silences every rule for that line.
  3. Baseline entry in tools/ulba_lint/baseline.json — every entry MUST
     carry a non-empty "reason"; the tool refuses a reasonless baseline.

Usage:
    ulba_lint.py [paths...] [--baseline FILE | --no-baseline]
                 [--json FILE] [--backend auto|clang|tokens]
                 [--rules r1,r2] [--list-rules]

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/config error.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baseline.json")

RULES = {
    "rng-discipline":
        "ad-hoc RNG engine/seed outside src/support/ — draw via "
        "support::Rng / support::CounterRng so draws stay addressable",
    "unordered-iteration":
        "iteration over an unordered container in a function that "
        "serializes, prints, or accumulates floating-point — hash order "
        "is not part of the determinism contract",
    "codec-discipline":
        "codec without a version marker / unguarded read — every "
        "serialize/deserialize checks a version and bounds-checks reads; "
        "raw memcpy needs a preceding size guard",
    "lock-discipline":
        "bare .lock()/.unlock() or a mutex held across a mailbox "
        "send/recv — use RAII guards and release before communicating",
    "tag-discipline":
        "integer-literal message tag at a Comm/mailbox call site — use a "
        "named kTag* constant",
    "time-discipline":
        "wall-clock read outside the measured-time / serve-metrics "
        "modules — real time must not leak into virtual-time paths",
}

# Paths (repo-relative, forward slashes) where a rule does not apply.  These
# are the modules whose *job* is the thing the rule bans everywhere else.
RULE_ALLOWED_PATHS = {
    "rng-discipline": [
        r"^src/support/",  # the RNG abstraction itself lives here
    ],
    "time-discipline": [
        r"^src/support/burn\.",        # burns real CPU by definition
        r"^src/erosion/app\.cpp$",     # measured-time track (RunResult::measured)
        r"^src/serve/",                # serve metrics (wall, throughput)
        r"^src/cli/serve_driver\.cpp$",  # serve-metrics harness (wall, rps)
    ],
}

ALLOW_RE = re.compile(r"ulba-lint:\s*allow\(([^)]*)\)")


class LintError(Exception):
    """Configuration/usage error — maps to exit code 2."""


# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------

class Function:
    def __init__(self, name, start_line, end_line):
        self.name = name
        self.start_line = start_line   # 1-based, inclusive (header line)
        self.end_line = end_line       # 1-based, inclusive (closing brace)

    def __repr__(self):
        return f"Function({self.name}, {self.start_line}-{self.end_line})"


class SourceFile:
    """One parsed file: raw text, comment/string-stripped text, inline
    allow() escapes, and the function extents (from either backend)."""

    def __init__(self, path, rel_path, raw_text):
        self.path = path
        self.rel_path = rel_path
        self.raw_lines = raw_text.split("\n")
        self.clean_text = strip_comments_and_strings(raw_text)
        self.clean_lines = self.clean_text.split("\n")
        self.allow = collect_inline_allows(self.raw_lines)
        self.functions = []

    def enclosing_function(self, line):
        """Innermost function whose extent contains `line` (or None)."""
        best = None
        for fn in self.functions:
            if fn.start_line <= line <= fn.end_line:
                if best is None or fn.start_line > best.start_line:
                    best = fn
        return best

    def body_text(self, fn):
        return "\n".join(self.clean_lines[fn.start_line - 1:fn.end_line])


def strip_comments_and_strings(text):
    """Blank out comments, string literals, and char literals while keeping
    every line break and column position (so line/col reporting and brace
    matching still line up with the original source)."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and nxt == "*":
            j = i
            while j < n - 1 and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n - 1:
                out[j] = out[j + 1] = " "
                j += 2
            i = j
        elif c == "R" and nxt == '"':
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if not m:
                out[i] = " "
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            end = text.find(close, i + m.end())
            end = n if end == -1 else end + len(close)
            for j in range(i, end):
                if text[j] != "\n":
                    out[j] = " "
            i = end
        elif c == '"' or c == "'":
            quote = c
            out[i] = " "
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    out[j] = " "
                    if text[j + 1] != "\n":
                        out[j + 1] = " "
                    j += 2
                    continue
                if text[j] == "\n":   # unterminated — bail at line end
                    break
                out[j] = " "
                j += 1
            if j < n and text[j] == quote:
                out[j] = " "
                j += 1
            i = j
        else:
            i += 1
    return "".join(out)


def collect_inline_allows(raw_lines):
    """line (1-based) -> set of rule names allowed there.  An allow on a
    comment-only line also covers the next line."""
    allow = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        unknown = {r for r in rules if r != "*" and r not in RULES}
        if unknown:
            raise LintError(
                f"line {idx}: unknown rule(s) in ulba-lint allow(): "
                f"{', '.join(sorted(unknown))}")
        allow.setdefault(idx, set()).update(rules)
        if line.strip().startswith("//"):
            # Comment-only line: the allow covers the first code line below
            # (skipping the rest of a multi-line comment).
            j = idx + 1
            while (j <= len(raw_lines)
                   and raw_lines[j - 1].strip().startswith("//")):
                j += 1
            allow.setdefault(j, set()).update(rules)
    return allow


# ---------------------------------------------------------------------------
# Function discovery — token/structural backend
# ---------------------------------------------------------------------------

_NOT_FUNCTION_NAMES = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "decltype", "static_assert", "noexcept", "new", "delete", "throw",
    "alignas", "defined", "assert",
}

_HEADER_NAME_RE = re.compile(r"(~?[A-Za-z_][\w]*)\s*\(")


def _matching(text, start, open_ch, close_ch):
    """Index just past the bracket matching text[start] (== open_ch)."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def discover_functions_tokens(sf):
    """Function definitions via comment-stripped pattern + brace matching.

    Heuristic tuned for this clang-format'ed codebase: an identifier
    followed by a balanced parameter list, then (skipping specifiers,
    trailing return types, and constructor init lists) an opening brace.
    Lambdas never match (no identifier directly before the paren), so their
    bodies are attributed to the enclosing named function — which is the
    attribution the rules want anyway.
    """
    text = sf.clean_text
    functions = []
    for m in _HEADER_NAME_RE.finditer(text):
        name = m.group(1)
        if name in _NOT_FUNCTION_NAMES:
            continue
        # Must not be a member access / qualified call fragment like `x.f(`
        prev = text[:m.start()].rstrip()[-1:]
        if prev in {".", ">", "-"} and not text[:m.start()].rstrip().endswith("&&"):
            # `.f(` or `->f(`; `operator>(` is lost, acceptable
            if prev == "." or text[:m.start()].rstrip().endswith("->"):
                continue
        paren_open = m.end() - 1
        after_params = _matching(text, paren_open, "(", ")")
        # Walk from the params to `{`, `;`, or a disqualifier.
        i = after_params
        while i < len(text):
            c = text[i]
            if c in " \t\n":
                i += 1
            elif c == "{":
                break
            elif c in ";=":
                i = -1
                break
            elif c == "(":            # e.g. noexcept(...), init list member(..)
                i = _matching(text, i, "(", ")")
            elif c == ":":            # ctor init list / `-> a::b`
                i += 1
            elif c == "-" and text[i:i + 2] == "->":
                i += 2
            elif c.isalnum() or c in "_&*<>,[]":
                i += 1
            else:
                i = -1
                break
        if i == -1 or i >= len(text):
            continue
        body_end = _matching(text, i, "{", "}")
        start_line = text.count("\n", 0, m.start()) + 1
        end_line = text.count("\n", 0, max(body_end - 1, 0)) + 1
        functions.append(Function(name, start_line, end_line))
    return functions


# ---------------------------------------------------------------------------
# Function discovery — libclang backend
# ---------------------------------------------------------------------------

def load_libclang():
    """Return the clang.cindex module with a working library, else None."""
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        # Bindings importable but libclang.so missing/mismatched.
        for name in ("libclang.so", "libclang-17.so", "libclang-16.so",
                     "libclang-15.so", "libclang-14.so"):
            try:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(name)
                cindex.Index.create()
                return cindex
            except Exception:
                continue
    return None


def discover_functions_clang(sf, cindex):
    """Function extents from a real AST traversal.  Same model as the token
    backend — the rules only need (name, start_line, end_line)."""
    kinds = {
        cindex.CursorKind.FUNCTION_DECL,
        cindex.CursorKind.CXX_METHOD,
        cindex.CursorKind.CONSTRUCTOR,
        cindex.CursorKind.DESTRUCTOR,
        cindex.CursorKind.FUNCTION_TEMPLATE,
        cindex.CursorKind.CONVERSION_FUNCTION,
    }
    index = cindex.Index.create()
    tu = index.parse(
        sf.path,
        args=["-x", "c++", "-std=c++20", "-I", os.path.join(REPO_ROOT, "src")],
        options=cindex.TranslationUnit.PARSE_INCOMPLETE)
    functions = []

    def walk(cursor):
        for child in cursor.get_children():
            loc = child.location
            if loc.file is not None and os.path.samefile(str(loc.file),
                                                         sf.path):
                if child.kind in kinds and child.is_definition():
                    ext = child.extent
                    functions.append(Function(child.spelling,
                                              ext.start.line, ext.end.line))
                walk(child)

    walk(tu.cursor)
    return functions


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, sf, line, message):
        self.rule = rule
        self.path = sf.rel_path
        self.line = line
        self.message = message
        self.snippet = (sf.raw_lines[line - 1].strip()
                        if 0 < line <= len(sf.raw_lines) else "")
        self.suppressed = None  # None | "inline" | "baseline"

    def to_json(self):
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
        }

    @staticmethod
    def from_json(obj):
        f = Finding.__new__(Finding)
        f.rule, f.path, f.line = obj["rule"], obj["path"], obj["line"]
        f.message, f.snippet = obj["message"], obj["snippet"]
        f.suppressed = obj.get("suppressed")
        return f


def path_allowed(rule, rel_path):
    for pattern in RULE_ALLOWED_PATHS.get(rule, []):
        if re.search(pattern, rel_path):
            return True
    return False


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

_RNG_ENGINE_RE = re.compile(
    r"\b(?:std::)?(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux(?:24|48)(?:_base)?|knuth_b|random_device)\b")
_RNG_CALL_RE = re.compile(r"(?<![\w:])s?rand\s*\(")


def rule_rng_discipline(sf):
    findings = []
    for idx, line in enumerate(sf.clean_lines, start=1):
        m = _RNG_ENGINE_RE.search(line) or _RNG_CALL_RE.search(line)
        if m:
            findings.append(Finding(
                "rng-discipline", sf, idx,
                "ad-hoc RNG engine/seed — kernel code must draw via "
                "support::Rng or support::CounterRng so every draw stays "
                "position-addressed"))
    return findings


_UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")
_RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*[^();]*?:\s*([A-Za-z_][\w.\->]*)\s*\)", re.S)
_ITER_BEGIN_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(?:c?begin)\s*\(")
_SINK_NAME_RE = re.compile(
    r"serialize|print|report|dump|write|render|to_string|operator<<", re.I)
_STREAM_WRITE_RE = re.compile(
    r"\b(?:out|os|oss|stream|std::cout|std::cerr)\s*<<")
_FLOAT_ACCUM_RE = re.compile(r"\+=")


def _unordered_variables(sf):
    """Names declared (anywhere in the file) with an unordered_* type."""
    names = set()
    text = sf.clean_text
    for m in _UNORDERED_DECL_RE.finditer(text):
        i = m.end() - 1
        depth = 0
        while i < len(text):
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = text[i + 1:i + 120]
        vm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]", tail)
        if vm:
            names.add(vm.group(1))
    return names


def _is_sink_function(sf, fn):
    if _SINK_NAME_RE.search(fn.name):
        return True
    body = sf.body_text(fn)
    if _STREAM_WRITE_RE.search(body):
        return True
    if _FLOAT_ACCUM_RE.search(body) and re.search(
            r"\bdouble\b|\bfloat\b|\bRunResult\b", body):
        return True
    return False


def rule_unordered_iteration(sf):
    findings = []
    unordered = _unordered_variables(sf)
    if not unordered:
        return findings
    text = sf.clean_text
    seen = set()
    candidates = []
    for m in _RANGE_FOR_RE.finditer(text):
        seq = m.group(1)
        last = re.split(r"\.|->", seq)[-1]
        if last in unordered or "unordered_" in seq:
            candidates.append((m.start(), last, "range-for"))
    for m in _ITER_BEGIN_RE.finditer(text):
        if m.group(1) in unordered:
            candidates.append((m.start(), m.group(1), "iterator loop"))
    for offset, var, kind in candidates:
        line = text.count("\n", 0, offset) + 1
        fn = sf.enclosing_function(line)
        if fn is None or not _is_sink_function(sf, fn):
            continue
        if (line, var) in seen:
            continue
        seen.add((line, var))
        findings.append(Finding(
            "unordered-iteration", sf, line,
            f"{kind} over unordered container '{var}' inside "
            f"'{fn.name}', which serializes/prints/accumulates — hash "
            "order would leak into contract-bearing output; use an "
            "ordered container or sort the keys first"))
    return findings


_CODEC_FN_RE = re.compile(r"^(serialize|deserialize)\w*$", re.I)
_VERSION_RE = re.compile(r"[Vv]ersion")
_SIZE_GUARD_RE = re.compile(
    r"ULBA_REQUIRE\s*\([^;]*?(?:size|sizeof|empty)|\bread_raw\b|"
    r"\bread_counted\b", re.S)
_MEMCPY_RE = re.compile(r"\bmemcpy\s*\(")
_MEMCPY_GUARD_RE = re.compile(
    r"ULBA_REQUIRE\s*\([^;]*?(?:size|sizeof)|\.resize\s*\(|\.assign\s*\(",
    re.S)


def rule_codec_discipline(sf):
    findings = []
    for fn in sf.functions:
        body = sf.body_text(fn)
        m = _CODEC_FN_RE.match(fn.name)
        if m:
            # Helper-sized codec shims (append_raw/read_raw relays) are not
            # full codecs; only functions that actually frame a payload
            # (multiple appends/reads) owe a version marker.
            frames = len(re.findall(
                r"\bappend_raw\b|\bappend_bytes\b|\bappend_counted\b|"
                r"\bread_raw\b|\bread_counted\b|\bmemcpy\b", body))
            if frames >= 2 and not _VERSION_RE.search(body):
                findings.append(Finding(
                    "codec-discipline", sf, fn.start_line,
                    f"codec '{fn.name}' has no format-version marker — "
                    "append/check a version so a stale peer fails loudly "
                    "instead of misparsing"))
            if (m.group(1).lower() == "deserialize"
                    and frames >= 2 and not _SIZE_GUARD_RE.search(body)):
                findings.append(Finding(
                    "codec-discipline", sf, fn.start_line,
                    f"deserializer '{fn.name}' never guards a read against "
                    "the remaining payload size (no ULBA_REQUIRE on "
                    "size/sizeof and no read_raw/read_counted helper)"))
    # Raw memcpy without a preceding bounds check, in any function.
    for idx, line in enumerate(sf.clean_lines, start=1):
        if not _MEMCPY_RE.search(line):
            continue
        fn = sf.enclosing_function(idx)
        if fn is None:
            continue
        before = "\n".join(sf.clean_lines[fn.start_line - 1:idx])
        if not _MEMCPY_GUARD_RE.search(before):
            findings.append(Finding(
                "codec-discipline", sf, idx,
                f"raw memcpy in '{fn.name}' with no preceding bounds "
                "check (ULBA_REQUIRE on a size, or a resize/assign "
                "establishing the destination)"))
    return findings


_BARE_LOCK_RE = re.compile(r"(?<!try_)\.\s*(?:lock|unlock)\s*\(\s*\)")
_GUARD_DECL_RE = re.compile(
    r"\b(?:lock_guard|scoped_lock|unique_lock)\s*(?:<[^<>]*>)?\s+\w+\s*[({]")
_MAILBOX_CALL_RE = re.compile(
    r"\b(?:send|recv|try_recv)\w*\s*(?:<[^<>;(){}]*>)?\s*\(")


def rule_lock_discipline(sf):
    findings = []
    for idx, line in enumerate(sf.clean_lines, start=1):
        if _BARE_LOCK_RE.search(line):
            findings.append(Finding(
                "lock-discipline", sf, idx,
                "bare .lock()/.unlock() — use std::lock_guard / "
                "std::scoped_lock / std::unique_lock so every exit path "
                "releases the mutex"))
    # A mutex held across a mailbox send/recv: guard declared, then a
    # communication call before the guard's scope closes.
    depth = 0
    depth_at_line = []  # depth at the START of each line
    for line in sf.clean_lines:
        depth_at_line.append(depth)
        depth += line.count("{") - line.count("}")
    for idx, line in enumerate(sf.clean_lines, start=1):
        gm = _GUARD_DECL_RE.search(line)
        if not gm:
            continue
        guard_depth = depth_at_line[idx - 1]
        j = idx  # scan following lines until the guard's block closes
        while j < len(sf.clean_lines):
            if depth_at_line[j] < guard_depth + (
                    1 if "{" in line[:gm.start()] else 0):
                if depth_at_line[j] <= guard_depth - 1:
                    break
            nxt = sf.clean_lines[j]
            if depth_at_line[j] < guard_depth and j > idx:
                break
            if _MAILBOX_CALL_RE.search(nxt) and not _GUARD_DECL_RE.search(nxt):
                findings.append(Finding(
                    "lock-discipline", sf, j + 1,
                    "mailbox send/recv while a lock guard from line "
                    f"{idx} is still held — blocking communication under "
                    "a mutex invites deadlock; release first"))
                break
            j += 1
    return findings


_TAG_CALL_RE = re.compile(
    r"\b(send|recv|try_recv)(_\w+)?\s*(?:<[^<>;(){}]*>)?\s*\(")


def _split_top_level_args(text, open_paren):
    """Arguments of the call whose '(' is at `open_paren`, split on
    top-level commas.  Returns (args, end_index)."""
    args, depth, cur = [], 0, []
    i = open_paren
    while i < len(text):
        c = text[i]
        if c in "([{":
            depth += 1
            if depth > 1:
                cur.append(c)
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append("".join(cur))
                return args, i
            cur.append(c)
        elif c == "," and depth == 1:
            args.append("".join(cur))
            cur = []
        elif c == "<":
            cur.append(c)
        else:
            cur.append(c)
        i += 1
    return args, i


def rule_tag_discipline(sf):
    findings = []
    text = sf.clean_text
    for m in _TAG_CALL_RE.finditer(text):
        # Call sites only: a declaration/definition (`void send_bytes(...)`)
        # or a declarator (`std::vector<T> send_to(...)`) is preceded by a
        # type token; a call is preceded by `.`/`->`/`::`, a statement
        # boundary, or an expression context character.
        before = text[:m.start()].rstrip()
        if before and (before[-1].isalnum() or before[-1] in "_>*&~"):
            if not (before.endswith("->") or before.endswith("::")):
                continue
        open_paren = text.index("(", m.end() - 1)
        args, _ = _split_top_level_args(text, open_paren)
        if len(args) < 2:
            continue
        tag = args[1].strip()
        if re.fullmatch(r"[+-]?\d+", tag):
            line = text.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                "tag-discipline", sf, line,
                f"integer-literal tag {tag} at a mailbox call site — "
                "name it (constexpr int kTag... = ...) so tag collisions "
                "are visible at a glance"))
    return findings


_CLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock)\b")


def rule_time_discipline(sf):
    findings = []
    for idx, line in enumerate(sf.clean_lines, start=1):
        if _CLOCK_RE.search(line):
            findings.append(Finding(
                "time-discipline", sf, idx,
                "wall-clock read outside the measured-time / "
                "serve-metrics modules — virtual-time paths must not "
                "observe real time"))
    return findings


RULE_FUNCTIONS = {
    "rng-discipline": rule_rng_discipline,
    "unordered-iteration": rule_unordered_iteration,
    "codec-discipline": rule_codec_discipline,
    "lock-discipline": rule_lock_discipline,
    "tag-discipline": rule_tag_discipline,
    "time-discipline": rule_time_discipline,
}
assert set(RULE_FUNCTIONS) == set(RULES)


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def load_baseline(path):
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        raise LintError(f"baseline file not found: {path}")
    except json.JSONDecodeError as err:
        raise LintError(f"baseline {path} is not valid JSON: {err}")
    entries = data.get("suppressions", [])
    for i, entry in enumerate(entries):
        for key in ("rule", "path", "contains", "reason"):
            if key not in entry:
                raise LintError(
                    f"baseline entry #{i} is missing required key '{key}'")
        if entry["rule"] not in RULES:
            raise LintError(
                f"baseline entry #{i} names unknown rule "
                f"'{entry['rule']}'")
        if not str(entry["reason"]).strip():
            raise LintError(
                f"baseline entry #{i} ({entry['rule']} @ {entry['path']}) "
                "has an empty reason — every suppression must justify "
                "itself")
        entry["_used"] = False
    return entries


def apply_suppressions(findings, sources, baseline_entries):
    by_path = {sf.rel_path: sf for sf in sources}
    for finding in findings:
        sf = by_path.get(finding.path)
        if sf is not None:
            allowed = sf.allow.get(finding.line, set())
            if "*" in allowed or finding.rule in allowed:
                finding.suppressed = "inline"
                continue
        for entry in baseline_entries:
            if (entry["rule"] == finding.rule
                    and entry["path"] == finding.path
                    and entry["contains"] in finding.snippet):
                finding.suppressed = "baseline"
                entry["_used"] = True
                break
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def gather_files(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith((".cpp", ".hpp", ".cc", ".h")):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise LintError(f"no such file or directory: {path}")
    return sorted(set(files))


def lint_files(files, backend="auto", rules=None):
    """Returns (sources, findings, backend_used)."""
    cindex = None
    backend_used = "tokens"
    if backend in ("auto", "clang"):
        cindex = load_libclang()
        if cindex is not None:
            backend_used = "clang"
        elif backend == "clang":
            raise LintError("--backend clang requested but libclang's "
                            "python bindings are unavailable")
    active = rules or sorted(RULES)
    for rule in active:
        if rule not in RULES:
            raise LintError(f"unknown rule '{rule}' (see --list-rules)")
    sources, findings = [], []
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
        rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
        rel = rel.replace(os.sep, "/")
        sf = SourceFile(path, rel, raw)
        if backend_used == "clang":
            try:
                sf.functions = discover_functions_clang(sf, cindex)
            except Exception:
                sf.functions = discover_functions_tokens(sf)
        else:
            sf.functions = discover_functions_tokens(sf)
        sources.append(sf)
        for rule in active:
            if path_allowed(rule, sf.rel_path):
                continue
            findings.extend(RULE_FUNCTIONS[rule](sf))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return sources, findings, backend_used


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ulba_lint",
        description="contract-aware static analysis for the ULBA repo")
    parser.add_argument("paths", nargs="*",
                        default=[os.path.join(REPO_ROOT, "src")],
                        help="files/directories to lint (default: src/)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="suppression baseline JSON")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline entirely")
    parser.add_argument("--json", dest="json_out", metavar="FILE",
                        help="write machine-readable findings JSON")
    parser.add_argument("--backend", choices=["auto", "clang", "tokens"],
                        default="auto")
    parser.add_argument("--rules", help="comma-separated rule subset")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(f"{name}: {RULES[name]}")
        return 0

    try:
        rules = ([r.strip() for r in args.rules.split(",") if r.strip()]
                 if args.rules else None)
        files = gather_files(args.paths)
        if not files:
            raise LintError("no C++ sources found under the given paths")
        baseline_entries = ([] if args.no_baseline
                            else load_baseline(args.baseline))
        sources, findings, backend_used = lint_files(
            files, backend=args.backend, rules=rules)
        apply_suppressions(findings, sources, baseline_entries)
    except LintError as err:
        print(f"ulba-lint: error: {err}", file=sys.stderr)
        return 2

    unsuppressed = [f for f in findings if f.suppressed is None]
    print(f"ulba-lint: backend: {backend_used}"
          + ("" if backend_used == "clang"
             else " (libclang unavailable — token/structural analysis)"))
    for finding in findings:
        mark = {"inline": " [suppressed: inline allow]",
                "baseline": " [suppressed: baseline]"}.get(
                    finding.suppressed, "")
        stream = sys.stdout if finding.suppressed else sys.stderr
        print(f"{finding.path}:{finding.line}: [{finding.rule}] "
              f"{finding.message}{mark}\n    {finding.snippet}", file=stream)

    for entry in baseline_entries:
        if not entry.get("_used"):
            print(f"ulba-lint: note: baseline entry no longer matches "
                  f"anything: {entry['rule']} @ {entry['path']} "
                  f"(contains: {entry['contains']!r})")

    suppressed = len(findings) - len(unsuppressed)
    print(f"ulba-lint: {len(files)} files, {len(findings)} finding(s), "
          f"{suppressed} suppressed, {len(unsuppressed)} blocking")

    if args.json_out:
        report = {
            "tool": "ulba-lint",
            "backend": backend_used,
            "files": len(files),
            "rules": sorted(rules or RULES),
            "findings": [f.to_json() for f in findings],
            "summary": {
                "total": len(findings),
                "suppressed": suppressed,
                "blocking": len(unsuppressed),
            },
        }
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
            f.write("\n")

    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
