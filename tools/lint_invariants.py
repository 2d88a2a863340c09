#!/usr/bin/env python3
"""Domain invariant lints the compiler cannot express.

Registered as ctest cases alongside docs_links (`ctest -R lint_`), so a
violation fails the suite, not a reviewer's eyeball.  Each rule encodes a
repo-wide discipline whose rationale lives where the discipline does:

  raw-mutex           Every lock site must be analysable by Clang's thread
                      safety analysis, so no raw std::mutex /
                      std::condition_variable / std::lock_guard /
                      std::unique_lock / std::scoped_lock outside
                      src/common/thread_annotations.hpp — use spinn::Mutex,
                      spinn::CondVar, spinn::MutexLock.
  raw-int-parse       Wire-side integers (src/net, src/server) and the ids and
                      options the examples' transports read (examples/, e.g.
                      server_repl) parse through parse_u64_strict /
                      from_chars-based helpers, never the
                      saturate-and-succeed strto*/ato*/sto* family.  bench/
                      is out of scope: it parses only its own command-line
                      flags.
  reactor-blocking    Nothing inside a reactor event-loop body — any
                      NetServer::*loop*() / Reactor::*loop*() definition in
                      the reactor files — may block (sleeps, joins, session
                      waits, stdio reads): one stuck call stalls every
                      connection on that reactor.
  reactor-loop        Unbounded loops (for(;;)/while(true)) inside a reactor
                      event-loop body must contain a break or return — the
                      epoll loop itself is bounded by stopping_.
  fault-blocking      FaultController entry points execute inside the
                      engine's event loop as root-actor events (and under
                      the owning session's lock): no method body in
                      src/core/fault_controller.cpp may block — a sleep or
                      join inside a fault event stalls the whole engine at
                      a global quiesce point.
  frame-throw         The frame decode path (src/net/frame.*) is noexcept:
                      no `throw`, and FrameDecoder::next stays declared
                      noexcept (an exception unwinding the reactor thread
                      aborts the process).
  include-discipline  tests/bench/examples include project headers through
                      the public include root ("net/frame.hpp"), never by
                      relative escape ("../src/..."), never a .cpp, never
                      detail/ or *_internal.hpp headers.
  tsa-justify         SPINN_NO_THREAD_SAFETY_ANALYSIS is a last resort:
                      every use outside the macro's own header needs an
                      adjacent justifying comment (same line or one of the
                      three lines above).
  session-client-lock Session's client methods (drain, status, has_work,
                      request_run, schedule_fault, notify_idle, wait_idle)
                      take only the control lock `ctl_`: their bodies in
                      src/server/session.cpp must not name the slice lock
                      `mu_`, which a worker holds through a whole slice —
                      a client call taking it waits for that slice, and a
                      reactor making the call stalls every connection.
  obs-hot-path        A body annotated `// obs:hot` is a telemetry hot
                      path — counter increments and trace records that run
                      per frame/spike.  No locks, no allocation, no
                      container growth inside it: instrumentation that
                      blocks or mallocs perturbs the thing it observes.
                      The obs headers must each carry at least one marker,
                      or the rule has silently stopped running.
  isa-confined        Target-specific code (target attributes,
                      target_clones, *intrin.h headers) and the CPU query
                      (__builtin_cpu_supports/_init) live only in
                      src/common/rng_stream.cpp: one module decides what
                      the CPU runs, and everything else stays baseline
                      code, where no target option can contract a double
                      into a fused multiply-add.

Suppression: a `lint:allow(<rule>)` comment disables that rule from its own
line through the next ALLOW_WINDOW lines — close enough to function scope
that the justification stays next to the code it excuses.

Fixture mode (`--fixture file.cpp`) runs the rules against one file that
declares what it seeds:

    // lint-expect: raw-mutex
    // lint-path: src/server/whatever.cpp

and exits 0 only if every expected rule fires — the negative tests that keep
this linter from silently rotting.
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCAN_DIRS = ["src", "tests", "bench", "examples"]
EXTENSIONS = {".cpp", ".hpp", ".h", ".cc"}
WRAPPER_HEADER = "src/common/thread_annotations.hpp"
# Files whose event-loop bodies the reactor rules cover.  The loop itself
# lives in reactor.cpp; server.cpp stays listed so a loop ever moving back
# there (or a new orchestrator-side loop appearing) is covered, not missed.
REACTOR_FILES = ("src/net/server.cpp", "src/net/reactor.cpp")
# The file that must contain at least one loop body — scanning zero bodies
# anywhere would mean the rules silently stopped running.
REACTOR_LOOP_HOME = "src/net/reactor.cpp"
# Fault-controller entry points run as root-actor events inside the engine
# loop: the same no-blocking discipline as the reactors.
FAULT_FILE = "src/core/fault_controller.cpp"
# Session methods a client (often a reactor) calls: they take only the
# control lock, never the slice lock a worker holds through a slice.
SESSION_FILE = "src/server/session.cpp"
SESSION_CLIENT_METHODS = ("drain", "status", "has_work", "request_run",
                          "schedule_fault", "notify_idle", "wait_idle")
SLICE_LOCK = re.compile(r"\bmu_\b")
ALLOW_WINDOW = 40

RAW_MUTEX = re.compile(
    r"std::(?:mutex|condition_variable(?:_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_mutex|shared_lock|recursive_mutex|timed_mutex)\b"
)
RAW_INT_PARSE = re.compile(
    r"(?:\bstd::)?\b(?:strtou?ll?|strtoi?max|atoi|atol|atoll|atof|"
    r"sscanf|stoi|stol|stoll|stoul|stoull)\s*\("
)
BLOCKING_CALL = re.compile(
    r"\b(?:sleep_for|sleep_until|usleep|nanosleep|::sleep|system|popen|"
    r"fork|getline|fgets|fscanf|scanf|wait_idle|\.join)\s*\(|"
    r"\bsrv_\.wait\s*\(|\bsessions_\.wait\s*\("
)
UNBOUNDED_LOOP = re.compile(r"\bfor\s*\(\s*;;\s*\)|\bwhile\s*\(\s*true\s*\)")
# Any out-of-line *loop* method of the reactor classes: loop, drive_loop,
# accept_loop...  The brace matcher then isolates the definition body.
REACTOR_LOOP_DECL = re.compile(r"\b(?:NetServer|Reactor)::\w*loop\w*\s*\(")
# Any out-of-line FaultController method: schedule, execute, kill_core...
# New entry points are covered the day they are written.
FAULT_ENTRY_DECL = re.compile(r"\bFaultController::\w+\s*\(")
BAD_INCLUDE = re.compile(r'#\s*include\s*"([^"]+)"')
NO_TSA = re.compile(r"\bSPINN_NO_THREAD_SAFETY_ANALYSIS\b")
# The hot-path marker is a whole comment line, so a prose mention of
# `// obs:hot` inside another comment never arms the rule.
OBS_HOT_MARKER = re.compile(r"^\s*//\s*obs:hot\b")
OBS_HOT_FORBIDDEN = re.compile(
    r"\bMutexLock\b|\block\s*\(|\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|"
    r"\bmake_unique\b|\bmake_shared\b|\bpush_back\b|\bemplace_back\b|"
    r"\bresize\s*\(|\breserve\s*\(|\bstd::string\b|\bstd::vector\b"
)
# Headers that exist to provide hot-path machinery: each must carry at
# least one obs:hot marker or the rule is scanning nothing.
OBS_HOT_HOMES = ("src/obs/registry.hpp", "src/obs/trace.hpp",
                 "src/common/trace_ring.hpp")
# The one module allowed to hold target-specific code and ask the CPU
# what it runs.
ISA_HOME = "src/common/rng_stream.cpp"
ISA_SPECIFIC = re.compile(
    r"__attribute__\s*\(\(\s*(?:__)?target(?:_clones)?(?:__)?\b|"
    r"\btarget_clones\b|\bgnu::target\b|"
    r"#\s*include\s*<\w*intrin\.h>|"
    r"\b__builtin_cpu_(?:supports|init|is)\b"
)
ALLOW = re.compile(r"lint:allow\(([a-z-]+)\)")
COMMENT_TEXT = re.compile(r"//\s*(\S.*)$")


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so rule regexes never match prose or quoted examples."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if ch == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                mode = "str"
                out.append(" ")
                i += 1
                continue
            if ch == "'":
                mode = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(ch)
        elif mode == "line":
            if ch == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block":
            if ch == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif mode in ("str", "chr"):
            quote = '"' if mode == "str" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                mode = "code"
                out.append(" ")
            else:
                out.append("\n" if ch == "\n" else " ")
        i += 1
    return "".join(out)


def allowed_lines(raw_lines):
    """rule -> set of line numbers (1-based) the rule is suppressed on."""
    allowed = {}
    for lineno, line in enumerate(raw_lines, start=1):
        for match in ALLOW.finditer(line):
            rule = match.group(1)
            span = allowed.setdefault(rule, set())
            span.update(range(lineno, lineno + ALLOW_WINDOW + 1))
    return allowed


def brace_matched_region(code, start_index):
    """(start, end) indices of the brace-matched block opening at or after
    start_index; end is past the closing brace.  (-1, -1) if unbalanced."""
    open_idx = code.find("{", start_index)
    if open_idx < 0:
        return -1, -1
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return open_idx, i + 1
    return -1, -1


def line_of(code, index):
    return code.count("\n", 0, index) + 1


def scan_file(rel_path, raw_text):
    """All violations in one file.  rel_path uses forward slashes and is
    relative to the repo root (fixtures override it via lint-path)."""
    violations = []
    raw_lines = raw_text.splitlines()
    code = strip_comments_and_strings(raw_text)
    code_lines = code.splitlines()
    allow = allowed_lines(raw_lines)

    def report(rule, lineno, message):
        if lineno in allow.get(rule, ()):
            return
        violations.append(Violation(rule, rel_path, lineno, message))

    in_src_scope = rel_path.split("/")[0] in SCAN_DIRS

    # raw-mutex: everywhere except the wrapper header itself.
    if in_src_scope and rel_path != WRAPPER_HEADER:
        for lineno, line in enumerate(code_lines, start=1):
            m = RAW_MUTEX.search(line)
            if m:
                report(
                    "raw-mutex", lineno,
                    f"{m.group(0)} outside {WRAPPER_HEADER}; use "
                    "spinn::Mutex / spinn::CondVar / spinn::MutexLock")

    # raw-int-parse: wire-side code, and the examples' transports.
    if rel_path.startswith(("src/net/", "src/server/", "examples/")):
        for lineno, line in enumerate(code_lines, start=1):
            m = RAW_INT_PARSE.search(line)
            if m:
                report(
                    "raw-int-parse", lineno,
                    f"{m.group(0).strip()}) parses a wire-side integer; "
                    "use parse_u64_strict or a from_chars helper")

    # reactor rules: every *loop* method body of NetServer or Reactor in
    # the reactor files (loop, drive_loop, ... — new loops are covered the
    # day they are written, not when someone remembers to list them).
    if rel_path in REACTOR_FILES:
        bodies_scanned = 0
        for decl in REACTOR_LOOP_DECL.finditer(code):
            start, end = brace_matched_region(code, decl.end())
            if start < 0:
                continue
            bodies_scanned += 1
            body = code[start:end]
            body_first_line = line_of(code, start)
            for off, line in enumerate(body.splitlines()):
                m = BLOCKING_CALL.search(line)
                if m:
                    report(
                        "reactor-blocking", body_first_line + off,
                        f"blocking call {m.group(0).strip()}...) inside "
                        f"{decl.group(0).strip()}...) stalls every "
                        "connection on this reactor")
            for m in UNBOUNDED_LOOP.finditer(body):
                l_start, l_end = brace_matched_region(body, m.end())
                loop_line = body_first_line + line_of(body, m.start()) - 1
                if l_start < 0:
                    continue
                loop_body = body[l_start:l_end]
                if not re.search(r"\bbreak\b|\breturn\b", loop_body):
                    report(
                        "reactor-loop", loop_line,
                        "unbounded loop inside the reactor with no "
                        "break/return")
        if rel_path == REACTOR_LOOP_HOME and bodies_scanned == 0:
            report("reactor-blocking", 1,
                   "no Reactor::*loop* body found — reactor rules cannot "
                   "run")

    # fault-blocking: every FaultController method body in the controller
    # file — they run as root-actor events inside the engine's event loop,
    # where one blocking call stalls the machine at a quiesce point.
    if rel_path == FAULT_FILE:
        bodies_scanned = 0
        for decl in FAULT_ENTRY_DECL.finditer(code):
            start, end = brace_matched_region(code, decl.end())
            if start < 0:
                continue
            bodies_scanned += 1
            body = code[start:end]
            body_first_line = line_of(code, start)
            for off, line in enumerate(body.splitlines()):
                m = BLOCKING_CALL.search(line)
                if m:
                    report(
                        "fault-blocking", body_first_line + off,
                        f"blocking call {m.group(0).strip()}...) inside "
                        f"{decl.group(0).strip()}...) stalls the engine "
                        "at a fault quiesce point")
        if bodies_scanned == 0:
            report("fault-blocking", 1,
                   "no FaultController method body found — fault rules "
                   "cannot run")

    # session-client-lock: a client method naming the slice lock would wait
    # for a whole slice.  Every listed body must be found, or the rule has
    # silently stopped running.
    if rel_path == SESSION_FILE:
        for method in SESSION_CLIENT_METHODS:
            decl = re.search(r"\bSession::" + method + r"\s*\(", code)
            start, end = (brace_matched_region(code, decl.end()) if decl
                          else (-1, -1))
            if start < 0:
                report("session-client-lock", 1,
                       f"no Session::{method} body found — the client-lock "
                       "rule cannot check it")
                continue
            body_first_line = line_of(code, start)
            for off, line in enumerate(code[start:end].splitlines()):
                if SLICE_LOCK.search(line):
                    report(
                        "session-client-lock", body_first_line + off,
                        f"Session::{method}() names the slice lock mu_; "
                        "client methods take only ctl_, or they wait for "
                        "a whole slice")

    # frame-throw: the decode path stays exception-free and noexcept.
    if rel_path in ("src/net/frame.cpp", "src/net/frame.hpp"):
        for lineno, line in enumerate(code_lines, start=1):
            if re.search(r"\bthrow\b", line):
                report("frame-throw", lineno,
                       "throw in the noexcept frame-decode path")
        if rel_path == "src/net/frame.hpp":
            if not re.search(r"\bnext\s*\([^)]*\)\s*noexcept", code):
                report("frame-throw", 1,
                       "FrameDecoder::next must be declared noexcept")

    # include-discipline: tests/bench/examples use the public include root.
    top = rel_path.split("/")[0]
    if top in ("tests", "bench", "examples"):
        for lineno, line in enumerate(raw_lines, start=1):
            m = BAD_INCLUDE.search(line)
            if not m:
                continue
            inc = m.group(1)
            if inc.startswith(".."):
                report("include-discipline", lineno,
                       f'#include "{inc}" escapes via a relative path; '
                       "include through the public root (e.g. "
                       '"net/frame.hpp")')
            elif inc.endswith(".cpp"):
                report("include-discipline", lineno,
                       f'#include "{inc}" includes a translation unit')
            elif "/detail/" in inc or inc.endswith("_internal.hpp"):
                report("include-discipline", lineno,
                       f'#include "{inc}" reaches an internal header')

    # obs-hot-path: the body following each `// obs:hot` marker must stay
    # lock-free and allocation-free.  Markers live in RAW lines (comments
    # are blanked in `code`); the body is brace-matched in the stripped
    # code starting just past the marker's line.
    if in_src_scope:
        markers = 0
        line_start = [0]
        for line in code_lines:
            line_start.append(line_start[-1] + len(line) + 1)
        for lineno, line in enumerate(raw_lines, start=1):
            if not OBS_HOT_MARKER.search(line):
                continue
            markers += 1
            if lineno >= len(line_start):
                continue
            start, end = brace_matched_region(code, line_start[lineno])
            if start < 0:
                report("obs-hot-path", lineno,
                       "obs:hot marker with no brace-matched body after it")
                continue
            body = code[start:end]
            body_first_line = line_of(code, start)
            for off, bline in enumerate(body.splitlines()):
                m = OBS_HOT_FORBIDDEN.search(bline)
                if m:
                    report(
                        "obs-hot-path", body_first_line + off,
                        f"{m.group(0).strip()} inside an obs:hot body; "
                        "telemetry hot paths must not lock or allocate")
        if rel_path in OBS_HOT_HOMES and markers == 0:
            report("obs-hot-path", 1,
                   "no obs:hot marker found — the hot-path rule is "
                   "scanning nothing in this file")

    # isa-confined: target-specific code in one module only.
    if in_src_scope and rel_path != ISA_HOME:
        for lineno, line in enumerate(code_lines, start=1):
            m = ISA_SPECIFIC.search(line)
            if m:
                report(
                    "isa-confined", lineno,
                    f"{m.group(0).strip()} outside {ISA_HOME}; the CPU-"
                    "specific kernels and the CPU query live there alone")

    # tsa-justify: the escape hatch needs an adjacent reason.
    if rel_path != WRAPPER_HEADER:
        for lineno, line in enumerate(raw_lines, start=1):
            if not NO_TSA.search(line):
                continue
            context = raw_lines[max(0, lineno - 4):lineno]
            justified = any(
                COMMENT_TEXT.search(prev) and
                "lint" not in COMMENT_TEXT.search(prev).group(1)
                for prev in context)
            if not justified:
                report(
                    "tsa-justify", lineno,
                    "SPINN_NO_THREAD_SAFETY_ANALYSIS without an adjacent "
                    "comment justifying why the analysis cannot see the "
                    "invariant")

    return violations


def iter_sources():
    for top in SCAN_DIRS:
        root = REPO / top
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in EXTENSIONS and path.is_file():
                yield path.relative_to(REPO).as_posix(), path


def run_tree():
    violations = []
    checked = 0
    for rel, path in iter_sources():
        checked += 1
        violations.extend(scan_file(rel, path.read_text(encoding="utf-8")))
    for v in violations:
        print(v)
    print(f"lint_invariants: {checked} files, {len(violations)} violation(s)")
    return 1 if violations else 0


def run_fixture(fixture):
    text = Path(fixture).read_text(encoding="utf-8")
    expected = set(re.findall(r"//\s*lint-expect:\s*([a-z-]+)", text))
    path_m = re.search(r"//\s*lint-path:\s*(\S+)", text)
    if not expected or not path_m:
        print(f"{fixture}: fixture needs lint-expect: and lint-path: headers")
        return 1
    found = {v.rule for v in scan_file(path_m.group(1), text)}
    missing = expected - found
    if missing:
        print(f"{fixture}: seeded violation(s) NOT flagged: "
              f"{', '.join(sorted(missing))} (found: "
              f"{', '.join(sorted(found)) or 'none'})")
        return 1
    print(f"{fixture}: flagged as expected ({', '.join(sorted(expected))})")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixture", help="run rules against one fixture file "
                    "and require its lint-expect rules to fire")
    args = ap.parse_args()
    if args.fixture:
        return run_fixture(args.fixture)
    return run_tree()


if __name__ == "__main__":
    sys.exit(main())
