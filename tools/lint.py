#!/usr/bin/env python3
"""Repo-specific lint pass (CI: the `lint` job; locally `python3 tools/lint.py`).

Checks the invariants this codebase actually depends on and that generic
linters cannot express:

  config-validate     every `*Config` struct that declares data members must
                      also declare `validate()` — configs are validated at the
                      subsystem boundary, never trusted implicitly.
  reserve-bounds      `.reserve(...)` in src/net decode paths must be preceded
                      by a bounds check against the remaining payload bytes
                      (or size from an already-materialized object): a length
                      prefix must never reach an allocator unchecked.
  nondeterminism      src/attack, src/serve, src/linalg, src/tensor are
                      seed-deterministic: no rand()/std::random_device/time()
                      /system_clock::now(). Wall-clock timing belongs in
                      util::Timer / steady_clock at the edges.
  detached-thread     no `.detach()` in src/serve + src/net — every thread is
                      joined so shutdown is provable (no use-after-free on
                      engine teardown).
  naked-new           no naked new/delete in src/serve + src/net — ownership
                      goes through containers and smart pointers.
  net-thread          no `std::thread` in src/net: blurnetd runs one event
                      loop and hands classify work to the engine's completion
                      callbacks, so threads per connection cannot creep back.
                      (The loop member in src/net/server.h carries the one
                      allow marker.)
  simd-confinement    raw SIMD intrinsics (_mm*/vfmaq_* calls, immintrin.h /
                      arm_neon.h includes) live only in the per-ISA kernel
                      translation units (*_kernels_avx2.cpp, *_kernels_neon.cpp)
                      — everything else goes through kernels/dispatch.h, which
                      is what keeps the scalar fallback path buildable and the
                      dispatch contract auditable.
  parallel-cost       every `parallel_for` call in src passes all four
                      arguments (n, fn, min_chunk, cost): the per-item cost
                      is what lets the work floor keep a range too small to
                      repay a pool hand-off inline, and a call that omits it
                      silently fans out however little work it carries.
  grad-mode           no `grad_enabled()` calls in src: ops learn the mode
                      only through make_op's needs_graph(), the one "build a
                      graph node?" decision. An op that branches on the mode
                      itself grows a second forward that tests must then keep
                      bitwise in step. (Its declaration and definition in
                      src/autograd/variable.{h,cpp} carry allow markers.)
  serve-layering      no `#include "src/net/..."` under src/serve: the engine
                      sits below blurnetd, and the socket front-end depends on
                      it, never the other way round.

Comments and string literals are stripped before matching, so prose like
"no new classify requests" never trips a rule. A finding can be suppressed
with `// lint:allow(<rule>)` on the same line — use sparingly and say why.

`--self-test` runs every rule against embedded known-bad snippets and fails
if any rule has gone blind; CI runs both modes.
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories per rule family.
DETERMINISTIC_DIRS = ["src/attack", "src/serve", "src/linalg", "src/tensor"]
OWNERSHIP_DIRS = ["src/serve", "src/net"]
DECODE_DIRS = ["src/net"]

# How many stripped lines above a reserve() may hold its bounds check.
RESERVE_WINDOW = 8


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines so
    line numbers in findings stay correct."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            # Blank the comment body; lint:allow() markers are looked up in
            # the raw source line, not the stripped one.
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i : j + 2]))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * max(0, j - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        rel = self.path
        try:
            rel = self.path.relative_to(REPO)
        except ValueError:
            pass
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def allowed(line: str, rule: str) -> bool:
    return f"lint:allow({rule})" in line


# ---------------------------------------------------------------------------
# config-validate


def check_config_validate(path: Path, text: str) -> list:
    """Every `struct FooConfig { ... }` with at least one data member must
    declare validate()."""
    findings = []
    stripped = strip_comments_and_strings(text)
    for m in re.finditer(r"\bstruct\s+(\w*Config)\s*(?::[^{]*)?\{", stripped):
        name = m.group(1)
        # Find the matching close brace.
        depth, i = 1, m.end()
        while i < len(stripped) and depth > 0:
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
            i += 1
        body = stripped[m.end() : i - 1]
        line = stripped.count("\n", 0, m.start()) + 1
        # A data member: a line ending in `;` that is neither a function
        # declaration/deleted op nor a using/typedef/friend/static-assert.
        has_member = False
        flat = re.sub(r"\{[^{}]*\}", "", body)  # drop nested-brace bodies
        for raw in flat.split("\n"):
            s = raw.strip()
            if not s.endswith(";"):
                continue
            if re.match(r"(using|typedef|friend|static_assert|public|private|protected)\b", s):
                continue
            if re.search(r"\)\s*(const\s*)?(noexcept\s*)?(=\s*(default|delete|0)\s*)?;$", s):
                continue  # function declaration
            has_member = True
            break
        if has_member and not re.search(r"\bvalidate\s*\(", body):
            src_line = text.split("\n")[line - 1] if line <= text.count("\n") + 1 else ""
            if allowed(src_line, "config-validate"):
                continue
            findings.append(
                Finding(
                    "config-validate",
                    path,
                    line,
                    f"struct {name} has data members but no validate() — "
                    "configs are checked at the subsystem boundary",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# reserve-bounds


def check_reserve_bounds(path: Path, text: str) -> list:
    """In src/net, `.reserve(arg)` must either take a size from a
    materialized object (.size()/.dim()) or follow a bounds check that
    mentions remaining payload bytes within RESERVE_WINDOW lines."""
    findings = []
    lines = strip_comments_and_strings(text).split("\n")
    raw_lines = text.split("\n")
    for idx, line in enumerate(lines):
        m = re.search(r"\.\s*reserve\s*\(([^;]*)\)", line)
        if not m:
            continue
        if allowed(raw_lines[idx], "reserve-bounds"):
            continue
        arg = m.group(1)
        if re.search(r"\.\s*(size|dim|length)\s*\(", arg):
            continue  # size of something already in memory — can't be a bomb
        window = lines[max(0, idx - RESERVE_WINDOW) : idx + 1]
        # Accept either an explicit bounds check against the remaining payload
        # or a size read off an already-materialized object in the window.
        evidence = r"\bremaining\s*\(|\bcheck_remaining\b|\brequire\b|\.\s*(size|dim|length)\s*\("
        if any(re.search(evidence, w) for w in window):
            continue
        findings.append(
            Finding(
                "reserve-bounds",
                path,
                idx + 1,
                f"reserve({arg.strip()}) without a bounds check against the "
                f"remaining payload bytes in the preceding {RESERVE_WINDOW} lines",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# nondeterminism / detached-thread / naked-new: simple banned patterns

BANNED = [
    # (rule, dirs, regex, message)
    (
        "nondeterminism",
        DETERMINISTIC_DIRS,
        re.compile(r"(?<![\w:])s?rand\s*\("),
        "rand()/srand() — use util::Rng with an explicit seed",
    ),
    (
        "nondeterminism",
        DETERMINISTIC_DIRS,
        re.compile(r"\bstd::random_device\b"),
        "std::random_device — seeds must come from config, not entropy",
    ),
    (
        "nondeterminism",
        DETERMINISTIC_DIRS,
        re.compile(r"(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
        "time() — wall clock reads make runs unreproducible",
    ),
    (
        "nondeterminism",
        DETERMINISTIC_DIRS,
        re.compile(r"\bsystem_clock::now\s*\(\s*\)"),
        "system_clock::now() — use steady_clock (util::Timer) for durations",
    ),
    (
        "detached-thread",
        OWNERSHIP_DIRS,
        re.compile(r"\.\s*detach\s*\(\s*\)"),
        "detached thread — every thread must be joined for provable shutdown",
    ),
    (
        "naked-new",
        OWNERSHIP_DIRS,
        re.compile(r"(?<![\w:])new\s+[A-Za-z_]"),
        "naked new — use std::make_unique/std::make_shared or a container",
    ),
    (
        "naked-new",
        OWNERSHIP_DIRS,
        re.compile(r"(?<![\w:])delete(\s*\[\s*\])?\s+[A-Za-z_*(]"),
        "naked delete — ownership goes through smart pointers",
    ),
    (
        "net-thread",
        ["src/net"],
        re.compile(r"\bstd::thread\b"),
        "std::thread in src/net — the event loop is the server's only thread; "
        "hand work to the engine and finish it in a completion callback",
    ),
    (
        "grad-mode",
        ["src"],
        re.compile(r"\bgrad_enabled\s*\("),
        "grad_enabled() call — return through make_op (or ask needs_graph()) "
        "instead of forking the op",
    ),
]


def check_banned(path: Path, text: str, rel: str) -> list:
    findings = []
    lines = strip_comments_and_strings(text).split("\n")
    raw_lines = text.split("\n")
    for rule, dirs, pattern, message in BANNED:
        if not any(rel.startswith(d + "/") or rel == d for d in dirs):
            continue
        for idx, line in enumerate(lines):
            if pattern.search(line) and not allowed(raw_lines[idx], rule):
                findings.append(Finding(rule, path, idx + 1, message))
    return findings


# ---------------------------------------------------------------------------
# simd-confinement

# Files allowed to use raw intrinsics: the per-ISA kernel TUs.
SIMD_TU = re.compile(r"_kernels_(avx2|neon)\.cpp$")

# Intrinsic fingerprints: x86 _mm/_mm256 calls, NEON v*q_* calls, and the
# ISA headers themselves (an include anywhere else would let intrinsics
# leak past the dispatch layer unnoticed).
SIMD_PATTERNS = [
    re.compile(r"\b_mm\d*_\w+\s*\("),
    re.compile(r"\bv(?:fma|mla|ld1|st1|dup|min|max|add|mul|cvt|get|set)q?\w*_\w+\s*\("),
    re.compile(r"#\s*include\s*<(immintrin|arm_neon)\.h>"),
]


def check_simd_confinement(path: Path, text: str, rel: str) -> list:
    if SIMD_TU.search(rel):
        return []
    findings = []
    lines = strip_comments_and_strings(text).split("\n")
    raw_lines = text.split("\n")
    for idx, line in enumerate(lines):
        for pattern in SIMD_PATTERNS:
            if pattern.search(line) and not allowed(raw_lines[idx], "simd-confinement"):
                findings.append(
                    Finding(
                        "simd-confinement",
                        path,
                        idx + 1,
                        "raw SIMD intrinsic outside a *_kernels_{avx2,neon}.cpp "
                        "translation unit — route through kernels/dispatch.h",
                    )
                )
                break
    return findings


# ---------------------------------------------------------------------------
# parallel-cost

PARALLEL_FOR_CALL = re.compile(r"\bparallel_for\s*\(")
PARALLEL_FOR_ARGS = 4  # n, fn, min_chunk, cost


def top_level_args(text: str, open_paren: int):
    """Count the top-level comma-separated arguments of the call whose '('
    is at `open_paren`; None when the parentheses never close."""
    depth, args, nonempty = 0, 1, False
    for i in range(open_paren, len(text)):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                return args if nonempty else 0
        elif ch == "," and depth == 1:
            args += 1
        if depth >= 1 and i > open_paren and not ch.isspace():
            nonempty = True
    return None


def check_parallel_cost(path: Path, text: str) -> list:
    findings = []
    stripped = strip_comments_and_strings(text)
    raw_lines = text.split("\n")
    for match in PARALLEL_FOR_CALL.finditer(stripped):
        line = stripped.count("\n", 0, match.start())
        args = top_level_args(stripped, match.end() - 1)
        if args is None or args >= PARALLEL_FOR_ARGS:
            continue
        if allowed(raw_lines[line], "parallel-cost"):
            continue
        findings.append(
            Finding(
                "parallel-cost",
                path,
                line + 1,
                "parallel_for without a per-item cost — pass min_chunk and "
                "cost so the work floor can keep small ranges inline",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# serve-layering

# Matched against the raw line: stripping blanks the quoted include path. A
# commented-out include is still skipped, since the stripped line is blank.
NET_INCLUDE = re.compile(r'^\s*#\s*include\s*"src/net/')


def check_serve_layering(path: Path, text: str) -> list:
    findings = []
    stripped = strip_comments_and_strings(text).split("\n")
    for idx, raw in enumerate(text.split("\n")):
        if not NET_INCLUDE.search(raw) or not stripped[idx].strip():
            continue
        if allowed(raw, "serve-layering"):
            continue
        findings.append(
            Finding(
                "serve-layering",
                path,
                idx + 1,
                "src/serve includes src/net — the engine must not depend on the "
                "socket front-end built on top of it",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# driver


def lint_file(path: Path, rel: str, text: str) -> list:
    findings = []
    if rel.startswith("src/") and rel.endswith(".h"):
        findings += check_config_validate(path, text)
    if any(rel.startswith(d + "/") for d in DECODE_DIRS):
        findings += check_reserve_bounds(path, text)
    findings += check_banned(path, text, rel)
    findings += check_simd_confinement(path, text, rel)
    if rel.startswith("src/"):
        findings += check_parallel_cost(path, text)
    if rel.startswith("src/serve/"):
        findings += check_serve_layering(path, text)
    return findings


def lint_tree() -> list:
    findings = []
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.relative_to(REPO).as_posix()
        findings += lint_file(path, rel, path.read_text())
    return findings


# ---------------------------------------------------------------------------
# self-test: every rule must fire on a known-bad snippet and stay quiet on a
# known-good one.

SELF_TESTS = [
    # (name, virtual path, snippet, rule expected to fire; None = must be clean)
    (
        "config-without-validate",
        "src/fake/config.h",
        "struct BadConfig {\n  int epochs = 3;\n  double lr = 0.1;\n};\n",
        "config-validate",
    ),
    (
        "config-with-validate-is-clean",
        "src/fake/config.h",
        "struct GoodConfig {\n  int epochs = 3;\n  void validate() const;\n};\n",
        None,
    ),
    (
        "config-with-only-functions-is-clean",
        "src/fake/config.h",
        "struct FnConfig {\n  int total() const;\n};\n",
        None,
    ),
    (
        "unchecked-reserve",
        "src/net/bad.cpp",
        "void f(Reader& r) {\n  std::uint32_t n = r.read_u32();\n"
        "  std::vector<float> v;\n  v.reserve(n);\n}\n",
        "reserve-bounds",
    ),
    (
        "checked-reserve-is-clean",
        "src/net/good.cpp",
        "void f(Reader& r) {\n  std::uint32_t n = r.read_u32();\n"
        "  if (n > r.remaining() / 4) throw WireError(0);\n"
        "  std::vector<float> v;\n  v.reserve(n);\n}\n",
        None,
    ),
    (
        "materialized-reserve-is-clean",
        "src/net/good2.cpp",
        "void f(const Tensor& t) {\n  std::vector<float> v;\n"
        "  v.reserve(t.dim(0));\n}\n",
        None,
    ),
    (
        "rand-call",
        "src/serve/bad.cpp",
        "int f() { return rand(); }\n",
        "nondeterminism",
    ),
    (
        "random-device",
        "src/attack/bad.cpp",
        "std::uint64_t f() { std::random_device rd; return rd(); }\n",
        "nondeterminism",
    ),
    (
        "time-call",
        "src/tensor/bad.cpp",
        "long f() { return time(nullptr); }\n",
        "nondeterminism",
    ),
    (
        "system-clock",
        "src/linalg/bad.cpp",
        "auto f() { return std::chrono::system_clock::now(); }\n",
        "nondeterminism",
    ),
    (
        "steady-clock-is-clean",
        "src/serve/good.cpp",
        "auto f() { return std::chrono::steady_clock::now(); }\n",
        None,
    ),
    (
        "detached-thread",
        "src/net/bad2.cpp",
        "void f() { std::thread([] {}).detach(); }\n",
        "detached-thread",
    ),
    (
        "naked-new",
        "src/serve/bad2.cpp",
        "Widget* f() { return new Widget(); }\n",
        "naked-new",
    ),
    (
        "naked-delete",
        "src/serve/bad3.cpp",
        "void f(Widget* w) { delete w; }\n",
        "naked-new",
    ),
    (
        "comment-mention-is-clean",
        "src/serve/good2.cpp",
        "// no new classify requests are admitted after drain\n"
        "// callers should not detach() or delete anything here\n"
        "void f();\n",
        None,
    ),
    (
        "string-mention-is-clean",
        "src/net/good3.cpp",
        'const char* k = "use time() sparingly; never rand()";\n',
        None,
    ),
    (
        "allow-marker-suppresses",
        "src/serve/good3.cpp",
        "Widget* f() { return new Widget(); }  // lint:allow(naked-new) pool slab\n",
        None,
    ),
    (
        "avx2-intrinsic-outside-kernel-tu",
        "src/linalg/gemm.cpp",
        "void micro(float* c, __m256 a, __m256 b) {\n"
        "  _mm256_storeu_ps(c, _mm256_fmadd_ps(a, b, _mm256_loadu_ps(c)));\n}\n",
        "simd-confinement",
    ),
    (
        "immintrin-include-outside-kernel-tu",
        "src/signal/kernels.cpp",
        "#include <immintrin.h>\n",
        "simd-confinement",
    ),
    (
        "neon-intrinsic-outside-kernel-tu",
        "src/autograd/ops.cpp",
        "float32x4_t f(float32x4_t a, float32x4_t b) { return vminq_f32(a, b); }\n",
        "simd-confinement",
    ),
    (
        "intrinsics-in-kernel-tu-are-clean",
        "src/kernels/simd_kernels_avx2.cpp",
        "#include <immintrin.h>\n"
        "void micro(float* c, __m256 a, __m256 b) {\n"
        "  _mm256_storeu_ps(c, _mm256_fmadd_ps(a, b, _mm256_loadu_ps(c)));\n}\n",
        None,
    ),
    (
        "intrinsic-comment-mention-is-clean",
        "src/linalg/gemm.cpp",
        "// the avx2 TU accumulates with _mm256_fmadd_ps(a, b, c)\nvoid f();\n",
        None,
    ),
    (
        "net-per-connection-thread",
        "src/net/server.cpp",
        "void Server::accept_one(Socket s) {\n"
        "  conn->harvester = std::thread([this, conn] { harvest(conn); });\n}\n",
        "net-thread",
    ),
    (
        "net-loop-thread-allowed",
        "src/net/server.h",
        "  std::thread loop_;  // lint:allow(net-thread) the event loop\n"
        "  void wait() { std::this_thread::yield(); }\n",
        None,
    ),
    (
        "parallel-for-without-cost",
        "src/signal/kernels.cpp",
        "void f(std::int64_t n) {\n"
        "  util::parallel_for(n, [&](std::int64_t p0, std::int64_t p1) {\n"
        "    g(p0, std::min(p1, n));\n"
        "  }, /*min_chunk=*/1);\n}\n",
        "parallel-cost",
    ),
    (
        "parallel-for-with-cost-is-clean",
        "src/signal/kernels.cpp",
        "void parallel_for(std::int64_t n, const Fn& fn, std::int64_t min_chunk = 256,\n"
        "                  std::int64_t cost = 0);\n"
        "void f(std::int64_t n) {\n"
        "  util::parallel_for(n, [&](std::int64_t p0, std::int64_t p1) {\n"
        "    g(p0, std::min(p1, n));\n"
        "  }, /*min_chunk=*/1, /*cost=*/h * w);\n}\n",
        None,
    ),
    (
        "grad-mode-fork-in-op",
        "src/autograd/ops.cpp",
        "Variable relu(const Variable& a) {\n"
        "  if (!grad_enabled()) return Variable::constant(tensor::relu(a.value()));\n}\n",
        "grad-mode",
    ),
    (
        "serve-includes-net",
        "src/serve/loadgen.cpp",
        '#include "src/serve/loadgen.h"\n\n#include "src/net/client.h"\n',
        "serve-layering",
    ),
    (
        "serve-includes-serve-is-clean",
        "src/serve/loadgen.cpp",
        '#include "src/serve/engine.h"\n// see src/net/server.h for the front-end\n',
        None,
    ),
]


def self_test() -> int:
    failures = 0
    for name, rel, snippet, expected in SELF_TESTS:
        found = {f.rule for f in lint_file(Path(rel), rel, snippet)}
        if expected is None:
            if found:
                print(f"self-test FAILED: {name}: expected clean, got {sorted(found)}")
                failures += 1
        elif expected not in found:
            print(f"self-test FAILED: {name}: rule {expected} did not fire (got {sorted(found)})")
            failures += 1
    if failures == 0:
        print(f"self-test ok: {len(SELF_TESTS)} cases")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every rule fires on known-bad code")
    args = parser.parse_args()
    if args.self_test:
        return 1 if self_test() else 0
    findings = lint_tree()
    for f in findings:
        print(f)
    if findings:
        print(f"\nlint: {len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
