#!/usr/bin/env python3
"""pgasm-lint: project-invariant checks the generic linters can't express.

Checks
------
W001  wire-protocol hygiene: every protocol tag in core/cluster_protocol.hpp
      carries a `pgasm-wire:` annotation naming either `raw-u64` or exactly
      one encode_X/decode_X codec pair; core/wire.hpp must declare encode_X
      and the decoder (decode_X or its non-throwing try_decode_X), the pair
      must be claimed by exactly one tag, and a round-trip test under tests/
      must reference both halves.
W002  raw-comm confinement: vmpi send/recv calls are confined to the
      protocol layers (src/vmpi/ itself, core/cluster_protocol.*). The
      parallel GST build uses collectives only. Anywhere else needs an
      explicit waiver: a `pgasm-lint: allow(raw-comm): <reason>` comment
      on or above the line.
W003  observability naming: metric names follow subsystem.noun[_verb]
      (1-2 dot-separated snake_case segments after a known subsystem);
      trace span/instant names are single snake_case tokens and their
      category is a known subsystem.
W004  hot-path allocation ban: function bodies taking an align::Workspace&
      must not allocate (no new/make_unique/make_shared/malloc, no local
      by-value std containers) — the workspace exists so the alignment inner
      loop reuses grow-only buffers.
W005  include-what-you-use (lite): public headers under src/ must directly
      include the std header for every std:: symbol they name, so any
      subset of pgasm.hpp compiles standalone.
W006  test-label audit: every registered test carries exactly one suite
      label from {unit, parallel, faults, obs, fuzz, verify, determ}.
W007  annotated-lock discipline: raw std::mutex / std::condition_variable /
      std::lock_guard / std::unique_lock / std::scoped_lock declarations and
      raw .lock()/.unlock()/.try_lock() member calls are banned outside
      util/thread_annotations.hpp — all locking goes through util::Mutex,
      util::MutexLock, util::ReleasableMutexLock, and util::CondVar so the
      clang capability analysis (scripts/ci.sh tsafety) sees every critical
      section.
W008  no blocking under a lock: a blocking vmpi call (recv*/ssend*/probe/
      probe_timeout/barrier/allreduce*) inside a region that holds a
      util::MutexLock / ReleasableMutexLock is a deadlock risk — the peer
      may need the same lock to make the call return. src/vmpi/ itself is
      exempt (its mailbox mechanics ARE the blocking primitives).
W009  protocol-switch exhaustiveness: every `switch` over a protocol enum
      (enum classes declared in *protocol*.hpp, e.g. MsgKind, MasterState)
      must name every enumerator and must not carry a `default:` label —
      a silent default would swallow a newly added message kind that
      -Werror=switch could otherwise catch.
W010  guarded-by coverage: in any class that owns a util::Mutex, every
      non-atomic data member must carry PGASM_GUARDED_BY/PGASM_PT_GUARDED_BY
      (or an explicit `pgasm-lint: allow(guard): <reason>` waiver stating
      why it needs no lock).
W012  metric-prefix registration: every obs:: metric name registered
      anywhere under src/ (counter/gauge/histogram — src/obs included,
      unlike W003's shape check) must start with a subsystem prefix from
      the SUBSYSTEMS registry below. An unregistered prefix is usually a
      typo ("cluter.") or an ad-hoc namespace that dashboards and
      perf_diff would silently miss; add the subsystem to the registry in
      the same change that introduces it.
W011  checkpoint-write confinement: checkpoint and manifest bytes reach
      disk only through core/wire.cpp's frame writer (save_frame_atomic:
      version byte + CRC32 + fsync + atomic rename). A raw std::ofstream /
      write-mode std::fstream / fopen("w...") that names a *.pgck / *.pgmf
      / *.ckpt / checkpoint / manifest path anywhere else (src/ and tests/)
      bypasses the integrity frame and produces files the typed loaders
      must treat as corrupt. Deliberate corruption injection in tests is
      waived with `pgasm-lint: allow(raw-ckpt-write): <reason>`.
W013  raw-syscall confinement: process, shared-memory and socket syscalls
      (fork/mmap/shm_open/waitpid/kill/socket/... ) appear only under
      src/vmpi/ — the multi-process transport is the one layer allowed to
      own a process model; everything above it must work identically over
      rank threads and rank processes. Waive deliberate uses with
      `pgasm-lint: allow(raw-proc): <reason>`.
W014  explicit memory orders: every atomic operation in src/ must name its
      std::memory_order (or a RingOrder, for the ring_core facade) — a
      bare .load()/.store(v)/.fetch_add(n) defaults to seq_cst, which both
      hides the intended ordering contract from reviewers and from the
      pgasm-ringcheck interleaving checker that verifies it. Separately,
      a raw `std::atomic<...>` member/variable declaration outside the
      approved concurrency headers (ATOMIC_APPROVED below) needs a
      `pgasm-lint: allow(raw-atomic): <reason>` waiver stating its
      ordering story.
W015  wire-tag table membership: every wire-tag constant (kTag*) declared
      anywhere under src/ must correspond to exactly one row of exactly
      one declarative protocol table (the k*Protocol MsgSpec arrays in
      *protocol*.hpp, e.g. kProtocol for clustering tags 101-102). A
      tag without a table row is an undocumented message that pgasm-model
      can't see; a tag with rows in two tables is a colliding reuse.

Front-ends: W007-W010 are semantic checks. When a clang compiler is
available (and unless --frontend=lexer), facts are extracted from clang's
`-ast-dump=json` over the exported compile_commands.json; otherwise a
built-in tokenizer front-end computes the same facts from source text
(brace-matched scopes, class bodies, switch bodies). The container this
repo builds in ships GCC only, so the lexer path is the one CI exercises;
the clang path upgrades precision when available and falls back loudly on
any failure.

Exit status: 0 clean, 1 findings, 2 tool error (bad invocation, missing
root, unreadable inputs).

Output: human-readable text by default; `--format=json` emits one object
with a `findings` array whose entries carry stable IDs (content-hashed, so
they survive line-number drift) for CI annotation.

Waivers: append `pgasm-lint: allow(<check>): <reason>` in a comment on the
offending line or the line above. <check> is the lowercase slug shown in
the finding, e.g. raw-comm, alloc, naming, iwyu, raw-lock, lock-blocking,
switch, guard, metric-prefix, raw-proc, memory-order, raw-atomic.

Performance: when more than one check is selected, checks run in a
multiprocessing pool (one task per check; finding IDs are unchanged
because ordinals only count within a check). File reads are memoized per
process, and the clang AST pass caches extracted facts per file content
hash under build/.ast_cache so unchanged files never rerun the compiler.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import multiprocessing
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
TESTS = REPO / "tests"

FINDINGS: list[dict] = []


def finding(path: Path, line_no: int, check: str, slug: str, msg: str) -> None:
    try:
        rel = str(path.relative_to(REPO))
    except ValueError:
        rel = str(path)
    # Stable ID: hash of what the finding says, not where it says it —
    # line numbers drift with every edit, so they stay out of the basis.
    # An occurrence ordinal disambiguates identical findings in one file.
    basis = f"{check}:{slug}:{rel}:{msg}"
    ordinal = sum(1 for f in FINDINGS
                  if f["check"] == check and f["path"] == rel
                  and f["message"] == msg)
    fid = "PL-" + hashlib.sha256(
        f"{basis}#{ordinal}".encode()).hexdigest()[:12]
    FINDINGS.append({
        "id": fid,
        "check": check,
        "slug": slug,
        "path": rel,
        "line": line_no,
        "message": msg,
    })


@functools.lru_cache(maxsize=None)
def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8", errors="replace").splitlines()


def waived(lines: list[str], idx: int, slug: str) -> bool:
    """True when line idx (0-based) or the contiguous comment block above
    it carries a waiver."""
    needle = f"pgasm-lint: allow({slug})"
    if needle in lines[idx]:
        return True
    j = idx - 1
    while j >= 0 and lines[j].lstrip().startswith("//"):
        if needle in lines[j]:
            return True
        j -= 1
    return False


def strip_comments(line: str) -> str:
    """Drop // comments (good enough: no multiline comment bodies in src)."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def src_files(*suffixes: str) -> list[Path]:
    out: list[Path] = []
    for s in suffixes:
        out.extend(sorted(SRC.rglob(f"*{s}")))
    return out


def brace_depths(lines: list[str]) -> list[tuple[int, int]]:
    """(depth_before, depth_after) per line, counting comment-stripped
    braces. String literals containing braces would miscount; none of the
    checked code keeps braces in strings on lock/switch/class lines."""
    out: list[tuple[int, int]] = []
    depth = 0
    for raw in lines:
        before = depth
        for ch in strip_comments(raw):
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth = max(0, depth - 1)
        out.append((before, depth))
    return out


# --------------------------------------------------------------------------
# W001: wire tag <-> codec pairing
# --------------------------------------------------------------------------

TAG_RE = re.compile(r"inline constexpr int (kTag\w+)\s*=")
ANNOT_RE = re.compile(r"pgasm-wire:\s*(\S+)")


def check_w001() -> None:
    proto = SRC / "core" / "cluster_protocol.hpp"
    wire = SRC / "core" / "wire.hpp"
    if not proto.exists():
        finding(proto, 1, "W001", "wire", "core/cluster_protocol.hpp missing")
        return
    lines = read_lines(proto)

    # Collect tag -> annotation. The annotation sits on the tag's line or on
    # the continuation comment line directly below it.
    tags: dict[str, tuple[int, str | None]] = {}
    for i, line in enumerate(lines):
        m = TAG_RE.search(line)
        if not m:
            continue
        annot = ANNOT_RE.search(line)
        if not annot and i + 1 < len(lines) and lines[i + 1].lstrip().startswith("//"):
            annot = ANNOT_RE.search(lines[i + 1])
        tags[m.group(1)] = (i + 1, annot.group(1) if annot else None)

    if not tags:
        finding(proto, 1, "W001", "wire", "no protocol tags found (kTag*)")
        return

    wire_text = (wire.read_text(encoding="utf-8")
                 if wire.exists() else "")
    test_text = "\n".join(
        p.read_text(encoding="utf-8", errors="replace")
        for p in sorted(TESTS.rglob("*.cpp")))

    claimed: dict[str, str] = {}  # codec pair -> tag
    for tag, (line_no, annot) in sorted(tags.items()):
        if annot is None:
            finding(proto, line_no, "W001", "wire",
                    f"{tag} has no `pgasm-wire:` annotation "
                    "(name its codec pair or raw-u64)")
            continue
        if annot == "raw-u64":
            continue
        m = re.fullmatch(r"(encode_\w+)/(decode_\w+)", annot)
        if not m:
            finding(proto, line_no, "W001", "wire",
                    f"{tag} annotation {annot!r} is neither raw-u64 nor "
                    "encode_X/decode_X")
            continue
        enc, dec = m.group(1), m.group(2)
        if annot in claimed:
            finding(proto, line_no, "W001", "wire",
                    f"{tag} claims codec pair {annot} already claimed by "
                    f"{claimed[annot]}")
        claimed[annot] = tag
        # The decoder half may be declared as decode_X or try_decode_X.
        for fn, pattern in ((enc, rf"\b{enc}\s*\("),
                            (dec, rf"\b(try_)?{dec}\s*\(")):
            if not re.search(pattern, wire_text):
                finding(proto, line_no, "W001", "wire",
                        f"{tag} names {fn} but core/wire.hpp declares no "
                        "such codec")
        # Round-trip coverage: both halves must appear in a test.
        has_enc = re.search(rf"\b{enc}\s*\(", test_text)
        has_dec = re.search(rf"\b(try_)?{dec}\s*\(", test_text)
        if not (has_enc and has_dec):
            finding(proto, line_no, "W001", "wire",
                    f"{tag} codec pair {annot} lacks a round-trip test "
                    "under tests/ (both halves must be exercised)")


# --------------------------------------------------------------------------
# W002: raw comm confinement
# --------------------------------------------------------------------------

COMM_CALL_RE = re.compile(
    r"\.\s*(s?send(?:_value|_payload|_vector)?|"
    r"recv(?:_value|_vector|_timeout)?)\s*(?:<[^;>]*>)?\s*\(")

COMM_ALLOWED = {
    Path("core/cluster_protocol.hpp"),
    Path("core/cluster_protocol.cpp"),
}


def check_w002() -> None:
    for path in src_files(".cpp", ".hpp"):
        rel = path.relative_to(SRC)
        if rel.parts[0] == "vmpi" or rel in COMM_ALLOWED:
            continue
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = COMM_CALL_RE.search(line)
            if not m:
                continue
            # Only comm objects: require a comm-ish receiver to cut false
            # positives from unrelated send/recv-named methods.
            prefix = line[: m.start()]
            if not re.search(r"\b(comm|c|mailbox)$", prefix.rstrip()):
                continue
            if waived(lines, i, "raw-comm"):
                continue
            finding(path, i + 1, "W002", "raw-comm",
                    f"direct vmpi {m.group(1)}() outside the protocol "
                    "layer; route through core/cluster_protocol.* or add "
                    "`pgasm-lint: allow(raw-comm): <reason>`")


# --------------------------------------------------------------------------
# W003: observability naming
# --------------------------------------------------------------------------

SUBSYSTEMS = {
    "align", "assembly", "cluster", "comm", "engine", "gst", "mem", "obs",
    "olc", "pipeline", "preprocess", "recovery", "scaffold", "seq", "sim",
    "trace", "vmpi", "wire",
}
METRIC_RE = re.compile(r"\.(counter|gauge|histogram)\(\s*\"([^\"]+)\"")
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){1,2}$")
TRACE_RE = re.compile(r"\bobs::(span|instant)\(\s*[^,]+,\s*\"([^\"]+)\"\s*,\s*\"([^\"]+)\"")
TOKEN_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def check_w003() -> None:
    for path in src_files(".cpp", ".hpp"):
        if path.relative_to(SRC).parts[0] == "obs":
            continue  # the registry/tracer themselves, not instrumentation
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            for m in METRIC_RE.finditer(line):
                name = m.group(2)
                if waived(lines, i, "naming"):
                    continue
                if not METRIC_NAME_RE.match(name):
                    finding(path, i + 1, "W003", "naming",
                            f"metric {name!r} does not match "
                            "subsystem.noun[_verb]")
                elif name.split(".")[0] not in SUBSYSTEMS:
                    finding(path, i + 1, "W003", "naming",
                            f"metric {name!r} uses unknown subsystem "
                            f"{name.split('.')[0]!r}")
            for m in TRACE_RE.finditer(line):
                kind, name, cat = m.groups()
                if waived(lines, i, "naming"):
                    continue
                if not TOKEN_RE.match(name):
                    finding(path, i + 1, "W003", "naming",
                            f"trace {kind} name {name!r} is not a single "
                            "snake_case token")
                if cat not in SUBSYSTEMS:
                    finding(path, i + 1, "W003", "naming",
                            f"trace {kind} category {cat!r} is not a known "
                            "subsystem")


# --------------------------------------------------------------------------
# W004: Workspace hot-path allocation ban
# --------------------------------------------------------------------------

HOT_FILE_RELS = [
    Path("align/band_sweep.inc"),
    Path("align/overlap.cpp"),
    Path("align/overlap.hpp"),
    Path("align/workspace.hpp"),
    Path("core/overlap_engine.cpp"),
]
ALLOC_RES = [
    (re.compile(r"\bnew\s"), "naked new"),
    (re.compile(r"\bstd::make_(unique|shared)\b"), "make_unique/make_shared"),
    (re.compile(r"\bmalloc\s*\("), "malloc"),
    # A by-value local std container (declaration, not a reference/pointer
    # parameter or return type).
    (re.compile(
        r"\bstd::(vector|string|deque|map|set|unordered_map|unordered_set)\s*"
        r"(?:<[^;&*]*>)?\s+\w+\s*[({=;]"), "local heap container"),
]


def workspace_function_ranges(lines: list[str]) -> list[tuple[int, int]]:
    """(start, end) 0-based line ranges of function bodies whose signature
    mentions Workspace& — tracked with a brace counter, which is adequate
    for this codebase's formatting."""
    ranges: list[tuple[int, int]] = []
    i = 0
    while i < len(lines):
        line = strip_comments(lines[i])
        if re.search(r"\bWorkspace\s*&", line) and "(" in line:
            # Find the opening brace of the body (may be several lines on).
            j = i
            depth = 0
            body_start = None
            while j < len(lines):
                for ch in strip_comments(lines[j]):
                    if ch == "{":
                        depth += 1
                        if body_start is None:
                            body_start = j
                    elif ch == "}":
                        depth -= 1
                if body_start is not None and depth == 0:
                    ranges.append((body_start, j))
                    break
                if body_start is None and ";" in strip_comments(lines[j]):
                    break  # declaration only, no body
                j += 1
            i = j + 1
        else:
            i += 1
    return ranges


def check_w004() -> None:
    for rel in HOT_FILE_RELS:
        path = SRC / rel
        if not path.exists():
            continue
        lines = read_lines(path)
        for start, end in workspace_function_ranges(lines):
            for i in range(start, end + 1):
                line = strip_comments(lines[i])
                for alloc_re, what in ALLOC_RES:
                    if alloc_re.search(line) and not waived(lines, i, "alloc"):
                        finding(path, i + 1, "W004", "alloc",
                                f"{what} inside a Workspace& hot-path "
                                "function; use the workspace's grow-only "
                                "buffers")


# --------------------------------------------------------------------------
# W005: include-what-you-use (lite)
# --------------------------------------------------------------------------

# std symbol -> header(s) that satisfy it. Conservative on purpose: only
# symbols whose home header is unambiguous, with <iosfwd> accepted for
# stream types named (not used) in signatures.
IWYU_MAP: dict[str, tuple[str, ...]] = {
    "std::vector": ("vector",),
    "std::string": ("string",),
    "std::string_view": ("string_view",),
    "std::deque": ("deque",),
    "std::array": ("array",),
    "std::span": ("span",),
    "std::optional": ("optional",),
    "std::function": ("functional",),
    "std::unique_ptr": ("memory",),
    "std::shared_ptr": ("memory",),
    "std::pair": ("utility",),
    "std::tuple": ("tuple",),
    "std::map": ("map",),
    "std::unordered_map": ("unordered_map",),
    "std::unordered_set": ("unordered_set",),
    "std::atomic": ("atomic",),
    "std::mutex": ("mutex",),
    "std::condition_variable": ("condition_variable",),
    "std::thread": ("thread",),
    "std::chrono": ("chrono",),
    "std::runtime_error": ("stdexcept",),
    "std::logic_error": ("stdexcept",),
    "std::invalid_argument": ("stdexcept",),
    "std::uint8_t": ("cstdint",),
    "std::uint16_t": ("cstdint",),
    "std::uint32_t": ("cstdint",),
    "std::uint64_t": ("cstdint",),
    "std::int8_t": ("cstdint",),
    "std::int32_t": ("cstdint",),
    "std::int64_t": ("cstdint",),
    "std::size_t": ("cstddef", "cstdint", "cstdio"),
    "std::byte": ("cstddef",),
    "std::ostream": ("ostream", "iosfwd", "sstream", "iostream"),
    "std::istream": ("istream", "iosfwd", "sstream", "iostream"),
}
INCLUDE_RE = re.compile(r'^\s*#include\s*<([^>]+)>')
SYM_RE = re.compile(r"\bstd::[a-z_0-9]+")


def check_w005() -> None:
    for path in src_files(".hpp"):
        lines = read_lines(path)
        includes = {m.group(1) for line in lines
                    if (m := INCLUDE_RE.match(line))}
        reported: set[str] = set()
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            for m in SYM_RE.finditer(line):
                sym = m.group(0)
                headers = IWYU_MAP.get(sym)
                if headers is None or sym in reported:
                    continue
                if not includes.isdisjoint(headers):
                    continue
                if waived(lines, i, "iwyu"):
                    reported.add(sym)
                    continue
                reported.add(sym)
                finding(path, i + 1, "W005", "iwyu",
                        f"{sym} used but <{headers[0]}> not directly "
                        "included")


# --------------------------------------------------------------------------
# W006: test label audit
# --------------------------------------------------------------------------

VALID_LABELS = {"unit", "parallel", "faults", "obs", "fuzz", "verify",
                "determ"}
PGASM_TEST_RE = re.compile(r"^\s*pgasm_test\((\w+)(.*)\)\s*$")
PGASM_FUZZ_RE = re.compile(r"^\s*pgasm_fuzz\((\w+)\)\s*$")


def check_w006() -> None:
    cml = TESTS / "CMakeLists.txt"
    if not cml.exists():
        finding(TESTS, 1, "W006", "labels", "tests/CMakeLists.txt missing")
        return
    for i, line in enumerate(read_lines(cml)):
        m = PGASM_TEST_RE.match(line)
        if not m:
            continue
        name, rest = m.groups()
        labels = re.findall(r"LABELS\s+([\w;\s]+)", rest)
        toks = labels[0].split() if labels else []
        if len(toks) != 1 or toks[0] not in VALID_LABELS:
            finding(cml, i + 1, "W006", "labels",
                    f"test {name} must carry exactly one label from "
                    f"{sorted(VALID_LABELS)} (got {toks or 'none'})")
    fuzz_cml = TESTS / "fuzz" / "CMakeLists.txt"
    if fuzz_cml.exists():
        text = fuzz_cml.read_text(encoding="utf-8")
        if "LABELS fuzz" not in text:
            finding(fuzz_cml, 1, "W006", "labels",
                    "fuzz tests must be registered with LABELS fuzz")
    else:
        finding(TESTS, 1, "W006", "labels", "tests/fuzz/CMakeLists.txt missing")


# --------------------------------------------------------------------------
# W007-W010 shared infrastructure: concurrency-fact front-ends
# --------------------------------------------------------------------------

# The annotated-lock vocabulary lives here; the shim is the one place the
# raw std primitives may appear.
SHIM_REL = Path("util/thread_annotations.hpp")


def is_shim(path: Path) -> bool:
    try:
        return path.relative_to(SRC) == SHIM_REL
    except ValueError:
        return path.name == SHIM_REL.name


RAW_LOCK_TYPE_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")
RAW_LOCK_CALL_RE = re.compile(
    r"[\w\)\]]\s*(?:\.|->)\s*(lock|unlock|try_lock)\s*\(\s*\)")

# Blocking vmpi surface (Comm methods that can wait on a peer). send/
# send_payload enqueue and iprobe polls; everything here rendezvouses or
# sleeps until the peer acts, which is what makes holding a lock across it
# a deadlock risk.
BLOCKING_VMPI_RE = re.compile(
    r"\.\s*(recv|recv_timeout|recv_value|recv_value_timeout|recv_vector|"
    r"ssend|ssend_payload|ssend_vector|probe|"
    r"probe_timeout|barrier|allreduce_vector|allreduce_sum|allreduce_max)"
    r"\s*(?:<[^;(]*>)?\s*\(")

LOCK_DECL_RE = re.compile(
    r"\b(?:util::)?(MutexLock|ReleasableMutexLock)\s+(\w+)\s*[({]")


def concurrency_files() -> list[Path]:
    return [p for p in src_files(".cpp", ".hpp") if not is_shim(p)]


def check_w007() -> None:
    """Facts: raw lock-type declarations and raw lock-method calls."""
    for path in concurrency_files():
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = RAW_LOCK_TYPE_RE.search(line)
            if m and not waived(lines, i, "raw-lock"):
                finding(path, i + 1, "W007", "raw-lock",
                        f"raw std::{m.group(1)} outside "
                        "util/thread_annotations.hpp; use util::Mutex / "
                        "util::MutexLock / util::CondVar so the capability "
                        "analysis sees this critical section")
            c = RAW_LOCK_CALL_RE.search(line)
            if c and not waived(lines, i, "raw-lock"):
                finding(path, i + 1, "W007", "raw-lock",
                        f"raw .{c.group(1)}() call; hold locks through "
                        "util::MutexLock / util::ReleasableMutexLock scopes "
                        "only")


def lock_regions(lines: list[str]) -> list[tuple[str, int, int]]:
    """(lock_var, start, end) 0-based line ranges during which an annotated
    lock scope is held. The region opens at the declaration and closes at
    the end of the enclosing block or at an early release()."""
    depths = brace_depths(lines)
    regions: list[tuple[str, int, int]] = []
    for i, raw in enumerate(lines):
        line = strip_comments(raw)
        m = LOCK_DECL_RE.search(line)
        if not m:
            continue
        var = m.group(2)
        opened_at = depths[i][0]
        end = len(lines) - 1
        for j in range(i + 1, len(lines)):
            if re.search(rf"\b{var}\s*\.\s*(release|unlock)\s*\(",
                         strip_comments(lines[j])):
                end = j
                break
            if depths[j][1] < opened_at:
                end = j
                break
        regions.append((var, i, end))
    return regions


def check_w008() -> None:
    for path in concurrency_files():
        rel = path.relative_to(SRC)
        if rel.parts[0] == "vmpi":
            continue  # the mailbox mechanics ARE the blocking primitives
        lines = read_lines(path)
        for var, start, end in lock_regions(lines):
            for i in range(start, end + 1):
                line = strip_comments(lines[i])
                m = BLOCKING_VMPI_RE.search(line)
                if m and not waived(lines, i, "lock-blocking"):
                    finding(path, i + 1, "W008", "lock-blocking",
                            f"blocking vmpi call .{m.group(1)}() while "
                            f"holding lock scope '{var}' (opened line "
                            f"{start + 1}) — the peer may need that lock to "
                            "let this call return; drop the lock first")


# --------------------------------------------------------------------------
# W009: protocol-switch exhaustiveness
# --------------------------------------------------------------------------

ENUM_RE = re.compile(r"enum\s+class\s+(\w+)[^{;]*\{([^}]*)\}", re.S)
CASE_RE = re.compile(r"\bcase\s+([\w:]+)::(\w+)\s*:")
DEFAULT_RE = re.compile(r"^\s*default\s*:")


def protocol_enums() -> dict[str, tuple[Path, list[str]]]:
    """Enum name -> (declaring file, enumerators) for every enum class
    declared in a *protocol*.hpp under src/."""
    enums: dict[str, tuple[Path, list[str]]] = {}
    for path in sorted(SRC.rglob("*protocol*.hpp")):
        text = path.read_text(encoding="utf-8", errors="replace")
        text = re.sub(r"//[^\n]*", "", text)
        for m in ENUM_RE.finditer(text):
            name, body = m.group(1), m.group(2)
            members = []
            for entry in body.split(","):
                em = re.match(r"\s*(\w+)", entry)
                if em:
                    members.append(em.group(1))
            if members:
                enums[name] = (path, members)
    return enums


def switch_bodies(lines: list[str]) -> list[tuple[int, int, int]]:
    """(switch_line, body_start, body_end) 0-based for every switch."""
    out: list[tuple[int, int, int]] = []
    for i, raw in enumerate(lines):
        if not re.search(r"\bswitch\s*\(", strip_comments(raw)):
            continue
        depth = 0
        body_start = None
        for j in range(i, len(lines)):
            for ch in strip_comments(lines[j]):
                if ch == "{":
                    depth += 1
                    if body_start is None:
                        body_start = j
                elif ch == "}":
                    depth -= 1
            if body_start is not None and depth == 0:
                out.append((i, body_start, j))
                break
    return out


def check_w009() -> None:
    enums = protocol_enums()
    if not enums:
        return  # nothing declared; W001 complains about the missing header
    for path in concurrency_files():
        lines = read_lines(path)
        for sw_line, start, end in switch_bodies(lines):
            body = lines[start:end + 1]
            handled: dict[str, set[str]] = {}
            has_default = any(DEFAULT_RE.match(strip_comments(b))
                              for b in body)
            for b in body:
                for cm in CASE_RE.finditer(strip_comments(b)):
                    qual = cm.group(1).split("::")[-1]
                    handled.setdefault(qual, set()).add(cm.group(2))
            for enum_name, cases in handled.items():
                if enum_name not in enums:
                    continue
                if waived(lines, sw_line, "switch"):
                    continue
                _, members = enums[enum_name]
                missing = [e for e in members if e not in cases]
                for e in missing:
                    finding(path, sw_line + 1, "W009", "switch",
                            f"switch over {enum_name} does not handle "
                            f"{enum_name}::{e} — every protocol message "
                            "kind/state needs an explicit case")
                if has_default:
                    finding(path, sw_line + 1, "W009", "switch",
                            f"switch over {enum_name} has a `default:` "
                            "label — a silent default swallows new "
                            "enumerators that -Werror=switch would catch")


# --------------------------------------------------------------------------
# W010: PGASM_GUARDED_BY coverage
# --------------------------------------------------------------------------

CLASS_OPEN_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(?:class|struct)\s+"
    r"(?:PGASM_\w+(?:\([^)]*\))?\s+)?(\w+)[^;{]*\{")
MUTEX_MEMBER_RE = re.compile(r"\b(?:util::)?Mutex\s+\w+\s*;")
MEMBER_SKIP_PREFIXES = (
    "public", "private", "protected", "using", "friend", "static",
    "typedef", "template", "enum", "class", "struct", "case", "return",
    "#", "}", "{")


def class_bodies(lines: list[str]) -> list[tuple[str, int, int]]:
    """(name, open_line, close_line) 0-based for class/struct bodies whose
    opening brace sits on the declaration line (project style)."""
    depths = brace_depths(lines)
    out: list[tuple[str, int, int]] = []
    for i, raw in enumerate(lines):
        m = CLASS_OPEN_RE.match(strip_comments(raw))
        if not m:
            continue
        open_depth = depths[i][1]  # depth inside the class body
        for j in range(i + 1, len(lines)):
            if depths[j][1] < open_depth:
                out.append((m.group(1), i, j))
                break
    return out


def member_decl(line: str) -> tuple[str, str] | None:
    """(type_part, member_name) for a single-line data-member declaration,
    None for anything else (methods, labels, macros, continuations)."""
    stripped = strip_comments(line).strip()
    if not stripped or stripped.startswith(MEMBER_SKIP_PREFIXES):
        return None
    # Peel annotation macros so their parens don't read as a param list.
    bare = re.sub(r"PGASM_\w+\s*\([^)]*\)", "", stripped)
    bare = re.sub(r"PGASM_\w+", "", bare).strip()
    if not bare.endswith(";"):
        return None
    if bare.count("(") != bare.count(")"):
        return None  # continuation line of a multi-line declaration
    # Drop a trailing initializer, then any remaining paren means function.
    decl = re.sub(r"(=[^;]*|\{[^;]*\})\s*;$", ";", bare)
    if "(" in decl:
        return None
    m = re.match(r"^(?:mutable\s+)?(.*[\s>*&])(\w+)\s*(?:\[\s*\w*\s*\])?;$",
                 decl)
    if not m or not m.group(1).strip():
        return None
    return m.group(1).strip(), m.group(2)


def check_w010() -> None:
    for path in concurrency_files():
        lines = read_lines(path)
        depths = brace_depths(lines)
        for name, start, end in class_bodies(lines):
            body_depth = depths[start][1]
            body_text = "\n".join(
                strip_comments(l) for l in lines[start:end + 1])
            if not MUTEX_MEMBER_RE.search(body_text):
                continue  # lock-free class: W010 has nothing to prove
            for i in range(start + 1, end):
                if depths[i][0] != body_depth:
                    continue  # inside a nested scope (inline method body)
                decl = member_decl(lines[i])
                if decl is None:
                    continue
                type_part, member = decl
                if re.search(r"\b(Mutex|CondVar)\b", type_part):
                    continue  # the capability / its condition variable
                if "atomic" in type_part:
                    continue  # lock-free by construction
                annotated = ("PGASM_GUARDED_BY" in lines[i]
                             or "PGASM_PT_GUARDED_BY" in lines[i])
                if annotated or waived(lines, i, "guard"):
                    continue
                finding(path, i + 1, "W010", "guard",
                        f"member '{member}' of mutex-owning class '{name}' "
                        "has no PGASM_GUARDED_BY annotation — declare its "
                        "lock, make it atomic, or waive with "
                        "`pgasm-lint: allow(guard): <reason>`")


# --------------------------------------------------------------------------
# W011: checkpoint/manifest write confinement
# --------------------------------------------------------------------------

# A write-capable file open on one line: std::ofstream is always a write;
# std::fstream counts only with an out/trunc/app open mode; fopen only with
# a "w…"/"a…" mode string.
CKPT_OPEN_RE = re.compile(r"\bstd::ofstream\b|\bstd::fstream\b|\bfopen\s*\(")
CKPT_PATH_HINT_RE = re.compile(r"(?i)\.pgck|\.pgmf|\.ckpt|checkpoint|manifest")
CKPT_ALLOWED = {Path("core/wire.cpp")}


def check_w011() -> None:
    targets = src_files(".cpp", ".hpp")
    if TESTS.is_dir():
        targets += sorted(TESTS.rglob("*.cpp")) + sorted(TESTS.rglob("*.hpp"))
    for path in targets:
        try:
            if path.relative_to(SRC) in CKPT_ALLOWED:
                continue
        except ValueError:
            # A tests/ file: never exempt, but the lint fixture mini-trees
            # seed violations on purpose.
            if "lint_fixtures" in path.parts:
                continue
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = CKPT_OPEN_RE.search(line)
            if not m:
                continue
            if not CKPT_PATH_HINT_RE.search(line):
                continue
            token = m.group(0)
            if token == "std::fstream" and not re.search(
                    r"\bios(?:_base)?::(?:out|trunc|app)\b", line):
                continue  # read-only inspection of a checkpoint file
            if token.startswith("fopen") and not re.search(r"\"[wa]", line):
                continue
            if waived(lines, i, "raw-ckpt-write"):
                continue
            finding(path, i + 1, "W011", "raw-ckpt-write",
                    "raw file write to a checkpoint/manifest path bypasses "
                    "the integrity frame; persist through encode_* + "
                    "core::save_frame_atomic (version byte + CRC32 + fsync "
                    "+ atomic rename) or waive deliberate corruption with "
                    "`pgasm-lint: allow(raw-ckpt-write): <reason>`")


# --------------------------------------------------------------------------
# W012: metric-prefix registration
# --------------------------------------------------------------------------

# W003 checks the *shape* of instrumentation names and skips src/obs (the
# registry's own code); W012 checks that the *prefix* of every registered
# metric, src/obs included, belongs to the SUBSYSTEMS registry. The two can
# double-report an unknown prefix outside obs — that is fine, both fail CI.


def check_w012() -> None:
    for path in src_files(".cpp", ".hpp"):
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            for m in METRIC_RE.finditer(line):
                name = m.group(2)
                if waived(lines, i, "metric-prefix"):
                    continue
                prefix = name.split(".")[0]
                if prefix not in SUBSYSTEMS:
                    finding(path, i + 1, "W012", "metric-prefix",
                            f"metric {name!r} prefix {prefix!r} is not a "
                            "registered subsystem — fix the typo or add the "
                            "subsystem to SUBSYSTEMS in tools/lint/"
                            "pgasm_lint.py in the same change")


# --------------------------------------------------------------------------
# W013: raw process/shared-memory syscall confinement
# --------------------------------------------------------------------------

# The multi-process transport is the one place that may fork, map shared
# memory, signal, reap, or open sockets: every other layer must stay
# process-model-agnostic so the same protocol code runs over rank threads
# and rank processes alike. A raw syscall elsewhere is either transport
# logic leaking upward or an untracked side door the fault injector and the
# reaper know nothing about.
PROC_SYSCALL_RE = re.compile(
    # Not a member call / qualified name (t.kill(), Task::fork()), and not
    # a declaration of a same-named method (void kill() {...}).
    r"(?<![\w:.>])(?<!void )(?<!int )(?<!bool )(?<!auto )(?:::\s*)?"
    r"(fork|vfork|mmap|munmap|shm_open|shm_unlink|mkstemp|"
    r"waitpid|wait4|kill|killpg|raise|sigaction|"
    r"socket|bind|connect|listen|accept|socketpair)\s*\(")


def check_w013() -> None:
    for path in src_files(".cpp", ".hpp"):
        rel = path.relative_to(SRC)
        if rel.parts[0] == "vmpi":
            continue
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = PROC_SYSCALL_RE.search(line)
            if not m:
                continue
            if waived(lines, i, "raw-proc"):
                continue
            finding(path, i + 1, "W013", "raw-proc",
                    f"raw {m.group(1)}() outside src/vmpi/ — process, "
                    "shared-memory and socket syscalls belong to the "
                    "transport layer (src/vmpi/); route through it or add "
                    "`pgasm-lint: allow(raw-proc): <reason>`")


# --------------------------------------------------------------------------
# W014: explicit memory orders / raw-atomic confinement
# --------------------------------------------------------------------------

# Headers that legitimately declare raw std::atomic cells: the transport
# control blocks and rings (their orders are verified by pgasm-ringcheck
# and documented per-site) and the lock-free obs counters. Everywhere else
# a raw atomic needs a waiver stating its ordering story.
ATOMIC_APPROVED = {
    Path("vmpi/transport.hpp"),
    Path("vmpi/shm_ring.hpp"),
    Path("vmpi/ring_core.hpp"),
    Path("vmpi/thread_transport.hpp"),
    Path("obs/metrics.hpp"),
    Path("obs/trace.hpp"),
}

ATOMIC_OP_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")
ATOMIC_DECL_RE = re.compile(r"\bstd::atomic\s*<")


def check_w014() -> None:
    for path in src_files(".cpp", ".hpp"):
        rel = path.relative_to(SRC)
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)

            # (a) atomic operations must name their order. The argument
            # list may wrap: accept the order on the call line or the next
            # two continuation lines. `RingOrder::` counts — the ring_core
            # facade names orders through its own enum.
            for m in ATOMIC_OP_RE.finditer(line):
                window = line[m.end():]
                for j in (i + 1, i + 2):
                    if j < len(lines):
                        window += " " + strip_comments(lines[j])
                if m.group(1) == "store" and re.match(r"\s*\)", window):
                    continue  # zero-arg .store(): an unrelated accessor,
                    # an atomic store always passes a value
                if "memory_order" in window or "RingOrder::" in window:
                    continue
                if waived(lines, i, "memory-order"):
                    continue
                finding(path, i + 1, "W014", "memory-order",
                        f".{m.group(1)}() without an explicit "
                        "std::memory_order — the default seq_cst hides the "
                        "intended ordering contract; name the order (or "
                        "waive with `pgasm-lint: allow(memory-order): "
                        "<reason>` if this really wants seq_cst)")

            # (b) raw std::atomic declarations outside the approved
            # concurrency headers. References and shared_ptr wrappers are
            # uses of an already-declared cell, not new declarations.
            if rel in ATOMIC_APPROVED:
                continue
            dm = ATOMIC_DECL_RE.search(line)
            if not dm:
                continue
            after = line[dm.start():]
            if re.match(r"std::atomic\s*<[^;>]*(?:<[^<>]*>)?[^;>]*>\s*&",
                        after):
                continue  # a reference to an existing atomic
            if re.search(r"(make_shared|shared_ptr|unique_ptr)\s*<\s*"
                         r"std::atomic", line):
                continue
            if waived(lines, i, "raw-atomic"):
                continue
            finding(path, i + 1, "W014", "raw-atomic",
                    "raw std::atomic declaration outside the approved "
                    "concurrency headers — move it behind one of them or "
                    "add `pgasm-lint: allow(raw-atomic): <reason>` stating "
                    "its ordering story")


# --------------------------------------------------------------------------
# W015: wire-tag <-> protocol-table membership
# --------------------------------------------------------------------------

# W001 checks that the clustering tags carry codec annotations; W015 checks
# the structural half for EVERY tag in src/: each kTagX must be represented
# by exactly one row (kind kX) of exactly one k*Protocol table, so
# pgasm-model and the docs see the same message set.

W015_TAG_RE = re.compile(r"(?:inline\s+)?constexpr int (kTag(\w+))\s*=")
W015_TABLE_RE = re.compile(r"\b(k\w*Protocol)\s*\[\]")
W015_KIND_RE = re.compile(r"\b\w*MsgKind::k(\w+)\b")


def protocol_table_rows() -> dict[str, dict[str, int]]:
    """Table name -> {kind suffix -> row count} for every k*Protocol array
    declared in a *protocol*.hpp under src/."""
    tables: dict[str, dict[str, int]] = {}
    for path in sorted(SRC.rglob("*protocol*.hpp")):
        text = path.read_text(encoding="utf-8", errors="replace")
        text = re.sub(r"//[^\n]*", "", text)
        for m in W015_TABLE_RE.finditer(text):
            # Body = the brace-balanced initializer after the '='.
            start = text.find("{", m.end())
            if start < 0:
                continue
            depth = 0
            end = start
            for pos in range(start, len(text)):
                if text[pos] == "{":
                    depth += 1
                elif text[pos] == "}":
                    depth -= 1
                    if depth == 0:
                        end = pos
                        break
            body = text[start:end + 1]
            rows = tables.setdefault(m.group(1), {})
            for km in W015_KIND_RE.finditer(body):
                rows[km.group(1)] = rows.get(km.group(1), 0) + 1
    return tables


def check_w015() -> None:
    tables = protocol_table_rows()
    for path in src_files(".cpp", ".hpp"):
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            m = W015_TAG_RE.search(strip_comments(raw))
            if not m:
                continue
            tag, suffix = m.group(1), m.group(2)
            homes = [(t, n) for t, rows in sorted(tables.items())
                     if (n := rows.get(suffix, 0))]
            if not homes:
                finding(path, i + 1, "W015", "tag-table",
                        f"wire tag {tag} has no row in any declarative "
                        "protocol table (k*Protocol in a *protocol*.hpp) — "
                        "an undocumented message kind that pgasm-model "
                        "cannot see")
            elif len(homes) > 1 or homes[0][1] != 1:
                where = ", ".join(f"{t} x{n}" for t, n in homes)
                finding(path, i + 1, "W015", "tag-table",
                        f"wire tag {tag} must appear in exactly one row of "
                        f"exactly one protocol table, found: {where}")


# --------------------------------------------------------------------------
# Optional clang front-end for W007/W010 facts
# --------------------------------------------------------------------------
#
# When a clang compiler is present, re-derive the W007/W010 facts from
# `-ast-dump=json` and report anything the lexer front-end missed (macro-
# hidden locks, multi-line declarations). The lexer findings always run —
# the AST pass only ADDS precision, so environments without clang (the CI
# container ships GCC only) get identical baseline behaviour.

def clang_binary() -> str | None:
    for name in ("clang++", "clang++-17", "clang++-16", "clang++-15",
                 "clang++-14", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def ast_walk(node: dict, visit) -> None:
    visit(node)
    for child in node.get("inner", []):
        if isinstance(child, dict):
            ast_walk(child, visit)


AST_CACHE_VERSION = "lint-v1"


def ast_cache_dir() -> Path:
    return REPO / "build" / ".ast_cache"


def ast_facts(clang: str, path: Path) -> list[dict] | None:
    """Lock facts from clang's AST for one file, memoised on disk.

    Facts are {kind: lock-type|lock-call, line, payload} records — pure
    functions of the file contents and the compiler — so they are cached
    under build/.ast_cache keyed by sha256(version + clang path + file
    bytes). A cache hit skips the clang invocation entirely, which is
    what makes repeated lint runs on a warm tree fast. Returns None when
    clang cannot produce an AST (the lexer facts stand); failures are
    never cached.
    """
    blob = path.read_bytes()
    key = hashlib.sha256(
        f"{AST_CACHE_VERSION}\0{clang}\0".encode() + blob).hexdigest()
    cache = ast_cache_dir() / f"{key}.json"
    if cache.is_file():
        try:
            return json.loads(cache.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            pass  # corrupt or racing entry: recompute below
    try:
        proc = subprocess.run(
            [clang, "-x", "c++", "-std=c++20", "-fsyntax-only",
             "-Xclang", "-ast-dump=json", "-I", str(SRC), str(path)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0 or not proc.stdout:
            return None
        root = json.loads(proc.stdout)
    except (subprocess.SubprocessError, json.JSONDecodeError, OSError):
        print(f"pgasm-lint: warning: clang AST pass failed on {path}; "
              "lexer facts stand", file=sys.stderr)
        return None

    facts: list[dict] = []

    def visit(node: dict) -> None:
        kind = node.get("kind", "")
        line = (node.get("loc") or {}).get("line", 0)
        if not line:
            return
        if kind == "VarDecl":
            qual = (node.get("type") or {}).get("qualType", "")
            if RAW_LOCK_TYPE_RE.search(qual):
                facts.append(
                    {"kind": "lock-type", "line": line, "payload": qual})
        elif kind == "CXXMemberCallExpr":
            callee = ""
            for child in node.get("inner", []):
                if child.get("kind") == "MemberExpr":
                    callee = child.get("name", "")
            if callee in ("lock", "unlock", "try_lock"):
                facts.append(
                    {"kind": "lock-call", "line": line, "payload": callee})

    ast_walk(root, visit)
    try:
        cache.parent.mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps(facts), encoding="utf-8")
    except OSError:
        pass  # cache is best-effort; the facts are still returned
    return facts


def ast_findings(files: list[Path]) -> None:
    clang = clang_binary()
    if clang is None:
        return
    seen = {(f["check"], f["path"], f["line"]) for f in FINDINGS}
    for path in files:
        if is_shim(path):
            continue
        facts = ast_facts(clang, path)
        if facts is None:
            continue
        lines = read_lines(path)
        rel = str(path.relative_to(REPO))
        for fact in facts:
            line = fact["line"]
            if line > len(lines):
                continue
            key = ("W007", rel, line)
            if key in seen or waived(lines, line - 1, "raw-lock"):
                continue
            seen.add(key)
            if fact["kind"] == "lock-type":
                finding(path, line, "W007", "raw-lock",
                        f"raw lock type {fact['payload']!r} (clang AST); use "
                        "the util::Mutex vocabulary")
            else:
                finding(path, line, "W007", "raw-lock",
                        f"raw .{fact['payload']}() call (clang AST); hold "
                        "locks through util::MutexLock scopes only")


def check_clang_ast() -> None:
    """Supplementary clang AST pass (auto-skips when clang is absent)."""
    ast_findings([p for p in concurrency_files()
                  if p.relative_to(SRC).parts[0] in ("vmpi", "obs", "core",
                                                     "util")])


# --------------------------------------------------------------------------

CHECKS = {
    "W001": check_w001,
    "W002": check_w002,
    "W003": check_w003,
    "W004": check_w004,
    "W005": check_w005,
    "W006": check_w006,
    "W007": check_w007,
    "W008": check_w008,
    "W009": check_w009,
    "W010": check_w010,
    "W011": check_w011,
    "W012": check_w012,
    "W013": check_w013,
    "W014": check_w014,
    "W015": check_w015,
}


def _run_one_check(name: str) -> list[dict]:
    """Pool worker: run one check in a forked child, return its findings.

    The child inherits REPO/SRC/TESTS (and any --root re-pointing) via
    fork. Clearing FINDINGS first means the returned batch is exactly the
    check's own findings; IDs match a serial run because finding()
    ordinals only ever count earlier findings of the SAME check.
    """
    FINDINGS.clear()
    CHECKS[name]()
    return list(FINDINGS)


def run_checks(selected: list[str]) -> None:
    """Run the selected checks, in parallel when there is more than one.

    One pool task per check, merged back in selection order, which is
    byte-identical (findings and IDs) to the serial loop. Falls back to
    serial on platforms without fork or when the pool cannot start.
    """
    if len(selected) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
            workers = min(len(selected), multiprocessing.cpu_count())
            with ctx.Pool(workers) as pool:
                per_check = pool.map(_run_one_check, selected)
            FINDINGS.clear()
            for batch in per_check:
                FINDINGS.extend(batch)
            return
        except (OSError, ValueError):
            FINDINGS.clear()
    for name in selected:
        CHECKS[name]()


def emit_text(selected: list[str]) -> None:
    for f in FINDINGS:
        print(f"{f['path']}:{f['line']}: [{f['check']}/{f['slug']}] "
              f"{f['message']} [{f['id']}]")
    n = len(FINDINGS)
    print(f"pgasm-lint: {n} finding{'s' if n != 1 else ''} "
          f"({', '.join(selected)})")


def emit_json(selected: list[str]) -> None:
    print(json.dumps({
        "version": 1,
        "root": str(REPO),
        "checks": selected,
        "count": len(FINDINGS),
        "findings": FINDINGS,
    }, indent=2))


def main() -> int:
    global REPO, SRC, TESTS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", metavar="WNNN", action="append",
                    help="run only these checks (repeatable)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--root", metavar="DIR", default=None,
                    help="repo root to lint (default: this script's repo); "
                    "used by the fixture tests to point at mini-trees")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (json carries stable finding IDs)")
    ap.add_argument("--frontend", choices=("auto", "clang", "lexer"),
                    default="auto",
                    help="fact front-end for W007-W010: clang AST when "
                    "available (auto/clang), tokenizer otherwise")
    args = ap.parse_args()

    if args.list_checks:
        for name, fn in CHECKS.items():
            print(f"{name}: {(fn.__doc__ or '').strip()}")
        return 0

    if args.root is not None:
        REPO = Path(args.root).resolve()
        SRC = REPO / "src"
        TESTS = REPO / "tests"
    if not SRC.is_dir():
        print(f"pgasm-lint: no src/ under {REPO}", file=sys.stderr)
        return 2

    selected = args.only or sorted(CHECKS)
    for name in selected:
        if name not in CHECKS:
            print(f"unknown check {name}", file=sys.stderr)
            return 2
    try:
        run_checks(selected)
        if (args.frontend in ("auto", "clang")
                and any(c in selected for c in ("W007", "W010"))):
            if args.frontend == "clang" and clang_binary() is None:
                print("pgasm-lint: --frontend=clang but no clang on PATH",
                      file=sys.stderr)
                return 2
            check_clang_ast()
    except OSError as e:
        print(f"pgasm-lint: tool error: {e}", file=sys.stderr)
        return 2

    if args.format == "json":
        emit_json(selected)
    else:
        emit_text(selected)
    return 1 if FINDINGS else 0


if __name__ == "__main__":
    sys.exit(main())
