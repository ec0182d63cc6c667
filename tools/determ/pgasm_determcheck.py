#!/usr/bin/env python3
"""pgasm-determcheck: static determinism analysis for the bit-identical
contigs invariant (DESIGN.md §16).

Every hard guarantee this repo makes — chaos recovery, checkpoint resume,
thread-vs-proc transport equivalence — is phrased as "contigs are
bit-identical". The dynamic gates (chaos seeds, proc-smoke diffs,
test_determinism) only exercise the schedules they happen to run; this
tool statically rejects whole *classes* of nondeterminism by tracking
known nondeterminism sources toward output-affecting sinks (wire encodes,
contig emission, checkpoint writes, summary folds).

Checks
------
W016  unordered-iteration order: iterating a std::unordered_map/set
      (range-for or explicit .begin()) observes hash-bucket order, which
      varies with the hash seed, the load factor and the libstdc++
      version. Anything derived from that order — emission sequence,
      fingerprints, fold results — differs run to run. Iterate a
      util::sorted_items() snapshot instead; genuinely order-independent
      folds are waived with `pgasm-lint: allow(unordered-iter): <why>`.
W017  pointer identity: a pointer value used as a map/set key, hashed
      (std::hash<T*>), cast to an integer (reinterpret_cast<uintptr_t>)
      or formatted into output (%p, streamed void*) encodes an address.
      Addresses differ run to run under ASLR and are FATAL under
      ProcTransport, where every rank has its own address space — two
      ranks disagree about the same logical object. Key by stable ids.
W018  floating-point fold order: float/double addition does not
      reassociate. A float-typed cross-rank allreduce, a float
      accumulation inside an unordered-container loop, or a float
      std::accumulate over an unordered range produces different rounded
      bits when the combination order changes. Use integer payloads on
      the wire, or util::ordered_reduce() over a deterministically
      ordered vector; waive with `pgasm-lint: allow(fp-fold): <why>`.
W019  unseeded entropy: std::random_device, rand()/srand(), std::mt19937
      constructed from entropy, and raw time reads (steady_clock::now,
      clock_gettime, gettimeofday, time(nullptr)) flowing into
      algorithmic decisions make the run a function of the wall clock.
      Algorithms draw randomness from util::Prng with an explicit seed;
      time stays inside the observability and transport-deadline layers
      (src/obs/, src/vmpi/, src/util/timer.hpp), which never feed
      contigs. Elsewhere: `pgasm-lint: allow(entropy): <why>`.

Source -> sink model: the analyzer is deliberately conservative about
sinks. Rather than proving reachability, it treats every function under
src/ as potentially output-affecting (in this codebase nearly everything
feeds the contig stream, a checkpoint frame, or a summary the perf gate
diffs). Precision comes from the *source* side — recognizing the
canonicalization vocabulary (sorted_items / ordered_reduce / util::Prng /
the approved time layers) — plus per-site waivers for the rest. See
DESIGN.md §16 for what this does and does not prove.

Front-ends: the built-in tokenizer front-end computes all facts from
source text (declarations resolved through the project include graph).
When a clang compiler is available (and unless --frontend=lexer), an
`-ast-dump=json` pass re-derives the W016 range-for facts and adds
anything the lexer missed (macro-hidden loops, multi-line declarations);
AST facts are cached per file content hash under build/.ast_cache.

Exit status: 0 clean, 1 findings, 2 tool error.

Output: human-readable text by default; `--format=json` emits the same
finding schema as pgasm-lint (version/root/checks/count/findings with
stable content-hashed IDs, prefix PD-).

Waivers share the pgasm-lint syntax: `pgasm-lint: allow(<slug>): <reason>`
on the offending line or the contiguous comment block above it. Slugs:
unordered-iter, ptr-identity, fp-fold, entropy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

FINDINGS: list[dict] = []

# The remediation vocabulary itself must iterate the containers it
# snapshots; like util/thread_annotations.hpp for the lock checks, it is
# the one file the source rules do not apply to.
SHIM_REL = Path("util/deterministic.hpp")

# Directories / files whose *job* is reading the clock: observability
# timestamps never feed contigs, and the transport layer needs deadlines
# for its timeout machinery (recv_timeout, probe_timeout). Mirrors the
# W008/W013 src/vmpi/ exemption.
TIME_APPROVED_DIRS = {"obs", "vmpi"}
TIME_APPROVED_FILES = {Path("util/timer.hpp")}

# Module -> the output-affecting sink its data feeds, for messages. The
# mapping is descriptive (it names the nearest sink), not a reachability
# proof — see the module docstring.
MODULE_SINKS = {
    "align": "overlap scores feeding contig consensus",
    "core": "wire encodes and checkpoint frames",
    "gst": "the promising-pair stream ordering alignment work",
    "obs": "run summaries the perf gate diffs",
    "olc": "contig emission",
    "pipeline": "contig emission and the run summary",
    "preprocess": "the masked fragment stream feeding clustering",
    "seq": "the fragment store every downstream stage reads",
    "sim": "simulated inputs (must replay bit-identically from a seed)",
    "util": "shared vocabulary used by every sink",
    "vmpi": "message payloads and delivery bookkeeping",
}


def finding(path: Path, line_no: int, check: str, slug: str, msg: str) -> None:
    try:
        rel = str(path.relative_to(REPO))
    except ValueError:
        rel = str(path)
    # Stable ID: hash of what the finding says, not where it says it; an
    # occurrence ordinal disambiguates identical findings in one file.
    basis = f"{check}:{slug}:{rel}:{msg}"
    ordinal = sum(1 for f in FINDINGS
                  if f["check"] == check and f["path"] == rel
                  and f["message"] == msg)
    fid = "PD-" + hashlib.sha256(
        f"{basis}#{ordinal}".encode()).hexdigest()[:12]
    FINDINGS.append({
        "id": fid,
        "check": check,
        "slug": slug,
        "path": rel,
        "line": line_no,
        "message": msg,
    })


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8", errors="replace").splitlines()


def waived(lines: list[str], idx: int, slug: str) -> bool:
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
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def src_files(*suffixes: str) -> list[Path]:
    out: list[Path] = []
    for s in suffixes:
        out.extend(sorted(SRC.rglob(f"*{s}")))
    return out


def is_shim(path: Path) -> bool:
    try:
        return path.relative_to(SRC) == SHIM_REL
    except ValueError:
        return False


def sink_for(path: Path) -> str:
    try:
        module = path.relative_to(SRC).parts[0]
    except (ValueError, IndexError):
        module = ""
    return MODULE_SINKS.get(module, "downstream output")


# --------------------------------------------------------------------------
# Symbol table: which names are std::unordered_* containers, resolved
# through the project include graph so a member declared in foo.hpp is
# recognized when foo.cpp (or anything including foo.hpp) iterates it.
# --------------------------------------------------------------------------

UNORDERED_OPEN_RE = re.compile(r"\bstd::unordered_(map|set)\s*<")
PROJECT_INCLUDE_RE = re.compile(r'^\s*#include\s*"([^"]+)"')


def match_template_args(text: str, open_idx: int) -> tuple[str, int] | None:
    """Given text and the index of '<', return (args, index_after_'>') by
    bracket matching, or None when the declaration spans lines."""
    depth = 0
    for i in range(open_idx, len(text)):
        ch = text[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i], i + 1
    return None


def unordered_decls_in_line(line: str) -> list[tuple[str, str, str]]:
    """(kind, template_args, declared_name) for each single-line
    `std::unordered_map/set<...> name ...` declaration in the line."""
    out: list[tuple[str, str, str]] = []
    for m in UNORDERED_OPEN_RE.finditer(line):
        parsed = match_template_args(line, m.end() - 1)
        if parsed is None:
            continue
        args, after = parsed
        nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(\[]|$)", line[after:])
        if nm:
            out.append((m.group(1), args, nm.group(1)))
    return out


def first_template_arg(args: str) -> str:
    """The key type of a template argument list (up to the top-level comma)."""
    depth = 0
    for i, ch in enumerate(args):
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif ch == "," and depth == 0:
            return args[:i]
    return args


def build_symbol_table(files: list[Path]) -> dict[Path, set[str]]:
    """Path -> names visible in that file that are unordered containers
    (declared there or in any transitively included project header)."""
    declared: dict[Path, set[str]] = {}
    includes: dict[Path, set[str]] = {}
    by_rel: dict[str, Path] = {}
    for path in files:
        rel = str(path.relative_to(SRC))
        by_rel[rel] = path
        names: set[str] = set()
        incs: set[str] = set()
        for raw in read_lines(path):
            im = PROJECT_INCLUDE_RE.match(raw)
            if im:
                incs.add(im.group(1))
            line = strip_comments(raw)
            for _, _, name in unordered_decls_in_line(line):
                names.add(name)
        declared[path] = names
        includes[path] = incs

    visible: dict[Path, set[str]] = {}
    for path in files:
        seen: set[str] = set()
        names = set(declared[path])
        stack = [str(path.relative_to(SRC))]
        while stack:
            rel = stack.pop()
            if rel in seen:
                continue
            seen.add(rel)
            p = by_rel.get(rel)
            if p is None:
                continue
            names |= declared[p]
            stack.extend(includes[p])
        visible[path] = names
    return visible


# --------------------------------------------------------------------------
# W016: unordered-container iteration order
# --------------------------------------------------------------------------

RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*:\s*([^)]+)\)")
BEGIN_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def range_expr_target(expr: str) -> str | None:
    """The identifier whose iteration order the range-for observes: the
    last identifier of the range expression (`counts`, `this->counts`,
    `obj.counts`). A call like sorted_items(c) or c.keys() returns a
    fresh container, so expressions ending in ')' resolve to None."""
    expr = expr.strip()
    if expr.endswith(")"):
        return None
    idents = IDENT_RE.findall(expr)
    return idents[-1] if idents else None


def check_w016() -> None:
    files = src_files(".cpp", ".hpp")
    table = build_symbol_table(files)
    for path in files:
        if is_shim(path):
            continue
        unordered = table[path]
        if not unordered:
            continue
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = RANGE_FOR_RE.search(line)
            if m and "sorted_items" not in m.group(1):
                name = range_expr_target(m.group(1))
                if (name in unordered
                        and not waived(lines, i, "unordered-iter")):
                    finding(path, i + 1, "W016", "unordered-iter",
                            f"range-for over unordered container '{name}' "
                            "observes hash-bucket order, which varies run "
                            f"to run and reaches {sink_for(path)}; iterate "
                            "util::sorted_items() or waive with "
                            "`pgasm-lint: allow(unordered-iter): <reason>`")
            for bm in BEGIN_CALL_RE.finditer(line):
                name = bm.group(1)
                if (name in unordered
                        and not waived(lines, i, "unordered-iter")):
                    finding(path, i + 1, "W016", "unordered-iter",
                            f"explicit iterator over unordered container "
                            f"'{name}' ({bm.group(0).strip()}...) observes "
                            "hash-bucket order, which varies run to run "
                            f"and reaches {sink_for(path)}; snapshot with "
                            "util::sorted_items() first")


# --------------------------------------------------------------------------
# W017: pointer identity in keys / hashes / output
# --------------------------------------------------------------------------

ORDERED_PTR_KEY_RE = re.compile(r"\bstd::(map|set)\s*<")
HASH_PTR_RE = re.compile(r"\bstd::hash\s*<[^>]*\*\s*(?:const\s*)?>")
UINTPTR_CAST_RE = re.compile(
    r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>")
PTR_FMT_RE = re.compile(r'"[^"]*%p[^"]*"')
VOID_STREAM_RE = re.compile(
    r"<<[^;]*\bstatic_cast\s*<\s*(?:const\s+)?void\s*\*\s*>")


def ptr_key_decls(line: str) -> list[str]:
    """Container spellings declared on this line whose KEY type is a
    pointer (std::unordered_map/set and std::map/set alike)."""
    out = []
    for kind, args, _name in unordered_decls_in_line(line):
        if "*" in first_template_arg(args):
            out.append(f"std::unordered_{kind}")
    for m in ORDERED_PTR_KEY_RE.finditer(line):
        parsed = match_template_args(line, m.end() - 1)
        if parsed and "*" in first_template_arg(parsed[0]):
            out.append(f"std::{m.group(1)}")
    return out


def check_w017() -> None:
    for path in src_files(".cpp", ".hpp"):
        if is_shim(path):
            continue
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)

            def report(what: str) -> None:
                finding(path, i + 1, "W017", "ptr-identity",
                        f"{what} — pointer values differ run to run under "
                        "ASLR and are fatal under ProcTransport (each rank "
                        "has its own address space), so anything keyed, "
                        "branched, or formatted from them diverges before "
                        f"it reaches {sink_for(path)}; key by stable "
                        "fragment/cluster ids instead")

            if waived(lines, i, "ptr-identity"):
                continue
            for spelled in ptr_key_decls(line):
                report(f"{spelled} keyed by a pointer type")
            if HASH_PTR_RE.search(line):
                report("std::hash over a pointer type")
            if UINTPTR_CAST_RE.search(line):
                report("pointer cast to an integer "
                       "(reinterpret_cast<uintptr_t>)")
            if PTR_FMT_RE.search(line):
                report("%p formats an address into output")
            if VOID_STREAM_RE.search(line):
                report("streaming a static_cast<void*> address into output")


# --------------------------------------------------------------------------
# W018: floating-point fold order
# --------------------------------------------------------------------------

FLOAT_ALLREDUCE_RE = re.compile(
    r"\ballreduce_(?:sum|max|min|vector)\s*<\s*(?:float|double)\b")
FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*[={;,)]")
ACCUM_RE = re.compile(r"\b(\w+)\s*[+\-]=")
STD_ACCUMULATE_RE = re.compile(
    r"\bstd::accumulate\s*\(\s*([A-Za-z_]\w*)\s*\.\s*c?begin\b")
FLOAT_INIT_RE = re.compile(r"\b\d+\.\d*f?\b|\b\d+\.f\b")


def float_vars_in_file(lines: list[str]) -> set[str]:
    out: set[str] = set()
    for raw in lines:
        for m in FLOAT_DECL_RE.finditer(strip_comments(raw)):
            out.add(m.group(1))
    return out


def body_range(lines: list[str], start: int) -> tuple[int, int]:
    """(first, last) 0-based line range of the brace-delimited body that
    opens at/after `start` (single-statement bodies: just the next line)."""
    depth = 0
    opened = False
    for j in range(start, len(lines)):
        for ch in strip_comments(lines[j]):
            if ch == "{":
                depth += 1
                opened = True
            elif ch == "}":
                depth -= 1
        if opened and depth <= 0:
            return start, j
        if not opened and j > start:
            return start, min(j, len(lines) - 1)
    return start, len(lines) - 1


def check_w018() -> None:
    files = src_files(".cpp", ".hpp")
    table = build_symbol_table(files)
    for path in files:
        if is_shim(path):
            continue
        lines = read_lines(path)
        floats = float_vars_in_file(lines)
        unordered = table[path]
        for i, raw in enumerate(lines):
            line = strip_comments(raw)

            if (FLOAT_ALLREDUCE_RE.search(line)
                    and not waived(lines, i, "fp-fold")):
                finding(path, i + 1, "W018", "fp-fold",
                        "float-typed cross-rank allreduce — the reduction "
                        "order is a transport/topology property, so the "
                        "rounded bits can differ across rank counts and "
                        f"feed {sink_for(path)}; ship integer payloads, or "
                        "gather and util::ordered_reduce() on one rank")

            am = STD_ACCUMULATE_RE.search(line)
            if (am and am.group(1) in unordered
                    and FLOAT_INIT_RE.search(line)
                    and not waived(lines, i, "fp-fold")):
                finding(path, i + 1, "W018", "fp-fold",
                        f"float std::accumulate over unordered container "
                        f"'{am.group(1)}' — both the visit order and the "
                        "rounding it implies vary run to run; snapshot "
                        "with util::sorted_items() and fold with "
                        "util::ordered_reduce()")

            m = RANGE_FOR_RE.search(line)
            if not m or "sorted_items" in m.group(1):
                continue
            name = range_expr_target(m.group(1))
            if name not in unordered:
                continue
            first, last = body_range(lines, i)
            for j in range(first, last + 1):
                for acc in ACCUM_RE.finditer(strip_comments(lines[j])):
                    if (acc.group(1) in floats
                            and not waived(lines, j, "fp-fold")):
                        finding(path, j + 1, "W018", "fp-fold",
                                f"float accumulation into "
                                f"'{acc.group(1)}' inside iteration over "
                                f"unordered container '{name}' — the sum's "
                                "rounded bits depend on hash-bucket order "
                                f"and reach {sink_for(path)}; iterate "
                                "util::sorted_items() or fold with "
                                "util::ordered_reduce()")


# --------------------------------------------------------------------------
# W019: unseeded entropy / time-derived values
# --------------------------------------------------------------------------

ENTROPY_RES: list[tuple[re.Pattern, str]] = [
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device (hardware entropy)"),
    (re.compile(r"\bstd::mt19937(?:_64)?\b"),
     "std::mt19937 (use util::Prng with an explicit seed)"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\b\w+_clock::now\s*\("), "a raw clock read (*_clock::now)"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr)"),
]


def time_approved(path: Path) -> bool:
    try:
        rel = path.relative_to(SRC)
    except ValueError:
        return False
    return rel.parts[0] in TIME_APPROVED_DIRS or rel in TIME_APPROVED_FILES


def check_w019() -> None:
    for path in src_files(".cpp", ".hpp"):
        if is_shim(path) or time_approved(path):
            continue
        lines = read_lines(path)
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            for pat, what in ENTROPY_RES:
                if pat.search(line) and not waived(lines, i, "entropy"):
                    finding(path, i + 1, "W019", "entropy",
                            f"{what} outside the approved time/entropy "
                            "layers (src/obs/, src/vmpi/, util/timer.hpp) "
                            "— a value derived from the wall clock or "
                            "hardware entropy flowing into algorithmic "
                            f"decisions makes {sink_for(path)} differ run "
                            "to run; draw from util::Prng with an explicit "
                            "seed, or keep the value observation-only and "
                            "waive with `pgasm-lint: allow(entropy): "
                            "<reason>`")


# --------------------------------------------------------------------------
# Optional clang AST front-end for W016 range-for facts, cached per file
# --------------------------------------------------------------------------
#
# The lexer facts always run; the AST pass only ADDS findings it derives
# from clang's desugared types (macro-hidden loops, declarations the
# single-line tokenizer cannot see). Extracted facts are cached under
# build/.ast_cache keyed by file content + compiler, so re-runs skip
# clang entirely for unchanged files.

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


def ast_cache_dir() -> Path:
    return REPO / "build" / ".ast_cache"


def ast_facts(clang: str, path: Path) -> list[dict] | None:
    """[{'line': N, 'qual': <range var type>}] for every range-for whose
    range is an unordered container; cached by content hash. None on any
    clang failure (not cached, so a transient failure retries)."""
    key = hashlib.sha256(
        b"determ-v1\x00" + clang.encode() + b"\x00" +
        path.read_bytes()).hexdigest()
    cache = ast_cache_dir() / f"{key}.json"
    if cache.exists():
        try:
            return json.loads(cache.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            pass
    try:
        proc = subprocess.run(
            [clang, "-x", "c++", "-std=c++20", "-fsyntax-only",
             "-Xclang", "-ast-dump=json", "-I", str(SRC), str(path)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0 or not proc.stdout:
            return None
        root = json.loads(proc.stdout)
    except (subprocess.SubprocessError, json.JSONDecodeError, OSError):
        return None

    facts: list[dict] = []

    def visit(node: dict) -> None:
        if node.get("kind") != "CXXForRangeStmt":
            return
        line = (node.get("range", {}).get("begin") or {}).get("line", 0)
        for child in node.get("inner", []):
            if not isinstance(child, dict):
                continue
            if child.get("kind") != "DeclStmt":
                continue
            for decl in child.get("inner", []):
                if not isinstance(decl, dict):
                    continue
                qual = (decl.get("type") or {}).get("qualType", "")
                if "unordered_map" in qual or "unordered_set" in qual:
                    facts.append({"line": line, "qual": qual})

    ast_walk(root, visit)
    try:
        ast_cache_dir().mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps(facts), encoding="utf-8")
    except OSError:
        pass
    return facts


def check_clang_ast() -> None:
    clang = clang_binary()
    if clang is None:
        return
    seen = {(f["check"], f["path"], f["line"]) for f in FINDINGS}
    for path in src_files(".cpp"):
        if is_shim(path):
            continue
        facts = ast_facts(clang, path)
        if facts is None:
            print(f"pgasm-determcheck: warning: clang AST pass failed on "
                  f"{path}; lexer facts stand", file=sys.stderr)
            continue
        lines = read_lines(path)
        rel = str(path.relative_to(REPO))
        for fact in facts:
            line = fact.get("line", 0)
            if not line or line > len(lines):
                continue
            # sorted_items() returns a std::vector; a range var whose
            # desugared type still names unordered_* iterates the raw
            # container.
            key = ("W016", rel, line)
            if key in seen or waived(lines, line - 1, "unordered-iter"):
                continue
            seen.add(key)
            finding(path, line, "W016", "unordered-iter",
                    f"range-for over unordered container (clang AST: "
                    f"{fact.get('qual', '?')!r}) observes hash-bucket "
                    f"order and reaches {sink_for(path)}; iterate "
                    "util::sorted_items()")


# --------------------------------------------------------------------------

CHECKS = {
    "W016": check_w016,
    "W017": check_w017,
    "W018": check_w018,
    "W019": check_w019,
}


def emit_text(selected: list[str]) -> None:
    for f in FINDINGS:
        print(f"{f['path']}:{f['line']}: [{f['check']}/{f['slug']}] "
              f"{f['message']} [{f['id']}]")
    n = len(FINDINGS)
    print(f"pgasm-determcheck: {n} finding{'s' if n != 1 else ''} "
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
    global REPO, SRC
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", metavar="WNNN", action="append",
                    help="run only these checks (repeatable)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--root", metavar="DIR", default=None,
                    help="repo root to analyze (default: this script's "
                    "repo); the fixture tests point it at mini-trees")
    ap.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (json carries stable finding IDs)")
    ap.add_argument("--frontend", choices=("auto", "clang", "lexer"),
                    default="auto",
                    help="fact front-end: clang AST supplement when "
                    "available (auto/clang), tokenizer only (lexer)")
    args = ap.parse_args()

    if args.list_checks:
        for name in sorted(CHECKS):
            print(name)
        return 0

    if args.root is not None:
        REPO = Path(args.root).resolve()
        SRC = REPO / "src"
    if not SRC.is_dir():
        print(f"pgasm-determcheck: no src/ under {REPO}", file=sys.stderr)
        return 2

    selected = args.only or sorted(CHECKS)
    for name in selected:
        if name not in CHECKS:
            print(f"unknown check {name}", file=sys.stderr)
            return 2
    try:
        for name in selected:
            CHECKS[name]()
        if args.frontend in ("auto", "clang") and "W016" in selected:
            if args.frontend == "clang" and clang_binary() is None:
                print("pgasm-determcheck: --frontend=clang but no clang "
                      "on PATH", file=sys.stderr)
                return 2
            check_clang_ast()
    except OSError as e:
        print(f"pgasm-determcheck: tool error: {e}", file=sys.stderr)
        return 2

    if args.format == "json":
        emit_json(selected)
    else:
        emit_text(selected)
    return 1 if FINDINGS else 0


if __name__ == "__main__":
    sys.exit(main())
