#!/usr/bin/env bash
# Repository CI gate, runnable locally:
#
#   scripts/ci.sh            # lint + tier-1 + faults + chaos + TSan + ASan
#                            # + UBSan + fuzz + perfbench tests
#   scripts/ci.sh tier1      # just the tier-1 build + full ctest
#   scripts/ci.sh faults     # just the fault-injection suite
#   scripts/ci.sh chaos-smoke # bounded deterministic chaos campaign: seeded
#                            # full-pipeline fault schedules must converge
#                            # to bit-identical contigs
#   scripts/ci.sh tsan       # just the TSan build of the concurrent layers
#   scripts/ci.sh asan       # just the ASan build of the align, GST and
#                            # core suites
#   scripts/ci.sh lint       # pgasm-lint + protocol_check + strict-warnings
#                            # build (+ clang tools when installed)
#   scripts/ci.sh determ     # pgasm-determcheck static determinism analysis
#                            # (W016-W019): src/ must carry zero
#                            # nondeterminism findings; JSON report lands in
#                            # build/determ_findings.json
#   scripts/ci.sh tsafety    # clang -Wthread-safety capability analysis of
#                            # the PGASM_* lock annotations (clang only;
#                            # loud skip when no clang is installed)
#   scripts/ci.sh ubsan      # UBSan build + full ctest under it
#   scripts/ci.sh fuzz-smoke # bounded deterministic fuzz run (UBSan tree)
#   scripts/ci.sh perf-smoke # 4-rank pipeline run with tracing: assert 100%
#                            # causal stitch coverage, perf_diff self-vs-self
#                            # passes, and a synthetically slowed run fails;
#                            # fresh fig9_cluster_scaling and align_throughput
#                            # runs must compare against their committed
#                            # baselines
#   scripts/ci.sh proc-smoke # multi-process transport: quickstart contigs
#                            # bit-identical to thread, merged trace stitches
#                            # 100%, parallel suites pass with proc default
#   scripts/ci.sh perfbench  # the benchmark's own tests
#                            # (perfbench/test_perfbench.py): run plan,
#                            # output checks and metric derivations
#   scripts/ci.sh verify     # exhaustive checkers: pgasm-model explores the
#                            # master/worker protocol state space (clean
#                            # sweep + every seeded bug caught) and
#                            # pgasm-ringcheck enumerates shm-ring
#                            # interleavings (clean + every weakened
#                            # memory-order site caught)
#
# Build trees: build/ (tier-1), build-tsan/ (PGASM_SANITIZE=thread),
# build-asan/ (PGASM_SANITIZE=address), build-lint/ (PGASM_EXTRA_WARNINGS +
# PGASM_WERROR), build-tsafety/ (clang + PGASM_THREAD_SAFETY) and
# build-ubsan/ (PGASM_SANITIZE=undefined).
#
# Every stage runs through run_stage, which prints the elapsed wall time on
# completion so slow stages are visible at a glance in CI logs.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}
STAGE=${1:-all}

run_stage() {
  local name=$1 t0=$SECONDS
  "$name"
  echo "== stage $name done in $((SECONDS - t0))s =="
}

tier1() {
  echo "== tier-1: configure + build + full test suite =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")
}

faults() {
  echo "== fault-injection suite (ctest -L faults) =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -L faults)
}

chaos_smoke() {
  echo "== chaos-smoke: seeded fault schedules, contigs must be identical =="
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target chaos_pipeline
  ./build/tools/chaos/chaos_pipeline --seeds "${CHAOS_SEEDS:-12}"
}

tsan() {
  echo "== TSan: obs + vmpi concurrency tests + fault-injection suite =="
  cmake -B build-tsan -S . -DPGASM_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" \
    --target test_obs test_vmpi test_fault_tolerance test_recovery \
    chaos_pipeline
  (cd build-tsan && ctest --output-on-failure -R 'Registry|Tracer|Histogram|Vmpi')
  # Recovery reassigns work across surviving rank threads; TSan over the
  # whole faults label is the data-race gate on those handoff paths.
  (cd build-tsan && ctest --output-on-failure -L faults -j "$JOBS")
}

asan() {
  echo "== ASan: alignment hot path + GST + cluster engine tests =="
  # The overlap workspace hands out grow-only dirty buffers and the banded
  # kernel moves 16-byte lane vectors through memcpy over padded
  # anti-diagonals and sequence copies; GST construction compares suffixes
  # eight bytes at a time up to their effective lengths, and the pair
  # generator builds one-suffix leaf lsets late from shared pool slots. ASan
  # is the check that every read and write stays inside the live extents.
  cmake -B build-asan -S . -DPGASM_SANITIZE=address
  cmake --build build-asan -j "$JOBS" \
    --target test_align test_workspace test_linear_space test_cluster \
    test_gst test_parallel_gst
  (cd build-asan && ctest --output-on-failure \
    -R 'Align|Overlap|Banded|Workspace|OverlapEngine|ValidateParams|LinearSpace|Hirschberg|Cluster|SuffixTree|PairGen|ParallelGst|Partition')
}

lint() {
  echo "== lint: pgasm-lint project invariants (W001-W015) =="
  python3 tools/lint/pgasm_lint.py

  echo "== lint: protocol exhaustiveness checker =="
  # Compiling protocol_check already enforces the structural static_asserts
  # (one kProtocol row per kind, distinct tags, terminate reachable);
  # running it adds the source cross-checks with readable diagnostics.
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target protocol_check
  ./build/tools/protocol_check/protocol_check "$(pwd)"

  echo "== lint: strict-warnings build (PGASM_EXTRA_WARNINGS + Werror) =="
  # Production code only: the strict set (notably -Wnull-dereference under
  # inlining) false-positives inside gtest/benchmark headers, so tests and
  # benches build with the regular warning set in the tier-1 stage instead.
  cmake -B build-lint -S . -DPGASM_EXTRA_WARNINGS=ON -DPGASM_WERROR=ON
  cmake --build build-lint -j "$JOBS" --target \
    pgasm_util pgasm_obs pgasm_vmpi pgasm_seq pgasm_align pgasm_gst \
    pgasm_core pgasm_preprocess pgasm_sim pgasm_olc pgasm_pipeline

  # The clang tools are optional equipment: run them when installed, note
  # the skip when not. pgasm-lint and the strict-warnings leg above are the
  # always-on half of the gate; .clang-tidy/.clang-format keep the clang
  # half reproducible wherever the tools exist.
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint: clang-tidy over src/ =="
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -quiet -p build-lint "src/.*\.cpp$"
    else
      find src -name '*.cpp' -print0 |
        xargs -0 -n1 -P "$JOBS" clang-tidy -quiet -p build-lint
    fi
  else
    echo "-- clang-tidy not installed; skipping (gcc strict-warnings leg ran)"
  fi
  if command -v clang-format >/dev/null 2>&1; then
    echo "== lint: clang-format check =="
    find src tests tools bench examples \
      \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
      xargs -0 clang-format --dry-run --Werror
  else
    echo "-- clang-format not installed; skipping format check"
  fi
}

determ() {
  echo "== determ: pgasm-determcheck determinism invariants (W016-W019) =="
  # The bit-identical-contigs invariant is proved dynamically by
  # test_determinism and chaos-smoke; this stage is the static half — no
  # source of nondeterminism (hash-order iteration, pointer identity, float
  # fold order, unseeded entropy) may reach an output-affecting sink.
  mkdir -p build
  if ! python3 tools/determ/pgasm_determcheck.py --format=json \
      > build/determ_findings.json; then
    echo "!! determinism findings (build/determ_findings.json):" >&2
    python3 tools/determ/pgasm_determcheck.py >&2 || true
    return 1
  fi
  python3 - <<'PY'
import json
doc = json.load(open("build/determ_findings.json"))
assert doc["count"] == 0 and doc["findings"] == [], doc
print("-- determ: clean (%d checks, 0 findings)" % len(doc["checks"]))
PY
}

tsafety() {
  echo "== tsafety: clang -Wthread-safety capability analysis =="
  # The PGASM_* annotations (util/thread_annotations.hpp) compile to
  # nothing under GCC; only clang's capability analysis actually checks
  # them. Find a clang to build with, or skip LOUDLY — a silent pass here
  # would look like the analysis ran when it never did.
  local cxx=""
  for cand in clang++ clang++-17 clang++-16 clang++-15 clang++-14; do
    if command -v "$cand" >/dev/null 2>&1; then
      cxx=$cand
      break
    fi
  done
  if [[ -z "$cxx" ]]; then
    echo "!! tsafety SKIPPED: no clang++ on PATH — the PGASM_GUARDED_BY /" >&2
    echo "!! PGASM_REQUIRES annotations were NOT verified this run. The" >&2
    echo "!! lexer half (pgasm-lint W007/W010) still gates lock hygiene." >&2
    return 0
  fi
  cmake -B build-tsafety -S . \
    -DCMAKE_CXX_COMPILER="$cxx" -DPGASM_THREAD_SAFETY=ON -DPGASM_WERROR=ON
  # Library targets only: the annotated locks all live in production code.
  cmake --build build-tsafety -j "$JOBS" --target \
    pgasm_util pgasm_obs pgasm_vmpi pgasm_seq pgasm_align pgasm_gst \
    pgasm_core pgasm_preprocess pgasm_sim pgasm_olc pgasm_pipeline
}

ubsan() {
  echo "== UBSan: full test suite under -fsanitize=undefined =="
  cmake -B build-ubsan -S . -DPGASM_SANITIZE=undefined
  cmake --build build-ubsan -j "$JOBS"
  (cd build-ubsan && ctest --output-on-failure -j "$JOBS" -LE fuzz)
}

fuzz_smoke() {
  echo "== fuzz-smoke: bounded deterministic fuzz run (UBSan tree) =="
  cmake -B build-ubsan -S . -DPGASM_SANITIZE=undefined
  cmake --build build-ubsan -j "$JOBS" \
    --target fuzz_wire fuzz_fasta fuzz_fastq fuzz_checkpoint fuzz_manifest \
    fuzz_assembly fuzz_banded
  (cd build-ubsan && ctest --output-on-failure -L fuzz)
}

# diff_baseline TMPDIR BENCH ARGS...: runs build/bench/BENCH from the repo
# root (BenchJson stamps `git describe` from the cwd) and diffs its JSON
# against bench/baselines/. A regression (perf_diff exit 1) is reported but
# does not fail; exit 2 means the runs could not be compared, and that does.
diff_baseline() {
  local tmp=$1 name=$2 rc=0
  shift 2
  echo "-- $name vs its committed baseline"
  "./build/bench/$name" "$@" >/dev/null
  mv "BENCH_$name.json" "$tmp/"
  ./build/tools/perf/perf_diff "bench/baselines/BENCH_$name.json" \
    "$tmp/BENCH_$name.json" || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "!! perf_diff could not compare $name (exit $rc)" >&2
    return 1
  fi
}

perf_smoke() {
  echo "== perf-smoke: trace stitching + perf regression gate =="
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target quickstart perf_diff \
    fig9_cluster_scaling align_throughput
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"; trap - RETURN' RETURN
  # Two identical small runs. --trace-cap is sized so the rings never
  # overflow: dropped events would turn coverage into a lower bound and the
  # stitch check below is deliberately strict about that.
  ./build/examples/quickstart --ranks 4 --seed 7 --trace-cap 65536 \
    --obs-out "$tmp/obs-a" --out "$tmp/contigs-a.fa" 2>/dev/null
  ./build/examples/quickstart --ranks 4 --seed 7 --trace-cap 65536 \
    --obs-out "$tmp/obs-b" --out "$tmp/contigs-b.fa" 2>/dev/null

  echo "-- stitch coverage must be 100% with zero dropped events"
  ./build/tools/perf/perf_diff --check-stitch "$tmp/obs-a"
  ./build/tools/perf/perf_diff --check-stitch "$tmp/obs-b"

  echo "-- perf_diff run-vs-run must pass (noise below thresholds)"
  ./build/tools/perf/perf_diff "$tmp/obs-a" "$tmp/obs-b"

  echo "-- perf_diff must flag a synthetically slowed run"
  if ./build/tools/perf/perf_diff --scale-new 2.5 "$tmp/obs-a" "$tmp/obs-a"; then
    echo "!! perf_diff accepted a 2.5x slowdown — gate is not arming" >&2
    return 1
  fi
  echo "-- slowed run rejected as expected"

  # At the sizes and seeds of scripts/bench_baseline.sh.
  diff_baseline "$tmp" fig9_cluster_scaling \
    --small 150000 --large 300000 --max-ranks 8 --seed 99
  diff_baseline "$tmp" align_throughput \
    --pairs 2000 --len 600 --overlap 120 --band 12 --reps 5 --seed 17
}

proc_smoke() {
  echo "== proc-smoke: multi-process transport end to end =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  local tmp
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"; trap - RETURN' RETURN
  echo "-- quickstart under both transports: contigs must be bit-identical"
  ./build/examples/quickstart --ranks 4 --seed 7 \
    --out "$tmp/thread.fa" 2>/dev/null
  ./build/examples/quickstart --ranks 4 --seed 7 --transport proc \
    --trace-cap 65536 --obs-out "$tmp/obs-proc" --out "$tmp/proc.fa" \
    2>/dev/null
  cmp "$tmp/thread.fa" "$tmp/proc.fa"
  echo "-- contigs identical across transports"

  echo "-- merged per-process trace must stitch 100%"
  # The proc run's trace is assembled from the parent ring plus each
  # child's exit blob (epoch-aligned); full stitch coverage proves no
  # cross-process send/recv edge was lost in the merge.
  ./build/tools/perf/perf_diff --check-stitch "$tmp/obs-proc"

  echo "-- parallel suites with the proc backend as the default"
  # PGASM_TRANSPORT only binds call sites that select their transport by
  # name ("" defers to the environment) — the clustering/pipeline protocol
  # stack. Suites that build the thread transport explicitly (the mailbox
  # semantics tests) keep their own backend by design.
  (cd build &&
    PGASM_TRANSPORT=proc ctest --output-on-failure -L parallel -j "$JOBS")
}

verify() {
  echo "== verify: exhaustive protocol + memory-model checking =="
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target pgasm-model pgasm-ringcheck

  echo "-- pgasm-model: clean protocol must verify exhaustively, N=1..3"
  # drops=2/crashes=1 turns on the full adversary (lossy network plus a
  # worker death) at every size the state space stays exhaustible.
  for n in 1 2 3; do
    ./build/tools/verify/pgasm-model --workers="$n" --drops=2 --crashes=1
  done

  echo "-- pgasm-model: every seeded protocol bug must be caught (exit 1)"
  # Each bug at its fixture configuration (workers drops crashes; the
  # model_bug_fixtures() table in tools/verify/model.cpp).
  local fx bug w d c
  for fx in "no-retransmit 1 1 0" "no-cached-reply 2 1 0" \
            "no-park-reply 2 0 0" "undeclared-recv 2 0 0" \
            "no-final-abort 1 0 1" "no-drain-reply 2 1 0"; do
    read -r bug w d c <<<"$fx"
    if ./build/tools/verify/pgasm-model --bug="$bug" --workers="$w" \
         --drops="$d" --crashes="$c" >/dev/null; then
      echo "!! pgasm-model missed seeded bug: $bug" >&2
      return 1
    fi
    echo "   caught: $bug"
  done

  echo "-- pgasm-ringcheck: clean ring must pass every interleaving"
  ./build/tools/verify/pgasm-ringcheck

  echo "-- pgasm-ringcheck: every weakened order site must be caught (exit 1)"
  for site in push-load-head push-store-tail pop-load-tail pop-store-head; do
    if ./build/tools/verify/pgasm-ringcheck --mutate="$site" >/dev/null; then
      echo "!! pgasm-ringcheck missed weakened site: $site" >&2
      return 1
    fi
    echo "   caught: $site"
  done

  echo "-- --format=json must emit the pgasm-lint finding schema"
  local out
  out=$(./build/tools/verify/pgasm-model --workers=1 --drops=0 --crashes=0 \
    --format=json)
  python3 - "$out" <<'PY'
import json, sys
doc = json.loads(sys.argv[1])
assert doc["count"] == 0 and doc["findings"] == [], doc
assert "checks" in doc and "root" in doc and doc["version"] == 1, doc
PY
  out=$(./build/tools/verify/pgasm-ringcheck --mutate=push-load-head \
    --format=json) && { echo "!! json mutation run exited 0" >&2; return 1; }
  python3 - "$out" <<'PY'
import json, sys
doc = json.loads(sys.argv[1])
assert doc["count"] == 1, doc
f = doc["findings"][0]
assert f["id"].startswith("PR-") and f["slug"] == "data-race", f
PY
  echo "-- json schema holds"
}

perfbench() {
  echo "== perfbench: the benchmark's own tests =="
  python3 perfbench/test_perfbench.py
}

case "$STAGE" in
  tier1) run_stage tier1 ;;
  faults) run_stage faults ;;
  chaos-smoke) run_stage chaos_smoke ;;
  tsan) run_stage tsan ;;
  asan) run_stage asan ;;
  lint) run_stage lint ;;
  determ) run_stage determ ;;
  tsafety) run_stage tsafety ;;
  ubsan) run_stage ubsan ;;
  fuzz-smoke) run_stage fuzz_smoke ;;
  perf-smoke) run_stage perf_smoke ;;
  proc-smoke) run_stage proc_smoke ;;
  verify) run_stage verify ;;
  perfbench) run_stage perfbench ;;
  all)
    run_stage lint
    run_stage determ
    run_stage tsafety
    run_stage tier1
    run_stage verify
    run_stage faults
    run_stage chaos_smoke
    run_stage tsan
    run_stage asan
    run_stage ubsan
    run_stage fuzz_smoke
    run_stage perf_smoke
    run_stage proc_smoke
    run_stage perfbench
    ;;
  *)
    echo "usage: scripts/ci.sh [lint|determ|tsafety|tier1|faults|chaos-smoke|tsan|asan|ubsan|fuzz-smoke|perf-smoke|proc-smoke|verify|perfbench|all]" >&2
    exit 2
    ;;
esac

echo "CI OK"
