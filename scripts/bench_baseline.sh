#!/usr/bin/env bash
# Refresh the committed perf baselines under bench/baselines/.
#
#   scripts/bench_baseline.sh            # build + run the baseline benches
#
# Runs the three benches that perf_diff gates on — align_throughput (the
# alignment hot path), fig5_gst_scaling (parallel GST construction) and
# fig9_cluster_scaling (master-worker clustering) — at fixed seeds and
# fixed, deliberately small sizes, plus transport_probe (measured α/β for
# both vmpi transports, the numbers CostParams::calibrated() is derived
# from), then moves their BENCH_*.json into bench/baselines/. Commit the refreshed files together with the change
# that moved the numbers; compare a later run against them with
#
#   ./build/tools/perf/perf_diff bench/baselines/BENCH_<name>.json \
#       BENCH_<name>.json
#
# perf_diff collapses repeat points (same configuration) to their median
# and refuses to compare across build types, so run this from the same
# build configuration you will compare against (Release numbers vs Release
# numbers). The sizes below finish in a few minutes total on one node;
# they are baselines for regression *detection*, not paper-scale numbers
# (EXPERIMENTS.md covers those).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

cmake -B build -S .
cmake --build build -j "$JOBS" \
  --target align_throughput fig5_gst_scaling fig9_cluster_scaling \
  transport_probe

mkdir -p bench/baselines

# Run from the repo root (BenchJson stamps `git describe` from the cwd);
# fixed seeds; odd repeat counts so the median is a real sample.
./build/bench/align_throughput \
  --pairs 2000 --len 600 --overlap 120 --band 12 --reps 5 --seed 17
./build/bench/fig5_gst_scaling \
  --small 200000 --large 400000 --max-ranks 8 --seed 55
./build/bench/fig9_cluster_scaling \
  --small 150000 --large 300000 --max-ranks 8 --seed 99
# No seed: the probe measures wall-clock latency, not simulated work. Its
# points carry a "transport" field, so thread and proc never collapse into
# one perf_diff group.
./build/tools/transport_probe/transport_probe --iters 400

# The baselines are 4-thread numbers: refuse to replace them with runs whose
# meta.hardware_threads (what BenchJson stamped) is smaller — a different
# performance regime, not a new reference.
for f in BENCH_align_throughput.json BENCH_fig5_gst_scaling.json \
  BENCH_fig9_cluster_scaling.json BENCH_transport_probe.json; do
  hw=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["meta"]["hardware_threads"])' "$f")
  if [ "$hw" -lt 4 ]; then
    echo "bench_baseline.sh: $f ran on $hw hardware thread(s); refusing" \
      "to write baselines from fewer than 4" >&2
    exit 1
  fi
done

mv BENCH_align_throughput.json BENCH_fig5_gst_scaling.json \
  BENCH_fig9_cluster_scaling.json BENCH_transport_probe.json \
  bench/baselines/
echo "refreshed:"
ls -l bench/baselines/
