#!/usr/bin/env python3
"""pgasm benchmark: times pipeline::run_pipeline end to end, or (with
--trace 1) every layer's public functions from outside.

    python3 perfbench/run.py --workload wgs --seed 205 --seconds 36 --trace 0

Builds the library and perfbench/ from source into .bench_build/ (Release),
generates the workload's input files from the seed, then makes a fixed
list of calls (see schedule()), each in its own process:

  --trace 0  run_pipeline serially and at P=4 on every read set, and at
             P=2 once. How many P=4 calls a run makes depends only on the
             workload and --seconds, never on measured time, so runs of
             one length attempt the same calls. A call fails if it throws,
             if its process dies or times out, or if its output fails a
             check; failures are counted, never retried or dropped.
  --trace 1  one untraced serial call, then the traced run (perfbench_op
             trace), which writes Chrome-trace spans and the per-layer
             table under .bench_build/out/.

Prints a readable report, then as its last stdout line one JSON object
with the keys correct, attempted, failed and metrics; metric names and
units come from BENCHMARK.json. If no call succeeded for some metric, the
report (with the failed calls) and the result file are still written, but
the run exits 1 without the JSON line. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "Release"
BUILD_JOBS = 4
OP = os.path.join(BUILD_DIR, "perfbench_op")

WORKLOADS = ("wgs", "maize", "env")
RANKS = (0, 2, 4)
# Per workload: read sets per run, and the nominal seconds of one serial,
# P=2 and P=4 call on the 4-thread machine the bounds were set on. Read
# sets are sequencing runs of the workload's genome made from --seed; those
# of maize and env differ by 10-15% in work and their calls are cheap, so a
# run covers several. The nominal costs only size the plan (schedule()).
PLAN = {"wgs": (1, 15.0, 2.6, 5.2),
        "maize": (3, 8.2, 6.6, 3.0),
        "env": (4, 3.5, 2.4, 1.5)}
# setup_s: SETUP_PROCS processes per run, spread over the run's calls, load
# the inputs SETUP_LOADS times each; setup_s is the median over all loads.
# Loads in one process agree closely, but whole processes differ by up to
# 2x under host contention, so the median needs many processes.
SETUP_PROCS = 12
SETUP_LOADS = 10
# wall_s is a mean over the run's P=4 calls with this share cut from each
# end: a P=4 call is bimodal (see README, Spread), and a median of such
# samples jumps between the modes.
WALL_TRIM = 0.1
# One run must end within 180 s; no operation may start after RUN_LIMIT
# and none may outlive it.
RUN_LIMIT = 165.0
OP_TIMEOUT = 120.0

# Quality of the serial output: identical on every call for one seed.
QUALITY = ("purity", "clusters_per_island", "n50_bp",
           "consensus_err_per_10k", "genome_frac", "misjoins")
RETRY_COUNTERS = ("probe_timeouts", "heartbeats_sent", "workers_lost",
                  "takeovers")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (exit non-zero, no JSON)."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline",
                                       "pipeline.hpp")):
        raise BenchError("pgasm sources (src/) not found next to perfbench/")
    steps = [["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS)]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        # Later builds re-run the configure step themselves when a
        # CMakeLists.txt changes.
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    for step in steps:
        r = subprocess.run(step, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(step))


def environment():
    """What the numbers depend on; compare.py refuses to mix these."""
    compiler = ""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
    return {"build_type": BUILD_TYPE,
            "hardware_threads": os.cpu_count(),
            "compiler": os.path.basename(compiler)}


def cpu_ticks():
    """(steal, total) jiffies of all CPUs; steal is time the hypervisor
    ran something else while this machine's CPUs wanted to run."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_op(args, deadline):
    """Run perfbench_op; returns (status, record). status is "ok",
    "threw", "check", "died" or "timeout"."""
    timeout = min(OP_TIMEOUT, deadline - time.monotonic())
    if timeout < 1.0:
        return "timeout", {"error": "not started: run limit reached"}
    proc = subprocess.Popen([OP] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "timeout", {"error": "timed out after %.0f s" % timeout}
    record = {}
    lines = out.strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = {}
    if proc.returncode < 0:
        return "died", {"error": "killed by signal %d" % -proc.returncode}
    if proc.returncode == 0 and record.get("ok"):
        return "ok", record
    if proc.returncode == 4:
        return "check", record
    if proc.returncode == 3:
        return "threw", record
    record.setdefault("error", "exit %d: %s" % (proc.returncode,
                                               err.strip()[-300:]))
    return "died", record


def read(path):
    with open(path, "rb") as f:
        return f.read()


def summarize(samples):
    """Median, the highest percentile with at least ten samples beyond
    it (None when there are too few samples), and the sample count."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(xs, n=1000, method="inclusive")
            tail = (p, q[int(p * 10) - 1])
            break
    return statistics.median(xs), tail, n


def trimmed_mean(samples, cut):
    """Mean of the samples without the lowest and highest `cut` share."""
    xs = sorted(samples)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k:len(xs) - k])


def schedule(workload, seconds):
    """The run's calls as (read set, ranks), in order: per read set a
    serial call (the set's reference output), then P=4 calls; P=2 once,
    after the first serial call. Every read set gets as many P=4 calls as
    the nominal costs in PLAN fit into `seconds`, at least one. The list
    depends on nothing else, so runs of one length attempt the same calls."""
    sets, serial, p2, p4 = PLAN[workload]
    per_set = max(1, int((seconds - sets * serial - p2) / (sets * p4)))
    calls = []
    for d in range(sets):
        calls.append((d, 0))
        if d == 0:
            calls.append((d, 2))
        calls.extend([(d, 4)] * per_set)
    return calls


def spread_evenly(total, slots):
    """`total` split over `slots` as evenly as integers allow."""
    return [total * (i + 1) // slots - total * i // slots
            for i in range(slots)]


class Ledger:
    """Attempted and failed calls per rank count, with exception texts."""

    def __init__(self):
        self.calls = {}

    def add(self, key, status, record):
        entry = self.calls.setdefault(key, {"attempted": 0, "failed": 0,
                                            "errors": {}})
        entry["attempted"] += 1
        if status != "ok":
            entry["failed"] += 1
            text = "%s: %s" % (status, record.get("error", "?"))
            entry["errors"][text] = entry["errors"].get(text, 0) + 1

    def totals(self):
        return (sum(e["attempted"] for e in self.calls.values()),
                sum(e["failed"] for e in self.calls.values()))


class Run:
    def __init__(self, args):
        self.args = args
        self.name = "%s-seed%d" % (args.workload, args.seed)
        self.out = os.path.join(BUILD_DIR, "out", self.name)
        os.makedirs(self.out, exist_ok=True)
        self.start = time.monotonic()
        self.ticks = cpu_ticks()
        self.deadline = self.start + RUN_LIMIT
        self.ledger = Ledger()
        self.problems = []  # output-check failures: correct = false
        self.reference = {}  # read set -> first serial (partition, contigs)
        self.samples = None  # every timing sample, for result-trace0.json
        # The traced run uses read set 0 only.
        self.read_sets = 1 if args.trace else PLAN[args.workload][0]

    def common(self, dataset):
        work = os.path.join(BUILD_DIR, "work", self.name, "d%d" % dataset)
        return ["--workload", self.args.workload,
                "--seed", str(self.args.seed),
                "--dataset", str(dataset), "--dir", work]

    def prepare(self):
        recs = []
        for d in range(self.read_sets):
            status, rec = run_op(["prepare"] + self.common(d), self.deadline)
            if status != "ok":
                raise BenchError("cannot prepare inputs: %s" %
                                 rec.get("error"))
            recs.append(rec)
        return recs

    def call(self, ranks, dataset, label, quality=False):
        """One run_pipeline call; with `quality` (serial only) the call
        also evaluates its output against the truth, which takes up to
        half the call's time, so only the traced run does it."""
        prefix = os.path.join(self.out, label)
        status, rec = run_op(["op"] + self.common(dataset) +
                             ["--ranks", str(ranks), "--out", prefix] +
                             (["--quality"] if quality else []),
                             self.deadline)
        if status == "ok":
            status = self.check_output(ranks, dataset, prefix, rec)
        if status == "check":
            self.problems.append("P=%d: %s" % (ranks, rec.get("error")))
        self.ledger.add("P=%d" % ranks, status, rec)
        return status, rec, prefix

    def setup(self, dataset, procs):
        """Load times of `procs` setup processes. A load that fails, or
        differs from the generated store, is an output-check failure."""
        load_s = []
        for _ in range(procs):
            status, rec = run_op(["setup"] + self.common(dataset) +
                                 ["--loads", str(SETUP_LOADS)], self.deadline)
            if status == "ok":
                load_s.extend(rec["load_s"])
            else:
                self.problems.append("setup: %s: %s" %
                                     (status, rec.get("error")))
        return load_s

    def check_output(self, ranks, dataset, prefix, rec):
        """Compare with the read set's first serial output, byte for
        byte. Each read set's calls start with a serial one, so a parallel
        call finds no reference only if that serial call failed; its
        output is then unchecked, and the call counts as failed."""
        got = (read(prefix + ".partition"), read(prefix + ".contigs"))
        if ranks == 0 and dataset not in self.reference:
            self.reference[dataset] = got
        ref = self.reference.get(dataset)
        if ref is None:
            rec["error"] = "no serial output on this read set to check against"
            return "unchecked"
        for part, a, b in (("partition", got[0], ref[0]),
                           ("contigs", got[1], ref[1])):
            if a != b:
                rec["error"] = "%s differs from the serial output" % part
                return "check"
        return "ok"


def end_to_end(run, e2e_spec):
    samples = {"setup_s": [], "wall_s": [], "serial_wall_s": [],
               "peak_rss_mb": []}
    counters = {r: {k: [] for k in RETRY_COUNTERS} for r in RANKS}
    calls = schedule(run.args.workload, run.args.seconds)
    setups = spread_evenly(SETUP_PROCS, len(calls))
    for (dataset, ranks), procs in zip(calls, setups):
        samples["setup_s"].extend(run.setup(dataset, procs))
        status, rec, _ = run.call(ranks, dataset, "P%d" % ranks)
        if status != "ok":
            continue
        for k in RETRY_COUNTERS:
            counters[ranks][k].append(rec[k])
        if ranks == 0:
            samples["serial_wall_s"].append(rec["wall_s"])
        if ranks == 4:
            samples["wall_s"].append(rec["wall_s"])
            samples["peak_rss_mb"].append(rec["peak_rss_mb"])

    # A metric without a successful call gets no value; main() then
    # reports the failed calls and exits without a result.
    values = {k: statistics.median(v) for k, v in samples.items() if v}
    if samples["wall_s"]:
        values["wall_s"] = trimmed_mean(samples["wall_s"], WALL_TRIM)

    print("\n== %s  (end to end, tracing off) ==" % run.name)
    print("%-24s %14s %8s %s" % ("metric", "value", "unit",
                                 "median, tail, n"))
    for name, xs in samples.items():
        unit = e2e_spec[name]["unit"]
        if not xs:
            print("%-24s %14s %8s no successful call" % (name, "-", unit))
            continue
        med, tail, n = summarize(xs)
        tail_s = ("p%g %.6g" % tail) if tail else "no tail (<20 samples)"
        print("%-24s %14.6g %8s median %.6g, %s, n=%d" %
              (name, values[name], unit, med, tail_s, n))
    print("(wall_s: mean of the P=4 calls without the lowest and highest "
          "%d%%; the others: median)" % (100 * WALL_TRIM))
    print("retry counters of each successful call:")
    for ranks in RANKS:
        print("  P=%d %s" % (ranks, counters[ranks]))
    run.samples = samples
    return values, counters


def traced(run, layer_spec):
    """One untraced serial call on read set 0, with the quality of its
    output, then the traced run on the same read set."""
    status, rec, serial_prefix = run.call(0, 0, "serial", quality=True)
    if status != "ok":
        # No values; main() reports the failed call and exits without a
        # result.
        print("\n== %s  (per layer, traced): the serial call failed ==" %
              run.name)
        return {}
    prefix = os.path.join(run.out, "trace")
    tstatus, trec = run_op(["trace"] + run.common(0) + ["--out", prefix],
                           run.deadline)
    if tstatus == "ok":
        same = (read(prefix + ".partition") ==
                read(serial_prefix + ".partition") and
                read(prefix + ".contigs") == read(serial_prefix + ".contigs"))
        if not same:
            tstatus = "check"
            trec["error"] = "traced serial path differs from run_pipeline"
    if tstatus == "check":
        run.problems.append("trace: %s" % trec.get("error"))
    run.ledger.add("trace", tstatus, trec)
    if tstatus != "ok":
        print("\n== %s  (per layer, traced): the traced run failed ==" %
              run.name)
        return {}

    layer_names = set(layer_spec) - {"pipeline.other_s",
                                     "pipeline.trace_overhead_s"}
    values = {k: v for k, v in trec.items() if k in layer_names}
    wall = rec["wall_s"]
    values["pipeline.other_s"] = wall - (trec["preprocess.s"] +
                                         trec["core.serial_s"] +
                                         trec["olc.assemble_s"])
    values["pipeline.trace_overhead_s"] = trec["traced_serial_s"] - wall
    for q in QUALITY:
        values["quality." + q] = rec[q]
    missing = sorted(set(layer_spec) - set(values))
    if missing:
        raise BenchError("traced run did not report " + ", ".join(missing))
    with open(prefix + ".layers.json", "w") as f:
        json.dump({"workload": run.args.workload, "seed": run.args.seed,
                   "dataset": 0, "serial_wall_s": wall,
                   "trace": os.path.basename(prefix) + ".trace.json",
                   "metrics": values}, f, indent=1, sort_keys=True)
    print("\n== %s  (per layer, traced; spans in %s) ==" %
          (run.name, os.path.relpath(run.out, ROOT)))
    for name in layer_spec:
        print("%-28s %16.6g %s" % (name, values[name],
                                   layer_spec[name]["unit"]))
    if run.args.workload == "env":
        print("(env assembles nothing: its quality.n50_bp, "
              "consensus_err_per_10k, genome_frac and misjoins are n/a)")
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        e2e_spec, layer_spec = load_spec()
        build()
        run = Run(args)
        prep = run.prepare()
        env = environment()
        print("pgasm benchmark: workload %s seed %d, read sets of %s "
              "fragments (%s input bytes); %s build, %d hardware threads" %
              (args.workload, args.seed,
               "/".join("%d" % p["fragments"] for p in prep),
               "/".join("%d" % p["bytes"] for p in prep),
               env["build_type"], env["hardware_threads"]))
        if args.trace:
            values, counters = traced(run, layer_spec), None
            spec = layer_spec
        else:
            values, counters = end_to_end(run, e2e_spec)
            spec = e2e_spec
    except (BenchError, OSError) as e:
        log("perfbench: " + str(e))
        return 1

    if set(values) - set(spec):
        log("perfbench: metric names not in BENCHMARK.json: %s" %
            sorted(set(values) - set(spec)))
        return 1
    missing = sorted(set(spec) - set(values))
    attempted, failed = run.ledger.totals()
    steal, total = (b - a for a, b in zip(run.ticks, cpu_ticks()))
    env["cpu_steal_frac"] = steal / total if total else 0.0
    print("cpu steal during the run: %.1f%% (time the host ran other "
          "guests)" % (100 * env["cpu_steal_frac"]))
    print("calls (attempted / failed) per rank count:")
    for key, e in run.ledger.calls.items():
        print("  %-6s %d / %d" % (key, e["attempted"], e["failed"]))
        for text, n in e["errors"].items():
            print("         %dx %s" % (n, text))
    for p in run.problems:
        print("OUTPUT CHECK FAILED: " + p)
    with open(os.path.join(run.out, "result-trace%d.json" % args.trace),
              "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "metrics": values,
                   "calls": run.ledger.calls, "retry_counters": counters,
                   "samples": run.samples, "missing": missing,
                   "problems": run.problems}, f, indent=1, sort_keys=True)
    if missing:
        print("NO RESULT: no successful call measured %s (%d of %d calls "
              "failed)" % (", ".join(missing), failed, attempted))
        return 1
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": spec[k]["unit"]}
                    for k in spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
