#!/usr/bin/env python3
"""Full-stack benchmark of the geoanon simulator.

Builds geobench_worker from the checkout's sources (CMake, Release, into
.bench_build/), runs one workload through workload::ScenarioRunner in a fresh
worker process, checks the outputs, prints every metric by name and unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the root of a checkout):

    python3 geobench/run.py --workload paper-agfw --seed 1 --seconds 20 --trace 0
    python3 geobench/run.py --workload gpsr-als-churn --trace 1   # per-layer run
    python3 geobench/run.py --scan gpsr-als-churn                 # offered-load scan

--trace 0 reports the end-to-end metrics (host time with tracing off, peak
RSS of the measuring process, simulated PDR and median latency) and checks
that every run of the seed is deterministic; --trace 1 reports the per-layer
metrics from a separate run with probes, the flight recorder and the
invariant checker, and checks their outputs too. Workloads and their seeds are
described in geobench/WORKLOADS.md. Exit code: 0 when every check passes, 1 when a
check fails or the worker cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "geobench"
WORKER = BUILD / "geobench_worker"
# Every invocation ends within this many seconds of the build, children
# included (the first build in a checkout has its own, longer allowance).
DEADLINE_S = 175.0
START = None  # set by main() once the worker is built
# Host times are the fastest of several processes: other tenants of the
# machine and a process's memory layout only ever add time (consecutive runs
# of one seed differ by up to 40%, per-process set-up medians by up to half),
# so the minimum is the steadiest estimate of the program's own cost.
SETUP_PROCESSES = 8
SETUP_SHARE = 0.12
MIN_RUNS = 3

WORKLOADS = ["paper-agfw", "wide-agfw", "gpsr-als-churn", "privacy-attack"]

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pdr", "ratio"),
    ("latency_p50_ms", "ms"),
]

# Offered-load scan: flow counts at each workload's own per-flow rate, on the
# default and the held-out seed. privacy-attack has no scan of its own: its
# simulation is paper-agfw's (the observer is passive).
SCAN_FLOWS = {
    "paper-agfw": [15, 30, 45, 60],
    "wide-agfw": [150, 300, 600, 900],
    "gpsr-als-churn": [30, 60, 120, 180],
}
SCAN_SEEDS = [1, 1001]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the worker; exits 1 on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    logfile = BUILD / "build.log"
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(ROOT / "geobench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                log("geobench: build failed; last lines of %s:" % logfile)
                log("".join(open(logfile).readlines()[-20:]))
                sys.exit(1)


def worker(workload, seed, mode, *extra):
    """Run the worker once; returns (report dict, peak RSS MB)."""
    cmd = [str(WORKER), "--workload=" + workload, "--seed=%d" % seed, "--mode=" + mode]
    cmd += list(extra)
    try:
        code, out, rss = metrics.run_measured(
            cmd, max(1.0, DEADLINE_S - (time.monotonic() - START)), cwd=str(ROOT))
    except metrics.ChildTimeout as e:
        log("geobench: %s" % e)
        sys.exit(1)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("geobench: worker %s exited with %d" % (mode, code))
        sys.exit(1)
    report = json.loads(lines[-1])
    for key in ("untraced", "traced", "checked"):
        if key in report:
            report[key]["json"] = report[key]["instances"]
            report[key]["instances"] = [json.loads(s) for s in report[key]["json"]]
    return report, rss


class Checks:
    """Named correctness checks; any failure marks the whole run incorrect."""

    def __init__(self):
        self.failed = []

    def expect(self, ok, what):
        if not ok:
            self.failed.append(what)
            log("CHECK FAILED: " + what)


def comparable(instance):
    """Every simulated count, gauge and histogram except the recorder's own."""
    m = instance["metrics"]
    return {kind: {k: v for k, v in m[kind].items() if not k.startswith("trace.")}
            for kind in ("counters", "gauges", "histograms")}


def check_outputs(checks, label, batch):
    """Per-instance sanity: delivered <= sent, enough samples for the tail."""
    for n, inst in enumerate(batch["instances"]):
        c = inst["metrics"]["counters"]
        sent, delivered = c.get("app.sent", 0), c.get("app.delivered", 0)
        checks.expect(delivered <= sent,
                      "%s instance %d: app.delivered %d > app.sent %d"
                      % (label, n, delivered, sent))
        checks.expect(metrics.reportable(delivered, 99.0),
                      "%s instance %d: %d deliveries leave fewer than %d samples beyond p99"
                      % (label, n, delivered, metrics.MIN_TAIL_SAMPLES))


def check_same(checks, what, a, b):
    for n, (x, y) in enumerate(zip(a["instances"], b["instances"])):
        checks.expect(comparable(x) == comparable(y),
                      "%s instance %d: simulated counts differ" % (what, n))


def check_clean(checks, batch):
    checks.expect(sum(batch["violations"]) == 0,
                  "invariant-checked run found %d violations" % sum(batch["violations"]))


def emit(metric_rows, checks, attempted, delivered):
    """Print the human-readable table and the final JSON line."""
    for name, unit, value, base in metric_rows:
        print("%-36s %16.6g %-6s %s" % (name, value, unit, base))
    correct = not checks.failed
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - delivered if correct else attempted,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value, _ in metric_rows},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_timed(args):
    """End-to-end metrics. Every host-time sample comes from its own worker
    process, and each run process's peak RSS is that one run's own."""
    deadline = time.monotonic() + args.seconds
    setup_meds, per_sample = [], 0
    for _ in range(SETUP_PROCESSES):
        rep, _ = worker(args.workload, args.seed, "setup",
                        "--seconds=%g" % (SETUP_SHARE * args.seconds / SETUP_PROCESSES))
        setup_meds.append(statistics.median(rep["setup_samples_s"]))
        per_sample = rep["setups_per_sample"]
    runs, rss, first = [], [], None
    checks = Checks()
    while len(runs) < MIN_RUNS or time.monotonic() < deadline:
        rep, peak = worker(args.workload, args.seed, "once")
        runs.append(rep["untraced"]["instance_run_s"])
        rss.append(peak)
        if first is None:
            first = rep["untraced"]
        checks.expect(rep["untraced"]["json"] == first["json"],
                      "deterministic result JSON of run %d differs from run 1 (seed %d)"
                      % (len(runs), args.seed))
    check_outputs(checks, "untraced", first)

    un = first["instances"]
    c = metrics.sum_counters(un)
    pdr, sent = metrics.named_ratio("pdr", c)
    delivered = c.get("app.delivered", 0)
    rows = [
        ("run_s", "s", metrics.fastest_run_s(runs),
         "each instance's fastest of %d runs, one process per run, tracing and "
         "invariant checker off; median %.4f s"
         % (len(runs), statistics.median([sum(r) for r in runs]))),
        ("setup_s", "s", min(setup_meds),
         "fastest of %d processes' per-setup medians (samples of ~%d constructions "
         "+ setup()); median %.4g s" % (len(setup_meds), per_sample,
                                       statistics.median(setup_meds))),
        ("peak_rss_mb", "MB", statistics.median(rss),
         "median over the run processes of each one's high-water mark"),
        ("pdr", "ratio", pdr, "base app.sent = %d" % sent),
        ("latency_p50_ms", "ms", metrics.latency(un, "p50"),
         "simulated, mean over %d instance(s); samples = %d delivered" % (len(un), delivered)),
    ]
    assert [(name, unit) for name, unit, _, _ in rows] == END_TO_END
    return emit(rows, checks, sent, delivered)


def write_spans(path, spans):
    """Chrome trace-event JSON of the worker's spans (Perfetto loads it)."""
    events = [{"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
               "ts": s["start_s"] * 1e6, "dur": s["dur_s"] * 1e6,
               "args": {"id": i, "parent": s["parent"], "self_us": s["self_s"] * 1e6}}
              for i, s in enumerate(spans)]
    path.write_text(json.dumps({"traceEvents": events}))


def run_traced(args):
    spans_dir = ROOT / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_file = spans_dir / ("%s-seed%d.json" % (args.workload, args.seed))
    trace, _ = worker(args.workload, args.seed, "trace")
    write_spans(spans_file, trace["spans"])
    checks = Checks()
    for label in ("untraced", "traced", "checked"):
        check_outputs(checks, label, trace[label])
    check_same(checks, "untraced vs traced", trace["untraced"], trace["traced"])
    check_same(checks, "untraced vs invariant-checked", trace["untraced"], trace["checked"])
    check_clean(checks, trace["checked"])
    checks.expect(trace["attack_rerun_identical"],
                  "adversary re-run disagrees with the run's own attack report")

    layer = metrics.layer_metrics(trace)
    rows = [(name, unit, layer[name][0], layer[name][1]) for name, unit in metrics.PER_LAYER]
    print("spans, summed by name (self time excludes child spans; all spans are in %s):"
          % spans_file.relative_to(ROOT))
    by_name = {}
    for s in trace["spans"]:
        n, dur, self_s = by_name.get(s["name"], (0, 0.0, 0.0))
        by_name[s["name"]] = (n + 1, dur + s["dur_s"], self_s + s["self_s"])
    for name, (n, dur, self_s) in by_name.items():
        print("  %-28s x%-3d %10.4f s  self %10.4f s" % (name, n, dur, self_s))
    c = metrics.sum_counters(trace["untraced"]["instances"])
    return emit(rows, checks, c.get("app.sent", 0), c.get("app.delivered", 0))


def run_scan(args):
    """Offered-load scan: PDR and latency against the flow count."""
    print("offered-load scan of %s, seeds %s" % (args.scan, SCAN_SEEDS))
    print("%-6s %-6s %8s %10s %10s %10s" % ("flows", "seed", "pdr", "p50_ms", "p99_ms",
                                             "delivered"))
    for flows in SCAN_FLOWS[args.scan]:
        for seed in SCAN_SEEDS:
            r, _ = worker(args.scan, seed, "once", "--flows=%d" % flows)
            un = r["untraced"]["instances"]
            c = metrics.sum_counters(un)
            print("%-6d %-6d %8.4f %10.2f %10.2f %10d"
                  % (flows, seed, metrics.named_ratio("pdr", c)[0],
                     metrics.latency(un, "p50"), metrics.latency(un, "p99"),
                     c.get("app.delivered", 0)))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scan", choices=list(SCAN_FLOWS))
    args = p.parse_args()
    if not args.workload and not args.scan:
        p.error("--workload or --scan is required")
    build()
    global START
    START = time.monotonic()
    if args.scan:
        return run_scan(args)
    return run_traced(args) if args.trace else run_timed(args)


if __name__ == "__main__":
    sys.exit(main())
