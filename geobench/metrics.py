"""Metric arithmetic for geobench/run.py.

Everything here is pure (or, for `run_measured`, touches only the child it
starts) so the unit tests in geobench/tests can pin it down:

- the sample-count rule for latency tails;
- ratios, each with the base it is taken over;
- shares of run time attributed to a probed call;
- peak RSS of one child process.
"""

import math
import os
import statistics
import subprocess
import threading
import time

# A percentile is reported only when at least this many samples lie beyond
# it, so a tail figure never rests on a handful of packets.
MIN_TAIL_SAMPLES = 10


def tail_samples(n, p):
    """Samples strictly beyond the p-th percentile of n samples."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def reportable(n, p, min_tail=MIN_TAIL_SAMPLES):
    return tail_samples(n, p) >= min_tail


def ratio(numerator, base):
    """numerator / base, or 0.0 when the base is empty (nothing attempted)."""
    return numerator / base if base else 0.0


def counter_sum(counters, names):
    return sum(counters.get(n, 0) for n in names)


# Each ratio metric: (numerator counters, base counters). The base is stated
# next to the value wherever run.py prints it.
RATIOS = {
    "pdr": (["app.delivered"], ["app.sent"]),
    "phy.delivery_ratio": (["phy.deliveries"], ["phy.deliveries", "phy.collisions"]),
    "core.trapdoor_open_ratio": (["agfw.trapdoor_opens"], ["agfw.trapdoor_attempts"]),
    "routing.ls_resolve_ratio": (["ls.resolved_ok"], ["ls.resolved_ok", "ls.resolved_fail"]),
}


def named_ratio(name, counters):
    """(value, base) of one RATIOS entry over a counter map."""
    num, base = RATIOS[name]
    b = counter_sum(counters, base)
    return ratio(counter_sum(counters, num), b), b


def share(ns_per_call, calls, run_s):
    """Fraction of run_s that `calls` calls at `ns_per_call` host ns account for."""
    return ratio(ns_per_call * calls * 1e-9, run_s)


def rss_mb(ru_maxrss_kib):
    """Linux reports ru_maxrss in KiB."""
    return ru_maxrss_kib / 1024.0


class ChildTimeout(Exception):
    pass


def run_measured(cmd, timeout_s, cwd=None):
    """Run cmd to completion; return (exit code, stdout text, peak RSS in MB).

    The RSS is the child's own high-water mark (wait4 on that pid), not the
    caller's and not that of any other child. On timeout the child is killed
    and reaped before ChildTimeout is raised.
    """
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    deadline = time.monotonic() + timeout_s
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise ChildTimeout("%s exceeded %.0f s" % (cmd[0], timeout_s))
            time.sleep(0.02)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
        raise
    finally:
        reader.join()
        proc.stdout.close()
    # Reaped here, so Popen must not wait on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, b"".join(chunks).decode(), rss_mb(usage.ru_maxrss)


# ---- per-layer metrics --------------------------------------------------

# (name, unit) in print order; BENCHMARK.json's per_layer lists the same.
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.peak_queue_depth", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.probe_ns_per_event", "ns"),
    ("sim.probe_share", "ratio"),
    ("phy.transmissions", "count"),
    ("phy.deliveries", "count"),
    ("phy.collisions", "count"),
    ("phy.delivery_ratio", "ratio"),
    ("phy.probe_ns_per_tx", "ns"),
    ("phy.probe_share", "ratio"),
    ("mac.data_sent", "count"),
    ("mac.rts_sent", "count"),
    ("mac.retries", "count"),
    ("mac.drop_retry", "count"),
    ("mac.drop_queue_full", "count"),
    ("core.hello_sent", "count"),
    ("core.forwarded", "count"),
    ("core.retransmissions", "count"),
    ("core.trapdoor_attempts", "count"),
    ("core.trapdoor_open_ratio", "ratio"),
    ("core.drops", "count"),
    ("routing.gpsr_drops", "count"),
    ("routing.ls_queries_sent", "count"),
    ("routing.ls_resolve_ratio", "ratio"),
    ("routing.ls_query_reissues", "count"),
    ("routing.ls_digests_sent", "count"),
    ("crypto.probe_ns_anonymize_uid", "ns"),
    ("crypto.probe_ns_make_trapdoor", "ns"),
    ("crypto.probe_ns_try_open_trapdoor", "ns"),
    ("crypto.probe_ns_encrypt_for", "ns"),
    ("crypto.share_anonymize_uid", "ratio"),
    ("crypto.share_make_trapdoor", "ratio"),
    ("crypto.share_try_open_trapdoor", "ratio"),
    ("fault.node_crashes", "count"),
    ("fault.frames_lost_node_down", "count"),
    ("fault.recovery_p95_s", "s"),
    ("adversary.attack_s", "s"),
    ("adversary.attack_share", "ratio"),
    ("adversary.hello_observations", "count"),
    ("adversary.links_made", "count"),
    ("adversary.tracking_success_rate", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.trace_recorded", "count"),
    ("analysis.check_overhead", "ratio"),
    ("analysis.violations", "count"),
    ("workload.sent", "count"),
    ("workload.delivered", "count"),
    ("workload.latency_p99_ms", "ms"),
    ("workload.unattributed_share", "ratio"),
]

# Counters summed into one per-layer count.
COUNTS = {
    "phy.transmissions": ["phy.transmissions"],
    "phy.deliveries": ["phy.deliveries"],
    "phy.collisions": ["phy.collisions"],
    "mac.data_sent": ["mac.data_sent"],
    "mac.rts_sent": ["mac.rts_sent"],
    "mac.retries": ["mac.retries"],
    "mac.drop_retry": ["mac.unicast_drop_retry"],
    "mac.drop_queue_full": ["mac.drop_queue_full"],
    "core.hello_sent": ["agfw.hello_sent"],
    "core.forwarded": ["agfw.forwarded"],
    "core.retransmissions": ["agfw.retransmissions"],
    "core.trapdoor_attempts": ["agfw.trapdoor_attempts"],
    "core.drops": ["agfw.drop_no_route", "agfw.drop_unreachable", "agfw.drop_no_location"],
    "routing.gpsr_drops": ["gpsr.drop_no_route", "gpsr.drop_mac", "gpsr.drop_no_location"],
    "routing.ls_queries_sent": ["ls.queries_sent"],
    "routing.ls_query_reissues": ["ls.query_reissues"],
    "routing.ls_digests_sent": ["ls.replica.digests_sent"],
    "fault.node_crashes": ["fault.node_crashes"],
    "fault.frames_lost_node_down": ["phy.frames_missed_down"],
    "adversary.hello_observations": ["adv.hello_observations"],
    "adversary.links_made": ["adv.links_made"],
    "workload.sent": ["app.sent"],
    "workload.delivered": ["app.delivered"],
}

# How often each probed crypto call runs in a workload, from its counters.
# AGFW builds one trapdoor per originated packet that has a destination
# location, and draws a fresh uid for that packet and for every ACK.
CALL_COUNTS = {
    "crypto.share_try_open_trapdoor": lambda c: c.get("agfw.trapdoor_attempts", 0),
    "crypto.share_make_trapdoor": lambda c: c.get("agfw.app_sent", 0)
    - c.get("agfw.drop_no_location", 0),
    "crypto.share_anonymize_uid": lambda c: c.get("agfw.app_sent", 0)
    - c.get("agfw.drop_no_location", 0)
    + c.get("agfw.acks_sent", 0),
}


def sum_counters(instances):
    """Counter map summed over the parsed result JSON of every instance."""
    total = {}
    for inst in instances:
        for name, v in inst["metrics"]["counters"].items():
            total[name] = total.get(name, 0) + v
    return total


def latency(instances, key):
    """Mean over instances of one app.latency_ms histogram field (the mean of
    three varies a sixth less between seeds than their median)."""
    values = [i["metrics"]["histograms"]["app.latency_ms"][key] for i in instances]
    return sum(values) / len(values)


def fastest_run_s(runs):
    """Run time from repeated runs of a batch: each instance's fastest run,
    summed (instance_run_s lists are per run, one entry per instance)."""
    return sum(min(times) for times in zip(*runs))


def layer_metrics(trace):
    """Per-layer metrics from a trace-mode worker report.

    `trace` has "untraced", "traced" and "checked" batches whose "instances"
    are already parsed result JSON, plus the probe timings. Returns
    {name: (value, base)} where base is a short text naming what the value is
    taken over.
    """
    un = trace["untraced"]["instances"]
    c = sum_counters(un)
    run_s = trace["untraced"]["run_s"]
    events = sum(i["events_processed"] for i in un)
    probe = trace["probe_ns"]
    run_base = "untraced run_s %.4f s" % run_s
    m = {}
    for name, keys in COUNTS.items():
        m[name] = (counter_sum(c, keys), "sum over instances of " + " + ".join(keys))

    m["sim.events"] = (events, "untraced runs")
    m["sim.peak_queue_depth"] = (trace["peak_queue_depth"], "max over instances")
    m["sim.ns_per_event"] = (ratio(run_s * 1e9, events), "untraced run_s / sim.events")
    m["sim.probe_ns_per_event"] = (probe["sim.event"], "kernel probe at the peak queue depth")
    m["sim.probe_share"] = (share(probe["sim.event"], events, run_s),
                            "probe ns x sim.events / " + run_base)

    for name in ("phy.delivery_ratio", "core.trapdoor_open_ratio", "routing.ls_resolve_ratio"):
        value, base = named_ratio(name, c)
        m[name] = (value, "base %s = %d" % (" + ".join(RATIOS[name][1]), base))

    # The channel probe's time includes its own kernel events; its share
    # counts only the remainder, so sim and phy shares do not overlap.
    phy_ns = probe["phy.tx"]
    phy_self_ns = max(0.0, phy_ns - trace["phy_probe_events_per_tx"] * probe["sim.event"])
    m["phy.probe_ns_per_tx"] = (phy_ns, "beacon-only network probe, per transmission")
    m["phy.probe_share"] = (share(phy_self_ns, c.get("phy.transmissions", 0), run_s),
                            "probe self ns x phy.transmissions / " + run_base)

    for call in ("anonymize_uid", "make_trapdoor", "try_open_trapdoor", "encrypt_for"):
        m["crypto.probe_ns_" + call] = (probe["crypto." + call], "engine probe, per call")
    for name, count in CALL_COUNTS.items():
        call = name[len("crypto.share_"):]
        m[name] = (share(probe["crypto." + call], count(c), run_s),
                   "probe ns x %d calls / %s" % (count(c), run_base))

    m["fault.recovery_p95_s"] = (
        statistics.median([i["resilience"]["recovery_latency_p95_s"] for i in un]),
        "simulated s, median over instances")

    attack_s = float(trace["attack_s"])
    m["adversary.attack_s"] = (attack_s, "run_attack re-run on the observation feed")
    m["adversary.attack_share"] = (ratio(attack_s, run_s), "attack_s / " + run_base)
    m["adversary.tracking_success_rate"] = (
        statistics.median([i["attack"]["tracking_success_rate"] for i in un]),
        "tracked nodes / nodes, median over instances")

    m["obs.trace_overhead"] = (ratio(trace["traced"]["run_s"], run_s),
                               "traced run_s / " + run_base)
    m["obs.trace_recorded"] = (
        counter_sum(sum_counters(trace["traced"]["instances"]), ["trace.recorded"]),
        "flight-recorder events, traced runs")
    m["analysis.check_overhead"] = (ratio(trace["checked"]["run_s"], run_s),
                                    "invariant-checked run_s / " + run_base)
    m["analysis.violations"] = (sum(trace["checked"]["violations"]), "invariant-checked runs")

    m["workload.latency_p99_ms"] = (latency(un, "p99"),
                                    "simulated ms, mean over instances; samples = "
                                    "workload.delivered")
    shares = [v for k, (v, _) in m.items() if k.endswith("_share") or ".share_" in k]
    m["workload.unattributed_share"] = (1.0 - sum(shares), "1 - sum of the shares above")
    return m
