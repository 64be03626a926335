#include "experiment/json.hpp"

namespace geoanon::experiment {

void result_to_json(JsonWriter& w, const workload::ScenarioResult& r, bool include_perf) {
    w.begin_object();
    w.key("schema_version").value(kResultSchemaVersion);

    w.key("attack").begin_object();
    w.key("hello_observations").value(r.attack.hello_observations);
    w.key("tracklets").value(r.attack.tracklets);
    w.key("chains").value(r.attack.chains);
    w.key("candidate_pairs").value(r.attack.candidate_pairs);
    w.key("links_made").value(r.attack.links_made);
    w.key("links_correct").value(r.attack.links_correct);
    w.key("link_precision").value(r.attack.link_precision);
    w.key("link_recall").value(r.attack.link_recall);
    w.key("tracking_success_rate").value(r.attack.tracking_success_rate);
    w.key("mean_anonymity_set").value(r.attack.mean_anonymity_set);
    w.key("max_anonymity_set").value(r.attack.max_anonymity_set);
    w.key("mean_path_error_m").value(r.attack.mean_path_error_m);
    w.key("anonymity_over_time").begin_array();
    for (const double v : r.attack.anonymity_over_time) w.value(v);
    w.end_array();
    w.end_object();

    w.key("invariants").begin_object();
    w.key("frames_checked").value(r.invariants.frames_checked);
    w.key("packets_checked").value(r.invariants.packets_checked);
    w.key("ant_entries_checked").value(r.invariants.ant_entries_checked);
    w.key("sweeps").value(r.invariants.sweeps);
    w.key("cleartext_identity").value(r.invariants.cleartext_identity);
    w.key("mac_address_exposed").value(r.invariants.mac_address_exposed);
    w.key("missing_trapdoor").value(r.invariants.missing_trapdoor);
    w.key("unknown_pseudonym").value(r.invariants.unknown_pseudonym);
    w.key("stale_pseudonym_target").value(r.invariants.stale_pseudonym_target);
    w.key("overlong_ant_ttl").value(r.invariants.overlong_ant_ttl);
    w.key("stale_ant_entry").value(r.invariants.stale_ant_entry);
    w.key("ack_without_delivery").value(r.invariants.ack_without_delivery);
    w.key("codec_reject").value(r.invariants.codec_reject);
    w.key("wire_size_mismatch").value(r.invariants.wire_size_mismatch);
    w.key("rotated_out_targets").value(r.invariants.rotated_out_targets);
    w.key("last_attempt_frames").value(r.invariants.last_attempt_frames);
    w.key("plain_ls_fallbacks").value(r.invariants.plain_ls_fallbacks);
    w.end_object();

    w.key("resilience").begin_object();
    w.key("recoveries_measured").value(r.resilience.recoveries_measured);
    w.key("recovery_latency_p50_s").value(r.resilience.recovery_latency_p50_s);
    w.key("recovery_latency_p95_s").value(r.resilience.recovery_latency_p95_s);
    w.key("recovery_outage_p95_s").value(r.resilience.recovery_outage_p95_s);
    w.key("recovery_flap_p95_s").value(r.resilience.recovery_flap_p95_s);
    w.end_object();

    // The registry snapshot, every counter of the run: already name-sorted
    // (std::map), so the block is byte-stable for identical runs.
    w.key("metrics").begin_object();
    w.key("counters").begin_object();
    for (const auto& [name, v] : r.metrics.counters) w.key(name).value(v);
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, v] : r.metrics.gauges) w.key(name).value(v);
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& h : r.metrics.histograms) {
        w.key(h.name).begin_object();
        w.key("count").value(h.count);
        w.key("mean").value(h.mean);
        w.key("min").value(h.min);
        w.key("max").value(h.max);
        w.key("p50").value(h.p50);
        w.key("p95").value(h.p95);
        w.key("p99").value(h.p99);
        w.end_object();
    }
    w.end_object();
    w.end_object();

    w.key("events_processed").value(r.events_processed);
    w.key("peak_queue_depth").value(static_cast<std::uint64_t>(r.perf.peak_queue_depth));

    if (include_perf) {
        w.key("perf").begin_object();
        w.key("wall_seconds").value(r.perf.wall_seconds);
        w.key("events_per_sec").value(r.perf.events_per_sec);
        w.end_object();
    }
    w.end_object();
}

std::string result_to_json(const workload::ScenarioResult& r, bool include_perf) {
    JsonWriter w;
    result_to_json(w, r, include_perf);
    return w.str();
}

std::string sweep_to_json(const std::string& bench_name, const SweepSpec& spec,
                          const std::vector<PointRecord>& points, bool include_perf) {
    JsonWriter w;
    w.begin_object();
    w.key("bench").value(bench_name);
    w.key("axes").begin_array();
    for (const Axis& a : spec.axes) {
        w.begin_object();
        w.key("name").value(a.name);
        w.key("values").begin_array();
        for (const double v : a.values) w.value(v);
        w.end_array();
        if (!a.labels.empty()) {
            w.key("labels").begin_array();
            for (const std::string& l : a.labels) w.value(l);
            w.end_array();
        }
        w.end_object();
    }
    w.end_array();
    w.key("seeds_per_point").value(static_cast<std::uint64_t>(spec.seeds_per_point));
    w.key("seed_base").value(spec.seed_base);
    w.key("points").begin_array();
    for (const PointRecord& pt : points) {
        w.begin_object();
        w.key("point").value(static_cast<std::uint64_t>(pt.index));
        w.key("coords").begin_object();
        for (std::size_t i = 0; i < spec.axes.size(); ++i)
            w.key(spec.axes[i].name).value(pt.values[i]);
        w.end_object();
        w.key("labels").begin_object();
        for (std::size_t i = 0; i < spec.axes.size(); ++i)
            w.key(spec.axes[i].name).value(pt.labels[i]);
        w.end_object();
        w.key("runs").begin_array();
        for (const RunRecord& run : pt.runs) {
            w.begin_object();
            w.key("seed").value(run.seed);
            w.key("result");
            result_to_json(w, run.result, include_perf);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace geoanon::experiment
