#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace geoanon::obs {

/// Point-in-time copy of a registry, sorted by name — the deterministic
/// form stored in ScenarioResult and serialized to JSON.
struct MetricsSnapshot {
    struct Hist {
        std::string name;
        std::uint64_t count{0};
        double mean{0.0};
        double min{0.0};
        double max{0.0};
        double p50{0.0};
        double p95{0.0};
        double p99{0.0};
    };

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<Hist> histograms;

    /// Lookups by name; 0 (or an all-zero Hist) when the name was never
    /// published.
    std::uint64_t counter(const std::string& name) const;
    double gauge(const std::string& name) const;
    Hist histogram(const std::string& name) const;
};

/// Name-keyed counters/gauges/histograms every layer publishes into at the
/// end of a run (Channel, Mac80211, agents, LocationService, FaultInjector
/// each expose publish_metrics(MetricsRegistry&)). Names are dotted
/// layer-prefixed strings ("mac.retries", "agfw.drop_unreachable"); the
/// std::map keeps snapshots sorted and therefore byte-stable in JSON.
///
/// Thread-safe: all maps sit behind mu_ (clang -Wthread-safety checked), so
/// concurrent SweepRunner workers — or the future sharded simulator — can
/// publish into one registry. Determinism is unaffected: counters commute,
/// and snapshots are name-sorted regardless of publish order.
class MetricsRegistry {
  public:
    void add(const std::string& name, std::uint64_t delta);
    void set_gauge(const std::string& name, double v);
    void observe(const std::string& name, double x);
    /// Fold a layer-owned sampler into the named histogram.
    void observe_all(const std::string& name, const util::Sampler& s);

    /// Counter value; 0 when never touched.
    std::uint64_t counter(const std::string& name) const;

    MetricsSnapshot snapshot() const;

  private:
    mutable util::Mutex mu_;
    std::map<std::string, std::uint64_t> counters_ GEOANON_GUARDED_BY(mu_);
    std::map<std::string, double> gauges_ GEOANON_GUARDED_BY(mu_);
    /// One sample store per histogram: count, mean, min, max and the
    /// percentiles all come from it.
    std::map<std::string, util::Sampler> hists_ GEOANON_GUARDED_BY(mu_);
};

}  // namespace geoanon::obs
