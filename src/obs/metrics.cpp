#include "obs/metrics.hpp"

namespace geoanon::obs {

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
    for (const auto& [k, v] : counters)
        if (k == name) return v;
    return 0;
}

double MetricsSnapshot::gauge(const std::string& name) const {
    for (const auto& [k, v] : gauges)
        if (k == name) return v;
    return 0.0;
}

MetricsSnapshot::Hist MetricsSnapshot::histogram(const std::string& name) const {
    for (const Hist& h : histograms)
        if (h.name == name) return h;
    return {};
}

void MetricsRegistry::add(const std::string& name, std::uint64_t delta) {
    const util::MutexLock lock(mu_);
    counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double v) {
    const util::MutexLock lock(mu_);
    gauges_[name] = v;
}

void MetricsRegistry::observe(const std::string& name, double x) {
    const util::MutexLock lock(mu_);
    hists_[name].add(x);
}

void MetricsRegistry::observe_all(const std::string& name, const util::Sampler& s) {
    const util::MutexLock lock(mu_);
    util::Sampler& h = hists_[name];
    for (const double x : s.samples()) h.add(x);
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
    const util::MutexLock lock(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    const util::MutexLock lock(mu_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, v] : counters_) snap.counters.emplace_back(name, v);
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, v] : gauges_) snap.gauges.emplace_back(name, v);
    snap.histograms.reserve(hists_.size());
    for (const auto& [name, h] : hists_) {
        MetricsSnapshot::Hist out;
        out.name = name;
        out.count = h.count();
        out.mean = h.mean();
        out.min = h.min();
        out.max = h.max();
        out.p50 = h.percentile(50);
        out.p95 = h.percentile(95);
        out.p99 = h.percentile(99);
        snap.histograms.push_back(std::move(out));
    }
    return snap;
}

}  // namespace geoanon::obs
