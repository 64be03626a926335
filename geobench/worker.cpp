// Full-stack benchmark worker: runs one named workload through the public
// workload::ScenarioRunner API, in one thread, and prints one JSON object on
// stdout. geobench/run.py builds and drives it; each invocation of the worker
// is a fresh process, so its peak RSS is that workload's own.
//
//   geobench_worker --workload=paper-agfw --seed=1 --mode=once
//
// A workload is one or more scenario instances; "run" below means one run of
// every instance. Modes:
//   setup  repeated fresh constructions + setup() for --seconds (setup_s
//          samples; nothing runs).
//   once   (default) one untraced run (run_s, deterministic result JSON); optional
//          --flows= load override for the offered-load scan.
//   trace  per-layer run: untraced runs, the adversary re-run, crypto /
//          kernel / channel probes, flight-recorder runs and invariant-checked
//          runs. Spans around every call into a module are kept in memory
//          and printed with the report at exit.
//
// Nothing here reaches inside a module: every number is either a public
// result field or a wall-clock span around a public call.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "adversary/trajectory.hpp"
#include "bench_common.hpp"
#include "crypto/engine.hpp"
#include "experiment/json.hpp"
#include "mobility/mobility.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace geoanon;
using bench::paper_scenario;
using util::SimTime;
using workload::ScenarioConfig;
using workload::ScenarioResult;
using workload::ScenarioRunner;
using workload::Scheme;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads -------------------------------------------------------------

/// Square field holding `nodes` radios at the given mean unit-disk degree.
mobility::Area square_for_degree(std::size_t nodes, double degree, double range_m) {
    const double side = std::sqrt(static_cast<double>(nodes) * std::numbers::pi * range_m *
                                  range_m / degree);
    return {side, side};
}

ScenarioConfig paper_agfw(std::uint64_t seed) {
    return paper_scenario(Scheme::kAgfwAck, 50, 900.0, seed);
}

ScenarioConfig wide_agfw(std::uint64_t seed) {
    ScenarioConfig cfg = paper_scenario(Scheme::kAgfwAck, 3000, 40.0, seed);
    cfg.area = square_for_degree(cfg.num_nodes, 15.0, cfg.phy.range_m);
    // Many light flows: the same offered load as 100 flows at 1 pkt/s, but
    // the median path length averages over three times as many pairs.
    cfg.num_flows = 300;
    cfg.num_senders = 300;
    cfg.cbr_pps = 1.0 / 3.0;
    cfg.traffic_stop_s = 35.0;
    return cfg;
}

ScenarioConfig gpsr_als_churn(std::uint64_t seed) {
    ScenarioConfig cfg = paper_scenario(Scheme::kGpsrGreedy, 100, 300.0, seed);
    // 20 pkt/s offered, spread over many light flows so the latency median
    // does not hinge on a few source/destination pairs (knee: ~45 pkt/s).
    cfg.num_flows = 60;
    cfg.num_senders = 60;
    cfg.cbr_pps = 1.0 / 3.0;
    cfg.location_service = routing::LocationService::Mode::kPlain;
    // Poisson churn holding about 10% of the nodes down (the cap, not the
    // arrival rate, sets the steady state), as bench/resilience_churn does.
    fault::FaultPlan::Churn churn;
    churn.min_down = SimTime::seconds(5.0);
    churn.max_down = SimTime::seconds(20.0);
    churn.max_concurrent_down = static_cast<int>(cfg.num_nodes / 10);
    churn.crash_rate_per_s = 2.0 * churn.max_concurrent_down / 12.5;
    churn.start = SimTime::seconds(15.0);
    churn.stop = SimTime::seconds(cfg.sim_seconds - 20.0);
    cfg.faults.seed = seed * 1000003ULL + 77;
    cfg.faults.churn = churn;
    return cfg;
}

ScenarioConfig privacy_attack(std::uint64_t seed) {
    ScenarioConfig cfg = paper_scenario(Scheme::kAgfwAck, 50, 900.0, seed);
    cfg.attach_observer = true;
    cfg.attack.linker.global_matching = true;  // strong attacker
    // Pseudonyms: AGFW's default per-hello policy (the paper's §3.1.1 rule).
    return cfg;
}

/// A workload is `instances` independent scenarios, instance i seeded
/// seed * instances + i (so distinct --seed values never share an instance).
/// Pooling steadies the simulated medians where one seed alone moves them by
/// ~10% (wide-agfw's topology, gpsr-als-churn's churn and location-query
/// retries); the paper scenario needs no pooling. Shorter instances do not
/// help: a 150 s gpsr-als-churn instance varies half again as much as a
/// 300 s one.
struct Workload {
    const char* name;
    ScenarioConfig (*make)(std::uint64_t seed);
    std::size_t instances;
};

constexpr Workload kWorkloads[] = {
    {"paper-agfw", paper_agfw, 1},
    {"wide-agfw", wide_agfw, 2},
    {"gpsr-als-churn", gpsr_als_churn, 3},
    {"privacy-attack", privacy_attack, 1},
};

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : kWorkloads)
        if (name == w.name) return &w;
    return nullptr;
}

// ---- spans -----------------------------------------------------------------

/// In-memory span log: name, parent, start, end (seconds since the worker
/// started). Spans nest strictly; printed once, with the worker's report.
class SpanLog {
  public:
    struct Span {
        std::string name;
        int parent;
        double start_s;
        double end_s;
    };

    template <typename F>
    auto record(const std::string& name, F&& f) {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, open_.empty() ? -1 : open_.back(), now(), 0.0});
        open_.push_back(id);
        struct Closer {
            SpanLog* log;
            int id;
            ~Closer() {
                log->spans_[static_cast<std::size_t>(id)].end_s = log->now();
                log->open_.pop_back();
            }
        } closer{this, id};
        return f();
    }

    /// Self time: the span's duration minus the time its children cover.
    double self_s(std::size_t i) const {
        double child = 0.0;
        for (const Span& s : spans_)
            if (s.parent == static_cast<int>(i)) child += s.end_s - s.start_s;
        return spans_[i].end_s - spans_[i].start_s - child;
    }

    void to_json(util::JsonWriter& w) const {
        w.begin_array();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            w.begin_object();
            w.key("name").value(s.name);
            w.key("parent").value(static_cast<std::int64_t>(s.parent));
            w.key("start_s").value(s.start_s);
            w.key("dur_s").value(s.end_s - s.start_s);
            w.key("self_s").value(self_s(i));
            w.end_object();
        }
        w.end_array();
    }

  private:
    double now() const { return seconds_since(origin_); }

    Clock::time_point origin_{Clock::now()};
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// ---- one scenario ----------------------------------------------------------

struct RunOutcome {
    std::unique_ptr<ScenarioRunner> runner;
    ScenarioResult result;
    double run_s{0.0};
};

RunOutcome run_scenario(const ScenarioConfig& cfg, SpanLog& spans,
                        const std::string& label) {
    RunOutcome out;
    spans.record(label + ".setup", [&] {
        out.runner = std::make_unique<ScenarioRunner>(cfg);
        out.runner->setup();
    });
    const auto t1 = Clock::now();
    out.result = spans.record(label + ".run", [&] { return out.runner->run(); });
    out.run_s = seconds_since(t1);
    return out;
}

/// Every instance of a workload run once under `label`; run_s is the sum.
/// Runners are destroyed as soon as their result is taken unless `keep`.
struct BatchOutcome {
    std::vector<RunOutcome> runs;
    double run_s{0.0};
};

BatchOutcome run_batch(const std::vector<ScenarioConfig>& cfgs, SpanLog& spans,
                       const std::string& label, bool keep = false) {
    BatchOutcome out;
    for (const ScenarioConfig& cfg : cfgs) {
        out.runs.push_back(run_scenario(cfg, spans, label));
        out.run_s += out.runs.back().run_s;
        if (!keep) out.runs.back().runner.reset();
    }
    return out;
}

/// {"run_s": sum, "instance_run_s": [per instance], "instances": [deterministic
/// result JSON (no perf block) per instance, as strings], "violations": [per
/// instance]}.
void write_batch(util::JsonWriter& w, const std::string& key, const BatchOutcome& b) {
    w.key(key).begin_object();
    w.key("run_s").value(b.run_s);
    w.key("instance_run_s").begin_array();
    for (const RunOutcome& o : b.runs) w.value(o.run_s);
    w.end_array();
    w.key("instances").begin_array();
    for (const RunOutcome& o : b.runs) w.value(experiment::result_to_json(o.result, false));
    w.end_array();
    // Protocol-invariant violations per instance (always 0 unless the run
    // had check_invariants on and the checker found something).
    w.key("violations").begin_array();
    for (const RunOutcome& o : b.runs) w.value(o.result.invariants.violations());
    w.end_array();
    w.end_object();
}

// ---- setup mode ------------------------------------------------------------

/// One fresh ScenarioRunner construction plus setup(), timed; the runner is
/// destroyed outside the timed region so only one lives at a time (peak RSS
/// stays the workload's own).
double time_one_setup(const ScenarioConfig& cfg) {
    const auto t0 = Clock::now();
    auto runner = std::make_unique<ScenarioRunner>(cfg);
    runner->setup();
    const double s = seconds_since(t0);
    runner.reset();
    return s;
}

/// Set-up samples for --seconds: each sample times enough fresh setups of the
/// first instance to last >= 20 ms, sized from the second of two warm-up
/// setups (the first one runs cold). Reported per setup.
void mode_setup(const ScenarioConfig& cfg, double seconds, util::JsonWriter& w) {
    time_one_setup(cfg);
    const double warm = time_one_setup(cfg);
    const auto per_sample =
        static_cast<std::size_t>(std::max(1.0, std::ceil(0.02 / std::max(warm, 1e-9))));
    std::vector<double> samples;
    const auto start = Clock::now();
    while (samples.size() < 5 || seconds_since(start) < seconds) {
        double total = 0.0;
        for (std::size_t i = 0; i < per_sample; ++i) total += time_one_setup(cfg);
        samples.push_back(total / static_cast<double>(per_sample));
    }
    w.key("setups_per_sample").value(static_cast<std::uint64_t>(per_sample));
    w.key("setup_samples_s").begin_array();
    for (const double x : samples) w.value(x);
    w.end_array();
}

// ---- probes ----------------------------------------------------------------

/// Self-rescheduling timer shaped like the simulator's hot callbacks (a
/// pointer plus a few words, inline in sim::Callback).
struct ProbeTimer {
    sim::Simulator* s;
    SimTime period;
    std::uint64_t ctx[2];
    void operator()() { s->after(period, ProbeTimer{*this}); }
};

/// Kernel cost per event (Simulator::at/after/run_until) with the queue held
/// at `depth` pending events — the workload's own peak queue depth.
double probe_sim_ns_per_event(std::size_t depth, std::uint64_t seed) {
    depth = std::max<std::size_t>(depth, 1);
    util::Sampler reps;
    for (int rep = 0; rep < 3; ++rep) {
        sim::Simulator sim;
        util::Rng rng(seed + static_cast<std::uint64_t>(rep));
        for (std::size_t i = 0; i < depth; ++i) {
            const SimTime period = SimTime::micros(500 + rng.uniform_int(0, 1000));
            sim.at(SimTime::micros(rng.uniform_int(0, 1000)),
                   ProbeTimer{&sim, period, {i, seed}});
        }
        // ~1 ms mean period: depth * 1000 events per simulated second.
        const double horizon = 1e6 / (static_cast<double>(depth) * 1000.0);
        const auto t0 = Clock::now();
        sim.run_until(SimTime::seconds(horizon));
        const double wall = seconds_since(t0);
        reps.add(wall * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                                        sim.events_processed(), 1)));
    }
    return reps.median();
}

struct PhyProbe {
    double ns_per_tx{0.0};
    double events_per_tx{0.0};
};

/// Channel cost per transmission: a beacon-only net::Network (no agents) of
/// the workload's node count, area, mobility and radio, every node beaconing
/// at the hello interval.
PhyProbe probe_phy(const ScenarioConfig& cfg, double interval_s) {
    struct Beacon {
        sim::Simulator* sim;
        phy::Radio* radio;
        SimTime period;
        void tick() {
            phy::Frame f;
            f.wire_bytes = 100;
            if (!radio->transmitting()) radio->start_tx(f);
            sim->after(period, [this] { tick(); });
        }
    };
    util::Sampler ns;
    PhyProbe out;
    for (int rep = 0; rep < 3; ++rep) {
        net::Network network(cfg.phy, cfg.seed + 101 + static_cast<std::uint64_t>(rep));
        mobility::RandomWaypoint::Params rwp;
        rwp.min_speed_mps = cfg.min_speed_mps;
        rwp.max_speed_mps = cfg.max_speed_mps;
        rwp.pause = SimTime::seconds(cfg.pause_s);
        for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
            const util::Vec2 p = cfg.area.random_point(network.rng());
            network.add_node(std::make_unique<mobility::RandomWaypoint>(
                                 cfg.area, p, rwp, network.rng().fork()),
                             mac::MacParams{});
        }
        std::vector<Beacon> beacons;
        beacons.reserve(cfg.num_nodes);
        const SimTime period = SimTime::seconds(interval_s);
        for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
            beacons.push_back(
                {&network.sim(), &network.node(static_cast<net::NodeId>(i)).radio(), period});
            Beacon* b = &beacons.back();
            network.sim().at(SimTime::seconds(interval_s * static_cast<double>(i) /
                                              static_cast<double>(cfg.num_nodes)),
                             [b] { b->tick(); });
        }
        // ~20k transmissions per repetition.
        const double horizon = 20000.0 * interval_s / static_cast<double>(cfg.num_nodes);
        const auto t0 = Clock::now();
        network.sim().run_until(SimTime::seconds(horizon));
        const double wall = seconds_since(t0);
        const double tx = static_cast<double>(
            std::max<std::uint64_t>(network.channel().stats().transmissions, 1));
        ns.add(wall * 1e9 / tx);
        out.events_per_tx = static_cast<double>(network.sim().events_processed()) / tx;
    }
    out.ns_per_tx = ns.median();
    return out;
}

/// Probe results land here so the timed calls cannot be optimized away.
volatile std::uint64_t probe_sink = 0;

struct CryptoProbe {
    double anonymize_uid{0.0};
    double make_trapdoor{0.0};
    double try_open_trapdoor{0.0};
    double encrypt_for{0.0};
};

/// Host ns per call of the crypto engine's hot entry points, on the
/// workload's own engine (its key and registered node ids).
CryptoProbe probe_crypto(crypto::CryptoEngine& eng, std::size_t nodes, std::uint64_t seed,
                         SpanLog& spans) {
    constexpr int kCalls = 20000;
    util::Rng rng(seed ^ 0x5eedC0DEULL);
    const auto n = static_cast<std::uint64_t>(nodes);
    // AGFW's trapdoor payload: source id, source x/y, destination tag.
    util::ByteWriter payload;
    payload.u64(1);
    payload.f64(750.0);
    payload.f64(150.0);
    payload.u64(0x54524150444F4F52ULL);
    std::uint64_t sink = 0;  // consumes every result, stored once below

    auto timed = [&](const char* name, auto&& body) {
        util::Sampler reps;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = Clock::now();
            spans.record(name, [&] {
                for (int k = 0; k < kCalls; ++k) body(static_cast<std::uint64_t>(k));
            });
            reps.add(seconds_since(t0) * 1e9 / kCalls);
        }
        return reps.median();
    };

    CryptoProbe out;
    out.anonymize_uid = timed("crypto.anonymize_uid", [&](std::uint64_t k) {
        sink ^= eng.anonymize_uid(((k % n) << 32) | (k / n));
    });
    std::vector<util::Bytes> trapdoors;
    trapdoors.reserve(kCalls);
    out.make_trapdoor = timed("crypto.make_trapdoor", [&](std::uint64_t k) {
        auto t = eng.make_trapdoor(static_cast<crypto::NodeIdNum>(k % n), payload.data(), rng);
        if (trapdoors.size() < kCalls) trapdoors.push_back(std::move(t));
    });
    out.try_open_trapdoor = timed("crypto.try_open_trapdoor", [&](std::uint64_t k) {
        // Every receiver of a broadcast tries; mostly the wrong node.
        const auto self = static_cast<crypto::NodeIdNum>((k * 7 + 3) % n);
        sink += eng.try_open_trapdoor(self, trapdoors[k]).has_value();
    });
    out.encrypt_for = timed("crypto.encrypt_for", [&](std::uint64_t k) {
        sink += eng.encrypt_for(static_cast<crypto::NodeIdNum>(k % n), payload.data(), rng)
                    .size();
    });
    probe_sink = sink;
    return out;
}

// ---- trace mode ------------------------------------------------------------

void mode_trace(const std::vector<ScenarioConfig>& cfgs, util::JsonWriter& w,
                SpanLog& spans) {
    const ScenarioConfig& cfg = cfgs.front();
    // Untraced runs: counts, sim.events, the run_s base of every share. The
    // first instance's runner stays alive for the adversary re-run and the
    // crypto probes (its engine holds the workload's key and node ids).
    BatchOutcome base = run_batch(cfgs, spans, "workload", /*keep=*/true);
    write_batch(w, "untraced", base);
    std::size_t peak_queue = 0;
    for (const RunOutcome& o : base.runs)
        peak_queue = std::max(peak_queue, o.result.perf.peak_queue_depth);
    w.key("peak_queue_depth").value(static_cast<std::uint64_t>(peak_queue));

    double attack_s = 0.0;
    bool attack_identical = true;
    for (RunOutcome& o : base.runs) {
        adversary::ObservationFeed* feed = o.runner->observation_feed();
        if (feed == nullptr) continue;
        adversary::AttackParams ap = o.runner->config().attack;
        if (ap.linker.max_speed_mps <= 0.0) ap.linker.max_speed_mps = cfg.max_speed_mps;
        const auto t0 = Clock::now();
        const adversary::AttackReport rep = spans.record(
            "adversary.run_attack",
            [&] { return adversary::run_attack(*feed, ap, cfg.sim_seconds); });
        attack_s += seconds_since(t0);
        attack_identical = attack_identical && rep.links_made == o.result.attack.links_made &&
                           rep.hello_observations == o.result.attack.hello_observations &&
                           rep.tracking_success_rate == o.result.attack.tracking_success_rate;
    }
    w.key("attack_s").value(attack_s);
    w.key("attack_rerun_identical").value(attack_identical);

    const CryptoProbe c =
        probe_crypto(base.runs.front().runner->engine(), cfg.num_nodes, cfg.seed, spans);
    for (RunOutcome& o : base.runs) o.runner.reset();
    w.key("probe_ns").begin_object();
    w.key("crypto.anonymize_uid").value(c.anonymize_uid);
    w.key("crypto.make_trapdoor").value(c.make_trapdoor);
    w.key("crypto.try_open_trapdoor").value(c.try_open_trapdoor);
    w.key("crypto.encrypt_for").value(c.encrypt_for);
    w.key("sim.event").value(spans.record(
        "sim.probe", [&] { return probe_sim_ns_per_event(peak_queue, cfg.seed); }));
    const double hello_s = cfg.scheme == Scheme::kGpsrGreedy
                               ? cfg.gpsr.hello_interval.to_seconds()
                               : cfg.agfw.hello_interval.to_seconds();
    const PhyProbe p = spans.record("phy.probe", [&] { return probe_phy(cfg, hello_s); });
    w.key("phy.tx").value(p.ns_per_tx);
    w.end_object();
    w.key("phy_probe_events_per_tx").value(p.events_per_tx);

    std::vector<ScenarioConfig> traced = cfgs;
    for (ScenarioConfig& t : traced) t.trace.enabled = true;
    write_batch(w, "traced", run_batch(traced, spans, "obs.traced"));

    std::vector<ScenarioConfig> checked = cfgs;
    for (ScenarioConfig& c2 : checked) c2.check_invariants = true;
    write_batch(w, "checked", run_batch(checked, spans, "analysis.checked"));
}

}  // namespace

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    const std::string name = args.get("workload", std::string{});
    const Workload* wl = find_workload(name);
    if (wl == nullptr) {
        std::fprintf(stderr, "geobench_worker: unknown --workload '%s'\n", name.c_str());
        return 2;
    }
    const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
    const std::string mode = args.get("mode", std::string{"once"});
    std::vector<ScenarioConfig> cfgs;
    for (std::size_t i = 0; i < wl->instances; ++i) {
        ScenarioConfig cfg = wl->make(seed * wl->instances + i);
        if (args.has("flows")) {
            // Keep the workload's flows-per-sender ratio.
            const auto flows = static_cast<std::size_t>(args.get("flows", std::int64_t{1}));
            cfg.num_senders = std::clamp<std::size_t>(flows * cfg.num_senders / cfg.num_flows,
                                                      1, cfg.num_nodes);
            cfg.num_flows = flows;
        }
        cfgs.push_back(cfg);
    }

    util::JsonWriter w;
    w.begin_object();
    w.key("workload").value(name);
    w.key("seed").value(seed);
    w.key("mode").value(mode);
    SpanLog spans;
    if (mode == "setup") {
        mode_setup(cfgs.front(), args.get("seconds", 0.5), w);
    } else if (mode == "once") {
        write_batch(w, "untraced", run_batch(cfgs, spans, "workload"));
    } else if (mode == "trace") {
        mode_trace(cfgs, w, spans);
        w.key("spans");
        spans.to_json(w);
    } else {
        std::fprintf(stderr, "geobench_worker: unknown --mode '%s'\n", mode.c_str());
        return 2;
    }
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
}
