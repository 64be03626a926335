// Engine scaling — event-kernel throughput, spatial-hash channel vs
// brute-force O(N) scan, and wheel-vs-heap differential validation.
//
// Four measurements, same machine, same seeds:
//
//  0. Kernel microbenchmark: K self-rescheduling timers with 40-byte
//     captures churning through the event queue with no protocol work at
//     all. Run once on the timer-wheel kernel and once on the binary-heap
//     kernel (GEOANON_HEAP_QUEUE's engine), giving the kernel-layer
//     events/sec ratio the timer wheel is accountable for.
//
//  1. Channel microbenchmark: N mobile radios beaconing over a bare Channel
//     (no MAC, no routing), in a sparse wide-area field with unit-disk
//     physics (carrier-sense range == decode range). This isolates the
//     neighbor-query cost the grid replaces: the brute channel visits all N
//     radios per transmission, the grid visits only the 9 surrounding cells.
//     A delivery digest (receiver id folded with the reception timestamp)
//     proves both channels produce the same delivery schedule, not just the
//     same counts. With --sweep=10000,100000,1000000 the same harness runs
//     grid-only at each count (routing off — this is how the 100k and 1M
//     points are measured; brute force at those sizes would be O(N^2)).
//
//  2. Full-scenario sweep: the complete AGFW stack (MAC, crypto, routing,
//     traps) at the base node count, run once per channel with identical
//     seeds. ScenarioResults must be bit-identical; the wall-clock ratio is
//     reported too, and is honest about Amdahl: protocol work shared by both
//     channels bounds the end-to-end gain well below the channel-layer ratio.
//
//  3. --differential: the same full scenario run on the timer-wheel kernel
//     and again on the binary-heap kernel (env toggled in-process between
//     the two serial runs); the deterministic result JSON must be
//     byte-identical. This is the acceptance gate for the kernel swap.
//
// Usage: scaling_grid [--nodes=500] [--seconds=60] [--degree=10] [--seeds=1]
//                     [--kernel-timers=10000] [--kernel-seconds=5]
//                     [--sweep=10000,100000] [--sweep-seconds=5]
//                     [--skip-brute] [--skip-scenario] [--differential]
//                     [--json=BENCH_scaling.json]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mobility/mobility.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

using namespace geoanon;

namespace {

/// Sparse-field parameters for the channel microbenchmark. Degree ~3 is a
/// wide-area sensor-scatter regime: few decodable neighbors, so per-frame
/// reception work is small and the neighbor query dominates — exactly the
/// load the spatial index exists for. Unit-disk physics keeps the energy
/// bookkeeping (shared by both channels) from masking the query cost.
constexpr double kChannelDegree = 3.0;
constexpr double kBeaconHz = 10.0;

// ---- Section 0: event-kernel churn -------------------------------------

struct KernelBenchResult {
    double wall_seconds{0};
    std::uint64_t events{0};
    double events_per_sec{0};
};

/// Self-rescheduling timer with a 40-byte state block — the simulator's
/// inline callback budget, and representative of real closures (a this
/// pointer plus a few ids). Each firing schedules a copy of itself.
struct ChurnTimer {
    sim::Simulator* s;
    util::SimTime period;
    std::uint64_t ctx[3];
    void operator()() { s->after(period, ChurnTimer{*this}); }
};
static_assert(sizeof(ChurnTimer) == 40);

KernelBenchResult run_kernel_bench(sim::QueueKind kind, std::size_t timers,
                                   double seconds) {
    sim::Simulator sim(kind);
    util::Rng rng(7);
    for (std::size_t i = 0; i < timers; ++i) {
        const auto period = util::SimTime::micros(500 + rng.uniform_int(0, 1000));
        sim.after(period, ChurnTimer{&sim, period, {i, i * 31, ~i}});
    }
    // geoanon-lint: begin-allow(wallclock) -- bench timing block: the events/sec column
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(util::SimTime::seconds(seconds));
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    // geoanon-lint: end-allow(wallclock)
    KernelBenchResult out;
    out.wall_seconds = wall;
    out.events = sim.events_processed();
    out.events_per_sec = wall > 0.0 ? static_cast<double>(out.events) / wall : 0.0;
    return out;
}

// ---- Section 1: channel microbenchmark ---------------------------------

struct ChannelBenchResult {
    double wall_seconds{0};
    std::uint64_t events{0};
    double events_per_sec{0};
    std::uint64_t transmissions{0};
    std::uint64_t deliveries{0};
    std::uint64_t collisions{0};
    std::uint64_t digest{0};
};

/// Per-radio beacon tick owned by the bench (the scheduled event captures
/// only [this] — no heap-held self-owning closures).
struct BeaconRig {
    sim::Simulator* sim;
    phy::Radio* radio;
    double period;
    void tick() {
        phy::Frame f;
        f.wire_bytes = 100;
        if (!radio->transmitting()) radio->start_tx(f);
        sim->after(util::SimTime::seconds(period), [this] { tick(); });
    }
};

ChannelBenchResult run_channel_bench(bool brute, std::size_t n, double seconds) {
    sim::Simulator sim;
    phy::PhyParams params;
    params.brute_force = brute;
    params.cs_range_m = params.range_m;  // unit disk
    phy::Channel channel(sim, params);

    const double side = std::sqrt(static_cast<double>(n) * std::numbers::pi *
                                  params.range_m * params.range_m / kChannelDegree);
    const mobility::Area area{side, side};
    util::Rng rng(99);

    ChannelBenchResult out;
    std::vector<std::unique_ptr<mobility::RandomWaypoint>> movers;
    std::vector<std::unique_ptr<phy::Radio>> radios;
    movers.reserve(n);
    radios.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        mobility::RandomWaypoint::Params mp;
        mp.min_speed_mps = 1.0;
        mp.max_speed_mps = 20.0;
        mp.pause = util::SimTime::zero();
        movers.push_back(std::make_unique<mobility::RandomWaypoint>(
            area, area.random_point(rng), mp, rng.fork()));
        radios.push_back(std::make_unique<phy::Radio>(sim, channel, *movers.back()));
        radios.back()->set_mac_hooks(nullptr, nullptr, [&out, &sim, i](const phy::Frame&) {
            // Order-sensitive digest: any divergence in who hears what, when,
            // perturbs it.
            out.digest = (out.digest * 1099511628211ull) ^
                         (static_cast<std::uint64_t>(i) * 2654435761ull) ^
                         static_cast<std::uint64_t>(sim.now().ns());
        });
    }
    const double period = 1.0 / kBeaconHz;
    std::vector<BeaconRig> beacons;
    beacons.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        beacons.push_back(BeaconRig{&sim, radios[i].get(), period});
        BeaconRig* rig = &beacons.back();
        sim.at(util::SimTime::seconds(period * static_cast<double>(i) /
                                      static_cast<double>(n)),
               [rig] { rig->tick(); });
    }

    // geoanon-lint: begin-allow(wallclock) -- bench timing block: the speedup column; determinism is asserted on event counts, not wall time
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_until(util::SimTime::seconds(seconds));
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    // geoanon-lint: end-allow(wallclock)
    out.events = sim.events_processed();
    out.events_per_sec =
        out.wall_seconds > 0.0 ? static_cast<double>(out.events) / out.wall_seconds : 0.0;
    out.transmissions = channel.stats().transmissions;
    out.deliveries = channel.stats().deliveries;
    out.collisions = channel.stats().collisions;
    return out;
}

std::vector<std::size_t> parse_sweep(const std::string& spec) {
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        const std::string tok = spec.substr(pos, comma - pos);
        if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoull(tok)));
        pos = comma + 1;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const util::CliArgs args(argc, argv);
    const auto nodes = static_cast<std::size_t>(args.get("nodes", std::int64_t{500}));
    const double seconds = args.get("seconds", 60.0);
    const double degree = args.get("degree", 10.0);
    const double pause = args.get("pause", 0.0);
    const double pps = args.get("pps", 4.0);
    const int seeds = static_cast<int>(args.get("seeds", std::int64_t{1}));
    const bool skip_brute = args.has("skip-brute");
    const bool skip_scenario = args.has("skip-scenario");
    const bool differential = args.has("differential");
    const auto kernel_timers =
        static_cast<std::size_t>(args.get("kernel-timers", std::int64_t{10000}));
    const double kernel_seconds = args.get("kernel-seconds", 5.0);
    const std::vector<std::size_t> sweep = parse_sweep(args.get("sweep", std::string{}));
    const double sweep_seconds = args.get("sweep-seconds", 5.0);

    // ---- Section 0: kernel microbenchmark --------------------------------
    std::printf("Kernel microbenchmark: %zu self-rescheduling timers (40 B "
                "captures), %.0f sim-seconds\n\n",
                kernel_timers, kernel_seconds);
    const KernelBenchResult kern_wheel =
        run_kernel_bench(sim::QueueKind::kTimerWheel, kernel_timers, kernel_seconds);
    const KernelBenchResult kern_heap =
        run_kernel_bench(sim::QueueKind::kBinaryHeap, kernel_timers, kernel_seconds);
    const double kern_speedup = kern_heap.events_per_sec > 0.0
                                    ? kern_wheel.events_per_sec / kern_heap.events_per_sec
                                    : 0.0;
    {
        util::TablePrinter table({"kernel", "wall (s)", "events", "events/s"});
        table.row()
            .cell("wheel")
            .cell(kern_wheel.wall_seconds, 3)
            .cell(static_cast<long long>(kern_wheel.events))
            .cell(kern_wheel.events_per_sec, 0);
        table.row()
            .cell("heap")
            .cell(kern_heap.wall_seconds, 3)
            .cell(static_cast<long long>(kern_heap.events))
            .cell(kern_heap.events_per_sec, 0);
        table.print();
        std::printf("\nkernel speedup (wheel/heap): %.2fx\n", kern_speedup);
    }

    // ---- Section 1: channel microbenchmark -------------------------------
    std::printf("\nChannel microbenchmark: %zu mobile radios, %.0f s, "
                "%.0f Hz beacons, mean degree ~%.0f, unit disk\n\n",
                nodes, seconds, kBeaconHz, kChannelDegree);
    const ChannelBenchResult chan_grid = run_channel_bench(false, nodes, seconds);
    ChannelBenchResult chan_brute;
    double chan_speedup = 0.0;
    bool chan_identical = true;
    {
        util::TablePrinter table(
            {"channel", "wall (s)", "events/s", "tx", "rx", "collisions"});
        table.row()
            .cell("grid")
            .cell(chan_grid.wall_seconds, 3)
            .cell(chan_grid.events_per_sec, 0)
            .cell(static_cast<long long>(chan_grid.transmissions))
            .cell(static_cast<long long>(chan_grid.deliveries))
            .cell(static_cast<long long>(chan_grid.collisions));
        if (!skip_brute) {
            chan_brute = run_channel_bench(true, nodes, seconds);
            table.row()
                .cell("brute")
                .cell(chan_brute.wall_seconds, 3)
                .cell(chan_brute.events_per_sec, 0)
                .cell(static_cast<long long>(chan_brute.transmissions))
                .cell(static_cast<long long>(chan_brute.deliveries))
                .cell(static_cast<long long>(chan_brute.collisions));
            chan_speedup = chan_grid.wall_seconds > 0.0
                               ? chan_brute.wall_seconds / chan_grid.wall_seconds
                               : 0.0;
            chan_identical = chan_grid.digest == chan_brute.digest &&
                             chan_grid.transmissions == chan_brute.transmissions &&
                             chan_grid.deliveries == chan_brute.deliveries &&
                             chan_grid.collisions == chan_brute.collisions;
        }
        table.print();
        if (!skip_brute)
            std::printf("\nchannel speedup (brute/grid): %.2fx   "
                        "delivery schedule identical: %s\n",
                        chan_speedup, chan_identical ? "yes" : "NO — INDEX BUG");
    }

    // ---- Node-count sweep (routing off) ----------------------------------
    struct SweepPoint {
        std::size_t nodes;
        ChannelBenchResult r;
    };
    std::vector<SweepPoint> sweep_points;
    if (!sweep.empty()) {
        std::printf("\nNode sweep (grid channel, beacons only, %.0f s each):\n\n",
                    sweep_seconds);
        util::TablePrinter table({"nodes", "wall (s)", "events", "events/s", "tx"});
        for (const std::size_t n : sweep) {
            const ChannelBenchResult r = run_channel_bench(false, n, sweep_seconds);
            sweep_points.push_back({n, r});
            table.row()
                .cell(static_cast<long long>(n))
                .cell(r.wall_seconds, 3)
                .cell(static_cast<long long>(r.events))
                .cell(r.events_per_sec, 0)
                .cell(static_cast<long long>(r.transmissions));
        }
        table.print();
    }

    // ---- Section 2: full-scenario sweep ----------------------------------
    workload::ScenarioConfig base =
        bench::paper_scenario(workload::Scheme::kAgfwAck, nodes, seconds, 1);
    // Square area holding `nodes` at the requested mean neighbor degree.
    const double range = base.phy.range_m;
    const double side = std::sqrt(static_cast<double>(nodes) *
                                  std::numbers::pi * range * range / degree);
    base.area = mobility::Area{side, side};
    // Offered load scales with the network (the paper's 30 fixed flows are a
    // 50-node workload): 0.6 flows and 0.4 senders per node, as in §5.1.
    base.num_flows = nodes * 3 / 5;
    base.num_senders = nodes * 2 / 5;
    base.cbr_pps = pps;
    // Continuously mobile by default: a paused network lets every spatial
    // index look artificially cheap.
    base.pause_s = pause;

    std::vector<experiment::PointRecord> points;
    double scen_speedup = 0.0;
    bool scen_identical = true;
    const auto wall = [](const workload::ScenarioResult& r) { return r.perf.wall_seconds; };
    const auto eps = [](const workload::ScenarioResult& r) { return r.perf.events_per_sec; };
    if (!skip_scenario) {
        std::printf("\nFull-scenario sweep: %zu nodes, %.0f s, %.0fx%.0f m "
                    "(mean degree ~%.0f), %d seed(s)\n\n",
                    nodes, seconds, side, side, degree, seeds);

        experiment::SweepSpec spec;
        spec.base = base;
        spec.axes = {experiment::Axis::variants(
            "channel", skip_brute ? std::vector<std::string>{"grid"}
                                  : std::vector<std::string>{"grid", "brute"},
            [](workload::ScenarioConfig& cfg, double v) {
                cfg.phy.brute_force = static_cast<int>(v) == 1;
            })};
        spec.seeds_per_point = static_cast<std::size_t>(seeds);
        spec.seed_base = 42;

        // Serial on purpose: the two variants share the machine, so parallel
        // execution would skew the wall-clock comparison.
        points = experiment::SweepRunner(spec).run();

        util::TablePrinter table(
            {"channel", "wall (s)", "events/s", "events", "peak queue", "pdr"});
        for (const experiment::PointRecord& pt : points) {
            const auto& r0 = pt.runs.front().result;
            table.row()
                .cell(pt.labels[0])
                .cell(pt.mean(wall), 2)
                .cell(pt.mean(eps), 0)
                .cell(static_cast<long long>(r0.events_processed))
                .cell(static_cast<long long>(r0.perf.peak_queue_depth))
                .cell(r0.delivery_fraction(), 3);
        }
        table.print();

        if (!skip_brute) {
            const double grid_wall = points[0].mean(wall);
            const double brute_wall = points[1].mean(wall);
            scen_speedup = grid_wall > 0.0 ? brute_wall / grid_wall : 0.0;
            for (int s = 0; s < seeds; ++s) {
                scen_identical = scen_identical &&
                                 experiment::result_to_json(points[0].runs[s].result) ==
                                     experiment::result_to_json(points[1].runs[s].result);
            }
            std::printf("\nscenario speedup (brute/grid): %.2fx   "
                        "results bit-identical: %s\n",
                        scen_speedup, scen_identical ? "yes" : "NO — INDEX BUG");
        }
    }

    // ---- Section 3: wheel-vs-heap differential ---------------------------
    bool diff_identical = true;
    if (differential) {
        std::printf("\nDifferential: full scenario on timer-wheel vs binary-heap "
                    "kernel (%zu nodes, %.0f s)...\n",
                    nodes, seconds);
        workload::ScenarioConfig diff_cfg = base;
        diff_cfg.seed = 42;
        // The kernel is chosen when each run constructs its Simulator, so
        // toggling the env var between the two serial runs selects it
        // in-process (same binary, same everything else).
        const char* prev = std::getenv("GEOANON_HEAP_QUEUE");
        unsetenv("GEOANON_HEAP_QUEUE");
        const workload::ScenarioResult wheel_res =
            workload::ScenarioRunner(diff_cfg).run();
        setenv("GEOANON_HEAP_QUEUE", "1", 1);
        const workload::ScenarioResult heap_res =
            workload::ScenarioRunner(diff_cfg).run();
        if (prev != nullptr)
            setenv("GEOANON_HEAP_QUEUE", prev, 1);
        else
            unsetenv("GEOANON_HEAP_QUEUE");
        diff_identical = experiment::result_to_json(wheel_res) ==
                         experiment::result_to_json(heap_res);
        std::printf("wheel vs heap results byte-identical: %s\n",
                    diff_identical ? "yes" : "NO — KERNEL BUG");
    }

    if (args.has("json")) {
        experiment::JsonWriter w;
        w.begin_object();
        w.key("bench").value("scaling_grid");
        w.key("nodes").value(static_cast<std::uint64_t>(nodes));
        w.key("seconds").value(seconds);
        w.key("kernel").begin_object();
        w.key("timers").value(static_cast<std::uint64_t>(kernel_timers));
        w.key("sim_seconds").value(kernel_seconds);
        w.key("wheel_events_per_sec").value(kern_wheel.events_per_sec);
        w.key("heap_events_per_sec").value(kern_heap.events_per_sec);
        w.key("events").value(kern_wheel.events);
        w.key("speedup").value(kern_speedup);
        w.end_object();
        w.key("channel").begin_object();
        w.key("mean_degree").value(kChannelDegree);
        w.key("beacon_hz").value(kBeaconHz);
        w.key("grid_wall_seconds").value(chan_grid.wall_seconds);
        w.key("grid_events_per_sec").value(chan_grid.events_per_sec);
        w.key("transmissions").value(chan_grid.transmissions);
        if (!skip_brute) {
            w.key("brute_wall_seconds").value(chan_brute.wall_seconds);
            w.key("speedup").value(chan_speedup);
            w.key("identical").value(chan_identical);
        }
        w.end_object();
        if (!sweep_points.empty()) {
            w.key("node_sweep").begin_array();
            for (const SweepPoint& p : sweep_points) {
                w.begin_object();
                w.key("nodes").value(static_cast<std::uint64_t>(p.nodes));
                w.key("sim_seconds").value(sweep_seconds);
                w.key("wall_seconds").value(p.r.wall_seconds);
                w.key("events").value(p.r.events);
                w.key("events_per_sec").value(p.r.events_per_sec);
                w.key("transmissions").value(p.r.transmissions);
                w.end_object();
            }
            w.end_array();
        }
        if (!skip_scenario) {
            w.key("scenario").begin_object();
            w.key("mean_degree").value(degree);
            w.key("area_side_m").value(side);
            for (const experiment::PointRecord& pt : points) {
                w.key(pt.labels[0]).begin_object();
                w.key("wall_seconds").value(pt.mean(wall));
                w.key("events_per_sec").value(pt.mean(eps));
                w.key("result");
                experiment::result_to_json(w, pt.runs.front().result, /*include_perf=*/true);
                w.end_object();
            }
            if (!skip_brute) {
                w.key("speedup").value(scen_speedup);
                w.key("results_identical").value(scen_identical);
            }
            w.end_object();
        }
        if (differential) {
            w.key("differential").begin_object();
            w.key("results_identical").value(diff_identical);
            w.end_object();
        }
        w.end_object();
        const std::string path = args.get("json", std::string{});
        if (experiment::write_text_file(path, w.str()))
            std::printf("wrote %s\n", path.c_str());
    }
    bool ok = diff_identical;
    if (!skip_brute) ok = ok && chan_identical && scen_identical;
    return ok ? 0 : 1;
}
