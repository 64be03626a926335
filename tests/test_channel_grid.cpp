// Spatial-hash channel vs brute-force scan: the grid is an index, not a
// model change, so every observable outcome must be bit-identical. The
// matrix tests run whole scenarios twice (scheme x fault class) and compare
// the full serialized ScenarioResult; the rig tests pin down the geometric
// edge cases the 9-cell query must survive.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "experiment/json.hpp"
#include "mobility/mobility.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace geoanon;
using phy::Channel;
using phy::Frame;
using phy::PhyParams;
using phy::Radio;
using util::SimTime;
using util::Vec2;
using workload::ScenarioConfig;
using workload::ScenarioResult;
using workload::ScenarioRunner;
using workload::Scheme;

// ---------------------------------------------------------------------------
// Scenario equivalence matrix

ScenarioConfig matrix_config(Scheme scheme, std::uint64_t seed = 5) {
    ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.num_nodes = 25;
    cfg.sim_seconds = 40.0;
    cfg.traffic_stop_s = 35.0;
    cfg.seed = seed;
    return cfg;
}

/// Run `cfg` with the grid and with the brute-force scan; the serialized
/// results (every deterministic field) must match byte for byte.
void expect_equivalent(ScenarioConfig cfg) {
    cfg.phy.brute_force = false;
    const ScenarioResult grid = ScenarioRunner(cfg).run();
    cfg.phy.brute_force = true;
    const ScenarioResult brute = ScenarioRunner(cfg).run();
    EXPECT_EQ(grid.events_processed, brute.events_processed);
    EXPECT_EQ(experiment::result_to_json(grid), experiment::result_to_json(brute));
}

TEST(ChannelGridEquivalence, GpsrGreedy) { expect_equivalent(matrix_config(Scheme::kGpsrGreedy)); }

TEST(ChannelGridEquivalence, AgfwAck) { expect_equivalent(matrix_config(Scheme::kAgfwAck)); }

TEST(ChannelGridEquivalence, AgfwNoAck) { expect_equivalent(matrix_config(Scheme::kAgfwNoAck)); }

TEST(ChannelGridEquivalence, UnderChurn) {
    ScenarioConfig cfg = matrix_config(Scheme::kAgfwAck, 7);
    fault::FaultPlan::Churn churn;
    churn.crash_rate_per_s = 0.5;
    churn.start = SimTime::seconds(5.0);
    churn.max_concurrent_down = 5;
    cfg.faults.churn = churn;
    cfg.faults.seed = 21;
    expect_equivalent(cfg);
}

TEST(ChannelGridEquivalence, UnderBurstLossAndJam) {
    // Stateful drop models (the Gilbert-Elliott chain advances per decode
    // decision) are the sharpest equivalence probe: a single reordered or
    // extra candidate visit desynchronizes the RNG chain for the whole run.
    ScenarioConfig cfg = matrix_config(Scheme::kAgfwAck, 9);
    fault::FaultPlan::GilbertElliott ge;
    ge.start = SimTime::seconds(5.0);
    cfg.faults.gilbert_elliott = ge;
    fault::FaultPlan::Jam jam;
    jam.center = {750.0, 150.0};
    jam.radius_m = 200.0;
    jam.start = SimTime::seconds(10.0);
    jam.stop = SimTime::seconds(25.0);
    cfg.faults.jams.push_back(jam);
    expect_equivalent(cfg);
}

TEST(ChannelGridEquivalence, UnderCrashesGpsNoiseAndAlsOutage) {
    ScenarioConfig cfg = matrix_config(Scheme::kAgfwAck, 13);
    cfg.location_service = routing::LocationService::Mode::kAnonymous;
    cfg.traffic_start_s = 15.0;
    cfg.faults.crashes.push_back({3, SimTime::seconds(12.0), SimTime::seconds(10.0)});
    cfg.faults.crashes.push_back({8, SimTime::seconds(20.0), SimTime{}});
    fault::FaultPlan::GpsNoise gps;
    gps.sigma_m = 10.0;
    cfg.faults.gps_noise = gps;
    cfg.faults.als_outages.push_back({5, SimTime::seconds(18.0)});
    expect_equivalent(cfg);
}

TEST(ChannelGridEquivalence, RangeEqualsCsRange) {
    // Degenerate geometry the issue calls out: decode range == carrier-sense
    // range, so the cs pre-filter and the decode test coincide.
    ScenarioConfig cfg = matrix_config(Scheme::kAgfwAck, 17);
    cfg.phy.range_m = 250.0;
    cfg.phy.cs_range_m = 250.0;
    expect_equivalent(cfg);
}

// ---------------------------------------------------------------------------
// Rig-level edge cases (same rig shape as test_phy.cpp)

/// Sits at `before` until `at`, where a one-nanosecond leg lands it at
/// `after` (positions are sampled on the integer-nanosecond clock, so no
/// query ever sees the node mid-leg).
class Teleport final : public mobility::MobilityModel {
  public:
    Teleport(Vec2 before, SimTime at, Vec2 after) : before_(before), at_(at), after_(after) {}
    mobility::MotionSample motion_at(SimTime t) override {
        if (t < at_) return {SimTime::zero(), at_ - SimTime::nanos(1), at_, before_, after_};
        return {at_, at_, SimTime::max(), after_, after_};
    }

  private:
    Vec2 before_;
    SimTime at_;
    Vec2 after_;
};

struct Rig {
    explicit Rig(PhyParams params = {}) : channel(sim, params) {}

    Radio& add(std::unique_ptr<mobility::MobilityModel> model) {
        models.push_back(std::move(model));
        radios.push_back(std::make_unique<Radio>(sim, channel, *models.back()));
        received.emplace_back();
        auto idx = received.size() - 1;
        radios.back()->set_mac_hooks(
            nullptr, nullptr, [this, idx](const Frame& f) { received[idx].push_back(f); });
        return *radios.back();
    }
    Radio& add(Vec2 pos) { return add(std::make_unique<mobility::StationaryMobility>(pos)); }

    Frame frame(std::uint32_t bytes = 100) {
        Frame f;
        f.type = Frame::Type::kData;
        f.wire_bytes = bytes;
        return f;
    }

    sim::Simulator sim;
    Channel channel;
    std::vector<std::unique_ptr<mobility::MobilityModel>> models;  // outlive radios
    std::vector<std::unique_ptr<Radio>> radios;
    std::vector<std::vector<Frame>> received;
};

/// Stationary grid (no mobility slack): cell size is exactly cs_range_m.
PhyParams static_grid_params() {
    PhyParams p;
    p.grid_max_speed_mps = 0.0;
    return p;
}

TEST(ChannelGrid, DeliveryAtExactDecodeRange) {
    Rig rig(static_grid_params());
    Radio& tx = rig.add({0, 0});
    rig.add({250, 0});  // d == range_m exactly
    rig.add({250.001, 0});
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(rig.received[1].size(), 1u);
    EXPECT_TRUE(rig.received[2].empty());
}

TEST(ChannelGrid, NodesExactlyOnCellBoundaries) {
    // Cell size is 550 m here. Positions at exact multiples of the cell size
    // land on bucket edges; receivers one cell over (including diagonal)
    // must still be found, and in-range delivery must be unaffected.
    Rig rig(static_grid_params());
    Radio& tx = rig.add({550.0, 550.0});  // corner of four cells
    rig.add({550.0 - 200.0, 550.0});      // cell (0,1) in x, in range
    rig.add({550.0 + 200.0, 550.0});      // cell (1,1), in range
    rig.add({550.0, 550.0 - 200.0});      // cell (1,0) via y edge... in range
    rig.add({550.0 - 150.0, 550.0 - 150.0});  // diagonal neighbor cell
    rig.add({1100.0, 550.0});             // exactly on next boundary, d=550: cs only
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(rig.received[1].size(), 1u);
    EXPECT_EQ(rig.received[2].size(), 1u);
    EXPECT_EQ(rig.received[3].size(), 1u);
    EXPECT_EQ(rig.received[4].size(), 1u);
    EXPECT_TRUE(rig.received[5].empty());  // in cs range only: energy, no decode
    EXPECT_EQ(rig.channel.stats().deliveries, 4u);
}

TEST(ChannelGrid, NegativeCoordinatesBucketCorrectly) {
    Rig rig(static_grid_params());
    Radio& tx = rig.add({-10.0, -10.0});  // cell (-1,-1)
    rig.add({100.0, 100.0});              // cell (0,0), d ~ 155 m
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(rig.received[1].size(), 1u);
}

TEST(ChannelGrid, MovingRadioIsReBucketed) {
    // The receiver starts out of decode range, then drifts in. With a short
    // rebucket interval every transmission sees a fresh sweep, so the grid
    // tracks the motion leg without any explicit notification.
    PhyParams p;
    p.grid_rebucket_interval = SimTime::micros(1);
    p.grid_max_speed_mps = 0.0;
    Rig rig(p);
    Radio& tx = rig.add({0, 0});
    rig.add(std::make_unique<Teleport>(Vec2{2000.0, 0.0}, SimTime::seconds(1.0),
                                       Vec2{200.0, 0.0}));
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });
    rig.sim.at(SimTime::seconds(1.0), [&] { tx.start_tx(rig.frame()); });
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);  // only the second frame
}

TEST(ChannelGrid, StaleBucketStillExactWithinSpeedHint) {
    // Between sweeps a radio may sit in a stale bucket; the mobility slack in
    // the cell size must keep it reachable. Drift right up to the worst case:
    // speed hint x interval metres between two transmissions inside one
    // sweep period.
    PhyParams p;
    p.grid_rebucket_interval = SimTime::seconds(10.0);
    p.grid_max_speed_mps = 50.0;  // slack = 500 m
    Rig rig(p);
    Radio& tx = rig.add({0, 0});
    // Out of range and bucketed at t=0; drifts 490 m < slack by 9.9 s, with
    // no sweep in between.
    rig.add(std::make_unique<Teleport>(Vec2{700.0, 0.0}, SimTime::seconds(9.9),
                                       Vec2{210.0, 0.0}));
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });  // sweeps at t=0
    rig.sim.at(SimTime::seconds(9.9), [&] { tx.start_tx(rig.frame()); });
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
}

TEST(ChannelGrid, LateRegisteredRadioHeardBeforeFirstSweep) {
    // A radio added mid-run sits on the unbucketed list until the next sweep;
    // it must already be a reception candidate in that window.
    PhyParams p;
    p.grid_rebucket_interval = SimTime::seconds(100.0);
    Rig rig(p);
    Radio& tx = rig.add({0, 0});
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });  // sweep happens
    rig.sim.at(SimTime::seconds(1.0), [&] {
        rig.add({100.0, 0.0});  // registered long before the next sweep
    });
    rig.sim.at(SimTime::seconds(2.0), [&] { tx.start_tx(rig.frame()); });
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
}

TEST(ChannelGrid, BruteForceConfigFlag) {
    PhyParams p;
    p.brute_force = true;
    Rig rig(p);
    EXPECT_TRUE(rig.channel.brute_force());
    Radio& tx = rig.add({0, 0});
    rig.add({200, 0});
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(rig.received[1].size(), 1u);
}

}  // namespace
