#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "mobility/mobility.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace geoanon;
using namespace geoanon::util::literals;
using phy::Channel;
using phy::Frame;
using phy::PhyParams;
using phy::Radio;
using util::SimTime;
using util::Vec2;

/// Test rig: a channel plus stationary radios with received-frame capture.
struct Rig {
    explicit Rig(PhyParams params = {}) : channel(sim, params) {}

    Radio& add(Vec2 pos) {
        models.push_back(std::make_unique<mobility::StationaryMobility>(pos));
        radios.push_back(std::make_unique<Radio>(sim, channel, *models.back()));
        received.emplace_back();
        auto idx = received.size() - 1;
        radios.back()->set_mac_hooks(
            nullptr, nullptr, [this, idx](const Frame& f) { received[idx].push_back(f); });
        return *radios.back();
    }

    Frame frame(std::uint32_t bytes = 100) {
        Frame f;
        f.type = Frame::Type::kData;
        f.wire_bytes = bytes;
        return f;
    }

    sim::Simulator sim;
    Channel channel;
    std::vector<std::unique_ptr<mobility::StationaryMobility>> models;  // outlive radios
    std::vector<std::unique_ptr<Radio>> radios;
    std::vector<std::vector<Frame>> received;
};

TEST(PhyParams, AirtimeFormula) {
    PhyParams p;
    // 100 bytes at 2 Mb/s = 400 us + 192 us PLCP.
    EXPECT_EQ(p.airtime(100), SimTime::micros(592));
    EXPECT_EQ(p.airtime(0), SimTime::micros(192));
}

TEST(Phy, DeliversWithinRange) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({200, 0});  // inside 250 m
    tx.start_tx(rig.frame());
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
    EXPECT_EQ(rig.received[1][0].wire_bytes, 100u);
    EXPECT_EQ(rig.channel.stats().deliveries, 1u);
}

TEST(Phy, NoDeliveryBeyondRange) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({251, 0});  // just outside decode range
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_TRUE(rig.received[1].empty());
}

TEST(Phy, SenderDoesNotHearItself) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_TRUE(rig.received[0].empty());
}

TEST(Phy, DeliveryAtExactFrameEnd) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({100, 0});
    tx.start_tx(rig.frame(100));
    rig.sim.run_until(SimTime::micros(591));
    EXPECT_TRUE(rig.received[1].empty());  // still on the air
    rig.sim.run_until(SimTime::micros(592));
    EXPECT_EQ(rig.received[1].size(), 1u);
}

TEST(Phy, OverlappingTransmissionsCollideAtReceiver) {
    Rig rig;
    Radio& a = rig.add({0, 0});
    Radio& b = rig.add({100, 100});
    rig.add({100, 0});  // hears both
    rig.sim.at(SimTime::zero(), [&] { a.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(100), [&] { b.start_tx(rig.frame()); });
    rig.sim.run();
    EXPECT_TRUE(rig.received[2].empty());
    EXPECT_GE(rig.channel.stats().collisions, 1u);
}

TEST(Phy, HiddenTerminalCollision) {
    // Two senders out of carrier-sense range of each other, one receiver
    // that decodes both: the classic hidden-terminal loss AGFW's broadcasts
    // suffer from (§5). CS range is shrunk so the textbook geometry fits.
    PhyParams p;
    p.range_m = 250;
    p.cs_range_m = 300;
    Rig rig(p);
    Radio& s1 = rig.add({0, 0});
    Radio& s2 = rig.add({400, 0});  // 400 > 300: hidden from s1
    rig.add({200, 0});              // within 250 m of both
    rig.sim.at(SimTime::zero(), [&] { s1.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(50), [&] {
        EXPECT_FALSE(s2.energy_busy());  // s2 cannot sense s1: hidden terminal
        s2.start_tx(rig.frame());
    });
    rig.sim.run();
    EXPECT_TRUE(rig.received[2].empty());  // both frames corrupted at m
    EXPECT_GE(rig.channel.stats().collisions, 1u);
}

TEST(Phy, InterferenceFromBeyondCsOfSender) {
    // With the ns-2 default geometry (250 m decode / 550 m CS), a node more
    // than 550 m from the sender cannot defer to it, yet still corrupts a
    // receiver sitting within 250 m of the sender — the collision mode that
    // actually drives AGFW's broadcast losses on the 1500x300 strip.
    Rig rig;
    Radio& sender = rig.add({0, 0});
    Radio& interferer = rig.add({640, 0});  // > 550 from sender
    rig.add({240, 0});                      // decodes sender; 400 m from interferer
    rig.sim.at(SimTime::zero(), [&] { sender.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(80), [&] {
        EXPECT_FALSE(interferer.energy_busy());
        interferer.start_tx(rig.frame());
    });
    rig.sim.run();
    EXPECT_TRUE(rig.received[2].empty());
}

TEST(Phy, InterferenceRangeCorruptsWithoutDelivering) {
    // A transmitter between decode range and CS range corrupts reception but
    // its own frame is not decodable there.
    Rig rig;
    Radio& near = rig.add({0, 0});
    Radio& far = rig.add({400, 0});  // 400: beyond 250, inside 550 of rx
    rig.add({100, 0});
    rig.sim.at(SimTime::zero(), [&] { near.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(100), [&] { far.start_tx(rig.frame()); });
    rig.sim.run();
    EXPECT_TRUE(rig.received[2].empty());
}

TEST(Phy, CarrierSenseWithinCsRange) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    Radio& sensing = rig.add({500, 0});    // inside 550 CS range
    Radio& oblivious = rig.add({600, 0});  // outside
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });
    rig.sim.at(SimTime::micros(50), [&] {
        EXPECT_TRUE(sensing.energy_busy());
        EXPECT_FALSE(oblivious.energy_busy());
        EXPECT_TRUE(tx.energy_busy());  // own transmission counts
    });
    rig.sim.run();
    rig.sim.at(rig.sim.now(), [&] {});
    EXPECT_FALSE(sensing.energy_busy());  // idle after frame end
}

TEST(Phy, BusyIdleCallbacks) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    Radio& rx = rig.add({100, 0});
    int busy = 0, idle = 0;
    rx.set_mac_hooks([&] { ++busy; }, [&] { ++idle; }, nullptr);
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(busy, 1);
    EXPECT_EQ(idle, 1);
}

TEST(Phy, TransmittingWhileReceivingCorrupts) {
    Rig rig;
    Radio& a = rig.add({0, 0});
    Radio& b = rig.add({100, 0});
    rig.sim.at(SimTime::zero(), [&] { a.start_tx(rig.frame()); });
    // b starts its own transmission mid-reception: half-duplex corruption.
    rig.sim.at(SimTime::micros(100), [&] { b.start_tx(rig.frame(10)); });
    rig.sim.run();
    EXPECT_TRUE(rig.received[1].empty());
    // a still cannot hear b (a was transmitting at b's start too).
    EXPECT_TRUE(rig.received[0].empty());
}

TEST(Phy, BackToBackFramesBothDeliver) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({100, 0});
    const SimTime air = rig.channel.params().airtime(100);
    rig.sim.at(SimTime::zero(), [&] { tx.start_tx(rig.frame()); });
    rig.sim.at(air + 1_us, [&] { tx.start_tx(rig.frame()); });
    rig.sim.run();
    EXPECT_EQ(rig.received[1].size(), 2u);
}

TEST(Phy, SnoopSeesEveryTransmission) {
    Rig rig;
    int snooped = 0;
    rig.channel.set_snoop([&](const Frame&, const Vec2& pos) {
        ++snooped;
        EXPECT_EQ(pos, (Vec2{0, 0}));
    });
    Radio& tx = rig.add({0, 0});
    rig.add({1000, 0});  // no receivers in range: snoop still fires
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(snooped, 1);
}

TEST(Phy, SnoopAndTapsShareOneDispatchList) {
    // set_snoop owns the primary slot (replaced, not appended); add_snoop
    // appends independent taps. All observers see every transmission.
    Rig rig;
    int replaced = 0, primary = 0, extra = 0;
    rig.channel.set_snoop([&](const Frame&, const Vec2&) { ++replaced; });
    rig.channel.add_snoop([&](const Frame&, const Vec2&) { ++extra; });
    rig.channel.set_snoop([&](const Frame&, const Vec2&) { ++primary; });
    Radio& tx = rig.add({0, 0});
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(replaced, 0);  // displaced by the second set_snoop
    EXPECT_EQ(primary, 1);
    EXPECT_EQ(extra, 1);
    rig.channel.set_snoop(nullptr);  // clears only the primary slot
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(primary, 1);
    EXPECT_EQ(extra, 2);
}

TEST(Phy, PrimarySnoopAlwaysDispatchedFirst) {
    // Contract (channel.hpp): the set_snoop() tap occupies slot 0 and fires
    // before every add_snoop() tap, even when it is registered last — trace
    // event order depends on this.
    Rig rig;
    std::vector<int> order;
    rig.channel.add_snoop([&](const Frame&, const Vec2&) { order.push_back(1); });
    rig.channel.add_snoop([&](const Frame&, const Vec2&) { order.push_back(2); });
    rig.channel.set_snoop([&](const Frame&, const Vec2&) { order.push_back(0); });
    Radio& tx = rig.add({0, 0});
    tx.start_tx(rig.frame());
    rig.sim.run_until(1_s);  // finite horizon: the rig transmits again below
    ASSERT_EQ(order, (std::vector<int>{0, 1, 2}));

    // Replacing the primary keeps slot 0; add_snoop order is preserved.
    order.clear();
    rig.channel.set_snoop([&](const Frame&, const Vec2&) { order.push_back(-1); });
    tx.start_tx(rig.frame());
    rig.sim.run_until(2_s);
    ASSERT_EQ(order, (std::vector<int>{-1, 1, 2}));
}

TEST(Phy, ClearSnoopsDropsEveryTap) {
    Rig rig;
    int primary = 0, extra = 0;
    rig.channel.set_snoop([&](const Frame&, const Vec2&) { ++primary; });
    rig.channel.add_snoop([&](const Frame&, const Vec2&) { ++extra; });
    rig.channel.clear_snoops();
    Radio& tx = rig.add({0, 0});
    tx.start_tx(rig.frame());
    rig.sim.run_until(1_s);  // finite horizon: the rig transmits again below
    EXPECT_EQ(primary, 0);
    EXPECT_EQ(extra, 0);

    // The channel is reusable after clearing: set_snoop reclaims slot 0.
    rig.channel.set_snoop([&](const Frame&, const Vec2&) { ++primary; });
    tx.start_tx(rig.frame());
    rig.sim.run_until(2_s);
    EXPECT_EQ(primary, 1);
}

TEST(Phy, StatsCountersConsistent) {
    Rig rig;
    Radio& tx = rig.add({0, 0});
    rig.add({100, 0});
    rig.add({200, 0});
    tx.start_tx(rig.frame());
    rig.sim.run();
    EXPECT_EQ(rig.channel.stats().transmissions, 1u);
    EXPECT_EQ(rig.channel.stats().deliveries, 2u);
    EXPECT_EQ(tx.stats().frames_sent, 1u);
    EXPECT_EQ(rig.radios[1]->stats().frames_delivered, 1u);
}

bool same_bits(Vec2 a, Vec2 b) {
    return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
           std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

TEST(Phy, RadioPositionMatchesModelBitForBit) {
    // A radio's position comes from the motion leg its EngineState row has
    // cached. Whichever leg that is (earlier or later than the query), the
    // radio must report what the model itself does, bit for bit.
    const mobility::Area area{1500, 300};
    mobility::RandomWaypoint::Params params;
    params.pause = SimTime::seconds(5.0);
    mobility::RandomWaypoint model(area, {100, 100}, params, util::Rng(7));
    mobility::RandomWaypoint twin(area, {100, 100}, params, util::Rng(7));  // reference
    sim::Simulator sim;
    Channel channel(sim, {});
    Radio radio(sim, channel, model);

    // Every leg's start, pause end and arrival instant, their one-nanosecond
    // neighbours, and a point mid-travel.
    std::vector<SimTime> times;
    for (SimTime t = SimTime::zero(); t < SimTime::seconds(1800.0);) {
        const mobility::MotionSample leg = twin.motion_at(t);
        const SimTime mid = SimTime::nanos((leg.move_start.ns() + leg.end.ns()) / 2);
        for (SimTime q : {leg.start, leg.start + 1_ns, leg.move_start - 1_ns, leg.move_start,
                          leg.move_start + 1_ns, mid, leg.end - 1_ns, leg.end})
            if (q >= SimTime::zero()) times.push_back(q);
        t = leg.end + 1_ns;  // motion_at(leg.end) may still return this leg
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    ASSERT_GT(times.size(), 50u);

    // Before each radio query, prime the row at a shuffled partner time so
    // the cached leg may lie before, at or after the query.
    std::vector<SimTime> partner = times;
    util::Rng rng(11);
    for (std::size_t i = partner.size() - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(partner[i], partner[j]);
    }

    int backwards = 0;
    for (std::size_t k = 0; k < times.size(); ++k) {
        sim.at(times[k], [&, k] {
            const SimTime t = times[k];
            const SimTime q = partner[k];
            EXPECT_TRUE(same_bits(channel.state().position(radio.index(), q), twin.position_at(q)))
                << "prime t=" << q.ns();
            if (twin.motion_at(q).start > t) ++backwards;
            EXPECT_TRUE(same_bits(radio.position(), twin.position_at(t))) << "t=" << t.ns();
            EXPECT_TRUE(same_bits(radio.velocity(), twin.velocity_at(t))) << "t=" << t.ns();
        });
    }
    sim.run();
    EXPECT_GT(backwards, 0);  // some queries refreshed to an earlier leg
}

}  // namespace
