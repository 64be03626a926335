#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace geoanon::sim;
using geoanon::util::Rng;
using geoanon::util::SimTime;
using namespace geoanon::util::literals;

/// Every kernel-behavior test runs against both event-queue kernels: the
/// timer wheel (production) and the binary heap (reference).
/// They must be observationally identical.
class SimulatorKernels : public ::testing::TestWithParam<QueueKind> {
  protected:
    Simulator sim{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(AllKernels, SimulatorKernels,
                         ::testing::Values(QueueKind::kTimerWheel, QueueKind::kBinaryHeap),
                         [](const auto& info) {
                             return info.param == QueueKind::kTimerWheel ? "TimerWheel"
                                                                         : "BinaryHeap";
                         });

TEST_P(SimulatorKernels, RunsEventsInTimeOrder) {
    std::vector<int> order;
    sim.at(3_s, [&] { order.push_back(3); });
    sim.at(1_s, [&] { order.push_back(1); });
    sim.at(2_s, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(SimulatorKernels, FifoTieBreakAtSameTime) {
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) sim.at(1_s, [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_P(SimulatorKernels, ClockAdvancesToEventTime) {
    SimTime seen{};
    sim.at(5_s, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 5_s);
}

TEST_P(SimulatorKernels, AfterIsRelative) {
    SimTime seen{};
    sim.at(2_s, [&] { sim.after(3_s, [&] { seen = sim.now(); }); });
    sim.run();
    EXPECT_EQ(seen, 5_s);
}

TEST_P(SimulatorKernels, RunUntilStopsAtHorizonAndAdvancesClock) {
    int fired = 0;
    sim.at(1_s, [&] { ++fired; });
    sim.at(10_s, [&] { ++fired; });
    sim.run_until(5_s);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 5_s);
    sim.run_until(20_s);
    EXPECT_EQ(fired, 2);
}

TEST_P(SimulatorKernels, CancelPreventsExecution) {
    bool ran = false;
    const EventId id = sim.at(1_s, [&] { ran = true; });
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(ran);
}

TEST_P(SimulatorKernels, CancelIsIdempotentAndSafeAfterFire) {
    int runs = 0;
    const EventId id = sim.at(1_s, [&] { ++runs; });
    sim.run();
    sim.cancel(id);  // already fired: harmless
    sim.cancel(kInvalidEvent);
    sim.at(2_s, [&] { ++runs; });
    sim.run();
    EXPECT_EQ(runs, 2);
}

TEST_P(SimulatorKernels, PendingEventsSurvivesCancelOfFiredId) {
    // Regression: cancelling an id that has already fired used to leave it in
    // the cancelled set forever, so pending_events() (heap minus cancelled)
    // underflowed as soon as the queue refilled.
    const EventId id = sim.at(1_s, [] {});
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run();
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.cancel(id);  // fired long ago: must not count
    EXPECT_EQ(sim.pending_events(), 0u);
    sim.at(2_s, [] {});
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run();
    EXPECT_EQ(sim.pending_events(), 0u);
}

TEST_P(SimulatorKernels, DoubleCancelCountsOnce) {
    const EventId id = sim.at(1_s, [] {});
    sim.at(2_s, [] {});
    sim.cancel(id);
    sim.cancel(id);  // idempotent: the event is only discounted once
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run();
    EXPECT_EQ(sim.events_processed(), 1u);
    EXPECT_EQ(sim.pending_events(), 0u);
}

TEST_P(SimulatorKernels, CancelledEventLeavesAccountingCleanAfterSkip) {
    const EventId id = sim.at(1_s, [] {});
    sim.cancel(id);
    sim.run();  // the cancelled event is skipped and fully retired
    sim.cancel(id);  // cancelling the skipped id again: no-op
    sim.at(2_s, [] {});
    EXPECT_EQ(sim.pending_events(), 1u);
}

TEST_P(SimulatorKernels, PeakPendingTracksHighWaterMark) {
    EXPECT_EQ(sim.peak_pending(), 0u);
    for (int i = 1; i <= 5; ++i) sim.at(SimTime::seconds(i), [] {});
    EXPECT_EQ(sim.peak_pending(), 5u);
    sim.run();
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_EQ(sim.peak_pending(), 5u);  // high-water mark is sticky
}

TEST_P(SimulatorKernels, PastEventsClampToNow) {
    SimTime when{};
    sim.at(5_s, [&] { sim.at(1_s, [&] { when = sim.now(); }); });
    sim.run();
    EXPECT_EQ(when, 5_s);  // the "past" event ran at the current time
}

TEST_P(SimulatorKernels, StopExitsRunLoop) {
    int fired = 0;
    sim.at(1_s, [&] {
        ++fired;
        sim.stop();
    });
    sim.at(2_s, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    sim.run();  // resumes with remaining events
    EXPECT_EQ(fired, 2);
}

TEST_P(SimulatorKernels, EventsProcessedCount) {
    for (int i = 0; i < 7; ++i) sim.at(SimTime::millis(i), [] {});
    sim.run();
    EXPECT_EQ(sim.events_processed(), 7u);
}

TEST_P(SimulatorKernels, CallbackCanScheduleAtCurrentTime) {
    std::vector<int> order;
    sim.at(1_s, [&] {
        order.push_back(1);
        sim.after(SimTime::zero(), [&] { order.push_back(2); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_P(SimulatorKernels, MoveOnlyCallbackRunsExactlyOnce) {
    // Regression for the pre-arena kernel, which moved the callback out of a
    // const priority_queue top via const_cast — easy to accidentally invoke a
    // moved-from or doubly-moved closure. A move-only capture makes any
    // double-invoke or copy a compile- or run-time error.
    int runs = 0;
    bool token_intact = false;
    auto token = std::make_unique<int>(7);
    sim.at(1_s, [t = std::move(token), &runs, &token_intact] {
        ++runs;
        // A doubly-moved or replayed closure would hold a null unique_ptr.
        token_intact = t != nullptr && *t == 7;
    });
    sim.run();
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(token_intact);
    sim.run();  // queue is empty; the event must not replay
    EXPECT_EQ(runs, 1);
}

TEST_P(SimulatorKernels, AfterSaturatesAtSimTimeMax) {
    // after(huge) from a nonzero now must clamp to SimTime::max(), not
    // overflow. The sentinel lands in the wheel's overflow bucket and still
    // fires, exactly once, when the clock is run all the way out.
    int fired_at_max = 0;
    SimTime seen{};
    sim.at(5_s, [&] {
        sim.after(SimTime::max(), [&] {
            ++fired_at_max;
            seen = sim.now();
        });
    });
    sim.run_until(10_s);
    EXPECT_EQ(fired_at_max, 0);  // horizon short of the sentinel
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run();
    EXPECT_EQ(fired_at_max, 1);
    EXPECT_EQ(seen, SimTime::max());
}

TEST_P(SimulatorKernels, FarFutureEventsBeyondWheelHorizonStayOrdered) {
    // Events farther than the wheel's 2^57 ns span (~4 years) from the
    // cursor go through the overflow bucket; they must still fire in time
    // order, interleaved correctly with near events.
    const double year_s = 365.0 * 24 * 3600;
    std::vector<int> order;
    sim.at(SimTime::seconds(10 * year_s), [&] { order.push_back(3); });
    sim.at(SimTime::seconds(6 * year_s), [&] { order.push_back(2); });
    sim.at(1_s, [&] { order.push_back(1); });
    sim.at(SimTime::seconds(20 * year_s), [&] { order.push_back(4); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

/// Deterministic schedule/cancel storm replayed on both kernels: the exact
/// firing sequences must match event for event. test_golden_result pins the
/// same property on whole runs.
TEST(SimulatorKernelEquivalence, ScheduleCancelStormMatchesAcrossKernels) {
    const auto storm = [](QueueKind kind) {
        Simulator sim(kind);
        Rng rng(1234);
        std::vector<std::pair<std::int64_t, int>> fired;
        std::vector<EventId> open;
        for (int i = 0; i < 2000; ++i) {
            const auto delay = SimTime::nanos(rng.uniform_int(0, 5'000'000));
            open.push_back(sim.at(delay, [&fired, &sim, i] {
                fired.emplace_back(sim.now().ns(), i);
            }));
            // Cancel a pseudo-random earlier event every few schedules.
            if (i % 3 == 0 && !open.empty()) {
                const auto victim =
                    static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1));
                sim.cancel(open[victim]);
            }
        }
        sim.run();
        return fired;
    };
    const auto wheel = storm(QueueKind::kTimerWheel);
    const auto heap = storm(QueueKind::kBinaryHeap);
    EXPECT_EQ(wheel, heap);
    EXPECT_FALSE(wheel.empty());
}

TEST(PeriodicTimer, TicksAtPeriod) {
    Simulator sim;
    PeriodicTimer timer;
    std::vector<SimTime> ticks;
    timer.start(sim, 1_s, 500_ms, [&] { ticks.push_back(sim.now()); });
    sim.run_until(3600_ms);
    ASSERT_EQ(ticks.size(), 4u);  // 0.5, 1.5, 2.5, 3.5
    EXPECT_EQ(ticks[0], 500_ms);
    EXPECT_EQ(ticks[3], 3500_ms);
}

TEST(PeriodicTimer, StopHaltsTicks) {
    Simulator sim;
    PeriodicTimer timer;
    int ticks = 0;
    timer.start(sim, 1_s, 1_s, [&] {
        if (++ticks == 2) timer.stop();
    });
    sim.run_until(10_s);
    EXPECT_EQ(ticks, 2);
    EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, DestructorCancels) {
    Simulator sim;
    int ticks = 0;
    {
        PeriodicTimer timer;
        timer.start(sim, 1_s, 1_s, [&] { ++ticks; });
    }
    sim.run_until(5_s);
    EXPECT_EQ(ticks, 0);
}

TEST(PeriodicTimer, RestartReplacesSchedule) {
    Simulator sim;
    PeriodicTimer timer;
    int a = 0, b = 0;
    timer.start(sim, 1_s, 1_s, [&] { ++a; });
    timer.start(sim, 2_s, 2_s, [&] { ++b; });  // restart with new cadence
    sim.run_until(6500_ms);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 3);  // 2, 4, 6
}

TEST(PeriodicTimer, StopThenRestartTicksAgain) {
    Simulator sim;
    PeriodicTimer timer;
    int first = 0, second = 0;
    timer.start(sim, 1_s, 1_s, [&] { ++first; });
    sim.run_until(2500_ms);
    timer.stop();
    EXPECT_FALSE(timer.running());
    sim.run_until(5_s);
    EXPECT_EQ(first, 2);  // no ticks while stopped
    timer.start(sim, 1_s, 1_s, [&] { ++second; });
    EXPECT_TRUE(timer.running());
    sim.run_until(8500_ms);
    EXPECT_EQ(first, 2);
    EXPECT_EQ(second, 3);  // 6, 7, 8
}

TEST(PeriodicTimer, JitterIsDeterministicPerSeed) {
    const auto run_ticks = [](std::uint64_t seed) {
        Simulator sim;
        Rng rng(seed);
        PeriodicTimer timer;
        std::vector<std::int64_t> ticks;
        timer.start(sim, 1_s, SimTime::zero(), 100_ms, rng,
                    [&] { ticks.push_back(sim.now().ns()); });
        sim.run_until(20_s);
        return ticks;
    };
    const auto a = run_ticks(7);
    const auto b = run_ticks(7);
    const auto c = run_ticks(8);
    EXPECT_EQ(a, b);  // same seed: byte-identical schedule
    EXPECT_NE(a, c);  // different seed: different jitter draws
    // Jitter must actually perturb the nominal cadence.
    ASSERT_GE(a.size(), 2u);
    bool any_offset = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] % 1'000'000'000 != 0) any_offset = true;
    }
    EXPECT_TRUE(any_offset);
}

TEST(PeriodicTimer, ZeroJitterDrawsNoRng) {
    // Enabling the jitter knob at zero must not consume RNG draws, so turning
    // it on cannot perturb replay of a run recorded without it.
    Simulator sim;
    Rng rng(42);
    Rng control(42);
    PeriodicTimer timer;
    int ticks = 0;
    timer.start(sim, 1_s, SimTime::zero(), SimTime::zero(), rng, [&] { ++ticks; });
    sim.run_until(5500_ms);
    EXPECT_EQ(ticks, 6);
    EXPECT_EQ(rng.uniform_int(0, 1 << 30), control.uniform_int(0, 1 << 30));
}

}  // namespace
