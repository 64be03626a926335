#pragma once

#include <memory>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace geoanon::mobility {

using util::Rng;
using util::SimTime;
using util::Vec2;

/// Rectangular simulation area with origin (0,0); the paper uses 1500 x 300 m.
struct Area {
    double width{1500.0};
    double height{300.0};

    bool contains(const Vec2& p) const {
        return p.x >= 0.0 && p.x <= width && p.y >= 0.0 && p.y <= height;
    }
    Vec2 center() const { return {width / 2.0, height / 2.0}; }
    Vec2 random_point(Rng& rng) const {
        return {rng.uniform(0.0, width), rng.uniform(0.0, height)};
    }
};

/// One piecewise-linear motion leg, snapshotted for cache-friendly
/// re-evaluation outside the model: the node pauses at `from` until
/// `move_start`, then travels linearly to `to`, arriving at `end`. The
/// sample answers queries for any t in [start, end); at or past `end` it is
/// stale and the caller must fetch a fresh one.
///
/// phy::EngineState keeps these in structure-of-arrays rows so the hello
/// sweep and grid queries evaluate positions from contiguous memory instead
/// of a virtual call + segment binary search per node per query.
struct MotionSample {
    SimTime start{};       // sample valid from here
    SimTime move_start{};  // travel begins (== start when not pausing)
    SimTime end{};         // arrival at `to`; stale at and after this time
    Vec2 from{};
    Vec2 to{};
};

/// Evaluate a sample at `t`. Every position in the simulator comes through
/// here (MobilityModel::position_at and phy::EngineState's cached legs
/// alike), so the two agree bit for bit by construction: one expression, one
/// operation order (floating point is not associative).
inline Vec2 sample_position(const MotionSample& s, SimTime t) {
    if (t <= s.move_start) return s.from;
    const double travel = (s.end - s.move_start).to_seconds();
    if (travel <= 0.0 || t >= s.end) return s.to;
    const double frac = (t - s.move_start).to_seconds() / travel;
    return s.from + (s.to - s.from) * frac;
}

/// Companion of sample_position for velocities (zero while paused).
inline Vec2 sample_velocity(const MotionSample& s, SimTime t) {
    if (t <= s.move_start || t >= s.end) return {};
    const double travel = (s.end - s.move_start).to_seconds();
    if (travel <= 0.0) return {};
    return (s.to - s.from) / travel;
}

/// Position-over-time model for one node, described as piecewise-linear
/// motion legs. Implementations must be deterministic functions of their
/// seed; queries may come in any time order.
class MobilityModel {
  public:
    virtual ~MobilityModel() = default;
    /// The motion leg containing `t` (t >= 0): start <= t < end, or the last
    /// leg when t lies at or past its end.
    virtual MotionSample motion_at(SimTime t) = 0;
    /// Node position at simulation time `t`.
    Vec2 position_at(SimTime t) { return sample_position(motion_at(t), t); }
    /// Velocity vector at `t` (zero when paused); lets forwarding strategies
    /// exploit predictable motion (§3.1.1).
    Vec2 velocity_at(SimTime t) { return sample_velocity(motion_at(t), t); }
};

/// Node that never moves.
class StationaryMobility final : public MobilityModel {
  public:
    explicit StationaryMobility(Vec2 pos) : pos_(pos) {}
    /// One degenerate leg covering all of time: from == to pins the position
    /// and zeroes the velocity.
    MotionSample motion_at(SimTime) override {
        return {SimTime::zero(), SimTime::zero(), SimTime::max(), pos_, pos_};
    }

  private:
    Vec2 pos_;
};

/// Random-waypoint mobility (the CMU/ns-2 model the paper uses): pick a
/// uniform destination in the area and a uniform speed in [min,max], travel
/// there in a straight line, pause, repeat. Legs are generated lazily and
/// cached so arbitrary-time queries stay O(log n).
class RandomWaypoint final : public MobilityModel {
  public:
    struct Params {
        double min_speed_mps{1.0};
        double max_speed_mps{20.0};  // paper: up to 20 m/s
        SimTime pause{SimTime::seconds(60.0)};  // paper: 60 s pause
    };

    RandomWaypoint(Area area, Vec2 start, Params params, Rng rng);

    MotionSample motion_at(SimTime t) override;

  private:
    void extend_to(SimTime t);

    Area area_;
    Params params_;
    Rng rng_;
    /// Legs tiling [0, back().end): each pauses at `from` until move_start,
    /// then travels to `to`, arriving at end.
    std::vector<MotionSample> legs_;
};

/// Uniformly place `count` nodes in `area` (deterministic in rng).
std::vector<Vec2> uniform_placement(const Area& area, std::size_t count, Rng& rng);

}  // namespace geoanon::mobility
