#include "mobility/mobility.hpp"

#include <algorithm>
#include <cassert>

namespace geoanon::mobility {

RandomWaypoint::RandomWaypoint(Area area, Vec2 start, Params params, Rng rng)
    : area_(area), params_(params), rng_(rng) {
    assert(params_.min_speed_mps > 0.0 && params_.max_speed_mps >= params_.min_speed_mps);
    // First leg starts moving immediately (no initial pause), matching the
    // common ns-2 setdest behaviour.
    const Vec2 to = area_.random_point(rng_);
    const double speed = rng_.uniform(params_.min_speed_mps, params_.max_speed_mps);
    const double dist = util::distance(start, to);
    MotionSample s;
    s.start = SimTime::zero();
    s.move_start = SimTime::zero();
    s.end = SimTime::zero() + SimTime::seconds(dist / speed);
    s.from = start;
    s.to = to;
    legs_.push_back(s);
}

void RandomWaypoint::extend_to(SimTime t) {
    while (legs_.back().end < t) {
        const MotionSample& prev = legs_.back();
        MotionSample s;
        s.start = prev.end;
        s.move_start = prev.end + params_.pause;
        s.from = prev.to;
        s.to = area_.random_point(rng_);
        const double speed = rng_.uniform(params_.min_speed_mps, params_.max_speed_mps);
        const double dist = util::distance(s.from, s.to);
        s.end = s.move_start + SimTime::seconds(dist / speed);
        legs_.push_back(s);
    }
}

MotionSample RandomWaypoint::motion_at(SimTime t) {
    extend_to(t);
    // Binary search for the leg containing t (legs tile [0, inf)).
    auto it = std::upper_bound(legs_.begin(), legs_.end(), t,
                               [](SimTime v, const MotionSample& s) { return v < s.end; });
    if (it == legs_.end()) it = legs_.end() - 1;
    return *it;
}

std::vector<Vec2> uniform_placement(const Area& area, std::size_t count, Rng& rng) {
    std::vector<Vec2> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) out.push_back(area.random_point(rng));
    return out;
}

}  // namespace geoanon::mobility
