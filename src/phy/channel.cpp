#include "phy/channel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace geoanon::phy {

namespace {
std::uint64_t frame_uid(const Frame& f) { return f.payload ? f.payload->uid : 0; }
}  // namespace

Radio::Radio(sim::Simulator& sim, Channel& channel, mobility::MobilityModel& model)
    : sim_(sim), channel_(channel) {
    index_ = channel_.register_radio(this, &model);
}

const PhyParams& Radio::phy_params() const { return channel_.params(); }

Vec2 Radio::position() const { return channel_.state_.position(index_, sim_.now()); }

Vec2 Radio::velocity() const { return channel_.state_.velocity(index_, sim_.now()); }

void Radio::set_enabled(bool enabled) { channel_.state_.set_up(index_, enabled); }

bool Radio::enabled() const { return channel_.state_.up(index_); }

void Radio::set_mac_hooks(std::function<void()> on_busy, std::function<void()> on_idle,
                          std::function<void(const Frame&)> on_rx) {
    on_busy_ = std::move(on_busy);
    on_idle_ = std::move(on_idle);
    on_rx_ = std::move(on_rx);
}

void Radio::start_tx(const Frame& frame) {
    assert(!transmitting_ && "half-duplex radio already transmitting");
    ++stats_.frames_sent;
    channel_.start_tx(this, frame);
}

void Radio::begin_own_tx() {
    transmitting_ = true;
    // Half-duplex: transmitting corrupts everything we were receiving.
    for (auto& [id, rx] : receptions_) {
        if (!rx.corrupted) {
            rx.corrupted = true;
            channel_.note_collision();
            ++stats_.frames_corrupted;
        }
    }
    ++energy_count_;
    if (energy_count_ == 1 && on_busy_) on_busy_();
}

void Radio::end_own_tx() {
    transmitting_ = false;
    --energy_count_;
    if (energy_count_ == 0 && on_idle_) on_idle_();
}

void Radio::energy_start(std::uint64_t tx_id, bool decodable, const Frame& frame) {
    // New energy corrupts every ongoing reception here.
    for (auto& [id, rx] : receptions_) {
        if (!rx.corrupted) {
            rx.corrupted = true;
            channel_.note_collision();
            ++stats_.frames_corrupted;
        }
    }
    const bool clear = energy_count_ == 0 && !transmitting_;
    ++energy_count_;
    if (decodable) {
        Reception rx;
        rx.frame = frame;
        rx.corrupted = !clear;
        if (rx.corrupted) {
            channel_.note_collision();
            ++stats_.frames_corrupted;
        }
        receptions_.emplace_back(tx_id, std::move(rx));
    }
    if (energy_count_ == 1 && on_busy_) on_busy_();
}

void Radio::energy_end(std::uint64_t tx_id) {
    --energy_count_;
    auto it = std::find_if(receptions_.begin(), receptions_.end(),
                           [tx_id](const auto& e) { return e.first == tx_id; });
    if (it != receptions_.end()) {
        const bool ok = !it->second.corrupted && !transmitting_;
        Frame frame = std::move(it->second.frame);
        receptions_.erase(it);
        if (ok) {
            if (!enabled()) {
                ++stats_.frames_missed_down;
                GEOANON_TRACE(sim_, .type = obs::EventType::kPhyDrop,
                              .cause = obs::DropCause::kNodeDown, .node = trace_node_,
                              .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                              .detail = static_cast<std::uint64_t>(frame.type));
            } else {
                ++stats_.frames_delivered;
                channel_.note_delivery();
                GEOANON_TRACE(sim_, .type = obs::EventType::kPhyRx, .node = trace_node_,
                              .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                              .detail = static_cast<std::uint64_t>(frame.type));
                if (on_rx_) on_rx_(frame);
            }
        } else {
            GEOANON_TRACE(sim_, .type = obs::EventType::kPhyDrop,
                          .cause = obs::DropCause::kCollision, .node = trace_node_,
                          .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                          .detail = static_cast<std::uint64_t>(frame.type));
        }
    }
    if (energy_count_ == 0 && on_idle_) on_idle_();
}

Channel::Channel(sim::Simulator& sim, PhyParams params) : sim_(sim), params_(params) {
    const double slack_m =
        params_.grid_max_speed_mps * params_.grid_rebucket_interval.to_seconds();
    cell_m_ = std::max(1.0, params_.cs_range_m + slack_m);
}

void Channel::set_snoop(SnoopFn snoop) {
    if (!snoop) {
        if (has_primary_tap_) {
            taps_.erase(taps_.begin());
            has_primary_tap_ = false;
        }
        return;
    }
    if (has_primary_tap_) {
        taps_.front() = std::move(snoop);
    } else {
        taps_.insert(taps_.begin(), std::move(snoop));
        has_primary_tap_ = true;
    }
}

Channel::Cell Channel::cell_of(const Vec2& p) const {
    return Cell{static_cast<std::int32_t>(std::floor(p.x / cell_m_)),
                static_cast<std::int32_t>(std::floor(p.y / cell_m_))};
}

std::uint64_t Channel::cell_key(Cell c) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.x)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.y));
}

EngineState::Index Channel::register_radio(Radio* radio, mobility::MobilityModel* model) {
    const EngineState::Index idx = state_.add_row(model);
    radios_.push_back(radio);
    assert(radios_.size() == state_.size() && "state rows mirror registration order");
    // Registration leaves the grid alone: bucket contents change only in
    // rebucket_if_stale, whose sweep cadence the cell-size slack is derived
    // from. Until that sweep the radio is a candidate for every query.
    unbucketed_.push_back(idx);
    return idx;
}

void Channel::rebucket_if_stale() {
    const SimTime now = sim_.now();
    if (swept_once_ && now - last_sweep_ < params_.grid_rebucket_interval) return;
    swept_once_ = true;
    last_sweep_ = now;
    // Cache-linear sweep over the SoA rows: position legs, cell coords and
    // bucketed flags are all contiguous arrays in EngineState.
    for (std::size_t i = 0; i < radios_.size(); ++i) {
        const auto idx = static_cast<EngineState::Index>(i);
        const Cell c = cell_of(state_.position(idx, now));
        if (state_.bucketed(idx)) {
            const Cell prev{state_.cell_x(idx), state_.cell_y(idx)};
            if (c == prev) continue;
            auto& old_bucket = buckets_[cell_key(prev)];
            old_bucket.erase(
                std::find(old_bucket.begin(), old_bucket.end(), static_cast<std::uint32_t>(i)));
        }
        state_.set_cell(idx, c.x, c.y);
        state_.set_bucketed(idx, true);
        buckets_[cell_key(c)].push_back(static_cast<std::uint32_t>(i));
    }
    unbucketed_.clear();
}

void Channel::deliver_from(Radio* /*sender*/, const Frame& frame, const Vec2& sender_pos,
                           std::uint64_t tx_id, Radio* receiver, const Vec2& rx_pos,
                           std::uint32_t slot) {
    const double d = util::distance(sender_pos, rx_pos);
    if (d > params_.cs_range_m) return;
    bool decodable = d <= params_.range_m;
    if (decodable && drop_ && drop_(frame, sender_pos, rx_pos)) {
        decodable = false;
        ++stats_.impaired;
        GEOANON_TRACE(sim_, .type = obs::EventType::kPhyDrop,
                      .cause = obs::DropCause::kImpaired, .node = receiver->trace_node_,
                      .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                      .detail = static_cast<std::uint64_t>(frame.type));
    }
    // Indexed access, not a cached reference: energy_start can re-enter
    // start_tx through MAC hooks, and a nested acquire may grow tx_slots_.
    tx_slots_[slot].affected.push_back(receiver);
    receiver->energy_start(tx_id, decodable, frame);
}

// geoanon: hot
std::uint32_t Channel::acquire_tx_slot() {
    if (tx_free_ != kNilSlot) {
        const std::uint32_t slot = tx_free_;
        tx_free_ = tx_slots_[slot].next_free;
        return slot;
    }
    return grow_tx_slots();
}

std::uint32_t Channel::grow_tx_slots() {
    // Cold path: only as many slots exist as the peak number of concurrent
    // transmissions ever reached; after warm-up every tx reuses one.
    tx_slots_.emplace_back();
    return static_cast<std::uint32_t>(tx_slots_.size() - 1);
}

// geoanon: hot
void Channel::release_tx_slot(std::uint32_t slot) {
    tx_slots_[slot].affected.clear();  // keeps capacity for the next reuse
    tx_slots_[slot].next_free = tx_free_;
    tx_free_ = slot;
}

// geoanon: hot
void Channel::start_tx(Radio* sender, const Frame& frame) {
    ++stats_.transmissions;
    const std::uint64_t tx_id = next_tx_id_++;
    const SimTime now = sim_.now();
    const Vec2 sender_pos = state_.position(sender->index_, now);
    GEOANON_TRACE(sim_, .type = obs::EventType::kPhyTx, .node = sender->trace_node_,
                  .uid = frame_uid(frame), .bytes = frame.wire_bytes,
                  .detail = static_cast<std::uint64_t>(frame.type));
    for (const auto& tap : taps_) tap(frame, sender_pos);
    for (const auto& tap : audit_taps_) tap(frame, sender_pos, sender->trace_node_);
    const SimTime airtime = params_.airtime(frame.wire_bytes);

    sender->begin_own_tx();

    // Reception membership is decided at transmission start. Both paths
    // visit candidates in registration order, so MAC callbacks (and the
    // events they schedule) fire in the same FIFO order either way. The
    // reception set lives in a pooled slot so the end-of-airtime closure
    // captures 28 bytes (inline in sim::Callback) and steady-state
    // transmissions allocate nothing.
    const std::uint32_t slot = acquire_tx_slot();
    if (params_.brute_force) {
        // Validation path only (every radio is a candidate), so the full
        // upper bound is the right reservation.
        tx_slots_[slot].affected.reserve(radios_.empty() ? 0 : radios_.size() - 1);
        for (std::size_t i = 0; i < radios_.size(); ++i) {
            Radio* r = radios_[i];
            if (r == sender) continue;
            deliver_from(sender, frame, sender_pos, tx_id, r,
                         state_.position(static_cast<EngineState::Index>(i), now), slot);
        }
    } else {
        rebucket_if_stale();
        candidates_.clear();
        const Cell center = cell_of(sender_pos);
        for (std::int32_t dx = -1; dx <= 1; ++dx) {
            for (std::int32_t dy = -1; dy <= 1; ++dy) {
                const auto it = buckets_.find(cell_key({center.x + dx, center.y + dy}));
                if (it == buckets_.end()) continue;
                // geoanon-lint: allow(hot-alloc) -- candidates_ is member scratch: capacity persists across calls, so growth amortizes to zero over the run
                candidates_.insert(candidates_.end(), it->second.begin(), it->second.end());
            }
        }
        // geoanon-lint: allow(hot-alloc) -- member scratch, see above
        candidates_.insert(candidates_.end(), unbucketed_.begin(), unbucketed_.end());
        std::sort(candidates_.begin(), candidates_.end());
        tx_slots_[slot].affected.reserve(candidates_.size());
        for (const std::uint32_t idx : candidates_) {
            Radio* r = radios_[idx];
            if (r == sender) continue;
            deliver_from(sender, frame, sender_pos, tx_id, r,
                         state_.position(idx, now), slot);
        }
    }

    sim_.after(airtime, [this, sender, tx_id, slot] {
        sender->end_own_tx();
        // Indexed loop with a fresh tx_slots_ lookup each pass: energy_end
        // (via the MAC's on_idle hook) can start a new transmission, which
        // may acquire a slot and grow the pool mid-loop.
        for (std::size_t k = 0; k < tx_slots_[slot].affected.size(); ++k) {
            tx_slots_[slot].affected[k]->energy_end(tx_id);
        }
        release_tx_slot(slot);
    });
}

void Radio::publish_metrics(obs::MetricsRegistry& reg) const {
    reg.add("phy.frames_sent", stats_.frames_sent);
    reg.add("phy.frames_delivered", stats_.frames_delivered);
    reg.add("phy.frames_corrupted", stats_.frames_corrupted);
    reg.add("phy.frames_missed_down", stats_.frames_missed_down);
}

void Channel::publish_metrics(obs::MetricsRegistry& reg) const {
    reg.add("phy.transmissions", stats_.transmissions);
    reg.add("phy.deliveries", stats_.deliveries);
    reg.add("phy.collisions", stats_.collisions);
    reg.add("phy.impaired", stats_.impaired);
}

}  // namespace geoanon::phy
