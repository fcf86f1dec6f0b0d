#include "mpisim/match_queue.hpp"

namespace mpisim {

void MatchQueue::deposit(InboundMessage msg) {
  std::unique_lock lock(mu_);
  if (aborted_) return;  // job is dying; drop silently
  Lane* target = exact_lane(msg.source, msg.tag);
  if (target == nullptr) {
    std::unique_ptr<Lane>& slot = lanes_[key(msg.source, msg.tag)];
    slot = std::make_unique<Lane>(Lane{msg.source, msg.tag, 0, {}});
    target = slot.get();
    by_tag_[msg.tag].push_back(target);
  }
  target->fifo.push_back({next_seq_++, std::move(msg)});
  ++pending_;
  arrived_.wake_all(lock);
}

MatchQueue::Lane* MatchQueue::exact_lane(Rank source, int tag) const {
  const auto it = lanes_.find(key(source, tag));
  return it == lanes_.end() ? nullptr : it->second.get();
}

MatchQueue::Lane* MatchQueue::find(Rank source, int tag) const {
  if (source != kAnySource && tag != kAnyTag) {
    Lane* exact = exact_lane(source, tag);
    return exact == nullptr || exact->empty() ? nullptr : exact;
  }
  Lane* best = nullptr;
  auto consider = [&](Lane* candidate) {
    if (candidate->empty()) return;
    if (best == nullptr || candidate->front().seq < best->front().seq) {
      best = candidate;
    }
  };
  if (source == kAnySource && tag != kAnyTag) {
    const auto it = by_tag_.find(tag);
    if (it != by_tag_.end()) {
      for (Lane* candidate : it->second) consider(candidate);
    }
    return best;
  }
  for (const auto& entry : lanes_) {
    Lane* candidate = entry.second.get();
    if (source == kAnySource || candidate->source == source) {
      consider(candidate);
    }
  }
  return best;
}

InboundMessage MatchQueue::pop(Lane& lane) {
  InboundMessage msg = std::move(lane.fifo[lane.head++].msg);
  if (lane.empty()) {
    lane.fifo.clear();
    lane.head = 0;
  } else if (lane.head >= 64 && 2 * lane.head >= lane.fifo.size()) {
    // A lane that never drains: drop the consumed prefix, amortised O(1).
    lane.fifo.erase(lane.fifo.begin(),
                    lane.fifo.begin() + static_cast<std::ptrdiff_t>(lane.head));
    lane.head = 0;
  }
  --pending_;
  return msg;
}

InboundMessage MatchQueue::match_blocking(Rank source, int tag) {
  std::unique_lock lock(mu_);
  Lane* lane = nullptr;
  arrived_.wait(lock, [&] {
    if (aborted_) return true;
    lane = find(source, tag);
    return lane != nullptr;
  });
  if (aborted_) throw WorldAborted(abort_reason_);
  return pop(*lane);
}

std::optional<InboundMessage> MatchQueue::try_match(Rank source, int tag) {
  std::lock_guard lock(mu_);
  if (aborted_) throw WorldAborted(abort_reason_);
  Lane* lane = find(source, tag);
  if (lane == nullptr) return std::nullopt;
  return pop(*lane);
}

std::optional<Envelope> MatchQueue::probe(Rank source, int tag) const {
  const Pattern pattern{source, tag};
  const auto hit = try_probe_any({&pattern, 1});
  if (!hit) return std::nullopt;
  return hit->second;
}

Envelope MatchQueue::probe_blocking(Rank source, int tag) {
  const Pattern pattern{source, tag};
  return probe_any_blocking({&pattern, 1}).second;
}

std::pair<std::size_t, Envelope> MatchQueue::probe_any_blocking(
    std::span<const Pattern> patterns) {
  std::unique_lock lock(mu_);
  std::optional<std::pair<std::size_t, Envelope>> hit;
  arrived_.wait(lock, [&] {
    if (aborted_) return true;
    hit = first(patterns);
    return hit.has_value();
  });
  if (aborted_) throw WorldAborted(abort_reason_);
  return *hit;
}

std::optional<std::pair<std::size_t, Envelope>> MatchQueue::try_probe_any(
    std::span<const Pattern> patterns) const {
  std::lock_guard lock(mu_);
  if (aborted_) throw WorldAborted(abort_reason_);
  return first(patterns);
}

std::optional<std::pair<std::size_t, Envelope>> MatchQueue::first(
    std::span<const Pattern> patterns) const {
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    if (const Lane* lane = find(patterns[p].source, patterns[p].tag)) {
      return {{p, envelope(lane->front().msg)}};
    }
  }
  return std::nullopt;
}

std::size_t MatchQueue::pending() const {
  std::lock_guard lock(mu_);
  return pending_;
}

void MatchQueue::abort(const std::string& reason) {
  std::unique_lock lock(mu_);
  aborted_ = true;
  abort_reason_ = reason;
  arrived_.wake_all(lock);
}

}  // namespace mpisim
