#include "mpisim/reliable.hpp"

#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "simtime/timeseries.hpp"
#include "simtime/tracebuf.hpp"

namespace mpisim::reliable {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<simtime::SimTime> g_backoff_base{simtime::us(500.0)};
std::atomic<int> g_max_retries{3};
std::atomic<Observer> g_observer{nullptr};

std::atomic<std::uint64_t> g_acks{0};
std::atomic<std::uint64_t> g_retransmits{0};
std::atomic<std::uint64_t> g_duplicates{0};
std::atomic<std::uint64_t> g_corrupt{0};
std::atomic<std::uint64_t> g_reorders{0};
std::atomic<std::uint64_t> g_stale{0};

// Epoch the next send on this thread will stamp (armed by the dispatch
// site that knows the channel, consumed by the send).
thread_local std::uint32_t t_send_epoch = 0;

// kCrcTable[i] is the CRC register after shifting the byte i through the
// bitwise loop: eight steps of the reflected polynomial 0xEDB88320.
constexpr std::array<std::uint32_t, 256> kCrcTable = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    table[i] = crc;
  }
  return table;
}();

}  // namespace

void record_event(Event event, int tag) {
  switch (event) {
    case Event::kAck: g_acks.fetch_add(1, std::memory_order_relaxed); break;
    case Event::kRetransmit:
      g_retransmits.fetch_add(1, std::memory_order_relaxed);
      break;
    case Event::kDuplicate:
      g_duplicates.fetch_add(1, std::memory_order_relaxed);
      break;
    case Event::kCorrupt:
      g_corrupt.fetch_add(1, std::memory_order_relaxed);
      break;
    case Event::kReorder:
      g_reorders.fetch_add(1, std::memory_order_relaxed);
      break;
    case Event::kStale:
      g_stale.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (const Observer obs = g_observer.load(std::memory_order_acquire)) {
    obs(event, tag);
  }
}

namespace {

/// Diagnostic name of a link, matching the fault plan's site grammar.
std::string link_name(Rank from, Rank to) {
  return std::to_string(from) + "->" + std::to_string(to);
}

/// A frame parked in the receive window or the sender stash.
struct HeldFrame {
  InboundMessage msg;
  int tag = 0;
  bool duplicate = false;  ///< deliver twice on release (msg_dup rode along)
  std::uint32_t epoch = 0; ///< sender incarnation stamped at frame time
  bool stale = false;      ///< tombstoned by an epoch floor: advance the
                           ///< window on release but never deliver
};

/// Protocol state of one directed link.  The sender's thread is the only
/// writer (deposits, stashes and flushes all run on it), but flush points
/// for *other* links touch the registry too, so everything stays under the
/// registry mutex — the contention is between a handful of rank threads.
struct Link {
  std::uint64_t next_seq = 1;  ///< next sequence the sender will assign
  std::uint64_t expected = 1;  ///< next sequence the receiver will release
  std::map<std::uint64_t, HeldFrame> window;  ///< out-of-order arrivals
  /// The msg_reorder stash: one frame held back by the sender, plus the
  /// queue it must eventually reach.
  MatchQueue* stashed_queue = nullptr;
  std::optional<HeldFrame> stashed;
  std::uint64_t stashed_seq = 0;
};

struct Registry {
  std::mutex mu;
  std::map<std::pair<Rank, Rank>, Link> links;
  /// Per-tag epoch floors (self-healing): frames older than the floor are
  /// tombstoned instead of delivered.  Empty on no-fault runs.
  std::map<int, std::uint32_t> floors;
};

Registry& registry() {
  static Registry* g = new Registry;
  return *g;
}

/// Records the delivery of one frame as an ack on the trace ring.  The
/// event carries the link name and the frame's arrival stamp; the tag in
/// `aux` lets the flush attribute it to a channel.
void record_ack(Rank from, Rank to, const InboundMessage& msg, int tag) {
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kNetAck,
                              link_name(from, to), msg.arrival, msg.arrival,
                              msg.payload.size(), /*channel=*/-1,
                              /*route_type=*/0, tag);
  }
}

/// Records one tombstoned frame (stale-epoch discard) on the trace ring.
void record_stale(Rank from, Rank to, const InboundMessage& msg, int tag) {
  record_event(Event::kStale, tag);
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kEpochFlush,
                              link_name(from, to), msg.arrival, msg.arrival,
                              msg.payload.size(), /*channel=*/-1,
                              /*route_type=*/0, tag);
  }
}

/// Releases one frame (and its duplicate shadow, which the window then
/// suppresses as a duplicate would be in a real NIC: counted, discarded).
/// A tombstone advances the window without delivering — the sequence space
/// must stay gapless or the link would stall forever.  Caller holds the
/// registry mutex.
void release(Link& link, MatchQueue& queue, Rank from, Rank to,
             HeldFrame frame) {
  if (frame.stale) {
    record_stale(from, to, frame.msg, frame.tag);
    ++link.expected;
    return;
  }
  record_ack(from, to, frame.msg, frame.tag);
  record_event(Event::kAck, frame.tag);
  if (frame.duplicate) {
    record_event(Event::kDuplicate, frame.tag);
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(simtime::tracebuf::Kind::kNetDuplicate,
                                link_name(from, to), frame.msg.arrival,
                                frame.msg.arrival, frame.msg.payload.size(),
                                /*channel=*/-1, /*route_type=*/0, frame.tag);
    }
  }
  ++link.expected;
  queue.deposit(std::move(frame.msg));
}

/// Window insert + in-order drain.  Caller holds the registry mutex.
/// Returns true when at least one frame reached the queue.
bool window_deposit_locked(Registry& reg, Link& link, MatchQueue& queue,
                           Rank from, Rank to, InboundMessage msg,
                           std::uint64_t seq, int tag, bool duplicate,
                           std::uint32_t epoch) {
  if (seq < link.expected || link.window.count(seq) != 0) {
    // Already delivered or already buffered: a duplicate on the wire.
    record_event(Event::kDuplicate, tag);
    if (simtime::tracebuf::armed()) {
      simtime::tracebuf::record(simtime::tracebuf::Kind::kNetDuplicate,
                                link_name(from, to), msg.arrival, msg.arrival,
                                msg.payload.size(), /*channel=*/-1,
                                /*route_type=*/0, tag);
    }
    return false;
  }
  bool stale = false;
  if (!reg.floors.empty()) {
    const auto floor_it = reg.floors.find(tag);
    stale = floor_it != reg.floors.end() && epoch < floor_it->second;
  }
  const simtime::SimTime arrival = msg.arrival;
  link.window.emplace(seq,
                      HeldFrame{std::move(msg), tag, duplicate, epoch, stale});
  bool released = false;
  for (auto it = link.window.find(link.expected);
       it != link.window.end() && it->first == link.expected;
       it = link.window.find(link.expected)) {
    HeldFrame frame = std::move(it->second);
    link.window.erase(it);
    release(link, queue, from, to, std::move(frame));
    released = true;
  }
  if (simtime::timeseries::armed()) {
    // Receive-window depth after this deposit settled.  One thread drives
    // a given link (the sender deposits under the registry mutex), so the
    // value pairs deterministically with the frame's arrival stamp.
    simtime::timeseries::record(
        simtime::timeseries::Kind::kNetWindow, /*route_type=*/0,
        /*channel=*/-1, link_name(from, to), arrival,
        static_cast<std::int64_t>(link.window.size()));
  }
  return released;
}

/// Releases the stash of one link.  Caller holds the registry mutex.
void flush_link_locked(Registry& reg, Link& link, Rank from, Rank to) {
  if (!link.stashed) return;
  HeldFrame frame = std::move(*link.stashed);
  MatchQueue* queue = link.stashed_queue;
  const std::uint64_t seq = link.stashed_seq;
  link.stashed.reset();
  link.stashed_queue = nullptr;
  if (simtime::timeseries::armed()) {
    // The stash emptied; stamp with the held frame's arrival (the flush
    // point itself holds no clock, and the arrival is the last virtual
    // time the frame was touched — deterministic either way).
    simtime::timeseries::record(simtime::timeseries::Kind::kNetStash,
                                /*route_type=*/0, /*channel=*/-1,
                                link_name(from, to), frame.msg.arrival, 0);
  }
  window_deposit_locked(reg, link, *queue, from, to, std::move(frame.msg),
                        seq, frame.tag, frame.duplicate, frame.epoch);
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  // CRC-32/ISO-HDLC (the Ethernet/zip polynomial, reflected), one table
  // lookup per byte.
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc = kCrcTable[(crc ^ std::to_integer<std::uint32_t>(b)) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::byte> frame(std::uint64_t seq, std::uint32_t attempt,
                             std::span<const std::byte> payload,
                             std::uint32_t epoch) {
  FrameHeader hdr;
  hdr.magic = kFrameMagic;
  hdr.crc = crc32(payload);
  hdr.seq = seq;
  hdr.attempt = attempt;
  hdr.payload_bytes = static_cast<std::uint32_t>(payload.size());
  hdr.epoch = epoch;
  std::vector<std::byte> wire(sizeof(FrameHeader) + payload.size());
  std::memcpy(wire.data(), &hdr, sizeof hdr);
  if (!payload.empty()) {
    std::memcpy(wire.data() + sizeof hdr, payload.data(), payload.size());
  }
  return wire;
}

std::optional<Unframed> unframe(std::span<const std::byte> wire) {
  if (wire.size() < sizeof(FrameHeader)) return std::nullopt;
  FrameHeader hdr;
  std::memcpy(&hdr, wire.data(), sizeof hdr);
  if (hdr.magic != kFrameMagic) return std::nullopt;
  if (wire.size() != sizeof hdr + hdr.payload_bytes) return std::nullopt;
  Unframed u;
  u.header = hdr;
  u.payload.assign(wire.begin() + sizeof hdr, wire.end());
  u.crc_ok = crc32(u.payload) == hdr.crc;
  return u;
}

void set_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_release);
}

bool enabled() { return g_enabled.load(std::memory_order_acquire); }

void set_backoff(simtime::SimTime base, int max_retries) {
  g_backoff_base.store(base, std::memory_order_relaxed);
  g_max_retries.store(max_retries, std::memory_order_relaxed);
}

simtime::SimTime backoff(int attempt) {
  simtime::SimTime wait = g_backoff_base.load(std::memory_order_relaxed);
  for (int k = 1; k < attempt; ++k) wait *= 2;
  return wait;
}

int max_retries() { return g_max_retries.load(std::memory_order_relaxed); }

void set_observer(Observer observer) {
  g_observer.store(observer, std::memory_order_release);
}

Totals totals() {
  Totals t;
  t.acks = g_acks.load();
  t.retransmits = g_retransmits.load();
  t.duplicates = g_duplicates.load();
  t.corrupt_detected = g_corrupt.load();
  t.reorders = g_reorders.load();
  t.stale = g_stale.load();
  return t;
}

void reset_totals() {
  g_acks.store(0);
  g_retransmits.store(0);
  g_duplicates.store(0);
  g_corrupt.store(0);
  g_reorders.store(0);
  g_stale.store(0);
}

void set_send_epoch(std::uint32_t epoch) { t_send_epoch = epoch; }

std::uint32_t take_send_epoch() {
  const std::uint32_t epoch = t_send_epoch;
  t_send_epoch = 0;
  return epoch;
}

std::size_t set_epoch_floor(int tag, std::uint32_t floor) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  reg.floors[tag] = floor;
  std::size_t dropped = 0;
  for (auto& [key, link] : reg.links) {
    for (auto& [seq, held] : link.window) {
      if (held.tag == tag && held.epoch < floor && !held.stale) {
        held.stale = true;
        ++dropped;
      }
    }
    // A stashed frame is re-evaluated against the floors when it flushes
    // through the window, so counting it here is enough.
    if (link.stashed && link.stashed->tag == tag &&
        link.stashed->epoch < floor && !link.stashed->stale) {
      ++dropped;
    }
  }
  return dropped;
}

std::uint64_t next_seq(Rank from, Rank to) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  return reg.links[{from, to}].next_seq++;
}

bool window_deposit(MatchQueue& queue, Rank from, Rank to, InboundMessage msg,
                    std::uint64_t seq, int tag, std::uint32_t epoch) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  return window_deposit_locked(reg, reg.links[{from, to}], queue, from, to,
                               std::move(msg), seq, tag, /*duplicate=*/false,
                               epoch);
}

void stash(MatchQueue& queue, Rank from, Rank to, InboundMessage msg,
           std::uint64_t seq, int tag, bool duplicate, std::uint32_t epoch) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  Link& link = reg.links[{from, to}];
  flush_link_locked(reg, link, from, to);  // at most one held frame per link
  record_event(Event::kReorder, tag);
  if (simtime::tracebuf::armed()) {
    simtime::tracebuf::record(simtime::tracebuf::Kind::kNetReorder,
                              link_name(from, to), msg.arrival, msg.arrival,
                              msg.payload.size(), /*channel=*/-1,
                              /*route_type=*/0, tag);
  }
  if (simtime::timeseries::armed()) {
    simtime::timeseries::record(simtime::timeseries::Kind::kNetStash,
                                /*route_type=*/0, /*channel=*/-1,
                                link_name(from, to), msg.arrival, 1);
  }
  link.stashed_queue = &queue;
  link.stashed = HeldFrame{std::move(msg), tag, duplicate, epoch};
  link.stashed_seq = seq;
}

void flush_link(Rank from, Rank to) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  const auto it = reg.links.find({from, to});
  if (it != reg.links.end()) flush_link_locked(reg, it->second, from, to);
}

void flush_other_links(Rank from, Rank except_to) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (auto& [key, link] : reg.links) {
    if (key.first != from || key.second == except_to) continue;
    flush_link_locked(reg, link, key.first, key.second);
  }
}

void flush_from(Rank from) {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  for (auto& [key, link] : reg.links) {
    if (key.first != from) continue;
    flush_link_locked(reg, link, key.first, key.second);
  }
}

void reset_links() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  reg.links.clear();
  reg.floors.clear();
}

std::vector<LinkSnapshot> snapshot_links() {
  Registry& reg = registry();
  std::lock_guard lock(reg.mu);
  std::vector<LinkSnapshot> out;
  out.reserve(reg.links.size());
  // std::map iterates in key order, so the snapshot is already canonical.
  for (const auto& [key, link] : reg.links) {
    LinkSnapshot s;
    s.from = key.first;
    s.to = key.second;
    s.next_seq = link.next_seq;
    s.expected = link.expected;
    s.held = link.window.size();
    s.stashed = link.stashed ? 1 : 0;
    out.push_back(s);
  }
  return out;
}

}  // namespace mpisim::reliable
