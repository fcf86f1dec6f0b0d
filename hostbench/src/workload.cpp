#include "workload.hpp"

#include <algorithm>
#include <cstring>

namespace hostbench {

void Tally::fail(std::uint64_t count, const std::string& why) {
  failed += count;
  if (problems.size() < 8) problems.push_back(why);
}

void Tally::end_round(double setup_s) {
  const double msgs = static_cast<double>(delivered - mark_delivered_);
  const double active = static_cast<double>(active_ns - mark_active_ns_);
  const double cpu = static_cast<double>(active_cpu_ns - mark_cpu_ns_);
  const std::vector<double> rtt(rtt_us.begin() + static_cast<std::ptrdiff_t>(mark_rtt_),
                                rtt_us.end());
  rounds.push_back({active > 0 ? msgs / (active / 1e9) : 0,
                    msgs > 0 ? cpu / 1e3 / msgs : 0, nearest_rank(rtt, 50),
                    nearest_rank(rtt, 99), setup_s});
  mark_delivered_ = delivered;
  mark_active_ns_ = active_ns;
  mark_cpu_ns_ = active_cpu_ns;
  mark_rtt_ = rtt_us.size();
}

double Tally::median_of(double Round::*field) const {
  std::vector<double> values;
  for (const Round& r : rounds) values.push_back(r.*field);
  return median(std::move(values));
}

void LaunchClock::start_all() {
  const std::int64_t t = host_ns();
  {
    Span span("pilot.startall");
    PI_StartAll();
  }
  // Only PI_MAIN gets here.
  started = host_ns();
  startall_ns = started - t;
  cpu_started = process_cpu_ns();
}

void LaunchClock::stop_main() {
  const std::int64_t t = host_ns();
  {
    Span span("pilot.stopmain");
    PI_StopMain(0);
  }
  stopped = host_ns();
  stopmain_ns = stopped - t;
  cpu_stopped = process_cpu_ns();
}

cellpilot::RunResult launch(
    const cluster::ClusterConfig& config,
    const std::function<int(cluster::Cluster&, int, char**)>& main,
    const cellpilot::RunOptions& options, LaunchClock& clock, Tally& tally) {
  Span span("bench.launch");
  clock.begin = host_ns();
  cluster::Cluster machine(config);
  clock.built = host_ns();
  const cellpilot::RunResult result = cellpilot::run(
      machine,
      [&](int argc, char** argv) { return main(machine, argc, argv); },
      options);
  if (result.aborted || clock.stopped == 0) {
    tally.fail(0, "launch aborted: " + result.abort_reason);
    return result;
  }
  tally.build_ms.push_back(static_cast<double>(clock.built - clock.begin) /
                           1e6);
  tally.startall_ms.push_back(static_cast<double>(clock.startall_ns) / 1e6);
  tally.stopmain_ms.push_back(static_cast<double>(clock.stopmain_ns) / 1e6);
  tally.active_ns += clock.stopped - clock.started;
  tally.active_cpu_ns += clock.cpu_stopped - clock.cpu_started;
  tally.bench_cpu_ns += clock.bench_cpu_ns.load();
  return result;
}

Payload::Payload(std::uint64_t seed, std::size_t bytes) : base_(bytes) {
  std::uint64_t state = seed ^ (0x51ull * bytes);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(base_.data() + i, &word, std::min<std::size_t>(8, bytes - i));
  }
}

void Payload::fill(std::byte* out, std::uint64_t id) const {
  std::memcpy(out, base_.data(), base_.size());
  const std::size_t n = std::min<std::size_t>(8, base_.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] ^= static_cast<std::byte>(id >> (8 * i));
  }
}

bool Payload::check(const std::byte* in, std::uint64_t id) const {
  const std::size_t n = std::min<std::size_t>(8, base_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if ((in[i] ^ base_[i]) != static_cast<std::byte>(id >> (8 * i))) {
      return false;
    }
  }
  return std::memcmp(in + n, base_.data() + n, base_.size() - n) == 0;
}

void add_channel_stats(PI_CHANNEL* const* channels, int count, Tally& tally) {
  for (int i = 0; i < count; ++i) {
    PI_CHANNEL_STATS s{};
    if (PI_GetChannelStats(channels[i], &s) != 0) continue;
    tally.channel_messages += s.messages;
    tally.copilot_hops += s.copilot_hops;
    tally.retransmits += s.retransmits;
    tally.duplicates += s.duplicates;
    tally.corrupt += s.corrupt_detected;
  }
}

void merge_counters(Tally& into, const Tally& from) {
  into.channel_messages += from.channel_messages;
  into.copilot_hops += from.copilot_hops;
  into.retransmits += from.retransmits;
  into.duplicates += from.duplicates;
  into.corrupt += from.corrupt;
  into.service_busy_vns += from.service_busy_vns;
  into.mailbox_depth_max =
      std::max(into.mailbox_depth_max, from.mailbox_depth_max);
  into.match_depth_master.insert(into.match_depth_master.end(),
                                 from.match_depth_master.begin(),
                                 from.match_depth_master.end());
  into.match_depth_copilot.insert(into.match_depth_copilot.end(),
                                  from.match_depth_copilot.begin(),
                                  from.match_depth_copilot.end());
}

}  // namespace hostbench
