// probes.cpp — single-layer probes for the traced run.  Each one calls one
// substrate's own interface at the shape a workload gives it, so a
// per-layer change shows here before it shows end to end:
//
//   cellsim.mailbox_wake_us      push into a mailbox whose reader is asleep
//                                in pop_blocking, until the reader runs
//                                (every spe_pingpong hop pays it)
//   mpisim.match_ns.d1/.d256     MatchQueue deposit + try_match behind 0 and
//                                255 non-matching messages (mixed_load's
//                                deep Co-Pilot queues)
//   mpisim.reliable.crc_ns_per_kb  reliable::crc32 at 1600 B and 64 KiB
//   router.marshal_ns.N          FormatCache lookup + marshal_append at
//                                1 B, 1600 B and 64 KiB (rank_pingpong)
//   obs.*_record_ns              one record into tracebuf, the metrics
//                                registry and the telemetry registry, armed
//
// Every probe times a fixed batch five times and reports the median.
#include <cstdarg>
#include <thread>

#include "cellsim/mailbox.hpp"
#include "core/router.hpp"
#include "workload.hpp"
#include "mpisim/match_queue.hpp"
#include "mpisim/reliable.hpp"
#include "pilot/wire.hpp"
#include "simtime/metrics.hpp"
#include "simtime/timeseries.hpp"
#include "simtime/tracebuf.hpp"

namespace hostbench {

namespace {

constexpr int kRepeats = 5;

/// Median over kRepeats of the ns per operation of `batch`, which performs
/// `ops` operations.
template <typename F>
double ns_per_op(int ops, F&& batch) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    const std::int64_t t0 = host_ns();
    batch();
    samples.push_back(static_cast<double>(host_ns() - t0) / ops);
  }
  return median(std::move(samples));
}

double mailbox_wake_us() {
  constexpr int kWakes = 2000;
  cellsim::Mailbox inbox(4);
  cellsim::Mailbox ack(1);
  std::vector<double> wake_us(kWakes);
  std::thread reader([&] {
    for (int i = 0; i < kWakes; ++i) {
      const cellsim::MailboxEntry e = inbox.pop_blocking();
      wake_us[static_cast<std::size_t>(i)] =
          static_cast<double>(host_ns() - e.stamp) / 1e3;
      ack.push_blocking(0, 0);
    }
  });
  for (int i = 0; i < kWakes; ++i) {
    while (!inbox.reader_waiting()) std::this_thread::yield();
    // The entry's stamp field carries the host push time.
    inbox.push_blocking(static_cast<std::uint32_t>(i), host_ns());
    ack.pop_blocking();
  }
  reader.join();
  return median(std::move(wake_us));
}

double match_ns(int depth) {
  const int ops = depth > 1 ? 20000 : 200000;
  mpisim::MatchQueue queue;
  for (int i = 1; i < depth; ++i) {
    mpisim::InboundMessage other;
    other.source = 1;
    other.tag = 7;
    queue.deposit(std::move(other));
  }
  return ns_per_op(ops, [&] {
    for (int i = 0; i < ops; ++i) {
      mpisim::InboundMessage m;
      m.source = 0;
      m.tag = 3;
      queue.deposit(std::move(m));
      if (!queue.try_match(0, 3)) std::abort();
    }
  });
}

double crc_ns_per_kb(std::size_t bytes, std::uint64_t seed) {
  const Payload data(seed, bytes);
  std::vector<std::byte> buf(bytes);
  data.fill(buf.data(), 1);
  const int ops = static_cast<int>((64u << 20) / bytes);  // 64 MiB per batch
  volatile std::uint32_t sink = 0;
  const double ns = ns_per_op(ops, [&] {
    for (int i = 0; i < ops; ++i) sink = sink + mpisim::reliable::crc32(buf);
  });
  return ns / (static_cast<double>(bytes) / 1024.0);
}

void marshal_one(cellpilot::FormatCache& cache, std::vector<std::byte>& out,
                 std::vector<std::uint32_t>& counts, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  const cellpilot::FormatPlan& plan = cache.lookup(fmt);
  out.clear();
  pilot::marshal_append(plan.parsed, args, out, counts);
  va_end(args);
}

double marshal_ns(int bytes, std::uint64_t seed) {
  const Payload data(seed, static_cast<std::size_t>(bytes));
  std::vector<std::byte> src(static_cast<std::size_t>(bytes));
  data.fill(src.data(), 1);
  cellpilot::FormatCache cache;
  std::vector<std::byte> out;
  std::vector<std::uint32_t> counts;
  const int ops = bytes >= 65536 ? 5000 : 100000;
  return ns_per_op(ops, [&] {
    for (int i = 0; i < ops; ++i) {
      marshal_one(cache, out, counts, "%*b", bytes, src.data());
    }
  });
}

constexpr int kRecords = 100000;

double tracebuf_record_ns() {
  namespace tb = simtime::tracebuf;
  const std::string entity = "node0.spe0";
  tb::arm();
  const double ns = ns_per_op(kRecords, [&] {
    for (int i = 0; i < kRecords; ++i) {
      tb::record(tb::Kind::kMpiSend, entity, i, i + 10, 64, 3, 1, 7);
    }
  });
  tb::disarm();
  tb::clear();
  return ns;
}

double metrics_record_ns() {
  namespace m = simtime::metrics;
  const std::string entity = "node0.spe0";
  m::arm();
  const double ns = ns_per_op(kRecords, [&] {
    for (int i = 0; i < kRecords; ++i) {
      m::record(m::Kind::kMsgLatency, 1, 3, entity, 1000 + (i & 1023));
    }
  });
  m::disarm();
  m::clear();
  return ns;
}

double timeseries_record_ns() {
  namespace ts = simtime::timeseries;
  const std::string entity = "node0.spe0";
  ts::arm();
  const double ns = ns_per_op(kRecords, [&] {
    for (int i = 0; i < kRecords; ++i) {
      ts::record(ts::Kind::kDelivered, 1, 3, entity, i * 1000, 64);
    }
  });
  ts::disarm();
  ts::clear();
  return ns;
}

}  // namespace

std::vector<ProbeResult> run_probes(std::uint64_t seed) {
  return {
      {"cellsim.mailbox_wake_us", mailbox_wake_us(), "us"},
      {"mpisim.match_ns.d1", match_ns(1), "ns"},
      {"mpisim.match_ns.d256", match_ns(256), "ns"},
      {"mpisim.reliable.crc_ns_per_kb.1600", crc_ns_per_kb(1600, seed),
       "ns/KiB"},
      {"mpisim.reliable.crc_ns_per_kb.65536", crc_ns_per_kb(65536, seed),
       "ns/KiB"},
      {"router.marshal_ns.1", marshal_ns(1, seed), "ns"},
      {"router.marshal_ns.1600", marshal_ns(1600, seed), "ns"},
      {"router.marshal_ns.65536", marshal_ns(65536, seed), "ns"},
      {"obs.tracebuf_record_ns", tracebuf_record_ns(), "ns"},
      {"obs.metrics_record_ns", metrics_record_ns(), "ns"},
      {"obs.timeseries_record_ns", timeseries_record_ns(), "ns"},
  };
}

}  // namespace hostbench
