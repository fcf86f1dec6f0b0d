// Protocol-structure tests: the event trace must show exactly the hops the
// paper's §IV design prescribes for each channel type — no more, no fewer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cellpilot.hpp"
#include "core/protocol.hpp"
#include "core/trace.hpp"

namespace {

namespace tb = simtime::tracebuf;
using Events = std::vector<tb::Event>;

PI_CHANNEL* g_ch = nullptr;
PI_PROCESS* g_remote_spe = nullptr;
int g_tag = 0;      // captured during the run: channels die with the app
int g_channel = -1;

/// Counts trace events of `kind` from entities containing `who`.
std::size_t count_events(const Events& events, tb::Kind kind,
                         const std::string& who) {
  std::size_t n = 0;
  for (const auto& e : events) {
    if (e.kind == kind &&
        std::string(e.entity).find(who) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

/// MPI messages sent by entities containing `who` on MiniMPI tag `tag`.
std::size_t count_sends(const Events& events, const std::string& who,
                        int tag) {
  std::size_t n = 0;
  for (const auto& e : events) {
    if (e.kind == tb::Kind::kMpiSend && e.aux == tag &&
        std::string(e.entity).find(who) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

/// SPE requests of `opcode` that entities containing `who` accepted on
/// channel `channel`.
std::size_t count_requests(const Events& events, const std::string& who,
                           cellpilot::Opcode opcode, int channel) {
  std::size_t n = 0;
  for (const auto& e : events) {
    if (e.kind == tb::Kind::kCopilotRequest && e.channel == channel &&
        e.aux == static_cast<std::int64_t>(opcode) &&
        std::string(e.entity).find(who) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

PI_SPE_PROGRAM(ts_reader) {
  int v = 0;
  PI_Read(g_ch, "%d", &v);
  return 0;
}

TEST(TraceStructure, Type2WriteIsOneLocalMpiMessageAndOneRequest) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));
  cellpilot::trace::ScopedTraceCapture capture;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(ts_reader, PI_MAIN, 0);
    g_ch = PI_CreateChannel(PI_MAIN, spe);
    g_tag = g_ch->tag();
    g_channel = g_ch->id;
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    PI_Write(g_ch, "%d", 7);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  const Events events = capture.drain();
  // Exactly one data message, from the writing rank to the Co-Pilot.
  EXPECT_EQ(count_sends(events, "rank0", g_tag), 1u);
  EXPECT_EQ(count_sends(events, "copilot", g_tag), 0u);
  // Exactly one SPE request serviced (the read).
  EXPECT_EQ(count_requests(events, "copilot", cellpilot::Opcode::kRead,
                           g_channel),
            1u);
  // Nothing is a type-4 local copy.
  EXPECT_EQ(count_events(events, tb::Kind::kCopilotPair, ""), 0u);
}

PI_SPE_PROGRAM(ts_writer) {
  PI_Write(g_ch, "%d", 9);
  return 0;
}

int ts_parent(int /*index*/, void* /*arg*/) {
  PI_RunSPE(g_remote_spe, 0, nullptr);
  return 0;
}

TEST(TraceStructure, Type5CrossesTheNetworkExactlyOnceViaTwoCopilots) {
  cluster::Cluster machine(cluster::ClusterConfig::two_cells());
  cellpilot::trace::ScopedTraceCapture capture;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* parent = PI_CreateProcess(ts_parent, 0, nullptr);
    PI_PROCESS* writer = PI_CreateSPE(ts_writer, PI_MAIN, 0);
    g_remote_spe = PI_CreateSPE(ts_reader, parent, 0);
    g_ch = PI_CreateChannel(writer, g_remote_spe);
    g_tag = g_ch->tag();
    g_channel = g_ch->id;
    PI_StartAll();
    PI_RunSPE(writer, 0, nullptr);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  const Events events = capture.drain();
  // One relay: writer's Co-Pilot (node0) -> reader's Co-Pilot (node1).
  EXPECT_EQ(count_sends(events, "node0.copilot", g_tag), 1u);
  EXPECT_EQ(count_sends(events, "node1.copilot", g_tag), 0u);
  EXPECT_EQ(count_sends(events, "rank", g_tag), 0u);
  // One write request at node0, one read request at node1.
  EXPECT_EQ(count_requests(events, "node0", cellpilot::Opcode::kWrite,
                           g_channel),
            1u);
  EXPECT_EQ(count_requests(events, "node1", cellpilot::Opcode::kRead,
                           g_channel),
            1u);
}

PI_SPE_PROGRAM(ts_pair_writer) {
  PI_Write(g_ch, "%d", 3);
  return 0;
}

TEST(TraceStructure, Type4NeverTouchesMpiDataPaths) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));
  cellpilot::trace::ScopedTraceCapture capture;
  PI_PROCESS* reader_proc = nullptr;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* writer = PI_CreateSPE(ts_pair_writer, PI_MAIN, 0);
    reader_proc = PI_CreateSPE(ts_reader, PI_MAIN, 1);
    g_ch = PI_CreateChannel(writer, reader_proc);
    g_tag = g_ch->tag();
    g_channel = g_ch->id;
    PI_StartAll();
    PI_RunSPE(writer, 0, nullptr);
    PI_RunSPE(reader_proc, 0, nullptr);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  const Events events = capture.drain();
  // No MPI message ever carries the channel's data...
  EXPECT_EQ(count_sends(events, "", g_tag), 0u);
  // ...exactly one local-store to local-store copy does.
  EXPECT_EQ(count_events(events, tb::Kind::kCopilotPair, ""), 1u);
  // Both requests serviced by the single Co-Pilot.
  EXPECT_EQ(count_events(events, tb::Kind::kCopilotRequest, "copilot"), 2u);
}

}  // namespace
