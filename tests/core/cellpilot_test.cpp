// End-to-end tests of CellPilot's SPE machinery: every SPE channel type,
// data integrity, SPE lifecycle (launch / reuse / capacity), misuse
// diagnostics, and the protocol invariants observable in the event trace.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "cellsim/spu.hpp"
#include "core/cellpilot.hpp"
#include "core/protocol.hpp"
#include "core/trace.hpp"
#include "pilot/context.hpp"

namespace {

cluster::Cluster one_cell() {
  return cluster::Cluster([] {
    cluster::ClusterConfig c;
    c.nodes.push_back(cluster::NodeSpec::cell(1));
    return c;
  }());
}

cluster::Cluster two_cells() {
  return cluster::Cluster(cluster::ClusterConfig::two_cells());
}

// Shared app state.
std::atomic<PI_CHANNEL*> g_down{nullptr};  // rank/SPE -> SPE
std::atomic<PI_CHANNEL*> g_up{nullptr};    // SPE -> rank/SPE
std::atomic<PI_PROCESS*> g_remote_spe{nullptr};
std::atomic<long long> g_sum{0};
std::atomic<int> g_runs{0};

// --- Type 2: PPE <-> local SPE ------------------------------------------------

PI_SPE_PROGRAM(t2_doubler) {
  int values[16];
  PI_Read(g_down, "%16d", values);
  for (int& v : values) v *= 2;
  PI_Write(g_up, "%16d", values);
  return 0;
}

TEST(CellPilot, Type2RoundTripDoublesArray) {
  cluster::Cluster machine = one_cell();
  std::array<int, 16> out{};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(t2_doubler, PI_MAIN, 0);
    g_down = PI_CreateChannel(PI_MAIN, spe);
    g_up = PI_CreateChannel(spe, PI_MAIN);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    std::array<int, 16> in;
    std::iota(in.begin(), in.end(), 1);
    PI_Write(g_down, "%16d", in.data());
    PI_Read(g_up, "%16d", out.data());
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 2 * (i + 1));
}

// --- Type 3: non-local rank <-> SPE -------------------------------------------

int t3_parent(int /*index*/, void* /*arg*/) {
  PI_RunSPE(g_remote_spe, 7, nullptr);
  return 0;
}

PI_SPE_PROGRAM(t3_echo) {
  // arg1 arrives from PI_RunSPE.
  double v = 0;
  PI_Read(g_down, "%lf", &v);
  PI_Write(g_up, "%lf", v + arg1);
  return 0;
}

TEST(CellPilot, Type3CrossNodeRoundTripCarriesRunSpeArgument) {
  cluster::Cluster machine = two_cells();
  std::atomic<double> got{0};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* parent = PI_CreateProcess(t3_parent, 0, nullptr);
    g_remote_spe = PI_CreateSPE(t3_echo, parent, 0);
    g_down = PI_CreateChannel(PI_MAIN, g_remote_spe);
    g_up = PI_CreateChannel(g_remote_spe, PI_MAIN);
    PI_StartAll();
    PI_Write(g_down, "%lf", 10.5);
    double v = 0;
    PI_Read(g_up, "%lf", &v);
    got.store(v);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_DOUBLE_EQ(got.load(), 17.5);
}

// --- Type 4: SPE <-> SPE on one node -------------------------------------------

PI_SPE_PROGRAM(t4_producer) {
  long long acc = 0;
  for (int i = 0; i < 10; ++i) {
    PI_Write(g_down, "%d", i);
    int back = 0;
    PI_Read(g_up, "%d", &back);
    acc += back;
  }
  g_sum.store(acc);
  return 0;
}

PI_SPE_PROGRAM(t4_consumer) {
  for (int i = 0; i < 10; ++i) {
    int v = 0;
    PI_Read(g_down, "%d", &v);
    PI_Write(g_up, "%d", v * v);
  }
  return 0;
}

TEST(CellPilot, Type4SpeToSpeConversationStaysOnChip) {
  cluster::Cluster machine = one_cell();
  g_sum.store(0);
  cellpilot::trace::ScopedTraceCapture capture;
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* prod = PI_CreateSPE(t4_producer, PI_MAIN, 0);
    PI_PROCESS* cons = PI_CreateSPE(t4_consumer, PI_MAIN, 1);
    g_down = PI_CreateChannel(prod, cons);
    g_up = PI_CreateChannel(cons, prod);
    PI_StartAll();
    PI_RunSPE(prod, 0, nullptr);
    PI_RunSPE(cons, 0, nullptr);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  long long expect = 0;
  for (int i = 0; i < 10; ++i) expect += i * i;
  EXPECT_EQ(g_sum.load(), expect);
  // Protocol invariant: type-4 data never crosses MPI — every transfer is
  // a Co-Pilot mapped copy.  20 transfers = 20 mapped copies.
  std::size_t pairs = 0;
  for (const auto& e : capture.drain()) {
    if (e.kind == simtime::tracebuf::Kind::kCopilotPair) ++pairs;
  }
  EXPECT_EQ(pairs, 20u);
}

// --- Type 5: SPE <-> SPE across nodes ------------------------------------------

int t5_parent(int /*index*/, void* /*arg*/) {
  PI_RunSPE(g_remote_spe, 0, nullptr);
  return 0;
}

PI_SPE_PROGRAM(t5_sender) {
  std::array<std::uint8_t, 333> data{};
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 3);
  }
  PI_Write(g_down, "%333b", data.data());
  return 0;
}

PI_SPE_PROGRAM(t5_receiver) {
  std::array<std::uint8_t, 333> data{};
  PI_Read(g_down, "%*b", 333, data.data());
  long long acc = 0;
  for (std::uint8_t v : data) acc += v;
  g_sum.store(acc);
  return 0;
}

TEST(CellPilot, Type5CrossNodeSpeToSpePreservesBytes) {
  cluster::Cluster machine = two_cells();
  g_sum.store(-1);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* parent = PI_CreateProcess(t5_parent, 0, nullptr);
    PI_PROCESS* sender = PI_CreateSPE(t5_sender, PI_MAIN, 0);
    g_remote_spe = PI_CreateSPE(t5_receiver, parent, 0);
    g_down = PI_CreateChannel(sender, g_remote_spe);
    PI_StartAll();
    PI_RunSPE(sender, 0, nullptr);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  long long expect = 0;
  for (std::size_t i = 0; i < 333; ++i) {
    expect += static_cast<std::uint8_t>(i * 3);
  }
  EXPECT_EQ(g_sum.load(), expect);
}

// --- SPE lifecycle --------------------------------------------------------------

PI_SPE_PROGRAM(count_run) {
  g_runs.fetch_add(1);
  return 0;
}

TEST(CellPilot, SpeProcessesCanRunRepeatedlyReusingHardware) {
  // The paper: SPEs "may need to be loaded and reloaded with codes".
  // 40 launches on a node with 16 physical SPEs forces reuse.
  cluster::Cluster machine = one_cell();
  g_runs.store(0);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spes[8];
    for (int i = 0; i < 8; ++i) spes[i] = PI_CreateSPE(count_run, PI_MAIN, i);
    PI_StartAll();
    for (int round = 0; round < 40; ++round) {
      PI_RunSPE(spes[round % 8], round, nullptr);
      // Let the whole fleet retire every 8 launches: a process runs again
      // only once its last run is over, and acquire never exhausts the 16
      // physical SPEs.
      if (round % 8 == 7) {
        pilot::context().app().join_spe_threads(0);
      }
    }
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(g_runs.load(), 40);
}

std::array<std::atomic<PI_CHANNEL*>, 3> g_hold;

PI_SPE_PROGRAM(hold_spe) {
  int v = 0;
  PI_Read(g_hold[arg1], "%d", &v);  // parked until released
  return 0;
}

TEST(CellPilot, AllSpesBusyIsACapacityError) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1, /*spes_per_chip=*/1));
  cluster::Cluster machine(std::move(config));  // 2 SPEs on the blade
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spes[3];
    for (int i = 0; i < 3; ++i) {
      spes[i] = PI_CreateSPE(hold_spe, PI_MAIN, i);
      g_hold[i] = PI_CreateChannel(PI_MAIN, spes[i]);
    }
    PI_StartAll();
    PI_RunSPE(spes[0], 0, nullptr);
    PI_RunSPE(spes[1], 1, nullptr);
    PI_RunSPE(spes[2], 2, nullptr);  // third launch: no SPE free
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("busy"), std::string::npos) << r.abort_reason;
}

// --- misuse diagnostics ----------------------------------------------------------

TEST(CellPilot, CreateSpeOnXeonParentIsRejected) {
  // PI_CreateSPE and PI_CreateSPESlot share the parent checks.
  for (const bool slot : {false, true}) {
    cluster::ClusterConfig config;
    config.nodes.push_back(cluster::NodeSpec::cell(1));
    config.nodes.push_back(cluster::NodeSpec::xeon(1));
    cluster::Cluster machine(std::move(config));
    const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
      PI_Configure(&argc, &argv);
      PI_PROCESS* xeon = PI_CreateProcess([](int, void*) { return 0; }, 0,
                                          nullptr);
      if (slot) {
        PI_CreateSPESlot(xeon, 0);
      } else {
        PI_CreateSPE(count_run, xeon, 0);
      }
      PI_StartAll();
      PI_StopMain(0);
      return 0;
    });
    EXPECT_TRUE(r.aborted) << slot;
    EXPECT_NE(r.abort_reason.find("non-Cell"), std::string::npos)
        << r.abort_reason;
  }
}

int foreign_parent(int /*index*/, void* /*arg*/) { return 0; }

TEST(CellPilot, OnlyTheParentMayRunAnSpe) {
  // PI_RunSPE and PI_SpawnSPE share the parent check.
  for (const bool spawn : {false, true}) {
    cluster::Cluster machine = two_cells();
    const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
      PI_Configure(&argc, &argv);
      PI_PROCESS* other = PI_CreateProcess(foreign_parent, 0, nullptr);
      PI_PROCESS* spe = PI_CreateSPE(count_run, other, 0);
      PI_StartAll();
      // We are PI_MAIN, not the parent.
      if (spawn) {
        PI_SpawnSPE(spe, &count_run, 0, nullptr);
      } else {
        PI_RunSPE(spe, 0, nullptr);
      }
      PI_StopMain(0);
      return 0;
    });
    EXPECT_TRUE(r.aborted) << spawn;
    EXPECT_NE(r.abort_reason.find(spawn ? "PI_SpawnSPE" : "PI_RunSPE"),
              std::string::npos)
        << r.abort_reason;
    EXPECT_NE(r.abort_reason.find("parent"), std::string::npos)
        << r.abort_reason;
  }
}

TEST(CellPilot, RunSpeOnRankProcessIsRejected) {
  // PI_RunSPE also rejects a second launch of an SPE process that is still
  // running: both threads would share the process's one route state.
  for (const bool twice : {false, true}) {
    cluster::Cluster machine = two_cells();
    const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
      PI_Configure(&argc, &argv);
      PI_PROCESS* worker = PI_CreateProcess(foreign_parent, 0, nullptr);
      PI_PROCESS* spe = PI_CreateSPE(hold_spe, PI_MAIN, 0);
      g_hold[0] = PI_CreateChannel(PI_MAIN, spe);
      PI_StartAll();
      if (twice) {
        PI_RunSPE(spe, 0, nullptr);
        PI_RunSPE(spe, 0, nullptr);  // the first run is parked in PI_Read
      } else {
        PI_RunSPE(worker, 0, nullptr);
      }
      PI_StopMain(0);
      return 0;
    });
    EXPECT_TRUE(r.aborted) << twice;
    EXPECT_NE(r.abort_reason.find(twice ? "still running"
                                        : "not an SPE process"),
              std::string::npos)
        << r.abort_reason;
  }
}

TEST(CellPilot, SpeAsBundleCommonEndpointIsRejected) {
  // The SPE collectives extension still forbids an SPE process *driving*
  // a collective: its slim runtime has no probe/fan-out machinery.
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(count_run, PI_MAIN, 0);
    PI_CHANNEL* chans[1] = {PI_CreateChannel(PI_MAIN, spe)};
    PI_CreateBundle(PI_GATHER, chans, 1);  // common reader would be the SPE
    PI_StartAll();
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("SPE"), std::string::npos);
}

// --- SPE collectives (extension: the paper's §VI future work) ----------------

// Every rank's configuration phase stores the same channel pointers here,
// concurrently, so the stores are atomic; each rank bundles its own copy.
std::array<std::atomic<PI_CHANNEL*>, 4> g_coll_down;
std::array<std::atomic<PI_CHANNEL*>, 4> g_coll_up;

PI_SPE_PROGRAM(coll_worker) {
  const int id = arg1;
  double seed = 0;
  PI_Read(g_coll_down[id].load(), "%lf", &seed);       // broadcast leg
  const double result = seed * (id + 1);
  PI_Write(g_coll_up[id].load(), "%d %lf", id, result);  // gather leg
  return 0;
}

TEST(CellPilot, BroadcastAndGatherSpanSpeWorkers) {
  cluster::Cluster machine = two_cells();
  std::array<int, 4> ids{};
  std::array<double, 4> results{};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spes[4];
    PI_CHANNEL* down[4];
    PI_CHANNEL* up[4];
    for (int i = 0; i < 4; ++i) {
      spes[i] = PI_CreateSPE(coll_worker, PI_MAIN, i);
      down[i] = PI_CreateChannel(PI_MAIN, spes[i]);
      up[i] = PI_CreateChannel(spes[i], PI_MAIN);
      g_coll_down[i] = down[i];
      g_coll_up[i] = up[i];
    }
    PI_BUNDLE* bcast = PI_CreateBundle(PI_BROADCAST, down, 4);
    PI_BUNDLE* gather = PI_CreateBundle(PI_GATHER, up, 4);
    PI_StartAll();
    for (int i = 0; i < 4; ++i) PI_RunSPE(spes[i], i, nullptr);
    PI_Broadcast(bcast, "%lf", 2.5);
    PI_Gather(gather, "%d %lf", ids.data(), results.data());
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ids[static_cast<std::size_t>(i)], i);
    EXPECT_DOUBLE_EQ(results[static_cast<std::size_t>(i)], 2.5 * (i + 1));
  }
}

PI_SPE_PROGRAM(coll_select_worker) {
  PI_Write(g_coll_up[arg1].load(), "%d", arg1);
  return 0;
}

TEST(CellPilot, SelectFindsReadySpeChannels) {
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spes[3];
    PI_CHANNEL* up[3];
    for (int i = 0; i < 3; ++i) {
      spes[i] = PI_CreateSPE(coll_select_worker, PI_MAIN, i);
      up[i] = PI_CreateChannel(spes[i], PI_MAIN);
      g_coll_up[i] = up[i];
    }
    PI_BUNDLE* ready = PI_CreateBundle(PI_SELECT, up, 3);
    PI_StartAll();
    for (int i = 0; i < 3; ++i) PI_RunSPE(spes[i], i, nullptr);
    int seen_mask = 0;
    for (int n = 0; n < 3; ++n) {
      const int who = PI_Select(ready);
      int v = -1;
      PI_Read(up[who], "%d", &v);
      EXPECT_EQ(v, who);
      seen_mask |= 1 << who;
    }
    EXPECT_EQ(seen_mask, 0b111);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
}

// --- format agreement across the Co-Pilot ------------------------------------

PI_SPE_PROGRAM(bad_reader) {
  unsigned v[4];
  PI_Read(g_down, "%4u", v);  // writer sends %4d
  return 0;
}

TEST(CellPilot, FormatDisagreementThroughCopilotAborts) {
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(bad_reader, PI_MAIN, 0);
    g_down = PI_CreateChannel(PI_MAIN, spe);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    const int data[4] = {1, 2, 3, 4};
    PI_Write(g_down, "%4d", data);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("format"), std::string::npos);
}

// --- local-store budget ---------------------------------------------------------

PI_SPE_PROGRAM(ls_hog) {
  // The CellPilot runtime (10336 B), program text, stack, and a staging
  // buffer must all fit in 256 KB; a 280 KB message cannot be staged.
  std::vector<std::byte> big(280 * 1024);
  PI_Write(g_up, "%*b", static_cast<int>(big.size()), big.data());
  return 0;
}

TEST(CellPilot, MessagesBeyondLocalStoreFault) {
  cluster::Cluster machine = one_cell();
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(ls_hog, PI_MAIN, 0);
    g_up = PI_CreateChannel(spe, PI_MAIN);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    std::vector<std::byte> sink(280 * 1024);
    PI_Read(g_up, "%*b", static_cast<int>(sink.size()), sink.data());
    PI_StopMain(0);
    return 0;
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_NE(r.abort_reason.find("local store"), std::string::npos);
}

PI_SPE_PROGRAM(footprint_probe) {
  // The CellPilot runtime segment must be charged while the program runs.
  const auto& segs = cellsim::spu::self().allocator().segments();
  bool found = false;
  for (const auto& s : segs) {
    if (s.name == "text:cellpilot-runtime") {
      found = s.size == cellpilot::kCellPilotSpuFootprintBytes;
    }
  }
  g_runs.store(found ? 1 : 0);
  return 0;
}

TEST(CellPilot, RuntimeFootprintIsChargedAgainstLocalStore) {
  cluster::Cluster machine = one_cell();
  g_runs.store(-1);
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(footprint_probe, PI_MAIN, 0);
    PI_StartAll();
    PI_RunSPE(spe, 0, nullptr);
    PI_StopMain(0);
    return 0;
  });
  ASSERT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_EQ(g_runs.load(), 1);
}

}  // namespace
