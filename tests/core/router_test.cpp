// Unit tests for the compiled data plane (core/router): route compilation
// for every Table I channel type, configuration-phase misuse, and the
// once-per-channel guarantee for channel-type resolution.
#include "core/router.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "cluster/cluster.hpp"
#include "core/cellpilot.hpp"
#include "pilot/context.hpp"
#include "pilot/errors.hpp"

namespace {

using namespace cellpilot;

PI_SPE_PROGRAM(rt_idle) { return 0; }

PI_SPE_PROGRAM(rt_echo_once) {
  int v = 0;
  PI_CHANNEL* in = static_cast<PI_CHANNEL*>(arg2);
  for (int i = 0; i < arg1; ++i) PI_Read(in, "%d", &v);
  return v;
}

// --- golden routes over the 3-node cell/cell/xeon machine -------------------
//
// The expected legs are docs/PROTOCOL.md's "Channel taxonomy" table made
// concrete: type 1 is a direct rank->rank MPI leg; types 2/3 substitute the
// SPE's Co-Pilot rank on the MPI leg; type 4 pairs two mailbox requests at
// one Co-Pilot (no MPI leg at all); type 5 relays Co-Pilot to Co-Pilot.

TEST(Router, CompilesGoldenRoutesForAllFiveTypes) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  config.nodes.push_back(cluster::NodeSpec::xeon(1));
  cluster::Cluster machine(std::move(config));

  std::atomic<bool> checked{false};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* ppe1 = PI_CreateProcess([](int, void*) { return 0; }, 0,
                                        nullptr);  // node 1 PPE
    PI_PROCESS* xeon = PI_CreateProcess([](int, void*) { return 0; }, 0,
                                        nullptr);  // node 2 Xeon
    PI_PROCESS* spe0 = PI_CreateSPE(rt_idle, PI_MAIN, 0);   // node 0
    PI_PROCESS* spe0b = PI_CreateSPE(rt_idle, PI_MAIN, 1);  // node 0
    PI_PROCESS* spe1 = PI_CreateSPE(rt_idle, ppe1, 0);      // node 1

    PI_CHANNEL* t1 = PI_CreateChannel(PI_MAIN, xeon);   // type 1
    PI_CHANNEL* t2 = PI_CreateChannel(PI_MAIN, spe0);   // type 2
    PI_CHANNEL* t2r = PI_CreateChannel(spe0, PI_MAIN);  // type 2, SPE writes
    PI_CHANNEL* t3 = PI_CreateChannel(xeon, spe0);      // type 3, Xeon writes
    PI_CHANNEL* t4 = PI_CreateChannel(spe0, spe0b);     // type 4
    PI_CHANNEL* t5 = PI_CreateChannel(spe0, spe1);      // type 5

    // (No pre-StartAll null check here: configuration is SPMD, and a
    // faster rank may legitimately have reached PI_StartAll already.)
    PI_StartAll();

    auto& app = pilot::context().app();
    cluster::Cluster& cl = app.cluster();
    const mpisim::Rank main_rank = PI_MAIN->rank;

    for (PI_CHANNEL* ch : {t1, t2, t2r, t3, t4, t5}) {
      EXPECT_NE(ch->route, nullptr) << ch->name;
      if (ch->route == nullptr) {
        PI_StopMain(0);
        return 1;
      }
    }

    // Type 1: direct rank->rank leg, no SPE endpoint, no Co-Pilot.
    {
      const Route& rt = *t1->route;
      EXPECT_EQ(rt.type, ChannelType::kType1);
      EXPECT_EQ(rt.tag, t1->tag());
      EXPECT_FALSE(rt.writer_is_spe);
      EXPECT_FALSE(rt.reader_is_spe);
      EXPECT_EQ(rt.write_dest, xeon->rank);
      EXPECT_EQ(rt.read_source, main_rank);
      EXPECT_EQ(rt.copilot_write, CopilotWriteAction::kNone);
      EXPECT_EQ(rt.copilot_read, CopilotReadAction::kNone);
      EXPECT_TRUE(rt.writer_big_endian) << "PI_MAIN runs on a Cell PPE";
    }
    // Type 2, rank writes: send lands at node 0's Co-Pilot, which holds the
    // frame until the SPE's read request arrives.
    {
      const Route& rt = *t2->route;
      EXPECT_EQ(rt.type, ChannelType::kType2);
      EXPECT_FALSE(rt.writer_is_spe);
      EXPECT_TRUE(rt.reader_is_spe);
      EXPECT_EQ(rt.write_dest, cl.copilot_rank(0));
      EXPECT_EQ(rt.copilot_read, CopilotReadAction::kAwaitMpi);
      EXPECT_EQ(rt.copilot_read_source, main_rank);
    }
    // Type 2, SPE writes: the Co-Pilot relays out of local store straight
    // to the reading rank; the reader receives from the Co-Pilot.
    {
      const Route& rt = *t2r->route;
      EXPECT_EQ(rt.type, ChannelType::kType2);
      EXPECT_TRUE(rt.writer_is_spe);
      EXPECT_EQ(rt.copilot_write, CopilotWriteAction::kRelayToRank);
      EXPECT_EQ(rt.copilot_write_dest, main_rank);
      EXPECT_EQ(rt.read_source, cl.copilot_rank(0));
      EXPECT_TRUE(rt.writer_big_endian) << "the writing SPE is on a Cell";
    }
    // Type 3: as type 2 but across the network; a Xeon writer produces
    // little-endian payloads ("receiver makes right").
    {
      const Route& rt = *t3->route;
      EXPECT_EQ(rt.type, ChannelType::kType3);
      EXPECT_EQ(rt.write_dest, cl.copilot_rank(0));
      EXPECT_EQ(rt.copilot_read, CopilotReadAction::kAwaitMpi);
      EXPECT_EQ(rt.copilot_read_source, xeon->rank);
      EXPECT_FALSE(rt.writer_big_endian) << "the writer runs on x86-64";
    }
    // Type 4: both requests pair at node 0's Co-Pilot; there is no MPI leg,
    // so neither rank-side leg is set.
    {
      const Route& rt = *t4->route;
      EXPECT_EQ(rt.type, ChannelType::kType4);
      EXPECT_EQ(rt.copilot_write, CopilotWriteAction::kPairLocal);
      EXPECT_EQ(rt.copilot_read, CopilotReadAction::kPairLocal);
      EXPECT_EQ(rt.write_dest, -1);
      EXPECT_EQ(rt.read_source, -1);
    }
    // Type 5: writer Co-Pilot -> MPI -> reader Co-Pilot.
    {
      const Route& rt = *t5->route;
      EXPECT_EQ(rt.type, ChannelType::kType5);
      EXPECT_EQ(rt.copilot_write, CopilotWriteAction::kRelayToPeer);
      EXPECT_EQ(rt.copilot_write_dest, cl.copilot_rank(1));
      EXPECT_EQ(rt.copilot_read, CopilotReadAction::kAwaitMpi);
      EXPECT_EQ(rt.copilot_read_source, cl.copilot_rank(0));
    }
    // The router hands back the same objects the channels point at.
    EXPECT_EQ(&app.router().route(t1->id), t1->route);
    EXPECT_EQ(&app.router().route(t5->id), t5->route);

    checked.store(true);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_TRUE(checked.load());
}

// --- error cases ------------------------------------------------------------

TEST(Router, UnplacedSpeEndpointIsAUsageError) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));

  std::atomic<bool> threw{false};
  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(rt_idle, PI_MAIN, 0);
    PI_CHANNEL* ch = PI_CreateChannel(PI_MAIN, spe);
    const int placed = spe->node;
    spe->node = -1;  // simulate a placement bug
    try {
      compile_route(pilot::context().app(), *ch);
    } catch (const pilot::PilotError& e) {
      EXPECT_EQ(e.code(), pilot::ErrorCode::kUsage);
      EXPECT_NE(std::string(e.what()).find("has no node placement"),
                std::string::npos)
          << e.what();
      threw.store(true);
    }
    spe->node = placed;
    PI_StartAll();
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(r.aborted) << r.abort_reason;
  EXPECT_TRUE(threw.load());
}

TEST(Router, RouteAccessBeforeCompileIsConfigPhaseMisuse) {
  Router router;
  EXPECT_FALSE(router.compiled());
  try {
    router.route(0);
    FAIL() << "expected PilotError";
  } catch (const pilot::PilotError& e) {
    EXPECT_EQ(e.code(), pilot::ErrorCode::kUsage);
    EXPECT_NE(std::string(e.what()).find("not compiled"), std::string::npos);
  }
  EXPECT_THROW(router.bundle_formats(0), pilot::PilotError);
}

TEST(Router, UnknownChannelIdIsInternal) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));

  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_StartAll();
    try {
      pilot::context().app().router().route(12345);
      ADD_FAILURE() << "expected PilotError";
    } catch (const pilot::PilotError& e) {
      EXPECT_EQ(e.code(), pilot::ErrorCode::kInternal);
    }
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(r.aborted) << r.abort_reason;
}

// --- once-per-channel, not once-per-message ---------------------------------

TEST(Router, ResolutionAndParsingHappenOncePerChannelPerRun) {
  cluster::ClusterConfig config;
  config.nodes.push_back(cluster::NodeSpec::cell(1));
  cluster::Cluster machine(std::move(config));

  constexpr int kMessages = 16;
  reset_route_resolve_count();
  pilot::reset_format_parse_count();

  const auto r = cellpilot::run(machine, [&](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* spe = PI_CreateSPE(rt_echo_once, PI_MAIN, 0);
    PI_CHANNEL* ch = PI_CreateChannel(PI_MAIN, spe);
    PI_StartAll();
    PI_RunSPE(spe, kMessages, ch);
    for (int i = 0; i < kMessages; ++i) PI_Write(ch, "%d", i);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(r.aborted) << r.abort_reason;

  // One channel in the app: its type is resolved exactly once, at route
  // compilation — not 16 times.
  EXPECT_EQ(route_resolve_count(), 1u);
  // "%d" is parsed once per endpoint cache (writer + reader), regardless of
  // message count.
  EXPECT_EQ(pilot::format_parse_count(), 2u);
}

}  // namespace
