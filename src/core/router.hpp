// router.hpp — the compiled data plane.
//
// The paper's central claim is that one PI_Write/PI_Read call hides five
// distinct data paths (Table I).  Resolving that path — channel-type
// resolution, format parsing, wire-signature computation, Co-Pilot leg
// selection — is pure configuration-time information, yet a naive
// implementation re-derives it on every message.  The router compiles it
// exactly once, at PI_StartAll, into an immutable `Route` per channel:
//
//   * the channel's Table I type and its MiniMPI tag;
//   * the rank-side legs (where a rank-backed writer sends, where a
//     rank-backed reader receives — the Co-Pilot of an SPE endpoint's node
//     stands in for the SPE on MPI legs);
//   * the Co-Pilot's leg plan (relay to a rank, pair two local SPEs for an
//     LS<->LS copy, relay to the peer Co-Pilot, await an MPI frame from a
//     precomputed source);
//   * the writer's architectural byte order (whether payloads leave the
//     writer as big-endian images);
//   * per-endpoint execution state: a cache of parsed format plans with
//     precomputed FNV-1a wire signatures, and staging buffers reused
//     across messages so the steady-state path allocates nothing.
//
// The dispatch sites (pilot/api.cpp, the SPE runtime, and the Co-Pilot
// service loop) *execute* routes instead of re-resolving them.  Route
// compilation advances no virtual clock, so the refactor preserves every
// timing result bit-for-bit — the repo's determinism guarantee makes that
// a mechanically checkable invariant.
//
// Layering note: this header is data-plane vocabulary shared by the Pilot
// API implementation and the CellPilot core; it depends only on the pilot/
// value types (tables, format, wire).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "mpisim/types.hpp"
#include "pilot/format.hpp"
#include "pilot/tables.hpp"
#include "pilot/wire.hpp"

namespace pilot {
class PilotApp;
}  // namespace pilot

namespace cellpilot {

/// The paper's Table I channel taxonomy.
enum class ChannelType {
  kType1 = 1,  ///< PPE/non-Cell  <->  remote PPE/non-Cell  (pure Pilot/MPI)
  kType2 = 2,  ///< PPE           <->  local SPE
  kType3 = 3,  ///< PPE/non-Cell  <->  remote SPE
  kType4 = 4,  ///< SPE           <->  local SPE
  kType5 = 5,  ///< SPE           <->  remote SPE
};

/// Resolves a channel's type from its endpoints' locations and placement.
/// Invoked once per channel, during route compilation — never per message
/// (the counting hook below lets tests verify that).
ChannelType resolve_channel_type(pilot::PilotApp& app, const PI_CHANNEL& ch);

/// Counting hooks: invocations of resolve_channel_type since the last
/// reset.  Tests use them to prove resolution happens once per channel per
/// run, not once per message.
std::uint64_t route_resolve_count();
void reset_route_resolve_count();

/// One cached format plan: a format string parsed once, with the wire
/// signature and payload size precomputed when the format has no '*'
/// (count-as-argument) items.  Star formats resolve their counts per call;
/// everything else about them is still cached.
struct FormatPlan {
  const char* key = nullptr;  ///< pointer identity of the source string
  std::string text;           ///< owned copy (the key may not outlive us)
  pilot::Format parsed;
  bool has_star = false;
  std::uint32_t wire_signature = 0;  ///< valid when !has_star
  std::size_t payload_bytes = 0;     ///< valid when !has_star
};

/// A per-endpoint cache of format plans.  Each cache is touched by exactly
/// one thread (a channel has one writer process and one reader process; a
/// bundle's collective calls come from its common process), so lookups are
/// lock-free.  The fast path is a pointer compare plus a cheap string
/// verification — never a parse.
class FormatCache {
 public:
  /// Returns the cached plan for `fmt`, parsing it on first sight.
  /// References stay valid for the cache's lifetime.
  const FormatPlan& lookup(const char* fmt);

  std::size_t size() const { return plans_.size(); }

 private:
  std::vector<std::unique_ptr<FormatPlan>> plans_;
};

/// What the Co-Pilot does with an SPE *write* request on a channel.
enum class CopilotWriteAction : std::uint8_t {
  kNone,         ///< the channel's writer is not one of this node's SPEs
  kRelayToRank,  ///< types 2/3: frame from LS, MPI-send to the reader rank
  kPairLocal,    ///< type 4: pair with the local reader's request (or park)
  kRelayToPeer,  ///< type 5: frame from LS, MPI-send to the reader Co-Pilot
};

/// What the Co-Pilot does with an SPE *read* request on a channel.
enum class CopilotReadAction : std::uint8_t {
  kNone,       ///< the channel's reader is not one of this node's SPEs
  kPairLocal,  ///< type 4: pair with the local writer's request (or park)
  kAwaitMpi,   ///< types 2/3/5: park until a frame arrives from the source
};

/// Mutable execution state of a channel's writing endpoint.  Single-
/// threaded by construction (one writer process per channel).
struct WriterState {
  FormatCache formats;
  /// Reused message buffer: [WireHeader][payload].  Rank-backed writers
  /// send it whole; SPE writers stage the payload part into local store.
  std::vector<std::byte> staging;
  /// Resolved element counts, parallel to the format's items (reused).
  std::vector<std::uint32_t> counts;
};

/// Mutable execution state of a channel's reading endpoint.
struct ReaderState {
  FormatCache formats;
  pilot::ReadPlan plan;             ///< rebuilt in place per call
  std::vector<std::byte> staging;   ///< SPE-side payload buffer (reused)
};

/// The compiled, immutable plan for one channel (plus per-endpoint mutable
/// execution state).  Built by Router::compile at PI_StartAll.
struct Route {
  int channel = -1;
  ChannelType type = ChannelType::kType1;
  int tag = 0;  ///< MiniMPI tag of the channel's data messages

  bool writer_is_spe = false;
  bool reader_is_spe = false;
  /// Payloads leave the writer in its node's architectural order; readers
  /// convert when this is set ("receiver makes right").
  bool writer_big_endian = false;

  /// Where a rank-backed writer MPI-sends the framed message: the reader's
  /// rank (type 1) or the Co-Pilot rank of the reading SPE's node (2/3).
  mpisim::Rank write_dest = -1;
  /// Where a rank-backed reader receives from: the writer's rank (type 1)
  /// or the Co-Pilot rank of the writing SPE's node (2/3).  Also the
  /// expected source for PI_Select / PI_TrySelect / PI_ChannelHasData and
  /// PI_Gather legs.
  mpisim::Rank read_source = -1;

  /// Co-Pilot leg plan.  The write plan executes at the writing SPE's
  /// node; the read plan at the reading SPE's node.
  CopilotWriteAction copilot_write = CopilotWriteAction::kNone;
  mpisim::Rank copilot_write_dest = -1;
  CopilotReadAction copilot_read = CopilotReadAction::kNone;
  mpisim::Rank copilot_read_source = mpisim::kAnySource;

  WriterState writer;
  ReaderState reader;
};

/// Compiles one channel against the application's tables.  Throws
/// PilotError(kUsage) for an SPE endpoint without node placement.
/// Exposed for tests; production code goes through Router::compile.
Route compile_route(pilot::PilotApp& app, const PI_CHANNEL& ch);

/// Names a channel the way every fault diagnostic does: "channel <name>",
/// plus " (Table I type N)" once its route is compiled, so one line
/// identifies the route that failed.
std::string channel_label(const PI_CHANNEL& ch);

/// The per-application route table.  PI_StartAll compiles every channel
/// (and a format cache per bundle) exactly once; dispatch sites then
/// execute the cached plans for the rest of the run.
class Router {
 public:
  /// Compiles routes for all channels and wires each PI_CHANNEL::route
  /// pointer.  Called once per run (PilotApp guards with call_once).
  void compile(pilot::PilotApp& app);

  bool compiled() const { return compiled_.load(std::memory_order_acquire); }

  /// The compiled route of a channel.  Throws PilotError(kUsage) before
  /// compilation (configuration-phase misuse) and PilotError(kInternal)
  /// for an unknown channel id.
  Route& route(int channel);

  /// The format cache of a bundle's collective calls (common process).
  FormatCache& bundle_formats(int bundle);

 private:
  std::vector<std::unique_ptr<Route>> routes_;
  std::vector<std::unique_ptr<FormatCache>> bundle_formats_;
  std::atomic<bool> compiled_{false};
};

}  // namespace cellpilot
