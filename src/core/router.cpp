// Route compilation (see router.hpp).  The Pilot API implementation and
// the CellPilot core share this one data plane.
#include "core/router.hpp"

#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "pilot/app.hpp"
#include "pilot/errors.hpp"

namespace cellpilot {

namespace {

std::atomic<std::uint64_t> g_resolve_count{0};

}  // namespace

ChannelType resolve_channel_type(pilot::PilotApp& app, const PI_CHANNEL& ch) {
  g_resolve_count.fetch_add(1, std::memory_order_relaxed);
  const PI_PROCESS& from = app.process(ch.from);
  const PI_PROCESS& to = app.process(ch.to);
  const bool from_spe = from.location == pilot::Location::kSpe;
  const bool to_spe = to.location == pilot::Location::kSpe;

  auto node_of = [&app](const PI_PROCESS& p) {
    return p.location == pilot::Location::kSpe
               ? p.node
               : app.cluster().node_of_rank(p.rank);
  };

  if (!from_spe && !to_spe) return ChannelType::kType1;
  if (from_spe && to_spe) {
    return node_of(from) == node_of(to) ? ChannelType::kType4
                                        : ChannelType::kType5;
  }
  // Exactly one SPE endpoint.
  const PI_PROCESS& rank_side = from_spe ? to : from;
  const PI_PROCESS& spe_side = from_spe ? from : to;
  return node_of(rank_side) == node_of(spe_side) ? ChannelType::kType2
                                                 : ChannelType::kType3;
}

std::uint64_t route_resolve_count() {
  return g_resolve_count.load(std::memory_order_relaxed);
}

void reset_route_resolve_count() {
  g_resolve_count.store(0, std::memory_order_relaxed);
}

const FormatPlan& FormatCache::lookup(const char* fmt) {
  // Text equality, never bare pointer identity: a freed-and-reused buffer
  // can present a new format at an old address.  The key pointer is only a
  // hint that makes the common literal-string case compare fast.
  for (const auto& p : plans_) {
    if (p->text == fmt) {
      p->key = fmt;
      return *p;
    }
  }
  auto plan = std::make_unique<FormatPlan>();
  plan->key = fmt;
  plan->text = fmt;
  plan->parsed = pilot::parse_format(fmt);
  for (const pilot::FormatItem& item : plan->parsed.items) {
    if (item.star) plan->has_star = true;
  }
  if (!plan->has_star) {
    plan->wire_signature = pilot::signature(plan->parsed);
    plan->payload_bytes = plan->parsed.payload_bytes();
  }
  plans_.push_back(std::move(plan));
  return *plans_.back();
}

std::string channel_label(const PI_CHANNEL& ch) {
  std::string label = "channel " + ch.name;
  if (ch.route != nullptr) {
    label += " (Table I type " +
             std::to_string(static_cast<int>(ch.route->type)) + ")";
  }
  return label;
}

Route compile_route(pilot::PilotApp& app, const PI_CHANNEL& ch) {
  cluster::Cluster& cl = app.cluster();
  const PI_PROCESS& from = app.process(ch.from);
  const PI_PROCESS& to = app.process(ch.to);

  auto placed_node = [&](const PI_PROCESS& p) {
    if (p.location == pilot::Location::kSpe) {
      if (p.node < 0) {
        throw pilot::PilotError(
            pilot::ErrorCode::kUsage,
            "SPE process " + p.name + " of channel " + ch.name +
                " has no node placement; cannot compile its route");
      }
      return p.node;
    }
    return cl.node_of_rank(p.rank);
  };
  const int from_node = placed_node(from);
  const int to_node = placed_node(to);

  Route rt;
  rt.channel = ch.id;
  rt.type = resolve_channel_type(app, ch);
  rt.tag = ch.tag();
  rt.writer_is_spe = from.location == pilot::Location::kSpe;
  rt.reader_is_spe = to.location == pilot::Location::kSpe;
  rt.writer_big_endian = cl.byte_order(from_node) == simtime::ByteOrder::kBig;

  if (!rt.writer_is_spe) {
    rt.write_dest = rt.reader_is_spe ? cl.copilot_rank(to_node) : to.rank;
  }
  if (!rt.reader_is_spe) {
    rt.read_source = rt.writer_is_spe ? cl.copilot_rank(from_node) : from.rank;
  }

  if (rt.writer_is_spe) {
    if (!rt.reader_is_spe) {
      rt.copilot_write = CopilotWriteAction::kRelayToRank;
      rt.copilot_write_dest = to.rank;
    } else if (from_node == to_node) {
      rt.copilot_write = CopilotWriteAction::kPairLocal;
    } else {
      rt.copilot_write = CopilotWriteAction::kRelayToPeer;
      rt.copilot_write_dest = cl.copilot_rank(to_node);
    }
  }
  if (rt.reader_is_spe) {
    if (rt.writer_is_spe && from_node == to_node) {
      rt.copilot_read = CopilotReadAction::kPairLocal;
    } else {
      rt.copilot_read = CopilotReadAction::kAwaitMpi;
      rt.copilot_read_source =
          rt.writer_is_spe ? cl.copilot_rank(from_node) : from.rank;
    }
  }
  return rt;
}

void Router::compile(pilot::PilotApp& app) {
  const int channels = app.channel_count();
  // A fresh route table starts a fresh stats epoch: the counters are sized
  // here, before any traffic, so the hot-path increments never lock.  The
  // metrics latency ledger follows the same epoch.
  trace::ChannelCounters::global().reset(
      static_cast<std::size_t>(channels));
  metrics::LatencyLedger::global().reset(
      static_cast<std::size_t>(channels));
  routes_.reserve(static_cast<std::size_t>(channels));
  for (int id = 0; id < channels; ++id) {
    PI_CHANNEL& ch = app.channel(id);
    auto rt = std::make_unique<Route>(compile_route(app, ch));
    ch.route = rt.get();
    routes_.push_back(std::move(rt));
  }
  const int bundles = app.bundle_count();
  bundle_formats_.reserve(static_cast<std::size_t>(bundles));
  for (int i = 0; i < bundles; ++i) {
    bundle_formats_.push_back(std::make_unique<FormatCache>());
  }
  compiled_.store(true, std::memory_order_release);
}

Route& Router::route(int channel) {
  if (!compiled()) {
    throw pilot::PilotError(pilot::ErrorCode::kUsage,
                            "channel routes are not compiled yet (data-plane "
                            "call before PI_StartAll?)");
  }
  if (channel < 0 || channel >= static_cast<int>(routes_.size())) {
    throw pilot::PilotError(
        pilot::ErrorCode::kInternal,
        "channel id " + std::to_string(channel) + " has no compiled route");
  }
  return *routes_[static_cast<std::size_t>(channel)];
}

FormatCache& Router::bundle_formats(int bundle) {
  if (!compiled()) {
    throw pilot::PilotError(pilot::ErrorCode::kUsage,
                            "channel routes are not compiled yet (data-plane "
                            "call before PI_StartAll?)");
  }
  if (bundle < 0 || bundle >= static_cast<int>(bundle_formats_.size())) {
    throw pilot::PilotError(
        pilot::ErrorCode::kInternal,
        "bundle id " + std::to_string(bundle) + " has no format cache");
  }
  return *bundle_formats_[static_cast<std::size_t>(bundle)];
}

}  // namespace cellpilot
