#include "core/faultplan.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "mpisim/reliable.hpp"

namespace cellpilot::faults {

namespace {

// The trampolines installed into the layer-local seams.  cellsim/mpisim
// cannot link against this file's types, so the seams take bare function
// pointers and we forward to the singleton here.
cellsim::inject::Action cell_trampoline(cellsim::inject::Site site,
                                        const char* owner,
                                        simtime::SimTime now) {
  return FaultPlan::global().on_cell_site(site, owner, now);
}

mpisim::inject::Action send_trampoline(mpisim::Rank from, mpisim::Rank to,
                                       int tag, simtime::SimTime now) {
  return FaultPlan::global().on_send(from, to, tag, now);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("fault plan: bad " + what + " value '" +
                                text + "'");
  }
}

simtime::SimTime parse_duration(std::string text) {
  simtime::SimTime (*unit)(double) = nullptr;
  auto ends_with = [&text](const char* suffix, std::size_t n) {
    return text.size() > n && text.compare(text.size() - n, n, suffix) == 0;
  };
  if (ends_with("us", 2)) {
    unit = [](double v) { return simtime::us(v); };
    text.resize(text.size() - 2);
  } else if (ends_with("ms", 2)) {
    unit = [](double v) { return simtime::ms(v); };
    text.resize(text.size() - 2);
  } else if (ends_with("ns", 2)) {
    unit = [](double v) { return simtime::ns(static_cast<std::int64_t>(v)); };
    text.resize(text.size() - 2);
  } else {
    unit = [](double v) { return simtime::us(v); };  // paper's unit
  }
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size() || v < 0) throw std::invalid_argument(text);
    return unit(v);
  } catch (const std::exception&) {
    throw std::invalid_argument("fault plan: bad delay value '" + text + "'");
  }
}

constexpr Kind kAllKinds[] = {
    Kind::kSpeCrash,   Kind::kSpeCrashMid, Kind::kMboxStall,
    Kind::kDmaFault,   Kind::kCopilotDelay, Kind::kSendDelay,
    Kind::kSendDrop,   Kind::kMsgDrop,    Kind::kMsgCorrupt,
    Kind::kMsgDup,     Kind::kMsgReorder, Kind::kCopilotCrash,
    Kind::kBladeKill,
};

Kind parse_kind(const std::string& word) {
  for (const Kind k : kAllKinds) {
    if (word == to_string(k)) return k;
  }
  std::string valid;
  for (const Kind k : kAllKinds) {
    if (!valid.empty()) valid += ", ";
    valid += to_string(k);
  }
  throw std::invalid_argument("fault plan: unknown kind '" + word +
                              "' (valid kinds: " + valid + ")");
}

// Splits "kind@site:op=N,count=C,delay=D" into a Rule.
Rule parse_rule(const std::string& item) {
  Rule rule;
  const std::size_t at = item.find('@');
  if (at == std::string::npos) {
    throw std::invalid_argument("fault plan: rule '" + item +
                                "' is missing '@site'");
  }
  rule.kind = parse_kind(item.substr(0, at));
  std::string rest = item.substr(at + 1);
  const std::size_t colon = rest.find(':');
  rule.site = rest.substr(0, colon);
  if (rule.site.empty()) {
    throw std::invalid_argument("fault plan: rule '" + item +
                                "' has an empty site");
  }
  if (colon == std::string::npos) return rule;
  rest = rest.substr(colon + 1);
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    const std::size_t comma = rest.find(',', pos);
    const std::string field =
        rest.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fault plan: bad rule field '" + field +
                                  "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "op") {
      rule.op = parse_u64(value, "op");
    } else if (key == "count") {
      rule.count = parse_u64(value, "count");
      if (rule.count == 0) {
        throw std::invalid_argument("fault plan: count must be >= 1");
      }
    } else if (key == "delay") {
      rule.delay = parse_duration(value);
    } else {
      throw std::invalid_argument("fault plan: unknown rule field '" + key +
                                  "'");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return rule;
}

}  // namespace

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kSpeCrash:
      return "spe_crash";
    case Kind::kSpeCrashMid:
      return "spe_crash_mid";
    case Kind::kMboxStall:
      return "mbox_stall";
    case Kind::kDmaFault:
      return "dma_fault";
    case Kind::kCopilotDelay:
      return "copilot_delay";
    case Kind::kSendDelay:
      return "send_delay";
    case Kind::kSendDrop:
      return "send_drop";
    case Kind::kMsgDrop:
      return "msg_drop";
    case Kind::kMsgCorrupt:
      return "msg_corrupt";
    case Kind::kMsgDup:
      return "msg_dup";
    case Kind::kMsgReorder:
      return "msg_reorder";
    case Kind::kCopilotCrash:
      return "copilot_crash";
    case Kind::kBladeKill:
      return "blade_kill";
  }
  return "unknown";
}

FaultPlan& FaultPlan::global() {
  static FaultPlan plan;
  return plan;
}

FaultPlan::FaultPlan() {
  const char* env = std::getenv("CELLPILOT_FAULTS");
  env_spec_ = env == nullptr ? "" : env;
  try {
    apply(env_spec_);
  } catch (const std::invalid_argument& e) {
    // A broken environment spec must not crash every binary in the job;
    // report it once and run disarmed.
    std::fprintf(stderr, "CELLPILOT_FAULTS rejected: %s\n", e.what());
    env_spec_.clear();
    apply(env_spec_);
  }
}

void FaultPlan::configure(const std::string& spec) { apply(spec); }

void FaultPlan::reset() { apply(env_spec_); }

void FaultPlan::apply(const std::string& spec) {
  std::vector<Rule> rules;
  std::uint64_t seed = 0x5eed;
  bool armed = false;
  if (spec.empty() || spec == "off" || spec == "0") {
    armed = false;
  } else if (spec == "on" || spec == "1") {
    armed = true;  // machinery live, no rules — the zero-injection mode
  } else {
    armed = true;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
      const std::size_t semi = spec.find(';', pos);
      const std::string item =
          spec.substr(pos, semi == std::string::npos ? semi : semi - pos);
      if (!item.empty()) {
        if (item.rfind("seed=", 0) == 0) {
          seed = parse_u64(item.substr(5), "seed");
        } else {
          rules.push_back(parse_rule(item));
        }
      }
      if (semi == std::string::npos) break;
      pos = semi + 1;
    }
  }

  {
    std::lock_guard lock(mu_);
    rules_ = std::move(rules);
    seed_ = seed;
    counters_.assign(rules_.size(), {});
  }
  armed_.store(armed, std::memory_order_release);
  // Null hooks when disarmed: the clean path is one atomic load + branch.
  cellsim::inject::set_hook(armed ? &cell_trampoline : nullptr);
  mpisim::inject::set_hook(armed ? &send_trampoline : nullptr);
  // The reliable sublayer is live exactly while message-level rules exist:
  // a bare "on" (armed, zero rules) keeps sends on the historical path so
  // its virtual time stays bit-for-bit identical to a disarmed run.
  bool msg_rules = false;
  {
    std::lock_guard lock(mu_);
    for (const Rule& rule : rules_) {
      if (rule.kind == Kind::kMsgDrop || rule.kind == Kind::kMsgCorrupt ||
          rule.kind == Kind::kMsgDup || rule.kind == Kind::kMsgReorder) {
        msg_rules = true;
        break;
      }
    }
  }
  mpisim::reliable::set_enabled(msg_rules);
}

std::uint64_t FaultPlan::seed() const {
  std::lock_guard lock(mu_);
  return seed_;
}

std::vector<Rule> FaultPlan::rules() const {
  std::lock_guard lock(mu_);
  return rules_;
}

std::uint64_t FaultPlan::derived_op(std::size_t rule_index,
                                    const std::string& site) const {
  std::lock_guard lock(mu_);
  return splitmix64(seed_ ^ fnv1a(site) ^ (rule_index + 1)) % 16 + 1;
}

bool FaultPlan::hit(std::size_t rule_index, const Rule& rule,
                    const std::string& site) {
  // Caller holds mu_.  Ordinals are per (rule, site); a site is a single-
  // threaded actor, so the count sequence is deterministic.
  auto& per_site = counters_[rule_index];
  std::uint64_t* n = nullptr;
  for (auto& [name, count] : per_site) {
    if (name == site) {
      n = &count;
      break;
    }
  }
  if (n == nullptr) {
    per_site.emplace_back(site, 0);
    n = &per_site.back().second;
  }
  ++*n;
  std::uint64_t first = rule.op;
  if (first == 0) {
    first = splitmix64(seed_ ^ fnv1a(site) ^ (rule_index + 1)) % 16 + 1;
  }
  return *n >= first && *n < first + rule.count;
}

cellsim::inject::Action FaultPlan::on_cell_site(cellsim::inject::Site site,
                                                const char* owner,
                                                simtime::SimTime) {
  cellsim::inject::Action action;
  std::lock_guard lock(mu_);
  if (rules_.empty()) return action;
  const std::string name(owner);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    const bool relevant =
        (rule.kind == Kind::kMboxStall &&
         (site == cellsim::inject::Site::kMboxWrite ||
          site == cellsim::inject::Site::kMboxRead)) ||
        (rule.kind == Kind::kDmaFault && site == cellsim::inject::Site::kDma);
    if (!relevant) continue;
    if (rule.site != "*" && rule.site != name) continue;
    if (!hit(i, rule, name)) continue;
    if (rule.kind == Kind::kDmaFault) {
      action.fault = true;
    } else {
      action.delay += rule.delay;
    }
  }
  return action;
}

mpisim::inject::Action FaultPlan::on_send(int from, int to, int /*tag*/,
                                          simtime::SimTime) {
  mpisim::inject::Action action;
  std::lock_guard lock(mu_);
  if (rules_.empty()) return action;
  const std::string name = std::to_string(from) + "->" + std::to_string(to);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    switch (rule.kind) {
      case Kind::kSendDelay:
      case Kind::kSendDrop:
      case Kind::kMsgDrop:
      case Kind::kMsgCorrupt:
      case Kind::kMsgDup:
      case Kind::kMsgReorder:
        break;
      default:
        continue;
    }
    if (rule.site != "*" && rule.site != name) continue;
    if (!hit(i, rule, name)) continue;
    switch (rule.kind) {
      case Kind::kSendDrop:
        action.drop = true;
        break;
      case Kind::kMsgDrop:
        action.msg_drop = true;
        break;
      case Kind::kMsgCorrupt:
        action.msg_corrupt = true;
        break;
      case Kind::kMsgDup:
        action.msg_dup = true;
        break;
      case Kind::kMsgReorder:
        action.msg_reorder = true;
        break;
      default:
        action.delay += rule.delay;
        break;
    }
  }
  return action;
}

bool FaultPlan::has_rule(Kind kind) const {
  std::lock_guard lock(mu_);
  return std::any_of(rules_.begin(), rules_.end(),
                     [kind](const Rule& rule) { return rule.kind == kind; });
}

bool FaultPlan::should_crash_spe(const char* owner) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  if (rules_.empty()) return false;
  const std::string name(owner);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    if (rule.kind != Kind::kSpeCrash) continue;
    if (rule.site != "*" && rule.site != name) continue;
    if (hit(i, rule, name)) return true;
  }
  return false;
}

bool FaultPlan::should_crash_spe_mid(const char* owner) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  if (rules_.empty()) return false;
  const std::string name(owner);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    if (rule.kind != Kind::kSpeCrashMid) continue;
    if (rule.site != "*" && rule.site != name) continue;
    if (hit(i, rule, name)) return true;
  }
  return false;
}

bool FaultPlan::should_crash_copilot(const char* owner, int node) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  if (rules_.empty()) return false;
  const std::string name(owner);  // canonical: "nodeN.copilot"
  const std::string alias = "copilot" + std::to_string(node);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    if (rule.kind != Kind::kCopilotCrash) continue;
    if (rule.site != "*" && rule.site != name && rule.site != alias) continue;
    // Ordinals keyed by the canonical name so both site spellings count
    // the same request sequence.
    if (hit(i, rule, name)) return true;
  }
  return false;
}

bool FaultPlan::should_kill_blade(const char* owner, int node) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  if (rules_.empty()) return false;
  const std::string name(owner);  // canonical: the node name, "nodeN"
  const std::string alias = "blade" + std::to_string(node);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    if (rule.kind != Kind::kBladeKill) continue;
    if (rule.site != "*" && rule.site != name && rule.site != alias) continue;
    // Ordinals keyed by the canonical name so both site spellings count
    // the same request sequence.
    if (hit(i, rule, name)) return true;
  }
  return false;
}

simtime::SimTime FaultPlan::copilot_delay(const char* owner) {
  if (!armed()) return 0;
  std::lock_guard lock(mu_);
  if (rules_.empty()) return 0;
  const std::string name(owner);
  simtime::SimTime delay = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const Rule& rule = rules_[i];
    if (rule.kind != Kind::kCopilotDelay) continue;
    if (rule.site != "*" && rule.site != name) continue;
    if (hit(i, rule, name)) delay += rule.delay;
  }
  return delay;
}

}  // namespace cellpilot::faults
