#include "core/obs.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/flightrec.hpp"
#include "core/metrics.hpp"
#include "core/telemetry.hpp"
#include "core/trace.hpp"

namespace cellpilot::obs {

namespace {

std::atomic<int> g_captures{0};

}  // namespace

/// The spine's view of a session: the operations only obs may drive.
struct Spine {
  /// Every layer, in a fixed order.  The first call constructs (and so
  /// env-arms) any session nobody touched yet.
  static const std::array<Session*, 4>& sessions() {
    static const std::array<Session*, 4> all = {
        &trace::TraceSession::global(),
        &metrics::MetricsSession::global(),
        &telemetry::TelemetrySession::global(),
        &flightrec::FlightRecorder::global(),
    };
    return all;
  }

  static void flush(Session& s, pilot::PilotApp& app) {
    std::lock_guard lock(s.mu_);
    if (!s.armed_) return;
    const std::optional<std::string> text = s.render_job(s.next_job_++, app);
    if (!text) return;
    std::ofstream f(s.path_, std::ios::binary | std::ios::trunc);
    if (f) f << *text;
  }

  static void clear(Session& s) {
    std::lock_guard lock(s.mu_);
    s.clear_engine();
  }

  static void reset(Session& s) {
    std::lock_guard lock(s.mu_);
    if (s.armed_) {
      s.disarm_engine();
      s.armed_ = false;
    }
    s.restart();
    s.next_job_ = 1;
    s.path_.clear();
    s.clear_engine();
    s.load_env();
  }

  static void clear_all() {
    for (Session* s : sessions()) clear(*s);
  }
};

Session::Session(const char* flag, const char* env_var, const char* disarmed)
    : flag_(flag), env_var_(env_var), disarmed_(disarmed) {}

void Session::start() {
  std::lock_guard lock(mu_);
  load_env();
}

void Session::load_env() {
  read_env();
  const char* env = std::getenv(env_var_);
  if (env == nullptr) return;
  if (env[0] != '\0') {
    arm_with(env);
  } else {
    std::fprintf(stderr, "cellpilot: ignoring empty %s (%s)\n", env_var_,
                 disarmed_);
  }
}

void Session::arm_with(const std::string& path) {
  if (!armed_) {
    arm_engine();
    armed_ = true;
  }
  path_ = path;
}

void Session::configure(const std::string& path) {
  std::lock_guard lock(mu_);
  restart();
  next_job_ = 1;
  arm_with(path);
  clear_engine();
}

bool Session::armed() const {
  std::lock_guard lock(mu_);
  return armed_;
}

std::string Session::path() const {
  std::lock_guard lock(mu_);
  return path_;
}

std::optional<std::string> Session::render_job(int /*job*/,
                                               pilot::PilotApp& /*app*/) {
  return std::nullopt;
}

Session* session_for_flag(const char* arg) {
  for (Session* s : Spine::sessions()) {
    if (std::strncmp(arg, s->flag(), std::strlen(s->flag())) == 0) return s;
  }
  return nullptr;
}

void begin_job() { Spine::sessions(); }

void end_job(pilot::PilotApp& app) {
  if (g_captures.load(std::memory_order_relaxed) > 0) return;
  for (Session* s : Spine::sessions()) Spine::flush(*s, app);
  // Whatever is still buffered was recorded for a consumer that does not
  // drain per job — the flight recorder keeps the trace engine armed for
  // its black-box tails, which survive this — so drop it here rather than
  // let the rings grow across a many-job binary.
  Spine::clear_all();
}

void reset_for_tests() {
  for (Session* s : Spine::sessions()) Spine::reset(*s);
}

CaptureScope::CaptureScope(void (*arm)(), void (*disarm)())
    : disarm_(disarm) {
  g_captures.fetch_add(1, std::memory_order_relaxed);
  Spine::clear_all();
  arm();
}

CaptureScope::~CaptureScope() {
  disarm_();
  Spine::clear_all();
  g_captures.fetch_sub(1, std::memory_order_relaxed);
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
}

}  // namespace cellpilot::obs
