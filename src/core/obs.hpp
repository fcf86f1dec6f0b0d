#pragma once
/// \file
/// The observability session spine: the per-run output policy every
/// observability layer shares, written once.
///
/// Four layers record into simtime engines and leave one file per
/// program: the trace (`-pitrace`, Chrome JSON), metrics (`-pimetrics`),
/// windowed telemetry (`-pitelemetry`) and the flight recorder
/// (`-piflightrec`).  Each is an obs::Session subclass that supplies only
/// what differs — its flag, env var and loud-ignore noun, its engine hooks
/// and its renderer.  The spine owns the rest:
///
///  * the arming decision at first touch: a non-empty env var arms the
///    session, an empty one keeps it disarmed and says so on stderr
///    (matching CELLPILOT_RESPAWN/CELLPILOT_CKPT_EVERY) instead of arming
///    it with an unwritable path;
///  * configure(path), the flag form, which restarts the job list;
///  * end_job: at full quiescence every armed session renders its
///    accumulated jobs and rewrites its whole file, so a multi-job binary
///    always leaves a complete, well-formed file even if a later job
///    aborts; engine contents no session drained are dropped there too;
///  * reset_for_tests;
///  * one capture count: while any CaptureScope is alive every session's
///    flush is suppressed and every engine is cleared at both of its
///    boundaries, so a captured job's data never leaks into a file and
///    the per-job numbering of all files stays aligned (tools/tracestats
///    and tools/pitop join them by job ordinal).

#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace pilot {
class PilotApp;
}

namespace cellpilot::obs {

/// One layer's session.  Singletons: each layer's global() constructs its
/// subclass once and calls start().  Thread-safe; every hook runs under
/// mu_.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Arm with an explicit output path (the layer's flag).  Restarts the
  /// job list: an explicit flag means "record this program", not "append
  /// to whatever came before".
  void configure(const std::string& path);

  bool armed() const;
  std::string path() const;

  /// The layer's command-line prefix, e.g. "-pitrace=".
  const char* flag() const { return flag_; }

 protected:
  /// `disarmed` completes the loud-ignore note for an empty `env_var`,
  /// e.g. "tracing stays disarmed".
  Session(const char* flag, const char* env_var, const char* disarmed);
  virtual ~Session() = default;

  /// Second construction phase, called by the layer's global(): the
  /// arming decision runs the layer's hooks, which a base constructor
  /// cannot dispatch to.
  void start();

  virtual void arm_engine() = 0;
  virtual void disarm_engine() = 0;
  /// Drop the engine's buffered contents (quiescence required).
  virtual void clear_engine() {}
  /// Environment the layer reads before the arming decision.
  virtual void read_env() {}
  /// Forget the accumulated jobs.
  virtual void restart() = 0;
  /// Drain the quiesced engine as job `job` and return the whole file's
  /// new contents; nullopt for a layer without a per-job file.
  virtual std::optional<std::string> render_job(int job,
                                                pilot::PilotApp& app);

  mutable std::mutex mu_;
  bool armed_ = false;
  std::string path_;

 private:
  friend struct Spine;

  void arm_with(const std::string& path);
  void load_env();

  const char* flag_;
  const char* env_var_;
  const char* disarmed_;
  int next_job_ = 1;
};

/// The session whose flag prefixes `arg` (e.g. "-pitrace=out.json"), or
/// nullptr.
Session* session_for_flag(const char* arg);

/// Before any traffic: construct every session so each reads its env var
/// — lazy construction at the flush point would leave the process's first
/// job unrecorded.
void begin_job();

/// At full quiescence (every rank, Co-Pilot, service and SPE thread
/// joined): rewrite every armed session's file with this job appended,
/// then drop whatever no session drained.  A no-op while a capture is
/// alive.
void end_job(pilot::PilotApp& app);

/// Test hook: disarm every session, drop all state and re-read every env
/// var through the same loud-ignore guard first touch uses.
void reset_for_tests();

/// The one capture harness behind ScopedTraceCapture,
/// ScopedMetricsCapture and ScopedTelemetryCapture: arms one engine for
/// its lifetime, suppresses every session's flush, and clears every
/// engine at both boundaries.
class CaptureScope {
 public:
  CaptureScope(const CaptureScope&) = delete;
  CaptureScope& operator=(const CaptureScope&) = delete;

 protected:
  CaptureScope(void (*arm)(), void (*disarm)());
  ~CaptureScope();

 private:
  void (*disarm_)();
};

/// Append `s` as the body of a JSON string: quotes and backslashes
/// escaped, control characters as \u00XX.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace cellpilot::obs
