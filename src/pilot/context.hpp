// context.hpp — per-rank execution context.
//
// Every rank thread of a Pilot application carries one PilotContext bound
// thread-locally while the application runs: which rank it is, which Pilot
// process it embodies, which phase the program is in, and its MiniMPI
// facade.  The PI_* API functions operate on the calling thread's context.
//
// SPE program threads are *not* bound to a PilotContext; they carry a
// smaller SPE-side context owned by the CellPilot layer, and the public API
// functions dispatch on cellsim::spu::bound().
#pragma once

#include <cstdint>

#include "mpisim/mpi.hpp"
#include "pilot/app.hpp"
#include "pilot/errors.hpp"

namespace pilot {

/// Program phase (the paper's two-phase model).
enum class Phase {
  kPreInit,    ///< before PI_Configure
  kConfig,     ///< between PI_Configure and PI_StartAll
  kExecution,  ///< between PI_StartAll and PI_StopMain
  kDone,       ///< after PI_StopMain
};

/// Per-rank state of a running Pilot application.
class PilotContext {
 public:
  PilotContext(PilotApp& app, mpisim::Mpi& mpi)
      : app_(&app), mpi_(&mpi) {}

  PilotApp& app() { return *app_; }
  mpisim::Mpi& mpi() { return *mpi_; }
  mpisim::Rank rank() const { return mpi_->rank(); }

  Phase phase = Phase::kPreInit;
  /// Pilot process id this rank embodies (0 for PI_MAIN); -1 when the rank
  /// has no associated process (surplus rank).
  int my_process = 0;
  /// Per-rank creation counters driving the shared get-or-create tables.
  int process_seq = 0;
  int channel_seq = 0;
  int bundle_seq = 0;
  /// Exit status passed to PI_StopMain.
  int exit_status = 0;

  /// Call-site captured by the PI_* macros for diagnostics.
  const char* call_file = nullptr;
  int call_line = 0;

 private:
  PilotApp* app_;
  mpisim::Mpi* mpi_;
};

/// Binds/unbinds the calling thread's context (runner use).
void bind_context(PilotContext* ctx);

/// The calling thread's context; throws PilotError(kUsage) when absent.
PilotContext& context();

/// True when the calling thread has a bound (rank) context.
bool has_context();

/// Thrown by PI_StartAll on non-main ranks after their process function
/// returns, to unwind out of the user's main; caught by the runner.
/// (The real library calls exit() there.)
struct ProcessExit {
  int status = 0;
};

/// Dispatch record for threads executing *SPE* programs: set thread-locally
/// by the CellPilot runtime so the PI_* API sends SPE-side calls straight
/// to the SPE runtime (core/spe_runtime.hpp).
struct SpeDispatch {
  PilotApp* app = nullptr;
  int process_id = -1;  ///< the SPE process this thread embodies
};

/// Binds/unbinds the SPE dispatch record for the calling thread.
void bind_spe_dispatch(SpeDispatch* d);

/// The calling thread's SPE dispatch record, or null.
SpeDispatch* spe_dispatch();

}  // namespace pilot
