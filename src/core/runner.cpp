// runner.cpp — cellpilot::run, the simulated `mpirun`.
//
// Places the roles onto the world's ranks: user ranks execute the
// application's main (SPMD, as mpirun does), each Cell node's Co-Pilot rank
// runs the Co-Pilot service, and the optional final rank runs Pilot's
// deadlock-detection service.
#include "core/cellpilot.hpp"
#include "core/checkpoint.hpp"

#include "core/copilot.hpp"
#include "core/epoch.hpp"
#include "core/obs.hpp"
#include "mpisim/launcher.hpp"
#include "pilot/context.hpp"
#include "pilot/deadlock.hpp"

namespace cellpilot {

namespace {

/// RAII bind of the rank thread's PilotContext.
class ContextBinding {
 public:
  explicit ContextBinding(pilot::PilotContext& ctx) {
    pilot::bind_context(&ctx);
  }
  ~ContextBinding() { pilot::bind_context(nullptr); }
  ContextBinding(const ContextBinding&) = delete;
  ContextBinding& operator=(const ContextBinding&) = delete;
};

}  // namespace

RunResult run(cluster::Cluster& machine, const MainFunc& user_main,
              RunOptions options) {
  // Construct the observability sessions before any traffic: each arms
  // from its environment variable (CELLPILOT_TRACE, ...) at first touch.
  obs::begin_job();

  pilot::PilotApp app(machine);

  // Channel epochs restart at zero with each job: an epoch is a writer
  // incarnation *within* a job, and a stale floor left over from a previous
  // job's respawns would silently discard the new job's first frames.
  epochs::reset();

  // Checkpoint cut coordination restarts per job: the commit rule ("every
  // Cell node contributed a shard") needs this job's contributor count.
  // The session itself is armed later, by PI_Configure (-pickpt), exactly
  // like the observability sessions; declaring the topology is free.
  {
    int cells = 0;
    for (int n = 0; n < machine.node_count(); ++n) {
      if (machine.is_cell_node(n)) ++cells;
    }
    ckpt::CheckpointSession::global().begin_job(cells);
  }

  const mpisim::LaunchResult launched = mpisim::launch(
      machine.world(), [&](mpisim::Mpi& mpi) -> int {
        const mpisim::Rank r = mpi.rank();

        if (r < machine.user_rank_count()) {
          // A user rank: run the application main with its own mutable
          // argv (PI_Configure strips Pilot options in place).
          std::vector<std::string> arg_store;
          arg_store.push_back(options.program_name);
          for (const std::string& a : options.args) arg_store.push_back(a);
          std::vector<char*> argv;
          argv.reserve(arg_store.size() + 1);
          for (std::string& a : arg_store) argv.push_back(a.data());
          argv.push_back(nullptr);
          int argc = static_cast<int>(arg_store.size());

          pilot::PilotContext ctx(app, mpi);
          ContextBinding binding(ctx);
          try {
            return user_main(argc, argv.data());
          } catch (const pilot::ProcessExit& exit) {
            return exit.status;
          }
        }

        for (int n = 0; n < machine.node_count(); ++n) {
          if (machine.is_cell_node(n) && machine.copilot_rank(n) == r) {
            return copilot_main(mpi, app, n);
          }
        }
        if (machine.service_rank() == r) {
          return pilot::deadlock_service_main(mpi);
        }
        return 0;  // unreachable with a consistent cluster layout
      });

  // All rank threads have finished; stragglers among SPE threads (e.g.
  // after an abort) are joined by the app's destructor, but join here so
  // the result reflects a fully quiesced job.
  app.join_all_spe_threads();

  // Full quiescence: every rank, Co-Pilot, service and SPE thread has been
  // joined, so nothing can still be recording — every armed observability
  // session appends this job and rewrites its file.
  obs::end_job(app);
  ckpt::CheckpointSession::global().end_job();

  RunResult result;
  result.status = launched.exit_codes.empty() ? 0 : launched.exit_codes[0];
  result.aborted = launched.aborted;
  result.abort_reason = launched.abort_reason;
  result.errors = launched.errors;
  return result;
}

}  // namespace cellpilot
