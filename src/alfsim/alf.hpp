// alf.hpp — an ALF-shaped data-parallel framework.
//
// IBM's Accelerated Library Framework (ALF) is the second SDK communication
// library the paper examines (§II.B): "a programming environment for data-
// and task-parallel applications", which CellPilot's authors judged "too
// restrictive to be compatible with the Pilot paradigm".  This module
// reproduces ALF's shape against the simulated hardware so that the
// comparison is executable: a host-side Task carries a compute kernel and a
// queue of fixed-size work blocks; the runtime schedules the blocks over a
// set of accelerator (SPE) contexts, moving each block's input into local
// store and its output back out by DMA, with double buffering so transfer
// overlaps compute — the exact pattern ALF automates and the exact
// restriction (no arbitrary process-to-process communication) that
// motivated CellPilot.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cellsim/cell.hpp"
#include "simtime/cost_model.hpp"
#include "simtime/hostwait.hpp"

namespace alf {

/// Compute kernel applied to one work block on an accelerator.  `in`/`out`
/// point into the SPE's local store (as ALF kernels see their buffers).
using ComputeKernel = void (*)(const void* in, std::size_t in_bytes,
                               void* out, std::size_t out_bytes);

/// Static description of a task.
struct TaskDesc {
  ComputeKernel kernel = nullptr;
  std::size_t in_block_bytes = 0;   ///< input bytes per work block
  std::size_t out_block_bytes = 0;  ///< output bytes per work block
  /// Modelled compute time per block on one SPE.
  simtime::SimTime compute_per_block = simtime::us(50);
  /// Accelerators (SPEs) assigned to the task.
  unsigned accelerators = 4;
  /// Local-store bytes charged for the kernel's code.
  std::size_t kernel_text_bytes = 4096;
  /// Double-buffer the input DMA (ALF's default behaviour).  Exposed so
  /// the ablation bench can measure what the overlap buys.
  bool double_buffer = true;
};

/// One data-parallel task: queue work blocks, finalize, wait.
class Task {
 public:
  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// Enqueues one work block (host-memory input/output pointers; must stay
  /// valid until wait() returns).  Invalid after finalize().
  void add_work_block(const void* in, void* out);

  /// Declares the block list complete; accelerators drain and stop.
  void finalize();

  /// Blocks until every work block has been processed (implies finalize()).
  void wait();

  /// Number of blocks processed so far.
  std::uint64_t blocks_processed() const;

  /// Virtual time at which the last block completed (max over SPEs), as an
  /// offset from the task's start.  Valid after wait().
  simtime::SimTime elapsed() const { return elapsed_; }

  /// Per-accelerator block counts (load-balance visibility).  Valid after
  /// wait().
  std::vector<std::uint64_t> per_accelerator_blocks() const;

 private:
  friend class Runtime;
  Task(cellsim::CellBlade& blade, const simtime::CostModel& cost,
       TaskDesc desc, unsigned first_spe);

  struct WorkBlock {
    const void* in;
    void* out;
  };

  void accelerator_main(unsigned spe_index, unsigned lane);
  bool pop_block(WorkBlock* out);

  cellsim::CellBlade* blade_;
  const simtime::CostModel* cost_;
  TaskDesc desc_;

  mutable std::mutex mu_;
  simtime::Park work_;
  std::deque<WorkBlock> queue_;
  bool finalized_ = false;
  std::uint64_t processed_ = 0;
  std::vector<std::uint64_t> per_spe_;
  std::vector<std::thread> workers_;
  bool joined_ = false;
  simtime::SimTime elapsed_ = 0;
};

/// The ALF host runtime bound to one Cell blade.
class Runtime {
 public:
  /// Binds to `blade` (borrowed; must outlive the runtime and its tasks).
  Runtime(cellsim::CellBlade& blade, const simtime::CostModel& cost);

  /// Creates a task running on `desc.accelerators` SPEs starting at SPE
  /// `first_spe`.  Throws std::invalid_argument on a bad description.
  std::unique_ptr<Task> create_task(TaskDesc desc, unsigned first_spe = 0);

 private:
  cellsim::CellBlade* blade_;
  const simtime::CostModel* cost_;
};

}  // namespace alf
